"""Online decoder derivation from a concrete encoder.

The encoder must realize the code (`pipeline.verify_encoder`).  The
decoder is pinned down the same way the encoder was: by per-frame
transformation rows.  Its rows say "when the received stream carries an
encoded logical, emit the bare logical on the info wire at the end of its
span; when it carries a stabilizer generator, emit Z on the matching
syndrome wire" — with unknown memory operators at the frame boundaries.
The encoded logicals themselves are the frames the encoder streams out
for the unencoded single-qubit operators until its memory register is
the identity again.  The round trip streams each probe through the
encoder and then the decoder once, whatever the window.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from .catastrophic import _memory
from .circuit import CliffordCircuit, SymplecticMap, as_symplectic
from .code import ConvolutionalCode, FramedPauliSequence
from .errors import OrbitError
from .pauli import PauliOperator
from .pipeline import Realization, realize, verify_encoder
from .skeleton import Chain, MemoryAssignment, TransformationSkeleton

__all__ = [
    "encoded_logical_operators",
    "build_decoder_skeleton",
    "derive_online_decoder",
    "windowed_roundtrip_failures",
]

# the encoded (X-type, Z-type) framed sequences of one info position
LogicalPair = Tuple[FramedPauliSequence, FramedPauliSequence]


def _propagate(smap: SymplecticMap, n: int, first_input: PauliOperator) -> FramedPauliSequence:
    """Frames emitted until the memory register returns to the identity."""
    m = smap.width - n
    # the zero-input step T is linear on GF(2)^2m and ker T^j stops growing by j = 2m: 2m steps decide
    frames, mems = smap.stream(n, [first_input.vec()], 2 * m + 1)
    if mems[-1]:
        raise OrbitError(
            f"memory orbit of {first_input.to_string()} never closes; "
            f"stuck at {PauliOperator.from_vec(m, mems[-1]).to_string()}"
        )
    return FramedPauliSequence(n, tuple(PauliOperator.from_vec(n, f) for f in frames))


def encoded_logical_operators(
    c: Union[CliffordCircuit, SymplecticMap], code: ConvolutionalCode
) -> Tuple[LogicalPair, ...]:
    """Images of each unencoded info-wire X and Z under the encoder, one
    pair per info position."""
    smap = as_symplectic(c)
    n, k = code.n, code.k
    _memory(smap, n)  # refuses a map narrower than one frame
    # the info block sits after the ancilla block
    return tuple(
        tuple(_propagate(smap, n, PauliOperator.single(n, wire, kind)) for kind in "XZ")
        for wire in range(n - k, n)
    )


def build_decoder_skeleton(
    logicals: Sequence[LogicalPair], code: ConvolutionalCode
) -> TransformationSkeleton:
    """Decoder row structure: logical chains (X then Z per info position),
    then one chain per stabilizer generator; each chain consumes its framed
    operator and emits the decoded target at the end of its span."""
    n, k = code.n, code.k
    chains: List[Chain] = []

    def target_chain(label: str, seq: FramedPauliSequence, decoded: PauliOperator) -> Chain:
        return Chain(label, seq.frames, (PauliOperator.identity(n),) * (seq.span - 1) + (decoded,))

    for j, pair in enumerate(logicals, 1):
        for kind, seq in zip("XZ", pair):
            chains.append(target_chain(f"logical {kind} {j}", seq, PauliOperator.single(n, n - k + j - 1, kind)))
    for a, gen in enumerate(code.generators, 1):
        chains.append(target_chain(f"stabilizer {a}", gen, PauliOperator.single(n, a - 1, "Z")))
    return TransformationSkeleton(n, k, "decoder", tuple(chains))


def derive_online_decoder(
    code: ConvolutionalCode,
    encoder: Union[CliffordCircuit, SymplecticMap],
    *,
    assignment: Optional[MemoryAssignment] = None,
) -> Realization:
    """Minimal-memory non-catastrophic streaming decoder matching the
    encoder, which must realize the code (`pipeline.verify_encoder`,
    otherwise `InputDataError`): `pipeline.realize` on the decoder skeleton."""
    emap = as_symplectic(encoder)
    verify_encoder(code, emap)
    return realize(code, build_decoder_skeleton(encoded_logical_operators(emap, code), code), assignment)


def windowed_roundtrip_failures(
    encoder: Union[CliffordCircuit, SymplecticMap], decoder: Realization, nframes: int
) -> List[str]:
    """Check encode-then-decode over a finite window, for the code the
    decoder was derived for (`decoder.code`); empty list = pass.

    The probes and spans are the decoder skeleton's chains: each chain's
    decoded target, fed unencoded in at frame t, must come back out as
    itself at frame t + span - 1 (the decoder emits at the end of the
    chain's span), if that frame is in the window: exact match on
    the info coordinates, anything Z-only tolerated on the syndrome
    coordinates, and both memory registers back at the identity by the
    window's end.  Both maps keep identity memory until the probe enters,
    so a launch at frame t sees the launch at frame 1 cut to the window's
    last N - t + 1 frames: each probe is streamed once, through the
    encoder and then the decoder, one frame at a time as on the wire.
    """
    n, k = decoder.code.n, decoder.code.k
    emap, dmap = as_symplectic(encoder), decoder.map

    # (label, unencoded probe, span, whether the decoded syndrome must equal
    # the probe's): each decoder chain's probe is its decoded target, its
    # last output; the first 2k chains decode the logicals, X then Z per
    # info wire, and the rest the stabilizers, whose cases come first
    chains = decoder.skeleton.chains
    cases = [(f"ancilla Z {a}", c.outputs[-1], c.span, True) for a, c in enumerate(chains[2 * k:], 1)]
    cases += [(f"logical {'XZ'[i % 2]} {i // 2 + 1}", c.outputs[-1], c.span, False)
              for i, c in enumerate(chains[:2 * k])]

    def first_fault(src: PauliOperator, span: int, exact_syndrome: bool, out: List[int]) -> Tuple[int, str]:
        """The first frame (0-based) of the decoded stream `out` of src
        launched at frame 1 that breaks the contract, and its fault with {}
        for the frame number; nframes and "" if none does."""
        for s, vec in enumerate(out + [0] * (span - len(out))):
            fp = PauliOperator.from_vec(n, vec)
            info, synd = fp.part(n - k, n), fp.part(0, n - k)
            want = src.part(n - k, n) if s == span - 1 else PauliOperator.identity(k)
            if info != want:
                return s, f"info at frame {{}} is {info.to_string()}, wanted {want.to_string()}"
            if synd.x:
                return s, "X content on syndrome wires at frame {}"
            if exact_syndrome and s == span - 1 and src.part(0, n - k) != synd:
                wanted = src.part(0, n - k).to_string()
                return s, f"syndrome at frame {{}} is {synd.to_string()}, wanted {wanted}"
        return nframes, ""

    probes = []
    for label, src, span, exact_syndrome in cases:
        sent, mem_e = emap.stream(n, [src.vec()], nframes)
        out, mem_d = dmap.stream(n, sent, nframes)
        # whether a memory is not the identity after w = 1, 2, ... frames; past both streams neither is
        unrestored = [bool(e or d) for e, d in zip(mem_e + [0] * (len(mem_d) - len(mem_e)), mem_d)]
        probes.append((label, span, unrestored, first_fault(src, span, exact_syndrome, out)))

    failures: List[str] = []
    for t in range(nframes):
        w = nframes - t  # the window's frames from the launch on
        for label, span, unrestored, (s, fault) in probes:
            if span > w:
                continue
            if w <= len(unrestored) and unrestored[w - 1]:
                failures.append(f"{label} frame {t + 1}: memory not restored")
            elif s < w:
                failures.append(f"{label} frame {t + 1}: " + fault.format(s + t + 1))
    return failures
