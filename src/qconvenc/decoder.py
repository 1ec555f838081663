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

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .catastrophic import CatastrophicityVerdict, _memory, is_noncatastrophic_decoder
from .circuit import CliffordCircuit, SymplecticMap, as_symplectic
from .code import ConvolutionalCode, FramedPauliSequence
from .errors import OrbitError
from .pauli import PauliOperator
from .pipeline import verify_encoder
from .skeleton import (
    Chain,
    CommutationRequirement,
    MemoryAssignment,
    TransformationSkeleton,
    partial_rows,
    resolve_assignment,
    skeleton_commutation_matrix,
)
from .synthesis import PartialMap, complete_to_symplectic, synthesize_circuit

__all__ = [
    "LogicalOperatorSet",
    "encoded_logical_operators",
    "build_decoder_skeleton",
    "DecoderResult",
    "derive_online_decoder",
    "windowed_roundtrip_failures",
]


@dataclass(frozen=True)
class LogicalOperatorSet:
    """Encoded (X-type, Z-type) framed sequence per info position."""

    n: int
    pairs: Tuple[Tuple[FramedPauliSequence, FramedPauliSequence], ...]

    @property
    def k(self) -> int:
        return len(self.pairs)


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
) -> LogicalOperatorSet:
    """Images of each unencoded info-wire X and Z under the encoder."""
    smap = as_symplectic(c)
    n, k = code.n, code.k
    _memory(smap, n)  # refuses a map narrower than one frame
    pairs = []
    for j in range(k):
        wire = n - k + j  # info block sits after the ancilla block
        ex = _propagate(smap, n, PauliOperator.single(n, wire, "X"))
        ez = _propagate(smap, n, PauliOperator.single(n, wire, "Z"))
        pairs.append((ex, ez))
    return LogicalOperatorSet(n, tuple(pairs))


def build_decoder_skeleton(
    logicals: LogicalOperatorSet, code: ConvolutionalCode
) -> TransformationSkeleton:
    """Decoder row structure: logical chains (X then Z per info position),
    then one chain per stabilizer generator; each chain consumes its framed
    operator and emits the decoded target at the end of its span."""
    n, k = code.n, code.k
    chains: List[Chain] = []

    def target_chain(label: str, seq: FramedPauliSequence, decoded: PauliOperator) -> Chain:
        return Chain(label, seq.frames, (PauliOperator.identity(n),) * (seq.span - 1) + (decoded,))

    for j, (ex, ez) in enumerate(logicals.pairs, 1):
        info_wire = n - k + j - 1
        chains.append(target_chain(f"logical X {j}", ex, PauliOperator.single(n, info_wire, "X")))
        chains.append(target_chain(f"logical Z {j}", ez, PauliOperator.single(n, info_wire, "Z")))
    for a, gen in enumerate(code.generators, 1):
        chains.append(target_chain(f"stabilizer {a}", gen, PauliOperator.single(n, a - 1, "Z")))
    return TransformationSkeleton(n, k, "decoder", tuple(chains))


@dataclass(frozen=True)
class DecoderResult:
    """Everything produced on the way from an encoder to its decoder.  `map`
    is the circuit's map, kept as completed, so `dataclasses.replace` must
    pass both; a map whose width differs from the circuit's is refused."""

    code: ConvolutionalCode
    logicals: LogicalOperatorSet
    skeleton: TransformationSkeleton
    matrix: CommutationRequirement
    assignment: MemoryAssignment
    map: SymplecticMap
    circuit: CliffordCircuit
    verdict: CatastrophicityVerdict

    def __post_init__(self):
        if self.map.width != self.circuit.width:
            raise ValueError(f"map width {self.map.width} differs from circuit width {self.circuit.width}")

    @property
    def memory(self) -> int:
        return self.assignment.m


def derive_online_decoder(
    code: ConvolutionalCode,
    encoder: Union[CliffordCircuit, SymplecticMap],
    *,
    assignment: Optional[MemoryAssignment] = None,
) -> DecoderResult:
    """Minimal-memory streaming decoder matching the encoder, which must
    realize the code (`pipeline.verify_encoder`, otherwise
    `InputDataError`)."""
    emap = as_symplectic(encoder)
    verify_encoder(code, emap)
    logicals = encoded_logical_operators(emap, code)
    skel = build_decoder_skeleton(logicals, code)
    matrix = skeleton_commutation_matrix(skel)
    assignment = resolve_assignment(matrix, assignment)
    rows = partial_rows(skel, assignment)
    smap = complete_to_symplectic(PartialMap.from_operators(rows))
    circuit = synthesize_circuit(smap)
    verdict = is_noncatastrophic_decoder(smap, code.n, code.k)
    return DecoderResult(code, logicals, skel, matrix, assignment, smap, circuit, verdict)


def windowed_roundtrip_failures(
    encoder: Union[CliffordCircuit, SymplecticMap], decoder: DecoderResult, nframes: int
) -> List[str]:
    """Check encode-then-decode over a finite window, for the code the
    decoder was derived for (`decoder.code`); empty list = pass.

    Each unencoded generator fed in at frame t must come back out as the
    decoded target at frame t + span - 1 (the decoder emits at the end of
    the operator's span), if that frame is in the window: exact match on
    the info coordinates, anything Z-only tolerated on the syndrome
    coordinates, and both memory registers back at the identity by the
    window's end.  Both maps keep identity memory until the probe enters,
    so a launch at frame t sees the launch at frame 1 cut to the window's
    last N - t + 1 frames: each probe is streamed once, through the
    encoder and then the decoder, one frame at a time as on the wire.
    """
    n, k = decoder.code.n, decoder.code.k
    emap, dmap = as_symplectic(encoder), decoder.map

    # (label, unencoded probe, span); each probe must come back decoded as itself
    cases: List[Tuple[str, PauliOperator, int]] = []
    for a, gen in enumerate(decoder.code.generators, 1):
        cases.append((f"ancilla Z {a}", PauliOperator.single(n, a - 1, "Z"), gen.span))
    for j, (ex, ez) in enumerate(decoder.logicals.pairs, 1):
        wire = n - k + j - 1
        cases.append((f"logical X {j}", PauliOperator.single(n, wire, "X"), ex.span))
        cases.append((f"logical Z {j}", PauliOperator.single(n, wire, "Z"), ez.span))

    def first_fault(label: str, src: PauliOperator, span: int, out: List[int]) -> Tuple[int, str]:
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
            if s == span - 1 and src.part(0, n - k) != synd and label.startswith("ancilla"):
                # the decoded ancilla Z must actually appear
                wanted = src.part(0, n - k).to_string()
                return s, f"syndrome at frame {{}} is {synd.to_string()}, wanted {wanted}"
        return nframes, ""

    probes = []
    for label, src, span in cases:
        sent, mem_e = emap.stream(n, [src.vec()], nframes)
        out, mem_d = dmap.stream(n, sent, nframes)
        # whether a memory is not the identity after w = 1, 2, ... frames; past both streams neither is
        unrestored = [bool(e or d) for e, d in zip(mem_e + [0] * (len(mem_d) - len(mem_e)), mem_d)]
        probes.append((label, span, unrestored, first_fault(label, src, span, out)))

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
