"""Online decoder derivation from a concrete encoder.

The decoder is pinned down the same way the encoder was: by per-frame
transformation rows.  Its rows say "when the received stream carries an
encoded logical, emit the bare logical on the info wire at the end of its
span; when it carries a stabilizer generator, emit Z on the matching
syndrome wire" — with unknown memory operators at the frame boundaries.
The encoded logicals themselves are obtained by pushing the unencoded
single-qubit operators through the encoder and letting its memory register
relax back to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .catastrophic import CatastrophicityVerdict, is_noncatastrophic_decoder
from .circuit import CliffordCircuit, SymplecticMap, as_symplectic, circuit_to_symplectic
from .code import ConvolutionalCode, FramedPauliSequence
from .errors import OrbitError
from .pauli import PauliOperator
from .skeleton import (
    Chain,
    CommutationRequirement,
    MemoryAssignment,
    TransformationSkeleton,
    partial_rows,
    resolve_assignment,
    skeleton_commutation_matrix,
)
from .synthesis import PartialMap, complete_and_synthesize

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


def _propagate(smap: SymplecticMap, m: int, n: int, first_input: PauliOperator) -> FramedPauliSequence:
    """Frames emitted until the memory register returns to the identity."""
    frames, mem = [], 0
    # the zero-input step T is linear on GF(2)^2m and ker T^j stops growing by j = 2m: 2m steps decide
    for fed in [first_input.vec()] + [0] * (2 * m):
        frame, mem = smap.step(n, mem, fed)
        frames.append(frame)
        if not mem:
            return FramedPauliSequence(n, tuple(PauliOperator.from_vec(n, f) for f in frames))
    raise OrbitError(
        f"memory orbit of {first_input.to_string()} never closes; "
        f"stuck at {PauliOperator.from_vec(m, mem).to_string()}"
    )


def encoded_logical_operators(
    c: Union[CliffordCircuit, SymplecticMap], code: ConvolutionalCode
) -> LogicalOperatorSet:
    """Images of each unencoded info-wire X and Z under the encoder."""
    smap = as_symplectic(c)
    n, k = code.n, code.k
    m = smap.width - n
    if m < 0:
        raise ValueError("circuit narrower than one frame")
    pairs = []
    for j in range(k):
        wire = n - k + j  # info block sits after the ancilla block
        ex = _propagate(smap, m, n, PauliOperator.single(n, wire, "X"))
        ez = _propagate(smap, m, n, PauliOperator.single(n, wire, "Z"))
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
    code: ConvolutionalCode
    logicals: LogicalOperatorSet
    skeleton: TransformationSkeleton
    matrix: CommutationRequirement
    assignment: MemoryAssignment
    circuit: CliffordCircuit
    verdict: CatastrophicityVerdict

    @property
    def memory(self) -> int:
        return self.assignment.m

    @property
    def map(self) -> SymplecticMap:
        return circuit_to_symplectic(self.circuit)


def derive_online_decoder(
    code: ConvolutionalCode,
    encoder: Union[CliffordCircuit, SymplecticMap],
    *,
    assignment: Optional[MemoryAssignment] = None,
) -> DecoderResult:
    """Minimal-memory streaming decoder matching the encoder."""
    logicals = encoded_logical_operators(encoder, code)
    skel = build_decoder_skeleton(logicals, code)
    matrix = skeleton_commutation_matrix(skel)
    assignment = resolve_assignment(matrix, assignment)
    rows = partial_rows(skel, assignment)
    smap, circuit = complete_and_synthesize(PartialMap.from_operators(rows))
    verdict = is_noncatastrophic_decoder(smap, code.n, code.k, assignment.m)
    return DecoderResult(code, logicals, skel, matrix, assignment, circuit, verdict)


def windowed_roundtrip_failures(
    code: ConvolutionalCode,
    encoder: Union[CliffordCircuit, SymplecticMap],
    decoder: DecoderResult,
    nframes: int,
) -> List[str]:
    """Check encode-then-decode over a finite window; empty list = pass.

    Each unencoded generator fed in at frame t must come back out as the
    decoded target at frame t + span - 1 (the decoder emits at the end of
    the operator's span): exact match on the info coordinates, anything
    Z-only tolerated on the syndrome coordinates, and both memory
    registers back at the identity.  Every probe is streamed through the
    encoder and then the decoder one frame at a time, as on the wire.
    """
    n, k = code.n, code.k
    emap = as_symplectic(encoder)
    dmap = decoder.map

    # (label, unencoded probe, span); each probe must come back decoded as itself
    cases: List[Tuple[str, PauliOperator, int]] = []
    for a, gen in enumerate(code.generators, 1):
        cases.append((f"ancilla Z {a}", PauliOperator.single(n, a - 1, "Z"), gen.span))
    for j, (ex, ez) in enumerate(decoder.logicals.pairs, 1):
        wire = n - k + j - 1
        cases.append((f"logical X {j}", PauliOperator.single(n, wire, "X"), ex.span))
        cases.append((f"logical Z {j}", PauliOperator.single(n, wire, "Z"), ez.span))

    def stream(src: PauliOperator, t: int) -> Tuple[List[PauliOperator], bool]:
        """Decoded frames of src fed at frame t, and whether both memories
        end the window at the identity."""
        mem_e = mem_d = 0
        frames: List[PauliOperator] = []
        for s in range(nframes):
            sent, mem_e = emap.step(n, mem_e, src.vec() if s == t else 0)
            out, mem_d = dmap.step(n, mem_d, sent)
            frames.append(PauliOperator.from_vec(n, out))
        return frames, not (mem_e or mem_d)

    failures: List[str] = []
    for t in range(nframes):
        for label, src, span in cases:
            t_out = t + span - 1
            if t_out >= nframes:
                continue
            frames, restored = stream(src, t)
            if not restored:
                failures.append(f"{label} frame {t + 1}: memory not restored")
                continue
            for s, fp in enumerate(frames):
                info = fp.part(n - k, n)
                synd = fp.part(0, n - k)
                want = src.part(n - k, n) if s == t_out else PauliOperator.identity(k)
                if info != want:
                    failures.append(
                        f"{label} frame {t + 1}: info at frame {s + 1} is "
                        f"{info.to_string()}, wanted {want.to_string()}"
                    )
                    break
                if synd.x:
                    failures.append(
                        f"{label} frame {t + 1}: X content on syndrome wires at frame {s + 1}"
                    )
                    break
                if s == t_out and src.part(0, n - k) != synd and label.startswith("ancilla"):
                    # the decoded ancilla Z must actually appear
                    failures.append(
                        f"{label} frame {t + 1}: syndrome at frame {s + 1} is "
                        f"{synd.to_string()}, wanted {src.part(0, n - k).to_string()}"
                    )
                    break
    return failures
