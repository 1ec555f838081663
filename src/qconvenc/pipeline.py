"""End-to-end encoder synthesis: code in, verified streaming circuit out."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from . import gf2
from .catastrophic import (
    MAX_CANDIDATES,
    CatastrophicityVerdict,
    complete_noncatastrophic,
)
from .circuit import CliffordCircuit, SymplecticMap, as_symplectic, circuit_to_symplectic
from .code import ConvolutionalCode
from .errors import InputDataError, MapConsistencyError
from .pauli import PauliOperator
from .skeleton import (
    CommutationRequirement,
    MemoryAssignment,
    TransformationSkeleton,
    assign_memory,
    build_skeleton,
    check_assignment,
    partial_rows,
    skeleton_commutation_matrix,
)
from .synthesis import PartialMap

__all__ = ["EncoderSynthesis", "synthesize_encoder", "verify_encoder"]


@dataclass(frozen=True)
class EncoderSynthesis:
    """Everything produced on the way from a code to its encoder."""

    code: ConvolutionalCode
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


def synthesize_encoder(
    code: ConvolutionalCode,
    *,
    assignment: Optional[MemoryAssignment] = None,
    completion_rows: Optional[Sequence[Tuple[PauliOperator, PauliOperator]]] = None,
    max_candidates: int = MAX_CANDIDATES,
) -> EncoderSynthesis:
    """Synthesize a minimal-memory non-catastrophic encoder for the code.

    An explicit memory assignment (checked against the commutation
    requirement) and extra completion rows of width memory+n may be
    supplied to reproduce a published construction; otherwise the
    canonical assignment is used and unfixed memory directions are
    searched depth-first for a non-catastrophic completion.
    """
    _check_last_frames(code)
    skeleton = build_skeleton(code)
    matrix = skeleton_commutation_matrix(skeleton)
    if assignment is None:
        assignment = assign_memory(matrix)
    else:
        bad = check_assignment(matrix, assignment)
        if bad is not None:
            i, j = bad
            if i == j:
                raise MapConsistencyError("memory assignment operators are dependent")
            raise MapConsistencyError(
                f"memory operators {i + 1} and {j + 1} violate the required product"
            )
    rows = partial_rows(skeleton, assignment)
    if completion_rows:
        w = assignment.m + code.n
        for src, dst in completion_rows:
            if src.width != w or dst.width != w:
                raise MapConsistencyError(
                    f"completion rows must have width {w} (memory + frame)"
                )
        rows = rows + list(completion_rows)
    partial = PartialMap.from_operators(rows)
    circuit, verdict = complete_noncatastrophic(
        partial, skeleton, assignment, max_candidates=max_candidates
    )
    return EncoderSynthesis(code, skeleton, matrix, assignment, circuit, verdict)


def _check_last_frames(code: ConvolutionalCode) -> None:
    """Refuse a code whose skeleton rows no encoder can satisfy.

    Each generator runs over its own span, and the non-final rows emit
    independent memory operators, so the rows' outputs are independent,
    as an invertible map needs, exactly when the generators' last frames are.
    """
    spans = [gen.span for gen in code.generators]
    if gf2.rank([gen.frames[-1].vec() for gen in code.generators]) < len(spans):
        where = (f"frames at nu = {code.nu}" if min(spans) == code.nu else
                 f"last frames (spans {', '.join(map(str, spans))}; nu = {code.nu})")
        raise InputDataError(f"the generators' {where} are linearly dependent, so no encoder emits them")


def verify_encoder(
    code: ConvolutionalCode, encoder, skeleton: Optional[TransformationSkeleton] = None
) -> MemoryAssignment:
    """Check a circuit against the code's required transformation rows.

    Streams each generator through the circuit from identity memory and
    demands the emitted frames match the generator frame for frame, with
    the memory register back at the identity afterwards.  Returns the
    memory assignment the circuit realizes (the intermediate memory
    states, in the slot order of `skeleton`, the code's skeleton, built
    here unless the caller has it); raises MapConsistencyError naming
    the first failing row otherwise.
    """
    smap = as_symplectic(encoder)
    n = code.n
    m = smap.width - n
    if m < 0:
        raise MapConsistencyError(
            f"circuit width {smap.width} is narrower than one frame of {n}"
        )
    derived = {}
    for a, gen in enumerate(code.generators, 1):
        mem = 0
        for t in range(1, gen.span + 1):
            # frame 1 feeds Z on ancilla wire a, later frames the identity
            fed = 1 << (n + a - 1) if t == 1 else 0
            frame, mem = smap.step(n, mem, fed)
            if frame != gen.frame(t).vec():
                raise MapConsistencyError(
                    f"generator {a}, frame {t}: circuit emits "
                    f"{PauliOperator.from_vec(n, frame).to_string()} but the code requires "
                    f"{gen.frame(t).to_string()}"
                )
            if t < gen.span:
                derived[(a, t)] = PauliOperator.from_vec(m, mem)
        if mem:
            raise MapConsistencyError(
                f"generator {a}: memory left at {PauliOperator.from_vec(m, mem).to_string()} "
                f"instead of the identity after frame {gen.span}"
            )
    if skeleton is None:
        skeleton = build_skeleton(code)
    return MemoryAssignment(m, tuple(derived[slot] for slot in skeleton.unknowns()))
