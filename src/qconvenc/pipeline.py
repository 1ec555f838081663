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

    The skeleton runs every generator over nu frames, and its row for frame
    nu maps an independent input (a memory operator, or an ancilla Z when
    nu = 1) to that frame with the memory back at the identity.  An
    invertible map needs those frames to be independent, so a generator
    shorter than nu, or a set of last frames with a product equal to the
    identity, leaves no encoder.
    """
    for a, gen in enumerate(code.generators, 1):
        if gen.span < code.nu:
            raise InputDataError(
                f"generator {a} spans {gen.span} frames, fewer than nu = {code.nu}; "
                "the encoder skeleton needs every generator to span nu frames"
            )
    if gf2.rank([gen.frame(code.nu).vec() for gen in code.generators]) < len(code.generators):
        raise InputDataError(
            f"the generators' frames at nu = {code.nu} are linearly dependent, "
            "so no encoder emits them"
        )


def verify_encoder(code: ConvolutionalCode, encoder) -> MemoryAssignment:
    """Check a circuit against the code's required transformation rows.

    Streams each generator through the circuit from identity memory and
    demands the emitted frames match the generator frame for frame, with
    the memory register back at the identity afterwards.  Returns the
    memory assignment the circuit realizes (the intermediate memory
    states, in skeleton slot order); raises MapConsistencyError naming
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
        mem = PauliOperator.identity(m)
        for t in range(1, gen.span + 1):
            if t == 1:
                fed = PauliOperator.single(n, a - 1, "Z")
            else:
                fed = PauliOperator.identity(n)
            out = smap.apply(mem.tensor(fed))
            frame = out.part(0, n)
            mem = out.part(n, n + m)
            if frame != gen.frame(t):
                raise MapConsistencyError(
                    f"generator {a}, frame {t}: circuit emits "
                    f"{frame.to_string()} but the code requires "
                    f"{gen.frame(t).to_string()}"
                )
            if t < gen.span:
                derived[(a, t)] = mem
        if not mem.is_identity():
            raise MapConsistencyError(
                f"generator {a}: memory left at {mem.to_string()} instead of "
                f"the identity after frame {gen.span}"
            )
    skeleton = build_skeleton(code)
    return MemoryAssignment(m, tuple(derived[slot] for slot in skeleton.unknowns()))
