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
from .circuit import CliffordCircuit, SymplecticMap, as_symplectic
from .code import ConvolutionalCode
from .errors import InputDataError, MapConsistencyError
from .pauli import PauliOperator
from .skeleton import (
    MemoryAssignment,
    TransformationSkeleton,
    build_skeleton,
    partial_rows,
    resolve_assignment,
    skeleton_commutation_matrix,
)
from .synthesis import PartialMap

__all__ = ["Realization", "realize", "synthesize_encoder", "verify_encoder"]

_UNREALIZED = "input circuit does not realize the code: "


@dataclass(frozen=True)
class Realization:
    """Everything produced on the way from a code to its encoder, or from
    an encoder to its online decoder; `skeleton.direction` says which.
    `matrix` is the skeleton's commutation requirement, the Gram rows of
    `skeleton_commutation_matrix`.  `map` is the circuit's map, kept as
    the search completed it, so `dataclasses.replace` must pass both; a
    map whose width differs from the circuit's is refused."""

    code: ConvolutionalCode
    skeleton: TransformationSkeleton
    matrix: Tuple[int, ...]
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


def synthesize_encoder(
    code: ConvolutionalCode,
    *,
    assignment: Optional[MemoryAssignment] = None,
    completion_rows: Optional[Sequence[Tuple[PauliOperator, PauliOperator]]] = None,
    max_candidates: int = MAX_CANDIDATES,
) -> Realization:
    """The minimal-memory non-catastrophic encoder of the code: `realize` on its skeleton."""
    _check_last_frames(code)
    return realize(code, build_skeleton(code), assignment, completion_rows or (), max_candidates)


def realize(
    code: ConvolutionalCode,
    skeleton: TransformationSkeleton,
    assignment: Optional[MemoryAssignment] = None,
    completion_rows: Sequence[Tuple[PauliOperator, PauliOperator]] = (),
    max_candidates: int = MAX_CANDIDATES,
) -> Realization:
    """The non-catastrophic map, encoder or decoder as `skeleton.direction`
    says, whose rows the skeleton fixes.

    An explicit memory assignment (checked against the commutation
    requirement) and extra completion rows of width memory+n may be
    supplied to reproduce a published construction; otherwise the
    canonical assignment is used and unfixed memory directions are
    searched depth-first for a non-catastrophic completion.
    """
    matrix = skeleton_commutation_matrix(skeleton)
    assignment = resolve_assignment(matrix, assignment)
    w = assignment.m + code.n
    for src, dst in completion_rows:
        if src.width != w or dst.width != w:
            raise MapConsistencyError(f"completion rows must have width {w} (memory + frame)")
    partial = PartialMap.from_operators(partial_rows(skeleton, assignment) + list(completion_rows))
    found = complete_noncatastrophic(partial, code.n, code.k, skeleton.direction, max_candidates=max_candidates)
    return Realization(code, skeleton, matrix, assignment, *found)  # the map, its circuit and its verdict


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


def verify_encoder(code: ConvolutionalCode, encoder) -> MemoryAssignment:
    """Check a circuit against the code's required transformation rows.

    Streams each generator's ancilla Z through the circuit from identity
    memory and demands the emitted frames match the generator frame for
    frame, with the memory register back at the identity afterwards.
    Returns the memory assignment the circuit realizes: the intermediate
    memory states in the skeleton's slot order, frame-major, then
    generator.  Raises InputDataError naming the first failing row
    otherwise, and for a circuit narrower than one frame.
    """
    smap = as_symplectic(encoder)
    n, m = code.n, smap.width - code.n
    if m < 0:
        raise InputDataError(f"{_UNREALIZED}circuit width {smap.width} is narrower than one frame of {n}")
    derived = {}
    for a, gen in enumerate(code.generators, 1):
        out, mems = smap.stream(n, [1 << (n + a - 1)], gen.span)
        pad = [0] * (gen.span - len(out))  # the stream ended with the memory at the identity
        for t, (frame, want) in enumerate(zip(out + pad, gen.frames), 1):
            if frame != want.vec():
                raise InputDataError(
                    f"{_UNREALIZED}generator {a}, frame {t}: circuit emits "
                    f"{PauliOperator.from_vec(n, frame).to_string()} but the code requires "
                    f"{want.to_string()}"
                )
        *held, left = mems + pad
        if left:
            raise InputDataError(
                f"{_UNREALIZED}generator {a}: memory left at {PauliOperator.from_vec(m, left).to_string()} "
                f"instead of the identity after frame {gen.span}"
            )
        derived.update(((t, a), PauliOperator.from_vec(m, mem)) for t, mem in enumerate(held, 1))
    return MemoryAssignment(m, tuple(derived[slot] for slot in sorted(derived)))
