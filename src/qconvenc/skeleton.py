"""Encoder skeletons, memory commutation requirements and assignments.

An encoder for a code is pinned down, up to the choice of memory
operators, by one row per (generator, frame of its span): frame 1
consumes Z on the generator's ancilla wire, later frames consume identity,
every frame emits that generator's frame on the physical wires, and
unknown memory operators g_{a,t} sit at the frame boundaries (identity
before the first and after the last frame).

Because conjugation preserves symplectic products, the unknowns' pairwise
products are forced.  Telescoping the per-row relation down to the
identity boundary gives

    sp(g_{a,s}, g_{b,t}) =
        sum_{r=0..min(s,t)-1} sp(IN_a[s-r], IN_b[t-r]) + sp(OUT_a[s-r], OUT_b[t-r])

the symplectic product of the two slots' histories, their chains'
(input, output) frames packed newest first.  Reaching the opposite
boundary (one index at the full span) must give zero, which is checked
explicitly; a nonzero value there means no encoder with this row
structure exists.  Decoder skeletons differ only in their frames.

The same argument read the other way: the memory operators that a
verified encoder realizes (`pipeline.verify_encoder`) have exactly these
products, so their symplectic Gram matrix is the requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import gf2
from .circuit import gram
from .code import ConvolutionalCode
from .errors import InputDataError, MapConsistencyError, SkeletonInconsistencyError
from .pauli import PauliOperator

__all__ = [
    "Chain",
    "TransformationSkeleton",
    "build_skeleton",
    "skeleton_commutation_matrix",
    "GramSchmidtResult",
    "symplectic_gram_schmidt",
    "minimal_memory",
    "MemoryAssignment",
    "assign_memory",
    "check_assignment",
    "resolve_assignment",
    "partial_rows",
]


@dataclass(frozen=True)
class Chain:
    """Per-frame known inputs and outputs of one streamed operator."""

    label: str
    inputs: Tuple[PauliOperator, ...]
    outputs: Tuple[PauliOperator, ...]

    def __post_init__(self):
        if len(self.inputs) != len(self.outputs):
            raise ValueError("chain inputs and outputs must align")

    @property
    def span(self) -> int:
        return len(self.inputs)

    @property
    def lead(self) -> int:
        """Leading frames that consume and emit the identity, so keep the memory at the identity."""
        return next((t for t, (a, b) in enumerate(zip(self.inputs, self.outputs)) if a.vec() or b.vec()), self.span)


@dataclass(frozen=True)
class TransformationSkeleton:
    """Row structure of a frame-wise Clifford transformation.

    direction is "encoder" (rows: (mem g_{a,t-1}, IN) -> (OUT, g_{a,t}))
    or "decoder" (same boundary structure, decoder wire roles).
    """

    n: int
    k: int
    direction: str
    chains: Tuple[Chain, ...]

    def unknowns(self) -> List[Tuple[int, int]]:
        """Unknown memory slots as (chain index, boundary t), both 1-based,
        ordered t-major then chain (g1 = chain1 t1, g2 = chain2 t1, ...)."""
        ids = [(i, t) for i, c in enumerate(self.chains, 1) for t in range(c.lead + 1, c.span)]
        return sorted(ids, key=lambda slot: (slot[1], slot[0]))


def build_skeleton(code: ConvolutionalCode) -> TransformationSkeleton:
    """Encoder skeleton: one row per generator frame, and span - 1
    unknowns per generator."""
    n, k = code.n, code.k
    chains = []
    for a, gen in enumerate(code.generators, 1):
        # within the n physical input wires the layout is (anc 1..n-k, info),
        # so ancilla a is 0-based position a-1; only frame 1 consumes it.
        ins = [PauliOperator.single(n, a - 1, "Z")]
        ins += [PauliOperator.identity(n)] * (gen.span - 1)
        chains.append(Chain(f"generator {a}", tuple(ins), gen.frames))
    return TransformationSkeleton(n, k, "encoder", tuple(chains))


def skeleton_commutation_matrix(skeleton: TransformationSkeleton) -> Tuple[int, ...]:
    """The commutation requirement: the symmetric GF(2) Gram matrix of
    the required products between the unknowns, row i a bitset over
    columns, indexed in the order of `skeleton.unknowns()`."""
    # each slot's history, chain-major: its chain's (input, output) frames
    # t..1, newest first, 2n qubits per frame
    n = skeleton.n
    width = 2 * n * max((c.span for c in skeleton.chains), default=0)
    hist = {}
    for i, c in enumerate(skeleton.chains, 1):
        x = z = 0
        for t, (fin, fout) in enumerate(zip(c.inputs, c.outputs), 1):
            x = (x << 2 * n) | fin.x | (fout.x << n)
            z = (z << 2 * n) | fin.z | (fout.z << n)
            hist[(i, t)] = x | (z << width)
    slots = list(hist)
    products = dict(zip(slots, gram(list(hist.values()), width)))
    # boundary consistency: with one side at its full span the memory is
    # identity, so the telescoped product must vanish; otherwise the row
    # structure admits no Clifford realization.
    for i, ci in enumerate(skeleton.chains, 1):
        row = products.get((i, ci.span), 0)
        if row:
            j, t = slots[(row & -row).bit_length() - 1]
            raise SkeletonInconsistencyError(
                f"boundary product of chain {i} (span {ci.span}) with "
                f"chain {j} at frame {t} is forced to 1"
            )
    return tuple(gram([hist[u] for u in skeleton.unknowns()], width))


def _first_mismatch(a: Sequence[int], b: Sequence[int]) -> Optional[Tuple[int, int]]:
    """The first (i, j), i < j, where symmetric bit matrices a and b differ."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        diff = (ra ^ rb) >> (i + 1)
        if diff:
            return i, i + (diff & -diff).bit_length()
    return None


@dataclass(frozen=True)
class GramSchmidtResult:
    """Hyperbolic pairs then isotropic remainder of a symplectic Gram–Schmidt.

    Each row is a transformed generator: a GF(2) combination of the
    original ones, as a bitset over their indices.  Each (a, b) pair has
    product 1 within itself and 0 with every other row; the isotropic
    rows have product 0 with every row.
    """

    pairs: Tuple[Tuple[int, int], ...]
    isotropic: Tuple[int, ...]

    @property
    def basis_change(self) -> Tuple[int, ...]:
        """The rows ordered pair1a, pair1b, pair2a, ..., then the isotropic ones."""
        return tuple(v for ab in self.pairs for v in ab) + self.isotropic


def symplectic_gram_schmidt(gram: Sequence[int]) -> GramSchmidtResult:
    """Symplectic Gram–Schmidt of the form whose Gram matrix has the
    symmetric, zero-diagonal rows `gram`."""

    def form(u: int, v: int) -> int:
        # bilinear form induced by the Gram matrix on GF(2) combinations
        return gf2.parity(u & gf2.matmul([v], gram)[0])

    remaining = [1 << i for i in range(len(gram))]
    pairs: List[Tuple[int, int]] = []
    isotropic: List[int] = []
    while remaining:
        v = remaining.pop(0)
        w = next((w for w in remaining if form(v, w)), None)
        if w is None:
            isotropic.append(v)
            continue
        remaining.remove(w)
        pairs.append((v, w))
        remaining = [u ^ (w if form(u, v) else 0) ^ (v if form(u, w) else 0) for u in remaining]
    return GramSchmidtResult(tuple(pairs), tuple(isotropic))


def minimal_memory(matrix: Sequence[int]) -> int:
    """Memory qubits needed: one per hyperbolic pair plus one per isotropic
    generator, rank/2 + (p - rank); an alternating form has even rank."""
    return len(matrix) - gf2.rank(list(matrix)) // 2


@dataclass(frozen=True)
class MemoryAssignment:
    m: int
    operators: Tuple[PauliOperator, ...]


def check_assignment(matrix: Sequence[int], assignment: MemoryAssignment) -> Optional[Tuple[int, int]]:
    """None if the assignment realizes M with independent operators,
    else the offending (i, j) pair ((i, i) flags a dependence); an
    assignment of the wrong size or with an operator not of width m is
    refused with InputDataError."""
    ops = assignment.operators
    if len(ops) != len(matrix):
        raise InputDataError("assignment size differs from the requirement")
    for i, op in enumerate(ops, 1):
        if op.width != assignment.m:
            raise InputDataError(f"memory operator {i} has width {op.width}, not the assignment's m = {assignment.m}")
    vecs = [op.vec() for op in ops]
    bad = _first_mismatch(gram(vecs, assignment.m), matrix)
    if bad is None and gf2.rank(vecs) != len(ops):
        bad = (len(ops) - 1,) * 2
    return bad


def assign_memory(matrix: Sequence[int]) -> MemoryAssignment:
    """Concrete memory operators realizing M on the minimal qubit count.

    Transformed pair r gets (X, Z) on memory qubit r, isotropic j gets Z on
    qubit (#pairs + j); the original unknowns are pulled back through the
    inverse basis change (products of Paulis = XOR of assignments).
    """
    sgs = symplectic_gram_schmidt(matrix)
    p = len(matrix)
    npairs = len(sgs.pairs)
    m = npairs + len(sgs.isotropic)
    if p == 0:
        return MemoryAssignment(0, ())
    canonical: List[int] = []
    for r in range(npairs):
        canonical += [1 << r, 1 << (m + r)]
    canonical += [1 << (m + npairs + j) for j in range(len(sgs.isotropic))]
    binv = gf2.invert(list(sgs.basis_change), p)
    assert binv is not None, "basis change must be invertible"
    ops = [PauliOperator.from_vec(m, v) for v in gf2.matmul(binv, canonical)]
    result = MemoryAssignment(m, tuple(ops))
    bad = check_assignment(matrix, result)
    assert bad is None, f"constructed assignment violates M at {bad}"
    return result


def resolve_assignment(matrix: Sequence[int], given: Optional[MemoryAssignment]) -> MemoryAssignment:
    """`assign_memory(matrix)`, or the given assignment once `check_assignment` accepts it."""
    if given is None:
        return assign_memory(matrix)
    bad = check_assignment(matrix, given)
    if bad is not None:
        i, j = bad
        raise MapConsistencyError("memory assignment operators are dependent" if i == j else
                                  f"memory operators {i + 1} and {j + 1} violate the required product")
    return given


def partial_rows(
    skeleton: TransformationSkeleton, assignment: MemoryAssignment
) -> List[Tuple[PauliOperator, PauliOperator]]:
    """Skeleton rows as concrete (input, output) operator pairs.

    Memory sits on the first m wires of the input and the last m wires of
    the output; the boundary memory operators (t = 0 and t = span) are the
    identity.
    """
    lookup = dict(zip(skeleton.unknowns(), assignment.operators))
    m = assignment.m
    ident = PauliOperator.identity(m)
    rows: List[Tuple[PauliOperator, PauliOperator]] = []
    for i, chain in enumerate(skeleton.chains, 1):
        for t in range(chain.lead + 1, chain.span + 1):
            gin = lookup.get((i, t - 1), ident)
            gout = lookup.get((i, t), ident)
            rows.append((gin.tensor(chain.inputs[t - 1]), chain.outputs[t - 1].tensor(gout)))
    return rows
