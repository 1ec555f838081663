"""Completing partial symplectic maps and decomposing them into gates.

A frame transformation is specified by a handful of rows "this input Pauli
must map to that output Pauli".  When the rows preserve symplectic
products and are independent on both sides, they extend to a full
symplectic matrix; the extension is made deterministic by completing both
sides to hyperbolic bases with lexicographically smallest choices.  The
full matrix is then peeled into {H, P, CNOT, CZ, SWAP} one qubit at a
time, which keeps the gate count O(width^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import gf2
from .circuit import (
    CliffordCircuit,
    CliffordGate,
    SymplecticMap,
    _conjugate,
    _dual,
    circuit_to_symplectic,
    gram,
)
from .errors import MapConsistencyError, SynthesisError
from .pauli import PauliOperator
from .skeleton import _first_mismatch, symplectic_gram_schmidt

__all__ = [
    "PartialMap",
    "check_consistency",
    "complete_to_symplectic",
    "synthesize_circuit",
    "gate_count_bound",
]


@dataclass(frozen=True)
class PartialMap:
    """Rows (input vector, output vector) a symplectic map must satisfy."""

    width: int
    rows: Tuple[Tuple[int, int], ...]

    @staticmethod
    def from_operators(rows: Sequence[Tuple[PauliOperator, PauliOperator]]) -> "PartialMap":
        if not rows:
            raise ValueError("need at least one row")
        w = rows[0][0].width
        for src, dst in rows:
            if src.width != w or dst.width != w:
                raise ValueError("all rows must share one width")
        return PartialMap(w, tuple((src.vec(), dst.vec()) for src, dst in rows))


def check_consistency(partial: PartialMap) -> List[int]:
    """Raise MapConsistencyError unless some Clifford satisfies the rows;
    return the inputs' symplectic Gram matrix."""
    w = partial.width
    ins = [r[0] for r in partial.rows]
    outs = [r[1] for r in partial.rows]
    if gf2.rank(ins) != len(ins):
        raise MapConsistencyError("input rows are linearly dependent")
    if gf2.rank(outs) != len(outs):
        raise MapConsistencyError("output rows are linearly dependent")
    gin = gram(ins, w)
    bad = _first_mismatch(gin, gram(outs, w))
    if bad is not None:
        i, j = bad
        a = (gin[i] >> j) & 1
        raise MapConsistencyError(
            f"rows {i + 1} and {j + 1} have symplectic product "
            f"{a} on inputs but {a ^ 1} on outputs"
        )
    return gin


def _solve_partner(placed: List[int], c: int, width: int) -> int:
    """The least packed d with sp(c, d) = 1 and sp(e, d) = 0 for placed e != c."""
    rows, rhs = [], []
    for e in placed:
        rows.append(_dual(e, width))
        rhs.append(1 if e == c else 0)
    d = next(gf2.solutions(rows, rhs, 2 * width), None)
    if d is None:
        raise SynthesisError("no symplectic partner exists; inputs were inconsistent")
    return d


def _complete_side(pairs: List[Tuple[int, int]], isos: List[int], width: int) -> List[Tuple[int, int]]:
    """Extend hyperbolic pairs + isotropic vectors to width hyperbolic pairs."""
    pairs, pending = list(pairs), list(isos)
    # each isotropic vector gets its partner first, then each complement
    # vector, the first basis vector of the placed vectors' symplectic
    # complement
    while len(pairs) < width:
        placed = [v for ab in pairs for v in ab]
        if not pending:
            pending = gf2.nullspace([_dual(e, width) for e in placed], 2 * width)[:1]
            if not pending:
                raise SynthesisError("symplectic complement vanished early")
        c = pending[0]
        pairs.append((c, _solve_partner(placed + pending, c, width)))
        pending = pending[1:]
    return pairs


def complete_to_symplectic(partial: PartialMap) -> SymplecticMap:
    """Deterministic full symplectic matrix agreeing with the rows."""
    gin = check_consistency(partial)
    w = partial.width
    ins = [r[0] for r in partial.rows]
    outs = [r[1] for r in partial.rows]
    # symplectic Gram-Schmidt on the inputs' products; the same row
    # operations on the outputs keep each transformed (input, output) pair
    # a requirement the final map must satisfy
    sgs = symplectic_gram_schmidt(gin)
    paired = 2 * len(sgs.pairs)
    sides = []
    for vecs in (ins, outs):
        basis = gf2.matmul(sgs.basis_change, vecs)
        pairs = list(zip(basis[0:paired:2], basis[1:paired:2]))
        sides.append(_complete_side(pairs, basis[paired:], w))
    in_pairs, out_pairs = sides
    # basis rows ordered like the standard basis: X parts then Z parts
    a_rows = [p[0] for p in in_pairs] + [p[1] for p in in_pairs]
    b_rows = [p[0] for p in out_pairs] + [p[1] for p in out_pairs]
    a_inv = gf2.invert(a_rows, 2 * w)
    if a_inv is None:
        raise SynthesisError("completed input basis is singular")
    smap = SymplecticMap(w, tuple(gf2.matmul(a_inv, b_rows)))
    if not smap.is_symplectic():
        raise SynthesisError("completed matrix fails the symplectic check")
    for src, dst in partial.rows:
        if smap.apply_vec(src) != dst:
            raise SynthesisError("completed matrix violates a required row")
    return smap


def _reduce_to_x(cols: List[int], row: int, q: int, width: int, lock_z_pivot: bool) -> List[CliffordGate]:
    """Emit gates turning row `row` of the matrix with packed columns `cols`
    into e_{x_q}; each gate conjugates `cols` in place.

    With lock_z_pivot the pivot is forced to q and no H/SWAP is used on it,
    which keeps e_{z_q} fixed (needed for the conjugated second phase).
    """
    w = width
    gates: List[CliffordGate] = []

    def emit(kind: str, *qubits: int) -> None:
        g = CliffordGate(kind, tuple(qubits))
        gates.append(g)
        _conjugate(g, cols, w)

    def xbit(j: int) -> int:
        return (cols[j - 1] >> row) & 1

    def zbit(j: int) -> int:
        return (cols[w + j - 1] >> row) & 1

    # pivot: q itself when it carries support, else the lowest later qubit
    for j in range(q, w + 1):
        if xbit(j) or zbit(j):
            break
    else:
        raise SynthesisError("row image vanished; matrix was not symplectic")
    if lock_z_pivot and j != q:
        raise SynthesisError("locked pivot has no support at its own qubit")
    if not xbit(j):
        if lock_z_pivot:
            raise SynthesisError("locked pivot lost its X support")
        emit("H", j)
    if zbit(j):
        emit("P", j)
    for l in range(q, w + 1):
        if l != j and xbit(l):
            emit("CNOT", j, l)
    for l in range(q, w + 1):
        if l != j and zbit(l):
            emit("CZ", j, l)
    if zbit(j):
        emit("P", j)
    if j != q:
        emit("SWAP", j, q)
    return gates


def synthesize_circuit(target: SymplecticMap) -> CliffordCircuit:
    """Gate sequence realizing the matrix, reduced to the identity on its 2w
    packed columns (verified before returning: every circuit's matrix is
    symplectic, so a target that is not raises SynthesisError)."""
    w = target.width
    cols = gf2.transpose(target.rows, 2 * w)
    emitted: List[CliffordGate] = []
    for q in range(1, w + 1):
        # row x_q to e_{x_q}, then between two H(q) row z_q to e_{x_q} by
        # P/CNOT/CZ on pivot q, which leave e_{z_q} (H(q) of row x_q) alone
        hq = CliffordGate("H", (q,))
        emitted += _reduce_to_x(cols, q - 1, q, w, lock_z_pivot=False)
        _conjugate(hq, cols, w)
        emitted.append(hq)
        emitted += _reduce_to_x(cols, w + q - 1, q, w, lock_z_pivot=True)
        _conjugate(hq, cols, w)
        emitted.append(hq)
    if cols != [1 << c for c in range(2 * w)]:
        raise SynthesisError("elimination did not reach the identity")
    # every gate kind used squares to the identity on Pauli vectors, so the
    # inverse sequence is just the reverse
    circuit = CliffordCircuit(w, tuple(reversed(emitted)))
    check = circuit_to_symplectic(circuit)
    if check.rows != target.rows:
        raise SynthesisError("synthesized circuit does not realize the target")
    if len(circuit) > gate_count_bound(w):
        raise SynthesisError(
            f"gate count {len(circuit)} exceeds the {gate_count_bound(w)} budget"
        )
    return circuit


def gate_count_bound(width: int) -> int:
    return 10 * width * width
