"""GF(2) linear algebra on integer bitsets.

A vector of length n is a Python int with bit i holding coordinate i
(little-endian).  A matrix is a list of such row ints.  This keeps rank,
nullspace and solution loops branch-light and allocation-free.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "parity",
    "rank",
    "row_reduce",
    "extend",
    "residue",
    "solutions",
    "nullspace",
    "kernel",
    "invert",
    "matmul",
    "span",
    "transpose",
]


def parity(v: int) -> int:
    return v.bit_count() & 1


def row_reduce(rows: List[int]) -> Tuple[List[int], List[int]]:
    """Return (reduced rows, pivot columns); zero rows are dropped."""
    reduced: List[int] = []
    pivots: List[int] = []
    extend(reduced, pivots, rows)
    return reduced, pivots


def extend(reduced: List[int], pivots: List[int], rows: Iterable[int]) -> List[int]:
    """Reduce `rows` into a `row_reduce` result, in place, and return those
    new to its span as they were added (each reduced by the rows before it)."""
    added: List[int] = []
    for row in rows:
        for piv, r in zip(pivots, reduced):
            if (row >> piv) & 1:
                row ^= r
        if row:
            piv = (row & -row).bit_length() - 1
            # keep previously reduced rows clean at the new pivot too
            for i, r in enumerate(reduced):
                if (r >> piv) & 1:
                    reduced[i] = r ^ row
            reduced.append(row)
            pivots.append(piv)
            added.append(row)
    return added


def rank(rows: List[int]) -> int:
    return len(row_reduce(rows)[0])


def residue(reduced: List[int], pivots: List[int], v: int) -> int:
    """v with every pivot column of a `row_reduce` result cleared; zero
    exactly when v lies in the span of the reduced rows."""
    for piv, r in zip(pivots, reduced):
        if (v >> piv) & 1:
            v ^= r
    return v


def solutions(rows: List[int], rhs: List[int], ncols: int) -> Iterator[int]:
    """Every x with row_i . x = rhs_i, in increasing order, from one
    reduction of [rows | rhs]; none when a row reduces to 0 = 1.  The
    first, 0 at every free column, comes before the kernel is computed;
    the i-th is it XOR the kernel vectors that i's bits select, each
    topping out at its own free column, ascending, so the order increases."""
    reduced, pivots = row_reduce([r | b << ncols for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return
    x = sum((r >> ncols & 1) << piv for piv, r in zip(pivots, reduced))  # distinct pivots: an OR
    yield x
    null = kernel(reduced, pivots, ncols)
    prefix = matmul([(2 << t) - 1 for t in range(len(null))], null)  # XOR of null[:t + 1]
    for i in range(1, 1 << len(null)):  # from i - 1 to i, bits 0..t flip, t = i's lowest set bit
        x ^= prefix[(i & -i).bit_length() - 1]
        yield x


def nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {x : row . x = 0 for every row}, deterministic order."""
    return kernel(*row_reduce(rows), ncols)


def kernel(reduced: List[int], pivots: List[int], ncols: int) -> List[int]:
    """`nullspace` read off a `row_reduce` result: one basis vector per
    free column, with the pivot bits that cancel it."""
    pivot_set = set(pivots)
    basis: List[int] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = 1 << free
        for piv, r in zip(pivots, reduced):
            if (r >> free) & 1:
                v |= 1 << piv
        basis.append(v)
    return basis


def invert(rows: List[int], n: int) -> Optional[List[int]]:
    """Inverse of an n x n matrix given as row ints, or None if singular."""
    # fully reduced, [A | I] has one row per pivot; a pivot in the left
    # half marks the unit vector next to that row of the inverse
    reduced, pivots = row_reduce([rows[i] | (1 << (n + i)) for i in range(n)])
    inverse = [0] * n
    for piv, r in zip(pivots, reduced):
        if piv >= n:
            return None
        inverse[piv] = r >> n
    return inverse


def matmul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Row-major product: row i of result = (row i of a) . b, the XOR of the
    b[j] at the set bits j of that row, visited lowest first."""
    out = []
    for row in a:
        acc = 0
        while row:
            low = row & -row
            acc ^= b[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def span(basis: Sequence[int]) -> List[int]:
    """Every XOR combination of `basis`: entry i is the XOR of the basis[j]
    whose bit j is set in i."""
    out = [0]
    for v in basis:
        out += [x ^ v for x in out]
    return out


def transpose(rows: Sequence[int], nbits: int) -> List[int]:
    """Row i holds bit i of every input row: bit j of it is bit i of rows[j]."""
    out = [0] * nbits
    mask = (1 << nbits) - 1
    for j, row in enumerate(rows):
        row &= mask
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << j
            row ^= low
    return out
