"""GF(2) bitset linear algebra, cross-checked against brute force."""

import random

import pytest

from qconvenc import gf2

from oracles import fresh_system, in_span, nullspace


def bits(v, n):
    return [(v >> i) & 1 for i in range(n)]


def pack(row):
    acc = 0
    for i, b in enumerate(row):
        acc |= (b & 1) << i
    return acc


def test_parity_matches_popcount():
    rng = random.Random(0)
    for _ in range(200):
        v = rng.getrandbits(64)
        assert gf2.parity(v) == bin(v).count("1") % 2
    assert gf2.parity(0) == 0


def test_rank_by_exhaustive_span():
    # rank r iff the span (all XOR-subsets) has 2^r distinct elements
    rng = random.Random(1)
    for _ in range(50):
        nrows = rng.randrange(0, 6)
        rows = [rng.getrandbits(5) for _ in range(nrows)]
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        assert (1 << gf2.rank(rows)) == len(span)


def test_row_reduce_preserves_span():
    rng = random.Random(2)
    for _ in range(50):
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(1, 6))]
        reduced, pivots = gf2.row_reduce(rows)
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        rspan = {0}
        for r in reduced:
            rspan |= {s ^ r for s in rspan}
        assert span == rspan
        assert len(reduced) == len(pivots) == gf2.rank(rows)
        # pivot columns are uniquely owned
        for r, p in zip(reduced, pivots):
            assert (r >> p) & 1
            assert sum((q >> p) & 1 for q in reduced) == 1


def test_extend_adds_the_rows_new_to_the_span():
    rng = random.Random(7)
    for _ in range(50):
        old = [rng.getrandbits(6) for _ in range(rng.randrange(0, 4))]
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(0, 4))]
        reduced, pivots = gf2.row_reduce(old)
        added = gf2.extend(reduced, pivots, rows)
        # the result is what reducing every row at once gives, and each
        # added row is new to the span of the rows before it
        assert sorted(zip(pivots, reduced)) == sorted(zip(*gf2.row_reduce(old + rows)[::-1]))
        assert len(added) == gf2.rank(old + rows) - gf2.rank(old)
        for i, r in enumerate(added):
            assert not in_span(old + added[:i], r)


def test_in_span_agrees_with_enumeration():
    rng = random.Random(3)
    for _ in range(50):
        rows = [rng.getrandbits(5) for _ in range(3)]
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        for v in range(32):
            assert in_span(rows, v) == (v in span)


def test_residue_is_v_minus_its_span_component():
    rng = random.Random(4)
    for _ in range(50):
        rows = [rng.getrandbits(6) for _ in range(rng.randrange(0, 4))]
        reduced, pivots = gf2.row_reduce(rows)
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        for v in range(64):
            res = gf2.residue(reduced, pivots, v)
            assert (res ^ v) in span
            assert (res == 0) == (v in span)
            assert all(not (res >> p) & 1 for p in pivots)


def test_solve_finds_combination():
    # the first of the solutions, the one `_complete_side` takes for a
    # partner, is the least solution, and there is none exactly when no
    # vector solves it
    rng = random.Random(4)
    ncols = 6
    for _ in range(100):
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(1, 7))]
        rhs = [rng.getrandbits(1) for _ in rows]
        sol = next(gf2.solutions(*fresh_system(rows, rhs, ncols)), None)
        every = [v for v in range(1 << ncols) if not any(gf2.parity(r & v) ^ b for r, b in zip(rows, rhs))]
        assert sol == min(every, default=None)


def test_nullspace_is_exact_kernel():
    rng = random.Random(5)
    ncols = 6
    for _ in range(30):
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 5))]
        basis = nullspace(rows, ncols)
        kernel = {v for v in range(1 << ncols) if all(gf2.parity(r & v) == 0 for r in rows)}
        span = {0}
        for b in basis:
            span |= {s ^ b for s in span}
        assert span == kernel
        assert len(basis) == gf2.rank(basis)


def test_kernel_of_an_extended_reduction_is_the_nullspace_basis():
    # a reduction grown by `extend` in several steps keeps each row's pivot
    # at its lowest bit, so reading the basis off it gives the very basis
    # that reducing the rows afresh gives
    rng = random.Random(8)
    ncols = 8
    for _ in range(60):
        reduced, pivots, rows = [], [], []
        for _ in range(rng.randrange(0, 4)):
            new = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 4))]
            gf2.extend(reduced, pivots, new)
            rows += new
        assert all(piv == (r & -r).bit_length() - 1 for piv, r in zip(pivots, reduced))
        assert gf2.kernel(reduced, pivots, ncols) == nullspace(rows, ncols)
        assert gf2.kernel(reduced, pivots, ncols) == nullspace(reduced, ncols)


def test_invert_round_trip():
    rng = random.Random(6)
    for n in [5, *range(25)]:
        found = 0
        while found < 20:
            rows = [rng.getrandbits(n) for _ in range(n)]
            inv = gf2.invert(rows, n)
            if gf2.rank(rows) < n:
                assert inv is None
                continue
            found += 1
            ident = [1 << i for i in range(n)]
            assert gf2.matmul(rows, inv) == ident
            assert gf2.matmul(inv, rows) == ident


def test_invert_rejects_singular():
    assert gf2.invert([0b01, 0b01], 2) is None


def test_matmul_against_bit_loops():
    rng = random.Random(7)
    for _ in range(30):
        a = [rng.getrandbits(4) for _ in range(4)]
        b = [rng.getrandbits(4) for _ in range(4)]
        c = gf2.matmul(a, b)
        for i in range(4):
            for j in range(4):
                acc = 0
                for t in range(4):
                    acc ^= ((a[i] >> t) & 1) & ((b[t] >> j) & 1)
                assert ((c[i] >> j) & 1) == acc


def test_span_against_subset_enumeration():
    rng = random.Random(11)
    for size in range(6):
        basis = [rng.getrandbits(5) for _ in range(size)]
        out = gf2.span(basis)
        assert len(out) == 1 << size
        for i, v in enumerate(out):
            acc = 0
            for j in range(size):
                if (i >> j) & 1:
                    acc ^= basis[j]
            assert v == acc
