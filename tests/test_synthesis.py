"""Partial symplectic maps, completion and circuit synthesis."""

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qconvenc import (
    PauliOperator,
    SymplecticMap,
    circuit_to_symplectic,
    circuit_to_text,
)
from qconvenc.circuit import gram
from qconvenc.errors import MapConsistencyError, SynthesisError
from qconvenc.library import FGG_ENCODER
from qconvenc.synthesis import (
    PartialMap,
    _complete_side,
    check_consistency,
    complete_to_symplectic,
    gate_count_bound,
    synthesize_circuit,
)

from conftest import random_symplectic
from oracles import complete_side_by_fresh_systems, fgg_transformation_rows

P = PauliOperator.from_string


def test_reference_rows_are_consistent():
    check_consistency(PartialMap.from_operators(fgg_transformation_rows()))


def test_empty_partial_map_is_consistent():
    empty = PartialMap(3, ())
    check_consistency(empty)
    full = complete_to_symplectic(empty)
    assert full.is_symplectic()


def test_wrong_memory_choice_rejected():
    # both memory operators set to X: the first two sources commute
    # (Z on different ancilla wires) but their images XXX(x)X and
    # ZZZ(x)X anticommute, which no conjugation can do
    src1, src2 = P("IZII"), P("IIZI")
    img1, img2 = P("XXXX"), P("ZZZX")
    assert src1.sp(src2) == 0 and img1.sp(img2) == 1
    with pytest.raises(MapConsistencyError):
        check_consistency(PartialMap.from_operators([(src1, img1), (src2, img2)]))


def test_repeated_source_with_new_image_rejected():
    rows = fgg_transformation_rows()
    bad = [rows[0], (rows[0][0], rows[1][1])]
    with pytest.raises(MapConsistencyError):
        check_consistency(PartialMap.from_operators(bad))


def test_identity_partial_map_completes_to_identity():
    rows = []
    for i in range(3):
        for kind in ("X", "Z"):
            p = PauliOperator.single(3, i, kind)
            rows.append((p, p))
    full = complete_to_symplectic(PartialMap.from_operators(rows))
    assert full == SymplecticMap.identity(3)
    circ = synthesize_circuit(full)
    assert circuit_to_symplectic(circ) == SymplecticMap.identity(3)


def test_reference_circuit_realizes_required_rows():
    m = circuit_to_symplectic(FGG_ENCODER)
    for src, dst in fgg_transformation_rows():
        assert m.apply(src) == dst


def test_completion_preserves_prescribed_rows():
    partial = PartialMap.from_operators(fgg_transformation_rows())
    full = complete_to_symplectic(partial)
    circ = synthesize_circuit(full)
    assert full.is_symplectic()
    for src, dst in fgg_transformation_rows():
        assert full.apply(src) == dst
        assert circuit_to_symplectic(circ).apply(src) == dst


def test_random_full_map_round_trip():
    rng = random.Random(40)
    m = random_symplectic(3, rng)
    circ = synthesize_circuit(m)
    assert circuit_to_symplectic(circ) == m


def test_gate_bound_formula():
    assert gate_count_bound(4) == 160
    assert gate_count_bound(1) == 10


def test_synthesis_scaling_and_bound():
    rng = random.Random(41)
    for w in range(2, 11):
        for _ in range(3):
            m = random_symplectic(w, rng)
            circ = synthesize_circuit(m)
            assert len(circ.gates) <= gate_count_bound(w)
            assert circuit_to_symplectic(circ) == m


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda w: st.tuples(st.just(w), st.lists(st.integers(0, 4**w - 1), min_size=2 * w, max_size=2 * w))
), st.booleans())
def test_non_symplectic_targets_raise_synthesis_error(drawn, singular):
    # random 2w x 2w matrices, or singular ones with a row repeated: the
    # elimination or the final comparison refuses each, with no other error
    w, rows = drawn
    if singular:
        rows[-1] = rows[0]
    target = SymplecticMap(w, tuple(rows))
    assume(not target.is_symplectic())
    with pytest.raises(SynthesisError):
        synthesize_circuit(target)


def test_random_partial_maps_complete_and_verify():
    # 100 random consistent partial maps: restriction of a random full
    # symplectic map to a random subset of basis inputs
    rng = random.Random(42)
    done = 0
    while done < 100:
        w = rng.randrange(2, 6)
        full = random_symplectic(w, rng)
        nrows = rng.randrange(0, 2 * w + 1)
        picks = rng.sample(range(2 * w), nrows)
        rows = []
        for i in picks:
            src = PauliOperator.from_vec(w, 1 << i)
            rows.append((src, full.apply(src)))
        partial = (
            PartialMap.from_operators(rows) if rows else PartialMap(w, ())
        )
        check_consistency(partial)
        completed = complete_to_symplectic(partial)
        circ = synthesize_circuit(completed)
        assert completed.is_symplectic()
        for src, dst in rows:
            assert completed.apply(src) == dst
            assert circuit_to_symplectic(circ).apply(src) == dst
        done += 1


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6))
def test_a_side_completes_as_with_fresh_systems(rnd, w):
    # the partner systems carried by one reduction give the partners and
    # complement vectors that a fresh reduction of each system gives: from
    # a random symplectic basis, some of its hyperbolic pairs (rows q and
    # w + q) and, of other q, one row each as the isotropic vectors
    rows = random_symplectic(w, rnd).rows
    order = rnd.sample(range(w), w)
    npairs = rnd.randint(0, w)
    nisos = rnd.randint(0, w - npairs)
    pairs = [(rows[q], rows[w + q]) for q in order[:npairs]]
    isos = [rows[q + rnd.choice((0, w))] for q in order[npairs:npairs + nisos]]
    got = _complete_side(pairs, isos, w)
    assert got == complete_side_by_fresh_systems(pairs, isos, w)
    assert got[:npairs] == pairs and [c for c, _ in got[npairs:npairs + nisos]] == isos
    basis = [v for pair in got for v in pair]
    assert gram(basis, w) == [1 << (j ^ 1) for j in range(2 * w)]  # each pair hyperbolic, the rest orthogonal


def test_completion_rejects_dependent_contradiction():
    # a source expressible as the product of two fixed sources must map to
    # the product of their images; demand otherwise and completion fails
    rows = [
        (P("XI"), P("XI")),
        (P("IX"), P("IX")),
        (P("XX"), P("ZZ")),
    ]
    with pytest.raises(MapConsistencyError):
        check_consistency(PartialMap.from_operators(rows))


def test_synthesized_gate_lists_are_pinned(gr_synthesis):
    # four seeded random maps at each width 0-12, then the GR published-rows
    # map; a change to any gate list changes the digest
    rng = random.Random(2022)
    digest = hashlib.sha256()
    for w in range(13):
        for _ in range(4):
            digest.update(circuit_to_text(synthesize_circuit(random_symplectic(w, rng))).encode())
    digest.update(circuit_to_text(synthesize_circuit(gr_synthesis.map)).encode())
    assert digest.hexdigest() == "123f4502f90af3f1d781ebb50d62f464b19fc20c76e0b99baab54fa0fa9e4b00"
