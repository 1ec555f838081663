"""Package acceptance checks, one test (one pass/fail line) per criterion.

Each test is self-contained apart from the shared session fixtures and the
brute-force transition oracle reused from test_catastrophic.  Tests with a
runtime budget assert it.
"""

import time

import numpy as np
import pytest

from conftest import random_symplectic
from oracles import admissible_cycle_states, anticommuting_pairs, anticommuting_slots, fgg_transformation_rows
from test_catastrophic import TOY_CNOT, brute_force_noncatastrophic

from qconvenc import (
    CliffordCircuit,
    PauliOperator,
    SymplecticMap,
    circuit_to_symplectic,
    parse_circuit,
)
from qconvenc.catastrophic import (
    is_noncatastrophic,
    is_noncatastrophic_decoder,
    subgroup_elements,
    zero_weight_graph,
)
from qconvenc.code import from_classical_polynomial, parse_polynomial
from qconvenc.decoder import derive_online_decoder, windowed_roundtrip_failures
from qconvenc.library import (
    FGG_CODE,
    FGG_ENCODER_TEXT,
    GR_CODE,
    GR_COMPLETION_ROWS,
    GR_MEMORY_CHOICE,
    GR_POLYNOMIAL_TEXT,
    FGG_DECODER_MEMORY_CHOICE,
)
from qconvenc.pipeline import synthesize_encoder, verify_encoder
from qconvenc.simulate import Simulator, estimate_wer, place_at_frame
import qconvenc.simulate as simulate_module
from qconvenc.skeleton import (
    MemoryAssignment,
    build_skeleton,
    check_assignment,
    minimal_memory,
    skeleton_commutation_matrix,
)
from qconvenc.synthesis import PartialMap, complete_to_symplectic, synthesize_circuit

import random

P = PauliOperator.from_string


def test_01_fgg_minimal_memory_is_one_qubit():
    start = time.perf_counter()
    result = synthesize_encoder(FGG_CODE)
    elapsed = time.perf_counter() - start
    assert result.memory == 1
    g1, g2 = result.assignment.operators
    assert g1.width == 1 and g2.width == 1
    assert g1.sp(g2) == 1
    assert elapsed < 1.0


def test_02_published_fourteen_gate_encoder_verifies():
    start = time.perf_counter()
    circuit = parse_circuit(FGG_ENCODER_TEXT)
    assert len(circuit) == 14
    assignment = verify_encoder(FGG_CODE, circuit)  # raises if any row breaks
    elapsed = time.perf_counter() - start
    assert assignment.m == 1
    assert [op.to_string() for op in assignment.operators] == ["X", "Z"]
    smap = circuit_to_symplectic(circuit)
    rows = fgg_transformation_rows()
    assert len(rows) == 4
    for src, dst in rows:
        assert smap.apply(src) == dst
    assert elapsed < 1.0


def test_03_fgg_noncatastrophic_identity_self_loop_only():
    reference = parse_circuit(FGG_ENCODER_TEXT)
    synthesized = synthesize_encoder(FGG_CODE).circuit
    for circuit in (reference, synthesized):
        verify_encoder(FGG_CODE, circuit)
        verdict = is_noncatastrophic(circuit, 3, 1)
        assert verdict.non_catastrophic is True
        assert verdict.witness is None
        graph = zero_weight_graph(circuit, 3, 1)
        assert set(graph.edges) == {0}  # identity is the only live state
        loop = graph.edges[0]
        assert loop.before.is_identity() and loop.after.is_identity()
        assert loop.logical_weight == 0


def test_04_online_decoder_brackets_memory_and_verdict():
    decoder = derive_online_decoder(FGG_CODE, parse_circuit(FGG_ENCODER_TEXT))
    assert len(decoder.matrix) == 4
    assert anticommuting_pairs(decoder.matrix) == [(0, 1), (0, 3), (1, 3), (2, 3)]
    assert minimal_memory(decoder.matrix) == 2
    assert decoder.memory == 2
    published = MemoryAssignment(2, FGG_DECODER_MEMORY_CHOICE)
    assert check_assignment(decoder.matrix, published) is None
    assert decoder.verdict.non_catastrophic is True
    assert decoder.verdict.direction == "decoder"


def test_05_gr_code_pairs_memory_and_completion():
    start = time.perf_counter()
    polys = [parse_polynomial(p) for p in GR_POLYNOMIAL_TEXT.split(",")]
    code = from_classical_polynomial(polys)
    assert [g.to_string() for g in code.generators] == [
        "XXXX|XXII|IXIX|IIXX|XXXX",
        "ZZZZ|ZZII|IZIZ|IIZZ|ZZZZ",
    ]
    assert code.generators == GR_CODE.generators
    matrix = skeleton_commutation_matrix(build_skeleton(code))
    assert anticommuting_slots(build_skeleton(code)) == {((1, 2), (2, 3)), ((2, 2), (1, 3))}
    assert minimal_memory(matrix) == 6
    choice = MemoryAssignment(6, GR_MEMORY_CHOICE)
    assert check_assignment(matrix, choice) is None
    result = synthesize_encoder(
        code, assignment=choice, completion_rows=GR_COMPLETION_ROWS
    )
    assert result.memory == 6
    for src, dst in GR_COMPLETION_ROWS:
        assert result.map.apply(src) == dst
    assert result.verdict.non_catastrophic is True
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0


def test_06_gr_admissible_subgroup_is_displayed_sixteen():
    choice = MemoryAssignment(6, GR_MEMORY_CHOICE)
    gens = admissible_cycle_states(build_skeleton(GR_CODE), choice)
    got = set(subgroup_elements(gens, 6))
    # Z or I freely on memory wires 1, 2, 5, 6; identity pinned on 3, 4
    want = set()
    for bits in range(16):
        z = (bits & 1) | ((bits >> 1 & 1) << 1) | ((bits >> 2 & 1) << 4) | ((bits >> 3 & 1) << 5)
        want.add(PauliOperator(6, 0, z))
    assert got == want
    assert len(got) == 16


def test_07_catastrophicity_oracle_matches_brute_force():
    fgg_circuit = parse_circuit(FGG_ENCODER_TEXT)
    fgg_map = circuit_to_symplectic(fgg_circuit)
    synth_map = synthesize_encoder(FGG_CODE).map
    decoder_map = derive_online_decoder(FGG_CODE, fgg_circuit).map
    cat_map = SymplecticMap(
        3, tuple(P(s).vec() for s in ("ZXX", "XZI", "IZZ", "IZI", "ZZZ", "XZX"))
    )
    corpus = [
        (fgg_map, 3, 1, 1),
        (synth_map, 3, 1, 1),
        (decoder_map, 3, 1, 2),
        (cat_map, 2, 1, 1),
        (circuit_to_symplectic(TOY_CNOT), 1, 1, 1),
        (SymplecticMap.identity(2), 1, 1, 1),
    ]
    for smap, n, k, m in corpus:
        enc = is_noncatastrophic(smap, n, k).non_catastrophic
        assert enc == brute_force_noncatastrophic(smap, n, k, m, "encoder"), (n, k, m)
        dec = is_noncatastrophic_decoder(smap, n, k).non_catastrophic
        assert dec == brute_force_noncatastrophic(smap, n, k, m, "decoder"), (n, k, m)


def test_08_windowed_roundtrip_restores_every_logical():
    encoder = parse_circuit(FGG_ENCODER_TEXT)
    decoder = derive_online_decoder(FGG_CODE, encoder)
    for nframes in range(1, 5):
        assert windowed_roundtrip_failures(encoder, decoder, nframes) == []


def test_09_synthesis_scaling_and_partial_completion():
    start = time.perf_counter()
    rng = random.Random(90)
    for w in range(2, 11):
        target = random_symplectic(w, rng)
        circuit = synthesize_circuit(target)
        assert len(circuit) <= 10 * w * w, w
        assert circuit_to_symplectic(circuit) == target
    passes = 0
    for _ in range(100):
        w = rng.randint(2, 6)
        full = random_symplectic(w, rng)
        picks = sorted(rng.sample(range(2 * w), rng.randint(1, 2 * w)))
        ident = SymplecticMap.identity(w)
        partial = PartialMap(w, tuple((ident.rows[i], full.rows[i]) for i in picks))
        completed = complete_to_symplectic(partial)
        assert completed.is_symplectic()
        for src, dst in partial.rows:
            assert completed.apply_vec(src) == dst
        passes += 1
    assert passes == 100
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0


def test_10_simulation_ml_wer_ordering_and_determinism(monkeypatch):
    start = time.perf_counter()
    encoder = parse_circuit(FGG_ENCODER_TEXT)

    # (a) trellis decoding == exhaustive maximum likelihood, all 64 syndromes
    sim = Simulator(FGG_CODE, encoder)
    nframes, width = 3, 9
    gens = [
        place_at_frame(g, t, nframes)
        for t in range(1, nframes + 1)
        for g in FGG_CODE.generators
    ]
    xs = np.arange(1 << width, dtype=np.int64)
    x = np.repeat(xs, 1 << width)
    z = np.tile(xs, 1 << width)
    synd = np.zeros(x.shape, dtype=np.int64)
    for i, g in enumerate(gens):
        synd |= (np.bitwise_count((x & g.z) ^ (z & g.x)) & 1) << i
    wt = np.bitwise_count(x | z)
    best = np.full(64, 99, dtype=np.int64)
    np.minimum.at(best, synd, wt)
    for s in range(64):
        bits = tuple((s >> i) & 1 for i in range(6))
        est = sim.decode(bits)
        assert tuple(sim.syndrome(est, nframes)) == bits
        assert est.weight() == best[s], s

    # (b) + (c) word error rates are ordered with separated confidence
    # intervals, and identical at a fixed seed whether the trials run in
    # blocks of 1,456 (the default at N = 20) or of 91
    results = []
    for p in (0.01, 0.05, 0.10):
        one = estimate_wer(FGG_CODE, encoder, p, 20, 10_000, seed=42)
        with monkeypatch.context() as patch:
            patch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 14)
            assert sim._block_size(20) == 91
            assert simulate_module._worker_count(sim, [p], 20, 42, 0, 10_000) == [one.failures], p
        results.append(one)
    lo, mid, hi = results
    assert lo.word_error_rate + lo.confidence_halfwidth < mid.word_error_rate - mid.confidence_halfwidth
    assert mid.word_error_rate + mid.confidence_halfwidth < hi.word_error_rate - hi.confidence_halfwidth
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
