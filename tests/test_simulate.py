"""Channel sampling, syndrome extraction, trellis decoding and WER runs.

The trellis decoder is held against a full exhaustive-ML enumeration of
every 9-qubit error on a 3-frame window, and every syndrome route against
direct symplectic products with shifted generators.
"""

import numpy as np
import pytest

from qconvenc import PauliOperator
from qconvenc.library import FGG_CODE
from qconvenc.decoder import encoded_logical_operators
from qconvenc.simulate import (
    DepolarizingChannel,
    Simulator,
    estimate_wer,
    place_at_frame,
    sample_error,
    syndrome_by_decoder,
    syndrome_by_products,
)

P = PauliOperator.from_string
N3 = 3
W3 = 9  # window qubits at three 3-qubit frames


def lexkey(x: int, z: int, width: int) -> int:
    """Frame-major, wire-1-most-significant ordering with I < X < Y < Z."""
    key = 0
    for q in range(width):
        xq = (x >> q) & 1
        zq = (z >> q) & 1
        key = key * 4 + (2 * zq + (xq ^ zq))
    return key


@pytest.fixture(scope="module")
def exhaustive_ml():
    """Minimum weight and lex-first representative for each of the 64
    syndromes, by brute force over all 4^9 window errors (numpy)."""
    gens = [
        place_at_frame(g, t, N3) for t in range(1, N3 + 1) for g in FGG_CODE.generators
    ]
    xs = np.arange(1 << W3, dtype=np.int64)
    x = np.repeat(xs, 1 << W3)
    z = np.tile(xs, 1 << W3)
    synd = np.zeros(x.shape, dtype=np.int64)
    for i, g in enumerate(gens):
        bit = np.bitwise_count((x & g.z) ^ (z & g.x)) & 1
        synd |= bit << i
    wt = np.bitwise_count(x | z)
    key = np.zeros(x.shape, dtype=np.int64)
    for q in range(W3):
        xq = (x >> q) & 1
        zq = (z >> q) & 1
        key |= (2 * zq + (xq ^ zq)) << (2 * (W3 - 1 - q))
    best_w = np.full(1 << (2 * N3), 99, dtype=np.int64)
    np.minimum.at(best_w, synd, wt)
    best_key = np.full(1 << (2 * N3), np.iinfo(np.int64).max, dtype=np.int64)
    on_floor = wt == best_w[synd]
    np.minimum.at(best_key, synd[on_floor], key[on_floor])
    return best_w, best_key


def test_channel_validates_probability():
    with pytest.raises(ValueError):
        DepolarizingChannel(-0.1)
    with pytest.raises(ValueError):
        DepolarizingChannel(1.2)


def test_channel_limits():
    rng = np.random.default_rng(1)
    assert sample_error(DepolarizingChannel(0.0), 50, rng).is_identity()
    full = sample_error(DepolarizingChannel(1.0), 50, rng)
    assert full.weight() == 50


def test_channel_rate_concentrates():
    rng = np.random.default_rng(2)
    e = sample_error(DepolarizingChannel(0.1), 100_000, rng)
    frac = e.weight() / 100_000
    assert abs(frac - 0.1) < 0.01


def test_zero_error_zero_syndrome():
    assert set(syndrome_by_products(FGG_CODE, PauliOperator.identity(W3), N3)) == {0}


def test_stabilizer_launches_have_zero_syndrome():
    for t in (1, 2):
        for g in FGG_CODE.generators:
            e = place_at_frame(g, t, N3)
            assert set(syndrome_by_products(FGG_CODE, e, N3)) == {0}
    # a launch overhanging the window edge is truncated and the lost frame
    # makes it visible — only whole in-window launches are silent
    e = place_at_frame(FGG_CODE.generators[0], 3, N3)
    assert set(syndrome_by_products(FGG_CODE, e, N3)) != {0}


def test_single_error_syndrome_by_hand():
    # X on frame 1 wire 1: anticommutes with the first frames of the Z-type
    # generator at launch 1 only (sp(X..., ZZZ) = 1); the X-type generator
    # and all later launches commute
    e = PauliOperator.single(W3, 0, "X")
    bits = syndrome_by_products(FGG_CODE, e, N3)
    want = []
    for t in range(1, N3 + 1):
        for g in FGG_CODE.generators:
            want.append(e.sp(place_at_frame(g, t, N3)))
    assert list(bits) == want
    assert bits[0] == 0 and bits[1] == 1  # X vs XXX silent, X vs ZZZ loud


def test_syndrome_routes_agree(fgg_decoder, fgg_simulator):
    rng = np.random.default_rng(7)
    nframes = 4
    for _ in range(100):
        e = sample_error(DepolarizingChannel(0.3), 3 * nframes, rng)
        s1 = syndrome_by_products(FGG_CODE, e, nframes)
        s2 = fgg_simulator.syndrome(e, nframes)
        s3 = syndrome_by_decoder(fgg_decoder, e, nframes)
        assert s1 == s2 == s3


def test_syndrome_is_linear(fgg_simulator):
    rng = np.random.default_rng(8)
    for _ in range(40):
        a = sample_error(DepolarizingChannel(0.4), W3, rng)
        b = sample_error(DepolarizingChannel(0.4), W3, rng)
        sa = np.array(fgg_simulator.syndrome(a, N3))
        sb = np.array(fgg_simulator.syndrome(b, N3))
        sab = np.array(fgg_simulator.syndrome(a * b, N3))
        assert ((sa ^ sb) == sab).all()


def test_all_syndromes_reachable(exhaustive_ml):
    best_w, _ = exhaustive_ml
    assert (best_w < 99).all()


def test_trellis_equals_exhaustive_ml(fgg_simulator, exhaustive_ml):
    best_w, best_key = exhaustive_ml
    for s in range(1 << (2 * N3)):
        bits = tuple((s >> i) & 1 for i in range(2 * N3))
        est = fgg_simulator.decode(bits)
        assert syndrome_by_products(FGG_CODE, est, N3) == bits
        assert est.weight() == best_w[s]
        assert lexkey(est.x, est.z, W3) == best_key[s]


def test_decode_is_encoder_independent(fgg_simulator, fgg_synthesis):
    other = Simulator(FGG_CODE, fgg_synthesis.circuit)
    for s in range(1 << (2 * N3)):
        bits = tuple((s >> i) & 1 for i in range(2 * N3))
        assert fgg_simulator.decode(bits) == other.decode(bits)


def test_viterbi_rejects_bad_probability(fgg_reference_encoder):
    # the weight metric is maximum likelihood only for 0 <= p < 3/4
    with pytest.raises(ValueError):
        estimate_wer(FGG_CODE, fgg_reference_encoder, 0.75, 3, 1)
    with pytest.raises(ValueError):
        estimate_wer(FGG_CODE, fgg_reference_encoder, -0.01, 3, 1)


def test_decode_rejects_wrong_length(fgg_simulator):
    with pytest.raises(ValueError):
        fgg_simulator.decode((0, 1, 0))  # not a multiple of the chunk size


def test_failure_criterion_dual_route(fgg_reference_encoder, fgg_simulator):
    logicals = encoded_logical_operators(fgg_reference_encoder, FGG_CODE)

    def failure_by_sp(residual, nframes):
        for t in range(1, nframes + 1):
            for ex, ez in logicals.pairs:
                if residual.sp(place_at_frame(ex, t, nframes)):
                    return True
                if residual.sp(place_at_frame(ez, t, nframes)):
                    return True
        return False

    rng = np.random.default_rng(9)
    nframes = 4
    for _ in range(200):
        r = sample_error(DepolarizingChannel(0.5), 3 * nframes, rng)
        assert fgg_simulator.carries_logical_error(r, nframes) == failure_by_sp(r, nframes)


def test_stabilizer_products_are_harmless(fgg_simulator):
    rng = np.random.default_rng(10)
    nframes = 4
    for _ in range(40):
        acc = PauliOperator.identity(3 * nframes)
        for g in FGG_CODE.generators:
            for t in range(1, nframes - g.span + 2):
                if rng.integers(2):
                    acc = acc * place_at_frame(g, t, nframes)
        assert not fgg_simulator.carries_logical_error(acc, nframes)


def test_single_qubit_error_regression(fgg_simulator):
    # frozen behavior: the window's first frame cannot distinguish wires
    # 1..3 of a single error (both first-frame generator outputs are wire
    # symmetric), so singles on frame 1 wires 1 and 2 decode into the wrong
    # coset deterministically; every other single is corrected exactly
    failing = set()
    for q in range(W3):
        for kind in "XYZ":
            e = PauliOperator.single(W3, q, kind)
            est = fgg_simulator.decode(fgg_simulator.syndrome(e, N3))
            if fgg_simulator.carries_logical_error(e * est, N3):
                failing.add((q, kind))
    assert failing == {(q, kind) for q in (0, 1) for kind in "XYZ"}


def test_wer_zero_at_p_zero(fgg_reference_encoder):
    r = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.0, 5, 50, seed=1)
    assert r.failures == 0 and r.word_error_rate == 0.0


def test_wer_monotone_in_p(fgg_reference_encoder):
    lo = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.01, 10, 2000, seed=5)
    hi = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.10, 10, 2000, seed=5)
    assert lo.word_error_rate + lo.confidence_halfwidth < (
        hi.word_error_rate - hi.confidence_halfwidth
    )


def test_wer_worker_count_invariance(fgg_reference_encoder):
    serial = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 6, 400, seed=11)
    parallel = estimate_wer(
        FGG_CODE, fgg_reference_encoder, 0.05, 6, 400, seed=11, workers=3
    )
    assert serial == parallel


def test_wer_seed_changes_draws(fgg_reference_encoder):
    a = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 6, 400, seed=1)
    b = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 6, 400, seed=2)
    assert a.seed != b.seed
    # same seed reproduces exactly
    assert a == estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 6, 400, seed=1)
