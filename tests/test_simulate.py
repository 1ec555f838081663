"""Channel sampling, syndrome extraction, trellis decoding and WER runs.

The trellis decoder is held against a full exhaustive-ML enumeration of
every 9-qubit error on a 3-frame FGG window and every 8-qubit error on a
2-frame GR window, every syndrome route against direct symplectic
products with shifted generators, and the batch syndrome and failure
test against a frame-by-frame pullback through the inverse encoder.  The
sparse-syndrome decoder is held against the full backward pass over
every frame, run on tables built one state and one branch at a time;
the factored trellis images against those tables; and the factored
backward step against the per-state step, on random encoders and at
both ends of the successor map's rank, in both metric dtypes.
"""

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconvenc import PauliOperator, SymplecticMap, gf2, parse_code, synthesize_encoder
from qconvenc.library import FGG_CODE, GR_CODE
from qconvenc.decoder import encoded_logical_operators
import qconvenc.simulate as simulate_module
from qconvenc.errors import TrellisError
from qconvenc.simulate import (
    DepolarizingChannel,
    Simulator,
    SEED_LIMIT,
    _run_trial,
    _sample_block,
    _trial_counters,
    _trial_failures,
    estimate_wer,
    estimate_wers,
    place_at_frame,
    sample_error,
    syndrome_by_products,
)

from conftest import CATASTROPHIC_CODE_TEXT, random_symplectic
from oracles import syndrome_by_decoder

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


def exhaustive_ml_table(code, nframes):
    """Minimum weight and lex-first key for each syndrome of an nframes
    window, by brute force over all 4^(nframes n) window errors (numpy)."""
    width = nframes * code.n
    gens = [
        place_at_frame(g, t, nframes) for t in range(1, nframes + 1) for g in code.generators
    ]
    xs = np.arange(1 << width, dtype=np.int64)
    x = np.repeat(xs, 1 << width)
    z = np.tile(xs, 1 << width)
    synd = np.zeros(x.shape, dtype=np.int64)
    for i, g in enumerate(gens):
        bit = np.bitwise_count((x & g.z) ^ (z & g.x)) & 1
        synd |= bit << i
    wt = np.bitwise_count(x | z)
    key = np.zeros(x.shape, dtype=np.int64)
    for q in range(width):
        xq = (x >> q) & 1
        zq = (z >> q) & 1
        key |= (2 * zq + (xq ^ zq)) << (2 * (width - 1 - q))
    best_w = np.full(1 << len(gens), 99, dtype=np.int64)
    np.minimum.at(best_w, synd, wt)
    best_key = np.full(1 << len(gens), np.iinfo(np.int64).max, dtype=np.int64)
    on_floor = wt == best_w[synd]
    np.minimum.at(best_key, synd[on_floor], key[on_floor])
    return best_w, best_key


@pytest.fixture(scope="module")
def exhaustive_ml():
    """Minimum weight and lex-first representative for each of the 64
    syndromes, by brute force over all 4^9 window errors (numpy)."""
    return exhaustive_ml_table(FGG_CODE, N3)


def pullback_frames(sim, error, nframes):
    """Unencoded frames u_1..u_N of the error, final memory pinned to the
    identity: the inverse frame map run from the last frame backwards."""
    inv = sim.smap.inverse()
    m, n = sim.m, sim.n
    mem = PauliOperator.identity(m)
    rev = []
    for t in range(nframes, 0, -1):
        out = inv.apply(error.part((t - 1) * n, t * n).tensor(mem))
        mem = out.part(0, m)
        rev.append(out.part(m, m + n))
    return rev[::-1]


def to_block(errors, n, nframes):
    """Pauli operators as one (trials, N, 2n) bit block."""
    out = np.zeros((len(errors), nframes, 2 * n), dtype=np.uint8)
    for row, e in enumerate(errors):
        for i in range(n * nframes):
            out[row, i // n, i % n] = (e.x >> i) & 1
            out[row, i // n, n + i % n] = (e.z >> i) & 1
    return out


def from_block(bits):
    """One (N, 2n) bit block row as a Pauli operator."""
    nframes, n = bits.shape[0], bits.shape[1] // 2
    x = sum(int(bits[i // n, i % n]) << i for i in range(n * nframes))
    z = sum(int(bits[i // n, n + i % n]) << i for i in range(n * nframes))
    return PauliOperator(n * nframes, x, z)


@functools.lru_cache(maxsize=8)
def per_state_trellis(sim):
    """The (chunk, branch, state) successor, weight and key tables built
    one state and one branch at a time, each successor and emission taken
    from `apply_vec` on the whole input; states are the memory bit
    patterns, X bits then Z bits."""
    n, k, m = sim.n, sim.k, sim.m
    w = m + n
    r = n - k
    nmask = (1 << n) - 1
    mmask = (1 << m) - 1
    nstates = 1 << (2 * m)
    nbranches = 1 << (n + k)
    memimg = np.array(
        [sim.smap.apply_vec((s & mmask) | ((s >> m) << w)) for s in range(nstates)],
        dtype=np.int32,
    )
    shape = (1 << r, nbranches, nstates)
    dst = np.empty(shape, dtype=np.intp)
    wt = np.empty(shape, dtype=np.uint8)
    key = np.empty(shape, dtype=np.min_scalar_type(1 << (2 * n)))
    for c in range(1 << r):
        ux = c | ((np.arange(nbranches) & ((1 << k) - 1)) << r)
        uz = np.arange(nbranches) >> k
        frameimg = np.array(
            [sim.smap.apply_vec((x << m) | (z << (w + m))) for x, z in zip(ux, uz)],
            dtype=np.int32,
        )
        outs = frameimg[:, None] ^ memimg[None, :]
        physx = outs & nmask
        physz = (outs >> w) & nmask
        dst[c] = ((outs >> n) & mmask) | (((outs >> (w + n)) & mmask) << m)
        wt[c] = np.bitwise_count(physx | physz)
        key[c] = 0
        for q in range(n):
            xq = (physx >> q) & 1
            zq = (physz >> q) & 1
            key[c] |= ((2 * zq + (xq ^ zq)) << (2 * (n - 1 - q))).astype(key.dtype)
    return dst, wt, key


def state_labels(sim):
    """The memory state of every label of the simulator, and the label of
    every memory state."""
    states = np.array(gf2.span(sim._basis), dtype=np.intp)
    label = np.empty_like(states)
    label[states] = np.arange(len(states))
    return states, label


def per_state_step(sim, beta, c, inf):
    """One backward step over (trials, memory states) by the per-state tables."""
    dst, wt, _ = per_state_trellis(sim)
    return np.minimum((beta[:, dst[c]] + wt[c]).min(axis=1), inf)


def full_viterbi_keys(sim, chunks):
    """Frame keys of the decoded errors by the full backward pass over
    every frame of every trial, then the dense lex-least forward walk,
    both over the per-state tables."""
    inf = 1 << 30
    dst_table, wt_table, key_table = per_state_trellis(sim)
    ntrials, nframes = chunks.shape
    nstates = dst_table.shape[2]
    beta = np.empty((nframes + 1, ntrials, nstates), dtype=np.int32)
    beta[nframes] = inf
    beta[nframes, :, 0] = 0
    for t in range(nframes - 1, -1, -1):
        for c in range(len(dst_table)):
            rows = np.flatnonzero(chunks[:, t] == c)
            if rows.size:
                beta[t][rows] = per_state_step(sim, beta[t + 1][rows], c, inf)
    best = beta[0].min(axis=1)
    assert (best < inf).all()
    alive = beta[0] == best[:, None]
    remaining = best
    nokey = 1 << (2 * sim.n)
    keys = np.empty((ntrials, nframes), dtype=np.int64)
    even = sum(1 << (2 * q) for q in range(sim.n))
    for t in range(nframes):
        bi, si = np.nonzero(alive)
        ci = chunks[bi, t]
        dst = dst_table[ci, :, si]
        ok = wt_table[ci, :, si] + beta[t + 1][bi[:, None], dst] == remaining[bi, None]
        cand = np.where(ok, key_table[ci, :, si].astype(np.int64), nokey)
        rowmin = np.full(alive.shape, nokey, dtype=np.int64)
        rowmin[bi, si] = cand.min(axis=1)
        kmin = rowmin.min(axis=1)
        assert (kmin < nokey).all()
        pi, ji = np.nonzero(cand == kmin[bi, None])
        alive = np.zeros_like(alive)
        alive[bi[pi], dst[pi, ji]] = True
        keys[:, t] = kmin
        remaining = remaining - np.bitwise_count((kmin | (kmin >> 1)) & even)
    assert (remaining == 0).all() and alive[:, 0].all()
    return keys


def assert_decode_matches_full_pass(sim, syndromes):
    syndromes = np.asarray(syndromes, dtype=np.uint8)
    r = sim.n - sim.k
    chunks = (syndromes.astype(np.intp) << np.arange(r)).sum(axis=2)
    keys = full_viterbi_keys(sim, chunks)
    shifts = 2 * (sim.n - 1 - np.arange(sim.n))
    hi = (keys[:, :, None] >> (shifts + 1)) & 1
    lo = (keys[:, :, None] >> shifts) & 1
    want = np.concatenate([hi ^ lo, hi], axis=2)
    assert (sim.decode_block(syndromes) == want).all()


def all_syndromes(nbits, r):
    return ((np.arange(1 << nbits)[:, None] >> np.arange(nbits)) & 1).reshape(-1, nbits // r, r)


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


def test_syndrome_routes_agree(fgg_decoder, fgg_simulator, gr_simulator):
    rng = np.random.default_rng(7)
    nframes = 4
    # GR has no online decoder yet (its logical chains end at different
    # shifts), so its syndrome is checked against the products alone
    for code, sim, decoder in ((FGG_CODE, fgg_simulator, fgg_decoder), (GR_CODE, gr_simulator, None)):
        for _ in range(100):
            e = sample_error(DepolarizingChannel(0.3), code.n * nframes, rng)
            s1 = syndrome_by_products(code, e, nframes)
            assert sim.syndrome(e, nframes) == s1
            if decoder is not None:
                assert syndrome_by_decoder(decoder, e, nframes) == s1


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


def test_failure_criterion_dual_route(
    fgg_reference_encoder, fgg_simulator, gr_synthesis, gr_simulator
):
    def failure_by_sp(logicals, residual, nframes):
        for t in range(1, nframes + 1):
            for ex, ez in logicals.pairs:
                if residual.sp(place_at_frame(ex, t, nframes)):
                    return True
                if residual.sp(place_at_frame(ez, t, nframes)):
                    return True
        return False

    rng = np.random.default_rng(9)
    nframes = 4
    for code, encoder, sim in (
        (FGG_CODE, fgg_reference_encoder, fgg_simulator),
        (GR_CODE, gr_synthesis.circuit, gr_simulator),
    ):
        logicals = encoded_logical_operators(encoder, code)
        for _ in range(200):
            r = sample_error(DepolarizingChannel(0.5), code.n * nframes, rng)
            assert sim.carries_logical_error(r, nframes) == failure_by_sp(logicals, r, nframes)


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


def test_decode_block_all_fgg_syndromes_in_one_block(fgg_simulator, exhaustive_ml):
    best_w, best_key = exhaustive_ml
    syndromes = all_syndromes(2 * N3, 2)
    assert fgg_simulator._block_size(N3) >= len(syndromes)
    est = fgg_simulator.decode_block(syndromes)
    assert (fgg_simulator.syndrome_block(est) == syndromes).all()
    for s in range(len(syndromes)):
        e = from_block(est[s])
        assert e.weight() == best_w[s]
        assert lexkey(e.x, e.z, W3) == best_key[s]
        assert e == fgg_simulator.decode(tuple(syndromes[s].ravel()))


def test_gr_trellis_equals_exhaustive_ml(gr_simulator):
    nframes, width = 2, 2 * GR_CODE.n
    best_w, best_key = exhaustive_ml_table(GR_CODE, nframes)
    assert (best_w < 99).all()
    syndromes = all_syndromes(2 * nframes, 2)
    est = gr_simulator.decode_block(syndromes)
    for s in range(len(syndromes)):
        e = from_block(est[s])
        assert syndrome_by_products(GR_CODE, e, nframes) == tuple(syndromes[s].ravel())
        assert e.weight() == best_w[s]
        assert lexkey(e.x, e.z, width) == best_key[s]


def test_decode_block_rejects_non_bits(fgg_simulator):
    with pytest.raises(ValueError):
        fgg_simulator.decode_block(np.full((1, 2, 2), 2))
    with pytest.raises(ValueError):
        fgg_simulator.decode((0, 2))
    with pytest.raises(ValueError):
        fgg_simulator.decode_block(np.zeros((1, 2, 3), dtype=np.uint8))


@pytest.mark.parametrize("which", ["fgg", "gr"])
def test_pullback_oracle_matches_launch_matrices(request, which):
    sim = request.getfixturevalue(f"{which}_simulator")
    n, k = sim.n, sim.k
    nframes = 5
    rng = np.random.default_rng(12)
    errors = [sample_error(DepolarizingChannel(0.2), n * nframes, rng) for _ in range(80)]
    synd = sim.syndrome_block(to_block(errors, n, nframes))
    fail = sim.failure_block(to_block(errors, n, nframes))
    assert 0 < fail.sum() < len(errors)
    for row, e in enumerate(errors):
        frames = pullback_frames(sim, e, nframes)
        want = [[(u.x >> a) & 1 for a in range(n - k)] for u in frames]
        assert synd[row].tolist() == want
        assert sim.syndrome(e, nframes) == tuple(b for f in want for b in f)
        moved = any(not u.part(n - k, n).is_identity() for u in frames)
        assert bool(fail[row]) == moved == sim.carries_logical_error(e, nframes)


@pytest.mark.parametrize("which, nframes, p, trials", [("fgg", 6, 0.1, 150), ("gr", 3, 0.1, 8)])
def test_block_failures_match_single_trials(request, which, nframes, p, trials):
    sim = request.getfixturevalue(f"{which}_simulator")
    block = _trial_failures(sim, p, nframes, 5, 0, trials)
    assert block.tolist() == [_run_trial(sim, p, nframes, 5, t) for t in range(trials)]
    assert block.tolist() == (
        _trial_failures(sim, p, nframes, 5, 0, trials // 3).tolist()
        + _trial_failures(sim, p, nframes, 5, trials // 3, trials).tolist()
    )
    # the scalar Pauli route over the same per-trial draws: trial t's
    # counter range of the Philox stream keyed by the seed
    for t in range(trials):
        bits = np.random.Philox(key=5)
        bits.advance(t * _trial_counters(sim.n, nframes))
        e = sample_error(DepolarizingChannel(p), sim.n * nframes, np.random.Generator(bits))
        est = sim.decode(sim.syndrome(e, nframes))
        assert sim.carries_logical_error(e * est, nframes) == block[t]


def test_estimate_wer_reuses_a_simulator(fgg_reference_encoder, fgg_simulator, gr_simulator):
    fresh = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 6, 200, seed=3)
    assert estimate_wer(FGG_CODE, fgg_simulator, 0.05, 6, 200, seed=3) == fresh
    with pytest.raises(ValueError):
        estimate_wer(FGG_CODE, gr_simulator, 0.05, 6, 200, seed=3)


def test_rate_zero_code_never_fails():
    # no info wires: the failure test has no logical launches to check
    code = parse_code("n=2\nXX\nZZ\n")
    encoder = synthesize_encoder(code).circuit
    for workers in (1, 2):
        r = estimate_wer(code, encoder, 0.3, 4, 40, seed=1, workers=workers)
        assert r.failures == 0


@pytest.mark.parametrize("which", ["fgg", "gr"])
def test_trellis_matches_per_state_build(request, which):
    sim = request.getfixturevalue(f"{which}_simulator")
    states, label = state_labels(sim)
    assert states[0] == 0  # the identity keeps label 0
    # every (chunk, branch, state) successor, weight and key, read from the
    # factored images in memory-state order
    succ = states[sim._succf[:, :, None] ^ sim._succm[label]]
    frame = sim._physf[:, :, None] ^ sim._physm[label]
    got = (succ, sim._fwt[frame].astype(np.uint8), sim._fkey[frame])
    for got, want in zip(got, per_state_trellis(sim)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # the stored step tables are those images: successors depend on the
    # low coordinates u of a label alone, and weights are those above
    nu = 1 << sim._ubits
    assert (sim._succm.reshape(-1, nu) == sim._succm[:nu]).all()
    assert (sim._gather == sim._succf[:, :, None] ^ sim._succm[:nu]).all()
    assert sim._gather.dtype == np.intp
    wt = sim._weight.reshape(sim._weight.shape[:2] + (-1,))
    assert (wt[:, :, label] == per_state_trellis(sim)[1]).all()


def test_gr_successor_map_has_a_four_dimensional_kernel(gr_simulator):
    assert gr_simulator._ubits == 8
    assert gr_simulator._gather.shape == (4, 64, 256)


def test_gr_trellis_arrays_fit_in_four_megabytes(gr_synthesis):
    sim = Simulator(GR_CODE, gr_synthesis.circuit)
    arrays = [v for v in vars(sim).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 4 << 20


# codes of three rates; the step tests pair them with encoders that need
# not realize them, since a trellis reads only n and k off its code
STEP_CODES = [parse_code("n=2\nXX\nZZ\n"), parse_code(CATASTROPHIC_CODE_TEXT), FGG_CODE]


def assert_backward_pass_matches_per_state(sim, rng, nframes=4, ntrials=6):
    """Backward passes of random trials from the pinned identity and from
    random metrics, in both metric dtypes, by the factored step (in label
    order) and by the per-state step (in memory-state order), one chunk
    for every trial and one chunk per trial."""
    states, label = state_labels(sim)
    nchunks = 1 << (sim.n - sim.k)
    for dtype, inf in ((np.int16, simulate_module._INF16), (np.int32, simulate_module._INF)):
        pinned = np.full((ntrials, sim.nstates), inf, dtype=dtype)
        pinned[:, 0] = 0
        noisy = rng.integers(0, 3 * sim.n, (ntrials, sim.nstates)).astype(dtype)
        noisy[rng.random(noisy.shape) < 0.3] = inf
        for want in (pinned, noisy):
            got = want[:, states]
            for _ in range(nframes):
                per_trial = rng.integers(0, nchunks, ntrials)
                by_chunk = np.empty_like(want)
                for c in range(nchunks):
                    one = per_state_step(sim, want, c, inf)
                    assert (sim._step(got, c, inf)[:, label] == one).all()
                    by_chunk[per_trial == c] = one[per_trial == c]
                want, got = by_chunk, sim._step(got, per_trial, inf)
                assert got.dtype == dtype and (got[:, label] == want).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STEP_CODES), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_factored_step_matches_per_state_pass_on_random_encoders(code, m, seed):
    rng = random.Random(seed)
    sim = Simulator(code, random_symplectic(m + code.n, rng))
    assert_backward_pass_matches_per_state(sim, np.random.default_rng(seed))


@pytest.mark.parametrize("which", ["rank 0", "full rank", "no memory"])
def test_factored_step_matches_per_state_pass_at_the_kernel_extremes(
    which, fgg_simulator, fgg_reference_encoder
):
    # FGG's successor map ignores the memory state; a wire-through encoder
    # (memory in to memory out, frame in to frame out) passes it on
    # unchanged; a memoryless encoder has one state
    if which == "rank 0":
        sim, ubits = fgg_simulator, 0
    elif which == "full rank":
        m, n = 2, FGG_CODE.n
        wires = [n + i for i in range(m)] + list(range(n))  # input wire -> output wire
        rows = [1 << o for o in wires] + [1 << (m + n + o) for o in wires]
        sim, ubits = Simulator(FGG_CODE, SymplecticMap(m + n, tuple(rows))), 2 * m
    else:
        code = STEP_CODES[0]
        sim, ubits = Simulator(code, synthesize_encoder(code).circuit), 0
        assert sim.m == 0
    assert sim._ubits == ubits
    assert_backward_pass_matches_per_state(sim, np.random.default_rng(14))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda nframes: st.lists(
            st.lists(st.integers(0, 3), min_size=nframes, max_size=nframes), min_size=1, max_size=6
        )
    ),
    st.floats(0.0, 1.0),
)
def test_fgg_decode_matches_full_backward_pass(fgg_simulator, rows, density):
    # chunk values 0..3 spell the two syndrome bits; zero out a share of
    # them so that all-zero trials, zero prefixes and zero suffixes occur
    chunks = np.array(rows)
    chunks[np.linspace(0, 1, chunks.size).reshape(chunks.shape) > density] = 0
    syndromes = ((chunks[:, :, None] >> np.arange(2)) & 1).astype(np.uint8)
    assert_decode_matches_full_pass(fgg_simulator, syndromes)


def test_fgg_decode_matches_full_backward_pass_on_every_syndrome(fgg_simulator):
    assert_decode_matches_full_pass(fgg_simulator, all_syndromes(8, 2))


def test_gr_decode_matches_full_backward_pass(gr_simulator):
    rng = np.random.default_rng(13)
    for nframes in (1, 2, 4):
        blocks = [np.zeros((1, nframes, 2), dtype=np.uint8)]
        for t in (0, nframes - 1):
            for c in (1, 2, 3):
                one = np.zeros((1, nframes, 2), dtype=np.uint8)
                one[0, t] = (c >> np.arange(2)) & 1
                blocks.append(one)
        # zero and nonzero trials in one block, with spread-out chunks; at
        # N = 4 some of them need the backward steps through a zero prefix
        mixed = (rng.random((24, nframes, 2)) < 0.3).astype(np.uint8)
        mixed[::3] = 0
        blocks.append(mixed)
        for block in blocks:
            assert_decode_matches_full_pass(gr_simulator, block)


@pytest.mark.parametrize("past", [0, 1])
def test_fgg_decode_at_the_narrow_metric_bound(fgg_simulator, past):
    # the last window whose weight bound n N fits int16 metrics, and the
    # first one that needs int32
    nframes = -(-simulate_module._INF16 // FGG_CODE.n) - 1 + past
    assert fgg_simulator._metric(nframes)[0] == (np.int32 if past else np.int16)
    rng = np.random.default_rng(15)
    syndromes = (rng.random((3, nframes, 2)) < 0.2).astype(np.uint8)
    syndromes[0, :-2] = 0  # a long zero prefix
    syndromes[1, 2:] = 0  # a long zero suffix
    assert_decode_matches_full_pass(fgg_simulator, syndromes)


def test_zero_syndrome_decodes_to_identity_without_the_trellis(fgg_simulator, monkeypatch):
    def fail(*args):
        raise AssertionError("the backward pass ran on a zero syndrome")

    monkeypatch.setattr(fgg_simulator, "_viterbi_nonzero", fail)
    est = fgg_simulator.decode_block(np.zeros((5, 7, 2), dtype=np.uint8))
    assert est.shape == (5, 7, 6) and not est.any()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its arguments and runs
    the tasks in this process."""

    made = []

    def __init__(self, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.tasks = []
        RecordingPool.made.append(self)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        self.tasks = list(tasks)
        return map(fn, self.tasks)


@pytest.mark.parametrize(
    "workers, cpus, procs, tasks_per_p",
    [(1_000_000, 64, 40, 20), (1_000_000, 3, 3, 20), (2, 64, 2, 7), (8, None, 1, 20)],
)
def test_pool_size_is_bounded(fgg_simulator, monkeypatch, workers, cpus, procs, tasks_per_p):
    monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simulate_module.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(simulate_module, "_WORKER", None)
    RecordingPool.made.clear()
    ps = [0.05, 0.1]
    rows = estimate_wers(FGG_CODE, fgg_simulator, ps, 4, 20, seed=2, workers=workers)
    (pool,) = RecordingPool.made
    assert pool.max_workers == procs
    # tasks are cut from the requested worker count, not the pool size
    assert len(pool.tasks) == tasks_per_p * len(ps)
    assert [t[0] for t in pool.tasks] == [p for p in ps for _ in range(tasks_per_p)]
    assert rows == estimate_wers(FGG_CODE, fgg_simulator, ps, 4, 20, seed=2)


def test_estimate_wers_validates_points(fgg_simulator):
    with pytest.raises(ValueError):
        estimate_wers(FGG_CODE, fgg_simulator, [], 4, 20)
    with pytest.raises(ValueError):
        estimate_wers(FGG_CODE, fgg_simulator, [0.05, 0.8], 4, 20)


@pytest.mark.parametrize("n, nframes", [(3, 6), (4, 5), (2, 1)])
def test_sample_block_splits_anywhere(n, nframes):
    whole = _sample_block(0.3, n, nframes, 9, 0, 40)
    assert whole.shape == (40, nframes, 2 * n) and whole.any()
    for cut in (1, 7, 39):
        parts = [_sample_block(0.3, n, nframes, 9, 0, cut), _sample_block(0.3, n, nframes, 9, cut, 40)]
        assert (np.concatenate(parts) == whole).all()
    assert (_sample_block(0.3, n, nframes, 9, 13, 14)[0] == whole[13]).all()
    assert not (_sample_block(0.3, n, nframes, 10, 0, 40) == whole).all()


def test_sample_block_at_p_zero_is_the_identity():
    assert not _sample_block(0.0, 3, 8, 1, 0, 50).any()


@pytest.mark.parametrize("p", [0.03, 0.3, 0.74])
def test_sample_block_kinds_have_probability_p_over_3(p):
    errors = _sample_block(p, 4, 25, 21, 0, 1000)  # 10^5 qubits
    x, z = errors[:, :, :4], errors[:, :, 4:]
    qubits = x.size
    sigma = (qubits * p / 3 * (1 - p / 3)) ** 0.5
    for kind in (x & (1 - z), x & z, (1 - x) & z):
        assert abs(int(kind.sum()) - qubits * p / 3) < 5 * sigma


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
def test_estimate_wer_rejects_seeds_outside_the_key_range(fgg_simulator, seed):
    with pytest.raises(ValueError):
        estimate_wer(FGG_CODE, fgg_simulator, 0.05, 3, 5, seed=seed)


def test_estimate_wer_accepts_both_ends_of_the_key_range(fgg_simulator):
    for seed in (0, SEED_LIMIT - 1):
        assert estimate_wer(FGG_CODE, fgg_simulator, 0.05, 3, 5, seed=seed).seed == seed


def test_inconsistent_zero_tables_raise_trellis_error(fgg_reference_encoder):
    sim = Simulator(FGG_CODE, fgg_reference_encoder)
    suffix, _ = sim._zero_tables(4)
    suffix[1:] = 0  # claims that every state reaches the identity for free
    with pytest.raises(TrellisError):
        sim.decode_block(all_syndromes(8, 2))
