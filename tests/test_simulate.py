"""Channel sampling, syndrome extraction, trellis decoding and WER runs.

The trellis decoder is held against a full exhaustive-ML enumeration of
every 9-qubit error on a 3-frame FGG window and every 8-qubit error on a
2-frame GR window, every syndrome route against direct symplectic
products with shifted generators, and the batch syndrome and failure
test against a frame-by-frame pullback through the inverse encoder.  The
syndrome-former trellis is held against the encoder's memory-state
trellis (`oracles.per_state_trellis`): its decoded errors against the
full backward pass and dense forward walk over memory states, and its
factored step against the per-state step, whose least metrics agree
frame by frame, on random encoders and the codes they realize (whose
generators may outlast the window), at both ends of the successor map's
rank and on synthesized small codes, in both metric dtypes.  Its tables
are also read against the chunks of the code's own generators.  The
decoding automaton of small trellises is held against the batched
decoder on random encoders' codes and synthesized small codes, and on
FGG against the full backward pass on every syndrome up to N = 8; the
tests of the batched decoder run it on a copy without the automaton
(`batched`).  The batched pass's low-weight table is held against the
lightest, lex-least error of weight at most 2 of every syndrome by the
product route (`oracles.low_weight_table`), and its decode against the
decode of a copy whose table is empty, on every two-qubit error of GR at
N = 10 too.  The table's split lookup is held, with the pass made to
fail, against that full pass on every error of weight at most 3 of GR
at N = 4 and every two-qubit error at N = 10 under a budget that holds
only the one-qubit errors, and against the weight-3 oracle on every
syndrome of GR at N = 3; the pass is held to decode exactly the trials
heavier than the lookup reaches.  The decoding tables that every simulator of
a code shares in one process are held read-only, built once per code
and cap, and held against fresh builds after the cache is cleared.  The
batch methods take and return frame keys and syndrome chunks; tests that
build bit arrays convert them through `oracles.keys_from_bits`,
`bits_from_keys` and `chunks_from_bits`, and the key sampler is held
against the float route it replaced (`oracles.sample_block_bits`).
"""

import copy
import itertools
import random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qconvenc import PauliOperator, SymplecticMap, parse_code, synthesize_encoder
from qconvenc.code import from_classical_polynomial
from qconvenc.library import FGG_CODE, FGG_CODE_TEXT, GR_CODE, GR_CODE_TEXT
from qconvenc.decoder import encoded_logical_operators
import qconvenc.simulate as simulate_module
from qconvenc.errors import CodeValidationError, InputDataError, ParseError, QconvError, TrellisError
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

from conftest import SMALL_GENERATORS, random_realized, random_symplectic
from oracles import (
    bits_from_keys,
    chunks_from_bits,
    full_viterbi_keys,
    keys_from_bits,
    low_weight_table,
    merged_syndrome_trellis,
    per_state_pass,
    sample_block_bits,
    syndrome_by_decoder,
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
    """Pauli operators as one (trials, N) frame-key block, through their
    (trials, N, 2n) bits."""
    out = np.zeros((len(errors), nframes, 2 * n), dtype=np.uint8)
    for row, e in enumerate(errors):
        for i in range(n * nframes):
            out[row, i // n, i % n] = (e.x >> i) & 1
            out[row, i // n, n + i % n] = (e.z >> i) & 1
    return keys_from_bits(out)


def from_block(keys, n):
    """One (N,) frame-key block row of n-qubit frames as a Pauli operator."""
    bits = bits_from_keys(keys, n)
    nframes = bits.shape[0]
    x = sum(int(bits[i // n, i % n]) << i for i in range(n * nframes))
    z = sum(int(bits[i // n, n + i % n]) << i for i in range(n * nframes))
    return PauliOperator(n * nframes, x, z)


def assert_decode_matches_full_pass(sim, chunks):
    assert (sim.decode_block(chunks) == full_viterbi_keys(sim, chunks)).all()


def batched(sim):
    """The simulator decoding by its batched pass, without the automaton."""
    out = copy.copy(sim)
    out._trellis = sim._trellis._replace(tables=None)
    return out


@pytest.fixture(scope="module")
def fgg_batched(fgg_simulator):
    return batched(fgg_simulator)


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
            for ex, ez in logicals:
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


def test_wer_worker_count_invariance(fgg_reference_encoder, fgg_simulator, monkeypatch):
    # trial i draws its own counters, so the count does not depend on how
    # the trials are cut: one block of 400, or blocks of 18 (counted on a
    # simulator built under the default cap, as estimate_wer builds its own)
    serial = estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 6, 400, seed=11)
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 10)
    assert fgg_simulator._block_size(6) == 18
    assert simulate_module._worker_count(fgg_simulator, [0.05], 6, 11, 0, 400) == [serial.failures]


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
    est = fgg_simulator.decode_block(chunks_from_bits(syndromes))
    assert (fgg_simulator.syndrome_block(est) == chunks_from_bits(syndromes)).all()
    for s in range(len(syndromes)):
        e = from_block(est[s], 3)
        assert e.weight() == best_w[s]
        assert lexkey(e.x, e.z, W3) == best_key[s]
        assert e == fgg_simulator.decode(tuple(syndromes[s].ravel()))


def test_gr_trellis_equals_exhaustive_ml(gr_simulator):
    nframes, width = 2, 2 * GR_CODE.n
    best_w, best_key = exhaustive_ml_table(GR_CODE, nframes)
    assert (best_w < 99).all()
    syndromes = all_syndromes(2 * nframes, 2)
    est = gr_simulator.decode_block(chunks_from_bits(syndromes))
    for s in range(len(syndromes)):
        e = from_block(est[s], GR_CODE.n)
        assert syndrome_by_products(GR_CODE, e, nframes) == tuple(syndromes[s].ravel())
        assert e.weight() == best_w[s]
        assert lexkey(e.x, e.z, width) == best_key[s]


def test_decode_block_rejects_non_bits(fgg_simulator):
    with pytest.raises(ValueError):
        fgg_simulator.decode_block(np.full((1, 2), 4))
    with pytest.raises(ValueError):
        fgg_simulator.decode((0, 2))
    with pytest.raises(ValueError):
        fgg_simulator.decode_block(np.zeros((1, 2, 3), dtype=np.uint8))


@pytest.mark.parametrize("which", ["fgg", "gr"])
def test_batch_methods_refuse_values_out_of_range(request, which):
    sim = request.getfixturevalue(f"{which}_simulator")
    top_key, top_chunk = 4**sim.n - 1, (1 << (sim.n - sim.k)) - 1
    # the largest key and chunk pass
    sim.syndrome_block(np.full((2, 3), top_key))
    sim.failure_block(np.full((2, 3), top_key))
    sim.decode_block(np.zeros((2, 3), dtype=np.uint8))
    assert sim.decode_block(np.array([[top_chunk, 0]])).shape == (1, 2)
    keys = rf"integer array of frame keys in \[0, {top_key + 1}\)"
    for method in (sim.syndrome_block, sim.failure_block):
        for bad in (np.full((2, 3), top_key + 1), np.zeros((2, 3, 2 * sim.n), dtype=np.uint8)):
            with pytest.raises(ValueError, match=keys):
                method(bad)
    chunks = rf"integer array of syndrome chunks in \[0, {top_chunk + 1}\)"
    for bad in (
        np.full((2, 3), top_chunk + 1), np.full((2, 3), -1),
        np.zeros((2, 3)), np.zeros((2, 3), dtype=bool), np.zeros(3, dtype=np.intp),
    ):
        with pytest.raises(ValueError, match=chunks):
            sim.decode_block(bad)


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
        assert synd[row].tolist() == chunks_from_bits(np.array([want]))[0].tolist()
        assert sim.syndrome(e, nframes) == tuple(b for f in want for b in f)
        moved = any(not u.part(n - k, n).is_identity() for u in frames)
        assert bool(fail[row]) == moved == sim.carries_logical_error(e, nframes)


@pytest.mark.parametrize("which, nframes, p, trials", [("fgg", 6, 0.1, 150), ("gr", 3, 0.1, 8)])
def test_block_failures_match_single_trials(request, which, nframes, p, trials):
    sim = request.getfixturevalue(f"{which}_simulator")
    block = _trial_failures(sim, [p], nframes, 5, 0, trials)[0]
    assert block.tolist() == [_run_trial(sim, p, nframes, 5, t) for t in range(trials)]
    assert block.tolist() == (
        _trial_failures(sim, [p], nframes, 5, 0, trials // 3)[0].tolist()
        + _trial_failures(sim, [p], nframes, 5, trials // 3, trials)[0].tolist()
    )
    # the scalar Pauli route over the same per-trial draws: trial t's
    # counter range of the Philox stream keyed by the seed
    for t in range(trials):
        bits = np.random.Philox(key=5)
        bits.advance(t * _trial_counters(sim.n, nframes))
        e = sample_error(DepolarizingChannel(p), sim.n * nframes, np.random.Generator(bits))
        est = sim.decode(sim.syndrome(e, nframes))
        assert sim.carries_logical_error(e * est, nframes) == block[t]


def test_rate_zero_code_never_fails():
    # no info wires: the failure test has no logical launches to check
    code = parse_code("n=2\nXX\nZZ\n")
    encoder = synthesize_encoder(code).circuit
    r = estimate_wer(code, encoder, 0.3, 4, 40, seed=1)
    assert r.failures == 0


def generator_chunks(code, lags):
    """c_j(f) of every physical frame f (X bits then Z bits, wire 1
    lowest) at every lag j < lags: bit a is the symplectic product of f
    with frame j + 1 of generator a, read off the code alone."""
    n = code.n
    frames = np.arange(1 << (2 * n))
    chunks = np.zeros((lags, len(frames)), dtype=np.intp)
    for j in range(lags):
        for a, gen in enumerate(code.generators):
            g = gen.frame(j + 1)
            bit = (np.bitwise_count(frames & g.z) + np.bitwise_count((frames >> n) & g.x)) & 1
            chunks[j] |= bit << a
    return chunks


@pytest.mark.parametrize("which", ["fgg", "gr"])
def test_trellis_matches_per_state_build(request, which):
    sim = request.getfixturevalue(f"{which}_simulator")
    code = sim.code
    r = code.n - code.k
    tr = sim._trellis
    nbranches, nstates = tr.succ.shape
    nu = max(g.span for g in code.generators)
    assert tr.lead == 0 and nstates == 1 << (r * (nu - 1)) and tr.dead.size == 0
    # every branch of state s is a distinct frame f that closes the top
    # slot's launch, c_{nu-1}(f) == s >> r(nu - 2), and leads to
    # ((s << r) & mask) ^ C(f) under chunk 0, with the chunks taken from
    # the code's generators rather than the encoder's responses; the
    # branches are the merged trellis's, one per successor, each the
    # lightest, lex-least frame of its (state, successor) class
    bits = bits_from_keys(tr.key, code.n)
    frame = bits.astype(np.intp) @ (1 << np.arange(2 * code.n))
    assert ((bits[..., : code.n] | bits[..., code.n :]).sum(axis=-1) == tr.weight).all()
    chunks = generator_chunks(code, nu)
    states = np.arange(nstates)
    assert (chunks[nu - 1][frame] == states >> (r * (nu - 2))).all()
    opened = sum(chunks[j][frame] << (r * j) for j in range(nu - 1))
    assert (tr.succ == ((states << r) & (nstates - 1)) ^ opened).all()
    assert all(len(set(frame[:, s].tolist())) == nbranches for s in states)
    merged = merged_syndrome_trellis(chunks, code.n, r)
    for s in states:
        assert len(set(tr.succ[:, s].tolist())) == nbranches == len(merged[s])
        branches = zip(tr.succ[:, s].tolist(), tr.weight[:, s].tolist(), tr.key[:, s].tolist())
        assert {d: (w, k) for d, w, k in branches} == merged[s]
    assert_backward_pass_matches_per_state(sim, np.random.default_rng(11))


def test_gr_syndrome_trellis_has_256_states(gr_simulator):
    tr = gr_simulator._trellis
    assert tr.succ.shape == tr.weight.shape == tr.key.shape == (16, 256)
    assert tr.tables is None
    assert sum(a.nbytes for a in (tr.succ, tr.weight, tr.key)) < 50 << 10


def test_gr_trellis_arrays_fit_in_four_megabytes(gr_synthesis):
    sim = Simulator(GR_CODE, gr_synthesis.circuit)
    arrays = [v for v in vars(sim).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in sim._trellis if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 4 << 20


# (n, k) of three rates: the step tests draw random encoders of these
# shapes whose syndrome responses end, and simulate the codes they realize
STEP_SHAPES = [(2, 0), (2, 1), (3, 1)]


def assert_backward_pass_matches_per_state(sim, rng, nframes=4, ntrials=6):
    """Backward passes of random trials, in both metric dtypes, by the
    factored step over syndrome states and by the per-state step over
    memory states, one chunk for every trial and one chunk per trial.
    Both trellises hold, before each frame, the least weight of the rest
    of the window that fits the chunks of the launches from that frame
    on, whatever came before; so the least metric over states agrees
    frame by frame (at the first frame only, once a lead shifts the
    launches)."""
    r = sim.n - sim.k
    tr = sim._trellis
    cut = max(nframes - tr.lead, 0)
    chunks = rng.integers(0, 1 << r, (ntrials, nframes))
    chunks[:, cut:] = 0
    want = per_state_pass(sim, chunks).min(axis=2)
    want[want >= 1 << 30] = -1
    for dtype, inf in ((np.int16, simulate_module._INF16), (np.int32, simulate_module._INF)):
        beta = np.full((tr.succ.shape[1], ntrials), inf, dtype=dtype)
        beta[0] = 0
        got = [beta.min(axis=0)]
        for t in range(cut - 1, -1, -1):
            step = sim._step(tr, beta, chunks[:, t], inf)
            assert step.dtype == dtype
            for c in range(1 << r):
                one = chunks[:, t] == c
                assert (sim._step(tr, beta, c, inf)[:, one] == step[:, one]).all()
            beta = step
            got.append(beta.min(axis=0))
        got = np.where(np.array(got[::-1]) >= inf, -1, got[::-1])
        if tr.lead:
            assert (got[0] == want[0]).all()
        else:
            assert (got == want).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STEP_SHAPES), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_factored_step_matches_per_state_pass_on_random_encoders(shape, m, seed):
    sim = Simulator(*random_realized(*shape, m, seed))
    assert_backward_pass_matches_per_state(sim, np.random.default_rng(seed))


@pytest.mark.parametrize("which", ["rank 0", "full rank", "no memory"])
def test_factored_step_matches_per_state_pass_at_the_kernel_extremes(
    which, fgg_simulator, fgg_reference_encoder
):
    # the extremes of the rank of the memory successor map: FGG's ignores
    # the memory state; a wire-through encoder (memory in to memory out,
    # frame in to frame out) passes it on unchanged; a memoryless encoder
    # has none.  The last two have syndrome responses of one frame, so
    # their syndrome trellises keep one live state of the 2^r.  Each
    # state of all three has one merged branch per value of c_0.
    if which == "rank 0":
        sim, shape, dead = fgg_simulator, (4, 4), 0
    elif which == "full rank":
        m, n = 2, FGG_CODE.n
        wires = [n + i for i in range(m)] + list(range(n))  # input wire -> output wire
        rows = [1 << o for o in wires] + [1 << (m + n + o) for o in wires]
        code = parse_code("n=3\nZII\nIZI\n")  # ancilla Z goes straight out
        sim, shape, dead = Simulator(code, SymplecticMap(m + n, tuple(rows))), (4, 4), 3
    else:
        code = parse_code("n=2\nXX\nZZ\n")
        sim, shape, dead = Simulator(code, synthesize_encoder(code).circuit), (4, 4), 3
        assert sim.m == 0
    tr = sim._trellis
    assert tr.succ.shape == shape and tr.dead.size == dead
    assert_backward_pass_matches_per_state(sim, np.random.default_rng(14))


def assert_both_paths_match_full_pass(sim, nframes, seed):
    """decode_block, by the simulator's own path and by the batched pass,
    against the memory-state oracle on the syndromes of sampled errors
    (so that every one has a path), dense and sparse."""
    if sim.code.nu > nframes:
        event("generators outlast the window")
    event("tables" if sim._trellis.tables is not None else "batched")
    errors = np.concatenate([
        _sample_block(0.1, sim.n, nframes, seed, 0, 12),
        _sample_block(0.6, sim.n, nframes, seed, 12, 24),
    ])
    syndromes = sim.syndrome_block(errors)
    for decoder in (sim, batched(sim)):
        assert_decode_matches_full_pass(decoder, syndromes)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(STEP_SHAPES), st.integers(0, 3), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_decode_matches_full_pass_on_random_encoders(shape, m, nframes, seed):
    sim = Simulator(*random_realized(*shape, m, seed))
    assert_both_paths_match_full_pass(sim, nframes, seed)


@settings(max_examples=80, deadline=None)
@given(SMALL_GENERATORS, st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_decode_matches_full_pass_on_synthesized_codes(drawn, nframes, seed):
    n, lines = drawn
    try:
        code = parse_code(f"n={n}\n" + "".join(line + "\n" for line in lines))
        encoder = synthesize_encoder(code, max_candidates=200)
    except (ParseError, CodeValidationError, QconvError):
        return
    # the oracle walks 4^m memory states
    if encoder.memory > 4:
        event("too wide for the oracle")
        return
    assert_both_paths_match_full_pass(Simulator(code, encoder.circuit), nframes, seed)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda nframes: st.lists(
            st.lists(st.integers(0, 3), min_size=nframes, max_size=nframes), min_size=1, max_size=6
        )
    ),
    st.floats(0.0, 1.0),
)
def test_fgg_decode_matches_full_backward_pass(fgg_batched, rows, density):
    # chunk values 0..3 spell the two syndrome bits; zero out a share of
    # them so that all-zero trials, zero prefixes and zero suffixes occur
    chunks = np.array(rows)
    chunks[np.linspace(0, 1, chunks.size).reshape(chunks.shape) > density] = 0
    assert_decode_matches_full_pass(fgg_batched, chunks)


def test_fgg_decode_matches_full_backward_pass_on_every_syndrome(fgg_batched):
    assert_decode_matches_full_pass(fgg_batched, chunks_from_bits(all_syndromes(8, 2)))


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
            assert_decode_matches_full_pass(gr_simulator, chunks_from_bits(block))


@pytest.mark.parametrize("past", [0, 1])
def test_fgg_decode_at_the_narrow_metric_bound(fgg_batched, past):
    # the last window whose weight bound n N fits int16 metrics, and the
    # first one that needs int32
    nframes = -(-simulate_module._INF16 // FGG_CODE.n) - 1 + past
    assert fgg_batched._metric(nframes)[0] == (np.int32 if past else np.int16)
    rng = np.random.default_rng(15)
    syndromes = (rng.random((3, nframes, 2)) < 0.2).astype(np.uint8)
    syndromes[0, :-2] = 0  # a long zero prefix
    syndromes[1, 2:] = 0  # a long zero suffix
    assert_decode_matches_full_pass(fgg_batched, chunks_from_bits(syndromes))


def test_zero_syndrome_decodes_to_identity_without_the_trellis(fgg_batched, monkeypatch):
    no_pass(fgg_batched, monkeypatch)
    est = fgg_batched.decode_block(np.zeros((5, 7), dtype=np.intp))
    assert est.shape == (5, 7) and not est.any()


def table_by_syndrome(sim, nframes):
    """The simulator's low-weight table of an nframes window, as syndrome
    -> frame-key row over the whole window."""
    tr = sim._trellis
    table, keys = sim._low_weight_table(nframes)[:2]
    r = sim.n - sim.k
    out = {}
    for row, key in zip(table.tolist(), keys.tolist()):
        # the last lead launches reach no frame, and the lead frames decode
        # to the identity
        chunks = np.frombuffer(row, dtype=sim._synd.dtype).tolist() + [0] * tr.lead
        syndrome = tuple((c >> a) & 1 for c in chunks for a in range(r))
        out[syndrome] = (0,) * tr.lead + tuple(key)
    assert len(out) == len(table)
    return out


def table_simulator(request, lead_code, which):
    """FGG's or GR's simulator, that of the code whose responses lead by
    one frame, or that of a random encoder (n = 3, k = 1, m = 2) and the
    code it realizes, whose generators span 4 frames and whose automaton
    does not fit."""
    if which == "lead":
        return Simulator(*lead_code)
    if which == "realized":
        return Simulator(*random_realized(3, 1, 2, 0))
    return request.getfixturevalue(f"{which}_simulator")


# GR's N = 7 window is longer than its span of 5, so some of its pairs
# lie more than a response span apart
@pytest.mark.parametrize(
    "which, nframes",
    [("fgg", 5), ("gr", 4), ("gr", 1), ("gr", 7), ("lead", 5), ("realized", 3), ("realized", 6)],
)
def test_single_error_table_matches_the_product_route(request, lead_code, which, nframes):
    sim = table_simulator(request, lead_code, which)
    assert sim._trellis.lead == (which == "lead")
    table = table_by_syndrome(sim, nframes)
    syndrome = lambda e: syndrome_by_products(sim.code, e, nframes)
    assert table == low_weight_table(syndrome, sim.n, nframes, 2)
    # errors of weight at most 2 give more than one syndrome, and at most
    # one each: the identity, 3 per qubit and 9 per pair of qubits
    qubits = sim.n * (nframes - sim._trellis.lead)
    assert 1 < len(table) <= 1 + 3 * qubits + 9 * qubits * (qubits - 1) // 2


def test_single_error_table_keeps_the_zero_row_alone_over_the_budget(
    fgg_reference_encoder, monkeypatch
):
    sim = batched(Simulator(FGG_CODE, fgg_reference_encoder))
    # 9 one-qubit errors per frame, each a row of N chunks: 9 N^2 cells;
    # the two-qubit errors' rows fit at neither window
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 9 * 4 * 4)
    assert len(sim._low_weight_table(4)[0]) > 1
    table, keys = sim._low_weight_table(5)[:2]
    assert len(table) == 1 and not np.frombuffer(table[0].tobytes(), dtype=np.uint8).any()
    assert keys.shape == (1, 5) and not keys.any()
    assert_decode_matches_full_pass(sim, sim.syndrome_block(_sample_block(0.1, 3, 5, 6, 0, 100)))


def test_low_weight_table_holds_one_qubit_errors_alone_between_the_budgets(gr_simulator, monkeypatch):
    # GR at N = 10: 120 one-qubit errors of 10 chunks fit, and 7,020
    # two-qubit errors do not
    cells = 1 << 14
    assert 120 * 10 <= cells < 7020 * 10
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", cells)
    syndrome = lambda e: syndrome_by_products(GR_CODE, e, 10)
    assert table_by_syndrome(gr_simulator, 10) == low_weight_table(syndrome, 4, 10, 1)
    errors = np.concatenate([_sample_block(p, 4, 10, 5, 0, 40) for p in (0.02, 0.1, 0.3)])
    syndromes = gr_simulator.syndrome_block(errors)
    est = gr_simulator.decode_block(syndromes)
    assert (est == without_table(gr_simulator).decode_block(syndromes)).all()


def without_table(sim):
    """The simulator with its low-weight table emptied: every syndrome,
    the zero one too, goes through the backward pass.  The table's one
    row holds chunk 2^(n - k), which no syndrome has."""
    out = copy.copy(sim)
    r = sim.n - sim.k

    def table(nframes):
        width = nframes - sim._trellis.lead
        row = np.full((1, width), 1 << r, dtype=sim._synd.dtype)
        keys = np.zeros((1, width), dtype=sim._trellis.key.dtype)
        # and no one-qubit rows, so no split lookup
        return simulate_module._void(row), keys, row[:0], np.zeros(1, dtype=np.intp), 0

    out._low_weight_table = table
    return out


@pytest.mark.parametrize("which, nframes", [("gr", 3), ("gr", 10), ("gr", 40), ("lead", 6), ("realized", 5)])
def test_decode_with_the_table_equals_the_decode_without_it(request, lead_code, which, nframes):
    sim = table_simulator(request, lead_code, which)
    assert sim._trellis.tables is None
    errors = np.concatenate(
        [_sample_block(p, sim.n, nframes, 21, 0, 60) for p in (0.01, 0.05, 0.1, 0.2, 0.3)]
    )
    syndromes = sim.syndrome_block(errors)
    est = sim.decode_block(syndromes)
    assert (est == without_table(sim).decode_block(syndromes)).all()
    # the table answers some nonzero syndromes, and the pass the others;
    # on GR at N = 3 the table holds all 4^3 syndromes, so it answers all
    tr = sim._trellis
    table = set(sim._low_weight_table(nframes)[0].tolist())
    rows = simulate_module._void(syndromes[:, : nframes - tr.lead].astype(sim._synd.dtype))
    hit = np.array([row in table for row in rows.tolist()])
    whole = (which, nframes) == ("gr", 3)
    assert (hit & syndromes.any(axis=1)).any() and hit.all() == whole
    assert (len(table) == 4**3) == whole


def errors_of_weight(n, nframes, weight):
    """The frame keys (errors, N) of every error of this weight on an
    nframes window of n-qubit frames: X, Y or Z on each of `weight`
    distinct qubits."""
    rows = []
    for qubits in itertools.combinations(range(n * nframes), weight):
        for kinds in itertools.product((1, 2, 3), repeat=weight):
            row = [0] * nframes
            for q, kind in zip(qubits, kinds):
                row[q // n] |= kind << (2 * (n - 1 - q % n))
            rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, nframes)


def no_pass(sim, monkeypatch):
    """Make the backward pass of `sim` fail the test if it runs."""

    def fail(*args):
        raise AssertionError("a syndrome reached the backward pass")

    monkeypatch.setattr(sim, "_viterbi_nonzero", fail)


def test_every_two_qubit_error_decodes_by_the_table_as_by_the_full_pass(gr_simulator, monkeypatch):
    # all 7,020 errors of weight 2 on GR at N = 10.  The table holds them;
    # at 2^14 cells it holds only the one-qubit errors (their 120 rows of
    # 10 chunks fit, the 7,020 of the pairs do not), and the split lookup
    # answers the syndromes it lacks
    errors = errors_of_weight(4, 10, 2)
    assert len(errors) == 7020
    syndromes = gr_simulator.syndrome_block(errors)
    full = without_table(gr_simulator).decode_block(syndromes)
    no_pass(gr_simulator, monkeypatch)
    for cells in (simulate_module._BLOCK_CELLS, 1 << 14):
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", cells)
        stored = simulate_module._weight(gr_simulator._low_weight_table(10)[1], 4).sum(axis=1)
        assert stored.max() == (2 if cells > 1 << 14 else 1)
        est = gr_simulator.decode_block(syndromes)
        assert (est == full).all()
        # the decoded errors weigh at most 2, and some of them 2
        weights = simulate_module._weight(est, 4).sum(axis=1)
        assert weights.max() == 2


def test_every_error_of_weight_at_most_3_decodes_by_the_split_lookup(gr_simulator, monkeypatch):
    # all 16,249 errors of weight at most 3 on GR at N = 4, whose 256
    # syndromes the full pass decodes once each; those that no error of
    # weight at most 2 gives are answered by the split lookup
    errors = np.concatenate([errors_of_weight(4, 4, w) for w in range(4)])
    assert len(errors) == 1 + 48 + 1080 + 15120
    syndromes = gr_simulator.syndrome_block(errors)
    distinct, which = np.unique(syndromes, axis=0, return_inverse=True)
    full = without_table(gr_simulator).decode_block(distinct)
    no_pass(gr_simulator, monkeypatch)
    est = gr_simulator.decode_block(syndromes)
    assert (est == full[which.ravel()]).all()
    weights = simulate_module._weight(full, 4).sum(axis=1)
    assert len(distinct) == 256 and weights.max() == 3
    assert len(gr_simulator._low_weight_table(4)[0]) < 256


def test_split_lookup_matches_the_weight_3_oracle(gr_simulator, monkeypatch):
    # GR at N = 3: every syndrome, each lightest, lex-least error of weight
    # at most 3 by the product route.  At 2^10 cells the table holds only
    # the one-qubit errors (36 rows of 3 chunks), so the split lookup gives
    # the weight-2 answers
    oracle = low_weight_table(lambda e: syndrome_by_products(GR_CODE, e, 3), 4, 3, 3)
    assert len(oracle) == 4**3
    syndromes = np.array(list(oracle), dtype=np.uint8).reshape(-1, 3, 2)
    want = np.array(list(oracle.values()))
    assert (gr_simulator.decode_block(chunks_from_bits(syndromes)) == want).all()
    no_pass(gr_simulator, monkeypatch)
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 10)
    assert len(gr_simulator._low_weight_table(3)[1]) < 4**3
    assert (gr_simulator.decode_block(chunks_from_bits(syndromes)) == want).all()


@pytest.mark.parametrize("nframes, most", [(10, 3), (40, 2)])
def test_the_pass_decodes_only_trials_heavier_than_the_split_lookup(gr_simulator, monkeypatch, nframes, most):
    # the table holds every error of weight at most 2 at N = 10 and at most 1
    # at N = 40, and the split lookup one more: a trial reaches the pass
    # exactly when its least weight is larger
    assert int(simulate_module._weight(gr_simulator._low_weight_table(nframes)[1], 4).sum(axis=1).max()) == most - 1
    errors = np.concatenate([_sample_block(p, 4, nframes, 4, 0, 60) for p in (0.02, 0.05)])
    syndromes = gr_simulator.syndrome_block(errors)
    reached = []
    full = gr_simulator._viterbi_nonzero

    def recording(chunks):
        reached.extend(map(tuple, chunks.tolist()))
        return full(chunks)

    monkeypatch.setattr(gr_simulator, "_viterbi_nonzero", recording)
    weights = simulate_module._weight(gr_simulator.decode_block(syndromes), 4).sum(axis=1)
    heavy = sorted(map(tuple, syndromes[weights > most].tolist()))
    assert heavy and sorted(reached) == heavy
    assert (weights == most).any()


@pytest.mark.parametrize("which, nframes", [("fgg", 6), ("gr", 4)])
def test_multi_point_blocks_match_per_point_runs(request, monkeypatch, which, nframes):
    sim = request.getfixturevalue(f"{which}_simulator")
    ps, lo, hi = [0.3, 0.02, 0.1], 3, 40
    each = np.array([_trial_failures(sim, [p], nframes, 9, lo, hi)[0] for p in ps])
    assert 0 < each.sum() < each.size
    assert (_trial_failures(sim, ps, nframes, 9, lo, hi) == each).all()
    # blocks of 15 trial-points, 5 trials at each of the 3 points: the
    # trials split inside; a trial holds 4 x `_trial_counters` Philox
    # words and two cells per qubit
    cells = 4 * _trial_counters(sim.n, nframes) + 2 * sim.n * nframes
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 16 * cells - 1)
    assert sim._block_size(nframes) == 15
    drawn = []

    def recording(p, n, nframes, seed, a, b):
        drawn.append((p, a, b))
        return _sample_block(p, n, nframes, seed, a, b)

    monkeypatch.setattr(simulate_module, "_sample_block", recording)
    assert (_trial_failures(sim, ps, nframes, 9, lo, hi) == each).all()
    cuts = list(range(lo, hi, 5)) + [hi]
    assert drawn == [(p, a, b) for a, b in zip(cuts, cuts[1:]) for p in ps]
    assert simulate_module._worker_count(sim, ps, nframes, 9, lo, hi) == each.sum(axis=1).tolist()


def test_gr_trellis_op_makes_one_backward_pass(gr_synthesis, monkeypatch):
    # the benchmark's GR op: 2 points of 30 trials at N = 10, serially.  Both
    # points share one sample block.  At seed 1 every syndrome is one that
    # an error of weight at most 2 gives, so the low-weight table answers
    # all of them, and at seed 3 the 2 it lacks are of weight 3, so its
    # split lookup answers them: only the 2 steps of the trellis build run.
    # At seed 6 one of the 2 it lacks needs weight 4 and reaches the pass,
    # in one step call per frame: 10 calls
    calls = []
    step = Simulator._step

    def counting(*args):
        calls.append(args[1].shape)
        return step(*args)

    monkeypatch.setattr(Simulator, "_step", staticmethod(counting))
    simulate_module._code_tables.cache_clear()  # a fresh build
    estimate_wers(GR_CODE, gr_synthesis.circuit, [0.01, 0.02], 10, 30, seed=3)
    assert calls == [(256, 4), (256, 4)]
    calls.clear()
    estimate_wers(GR_CODE, gr_synthesis.circuit, [0.01, 0.02], 10, 30, seed=1)
    assert calls == []
    estimate_wers(GR_CODE, gr_synthesis.circuit, [0.01, 0.02], 10, 30, seed=6)
    assert calls == [(256, 1)] * 10


@pytest.mark.parametrize("seed", [3, SEED_LIMIT - 1])
def test_gr_wers_equal_for_any_worker_count(gr_synthesis, gr_simulator, monkeypatch, seed):
    # trial i draws its own counters, so the counts do not depend on how
    # the trials are cut: into blocks of 1, 2 or 5 trials at each point, a
    # trial holding 24 Philox words and 48 error bits per point at N = 6
    # (counted on a simulator built under the default cap, since the
    # shrunken one refuses GR's trellis)
    ps = [0.05, 0.1]
    serial = [r.failures for r in estimate_wers(GR_CODE, gr_synthesis.circuit, ps, 6, 13, seed=seed)]
    assert 0 < sum(serial) < 26
    for block in (1, 2, 5):
        monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", len(ps) * block * 72)
        assert gr_simulator._block_size(6) // len(ps) == block
        assert simulate_module._worker_count(gr_simulator, ps, 6, seed, 0, 13) == serial


def test_gr_decode_block_equals_per_trial_decoding(gr_simulator):
    rng = np.random.default_rng(23)
    nframes = 4
    syndromes = (rng.random((200, nframes, 2)) < 0.3).astype(np.uint8)
    syndromes[rng.random(200) < 0.25] = 0
    nonzero = np.flatnonzero(syndromes.any(axis=(1, 2)))
    assert 20 < len(nonzero) < 180
    # the trials of one decode group meet different chunks at one frame
    nbranches, nstates = gr_simulator._trellis.succ.shape
    group = simulate_module._BLOCK_CELLS // (max(nframes + 1, nbranches) * nstates)
    chunks = syndromes[nonzero[:group]] @ np.array([1, 2])
    assert group > 1 and any(len(set(chunks[:, t].tolist())) > 2 for t in range(nframes))
    syndromes = chunks_from_bits(syndromes)
    est = gr_simulator.decode_block(syndromes)
    assert (gr_simulator.syndrome_block(est) == syndromes).all()
    for s, e in zip(syndromes, est):
        assert (gr_simulator.decode_block(s[None])[0] == e).all()


def test_estimate_wers_validates_points(fgg_reference_encoder):
    with pytest.raises(ValueError):
        estimate_wers(FGG_CODE, fgg_reference_encoder, [], 4, 20)
    with pytest.raises(ValueError):
        estimate_wers(FGG_CODE, fgg_reference_encoder, [0.05, 0.8], 4, 20)


@pytest.mark.parametrize("n, nframes", [(3, 6), (4, 5), (2, 1)])
def test_sample_block_splits_anywhere(n, nframes):
    whole = _sample_block(0.3, n, nframes, 9, 0, 40)
    assert whole.shape == (40, nframes) and whole.any()
    for cut in (1, 7, 39):
        parts = [_sample_block(0.3, n, nframes, 9, 0, cut), _sample_block(0.3, n, nframes, 9, cut, 40)]
        assert (np.concatenate(parts) == whole).all()
    assert (_sample_block(0.3, n, nframes, 9, 13, 14)[0] == whole[13]).all()
    assert not (_sample_block(0.3, n, nframes, 10, 0, 40) == whole).all()


@pytest.mark.parametrize("p", [0.0, 0.03, 0.3, 0.74])
@pytest.mark.parametrize("n, nframes", [(3, 6), (4, 5), (2, 1)])
def test_sample_block_keys_equal_the_float_sampler(n, nframes, p):
    # the integer thresholds make exactly the float route's tests, so
    # every block, wherever it is cut, holds the float route's errors
    want = keys_from_bits(sample_block_bits(p, n, nframes, 9, 0, 40))
    assert (_sample_block(p, n, nframes, 9, 0, 40) == want).all()
    for cut in (1, 7, 39):
        parts = [_sample_block(p, n, nframes, 9, 0, cut), _sample_block(p, n, nframes, 9, cut, 40)]
        assert (np.concatenate(parts) == want).all()
        assert (keys_from_bits(sample_block_bits(p, n, nframes, 9, cut, 40)) == want[cut:]).all()
    assert (_sample_block(p, n, nframes, 9, 13, 14) == want[13:14]).all()


def test_sample_block_at_p_zero_is_the_identity():
    assert not _sample_block(0.0, 3, 8, 1, 0, 50).any()


@pytest.mark.parametrize("p", [0.03, 0.3, 0.74])
def test_sample_block_kinds_have_probability_p_over_3(p):
    errors = bits_from_keys(_sample_block(p, 4, 25, 21, 0, 1000), 4)  # 10^5 qubits
    x, z = errors[:, :, :4], errors[:, :, 4:]
    qubits = x.size
    sigma = (qubits * p / 3 * (1 - p / 3)) ** 0.5
    for kind in (x & (1 - z), x & z, (1 - x) & z):
        assert abs(int(kind.sum()) - qubits * p / 3) < 5 * sigma


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
def test_estimate_wer_rejects_seeds_outside_the_key_range(fgg_reference_encoder, seed):
    with pytest.raises(ValueError):
        estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 3, 5, seed=seed)


def test_estimate_wer_accepts_both_ends_of_the_key_range(fgg_reference_encoder):
    for seed in (0, SEED_LIMIT - 1):
        assert estimate_wer(FGG_CODE, fgg_reference_encoder, 0.05, 3, 5, seed=seed).seed == seed


@pytest.fixture(scope="module")
def lead_code():
    """A CSS code whose generators start with an identity frame, so its
    syndrome responses lead by one frame, and an encoder for it (m = 10)."""
    code = from_classical_polynomial([26, 114, 70])
    return code, synthesize_encoder(code).circuit


def test_syndrome_off_the_trellis_raises_trellis_error(lead_code):
    sim = Simulator(*lead_code)
    tr = sim._trellis
    assert tr.lead == 1 and tr.succ.shape == (16, 1024) and tr.tables is None
    # the launch at the last frame reaches no frame of the window, so its
    # chunk is zero for every error
    errors = _sample_block(0.3, 3, 5, 4, 0, 40)
    syndromes = sim.syndrome_block(errors)
    assert not syndromes[:, -1].any() and syndromes.any()
    # the memory-state oracle would walk 4^10 states; check the estimates
    # instead: their first frame is the identity, and each has the
    # syndrome and weighs no more than the error
    est = sim.decode_block(syndromes)
    assert not est[:, 0].any() and (sim.syndrome_block(est) == syndromes).all()
    def weight(keys):
        e = bits_from_keys(keys, 3)
        return (e[:, :, :3] | e[:, :, 3:]).sum(axis=(1, 2))

    assert (weight(est) <= weight(errors)).all()
    syndromes[7, -1] |= 2
    with pytest.raises(TrellisError, match="no trellis path"):
        sim.decode_block(syndromes)


@pytest.mark.parametrize("trials", [1, 1457])
def test_one_trial_block_of_a_code_with_a_lead(lead_code, gr_simulator, monkeypatch, trials):
    # the batched pass cuts the lead off the chunks; a block of one trial
    # cuts one row, a view that counts as contiguous whatever its stride.
    # At N = 20 a sample block holds 1,456 trials, so 1,457 trials end in
    # a block of one; a raised cap runs them all in one block.  GR's holds
    # 2,184 at N = 10, 1,092 at each of two points
    sim = Simulator(*lead_code)
    assert sim._trellis.lead == 1 and sim._trellis.tables is None and sim._block_size(20) == 1456
    assert gr_simulator._block_size(10) == 2184
    counts = [r.failures for r in estimate_wers(*lead_code, [0.05], 20, trials, seed=3)]
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 22)
    assert Simulator(*lead_code)._block_size(20) > trials
    assert counts == [r.failures for r in estimate_wers(*lead_code, [0.05], 20, trials, seed=3)]


@pytest.mark.parametrize(
    "which",
    ["gr", "lead"] + [pytest.param(nkms, id="realized-{}-{}-{}-{}".format(*nkms))
                      for nkms in [(3, 1, 2, 3), (3, 1, 3, 5), (2, 1, 3, 2), (3, 1, 3, 10)]],
)
def test_syndrome_block_matches_the_products_on_short_windows(request, lead_code, which):
    # the syndrome responses span the code's nu lags whatever the window,
    # so a window of N < nu frames reads only their first N; the realized
    # codes span 5, 6, 6 and 4 frames, the last after one lead frame
    if which == "gr":
        sim = request.getfixturevalue("gr_simulator")
    elif which == "lead":
        sim = Simulator(*lead_code)
    else:
        sim = Simulator(*random_realized(*which))
    assert sim.code.nu > 3
    rng = np.random.default_rng(19)
    for nframes in range(1, sim.code.nu + 2):
        errors = [sample_error(DepolarizingChannel(0.3), sim.n * nframes, rng) for _ in range(20)]
        want = [syndrome_by_products(sim.code, e, nframes) for e in errors]
        got = sim.syndrome_block(to_block(errors, sim.n, nframes))
        assert (got == chunks_from_bits(np.array(want).reshape(len(errors), nframes, -1))).all()


# -- the metric automaton ------------------------------------------------------


def assert_tables_match_batched(sim, rng, ntrials=20):
    """Keys of the tables and of the batched decoder on random syndromes,
    dense and sparse, at several window lengths: equal, or both raise the
    same error.  Both walk by one forward step, so keys they agree on are
    checked against the full pass over the memory-state trellis too."""
    r = sim.n - sim.k
    for nframes in (1, 2, 3, 6):
        syndromes = chunks_from_bits((rng.random((ntrials, nframes, r)) < rng.random()).astype(np.uint8))
        outcomes = []
        for decoder in (sim, batched(sim)):
            try:
                outcomes.append(decoder.decode_block(syndromes))
            except TrellisError as exc:
                outcomes.append(str(exc))
        if isinstance(outcomes[0], str) or isinstance(outcomes[1], str):
            event("no path")
            assert outcomes[0] == outcomes[1]
        else:
            assert (outcomes[0] == outcomes[1]).all()
            assert (outcomes[0] == full_viterbi_keys(sim, syndromes)).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STEP_SHAPES), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_tables_match_factored_decoder_on_random_encoders(shape, m, seed):
    sim = Simulator(*random_realized(*shape, m, seed))
    event("tables" if sim._trellis.tables is not None else "over budget")
    assert_tables_match_batched(sim, np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(SMALL_GENERATORS, st.integers(0, 2**32 - 1))
def test_tables_match_factored_decoder_on_synthesized_codes(drawn, seed):
    n, lines = drawn
    try:
        code = parse_code(f"n={n}\n" + "".join(line + "\n" for line in lines))
    except (ParseError, CodeValidationError):
        return
    try:
        sim = Simulator(code, synthesize_encoder(code, max_candidates=200).circuit)
    except QconvError:  # no encoder, or one too wide for the trellis
        return
    event("tables" if sim._trellis.tables is not None else "over budget")
    assert_tables_match_batched(sim, np.random.default_rng(seed))


def test_fgg_tables_match_full_backward_pass_on_every_syndrome(fgg_simulator):
    assert fgg_simulator._trellis.tables is not None
    for nframes in range(1, 9):
        syndromes = all_syndromes(2 * nframes, 2)
        for lo in range(0, len(syndromes), 4096):
            assert_decode_matches_full_pass(fgg_simulator, chunks_from_bits(syndromes[lo : lo + 4096]))


def test_fgg_closure_sizes(fgg_simulator):
    # 5 normalized metric vectors and 6 walk sets besides the empty one,
    # under 4 chunks
    tab = fgg_simulator._trellis.tables
    assert tab.stride == 5 * 4 and len(tab.ends) == 7
    assert not tab.ends[0] and len(tab.fnext) == len(tab.fkey) == 7 * tab.stride


def test_rate_zero_code_selects_the_tables():
    code = parse_code("n=2\nXX\nZZ\n")
    sim = Simulator(code, synthesize_encoder(code).circuit)
    assert sim._trellis.tables is not None
    assert_tables_match_batched(sim, np.random.default_rng(16))


def test_gr_decodes_by_the_batched_pass(gr_synthesis, monkeypatch):
    # one closure vector's steps touch 4 x 16 x 256 = 2^14 cells, so the
    # walk's two seed sets refuse more than 2^18 / 2^15 = 8 vectors: the
    # pinned vector's expansion finds 4 more, and expanding the first of
    # them (the fewest that could overflow) finds 4 more again, 9 in all
    calls = []
    step = Simulator._step

    def counting(*args):
        calls.append(args[1].shape)
        return step(*args)

    monkeypatch.setattr(Simulator, "_step", staticmethod(counting))
    simulate_module._code_tables.cache_clear()  # a fresh build
    assert Simulator(GR_CODE, gr_synthesis.circuit)._trellis.tables is None
    assert calls == [(256, 4), (256, 4)]


def test_encoder_that_does_not_realize_the_code_is_refused():
    # a random encoder (m = 2) whose syndrome responses never end, so that
    # it realizes no code
    encoder = random_symplectic(2 + FGG_CODE.n, random.Random(0))
    for simulate in (Simulator, lambda code, enc: estimate_wer(code, enc, 0.05, 6, 20, seed=1)):
        with pytest.raises(InputDataError) as info:
            simulate(FGG_CODE, encoder)
        assert str(info.value).startswith("input circuit does not realize the code: generator 1")
        assert len(str(info.value).splitlines()) == 1
    # an encoder narrower than one frame is refused the same way, and
    # InputDataError is a ValueError
    with pytest.raises(ValueError, match="narrower than one frame"):
        Simulator(FGG_CODE, SymplecticMap.identity(2))


def test_automaton_and_batched_pass_share_one_trellis(fgg_reference_encoder):
    sim = Simulator(FGG_CODE, fgg_reference_encoder)
    tr = sim._trellis
    for nframes in (1, 6, 20):
        simulate_module._worker_count(sim, [0.05], nframes, 1, 0, 20)
    # one trellis for every window, built with the simulator
    assert sim._trellis is tr and tr.tables is not None
    errors = _sample_block(0.3, 3, 6, 2, 0, 100)
    syndromes = sim.syndrome_block(errors)
    assert (batched(sim).decode_block(syndromes) == sim.decode_block(syndromes)).all()


@pytest.mark.parametrize(
    "corrupt, message",
    [("key and set", "lost mid-trellis"), ("set", "did not terminate at the identity")],
)
def test_corrupt_walk_entry_raises_trellis_error(fgg_reference_encoder, corrupt, message):
    sim = Simulator(FGG_CODE, fgg_reference_encoder)
    # corrupt private copies: the shared tables are read-only
    shared = sim._trellis.tables
    tab = shared._replace(fnext=shared.fnext.copy(), fkey=shared.fkey.copy())
    sim._trellis = sim._trellis._replace(tables=tab)
    # the entry of a one-frame window with chunk 1: from the walk set of
    # the vector before the frame, with the pinned vector 0 after it
    entry = tab.start[tab.back[1]] + 1
    syndrome = np.array([[1]])
    assert sim.decode_block(syndrome).any()
    tab.fnext[entry] = 0  # the empty walk set
    if corrupt == "key and set":
        tab.fkey[entry] = sim._nokey
    with pytest.raises(TrellisError, match=message):
        sim.decode_block(syndrome)


# -- the decoding tables one process shares per code ---------------------------


def shared_arrays(sim):
    """Every array of the code's shared tables that a simulator holds."""
    tr = sim._trellis
    arrays = [sim._synd, tr.succ, tr.weight, tr.key, tr.dead]
    return arrays + [v for v in tr.tables or () if isinstance(v, np.ndarray)]


def test_equal_codes_share_one_build(fgg_reference_encoder):
    simulate_module._code_tables.cache_clear()
    a = Simulator(parse_code(FGG_CODE_TEXT), fgg_reference_encoder)
    b = Simulator(parse_code(FGG_CODE_TEXT), fgg_reference_encoder)
    assert a.code is not b.code and a._trellis is b._trellis
    assert all(x is y for x, y in zip(shared_arrays(a), shared_arrays(b)))
    info = simulate_module._code_tables.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # so are the low-weight tables of its windows
    assert a._low_weight_table(4) is b._low_weight_table(4)


def test_each_cap_builds_its_own_tables(fgg_reference_encoder, gr_synthesis, monkeypatch):
    default = Simulator(FGG_CODE, fgg_reference_encoder)._trellis
    simulate_module._code_tables.cache_clear()
    monkeypatch.setattr(simulate_module, "_BLOCK_CELLS", 1 << 10)
    # at this cap FGG's walk sets overflow their closure, so it has no automaton
    small = Simulator(FGG_CODE, fgg_reference_encoder)._trellis
    assert small is not default and default.tables is not None and small.tables is None
    # a refusal is raised each time and never cached
    for _ in range(2):
        with pytest.raises(InputDataError, match="256 states x 16 branches"):
            Simulator(GR_CODE, gr_synthesis.circuit)
    info = simulate_module._code_tables.cache_info()
    assert (info.misses, info.currsize) == (3, 1)
    monkeypatch.undo()
    assert Simulator(FGG_CODE, fgg_reference_encoder)._trellis.tables is not None


def test_window_and_failure_tables_are_built_once_and_read_only(gr_synthesis):
    # a second simulator of an equal code and encoder map builds neither
    # the low-weight table nor the failure tables of a window again
    simulate_module._launches.cache_clear()
    a = Simulator(parse_code(GR_CODE_TEXT), gr_synthesis.circuit)
    b = Simulator(parse_code(GR_CODE_TEXT), gr_synthesis.circuit)
    assert a.code is not b.code and a.smap is not b.smap
    errors = _sample_block(0.05, 4, 6, 2, 0, 20)
    for sim in (a, b):
        sim.failure_block(errors)
    info = simulate_module._launches.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    launches = simulate_module._launches(a.smap, 4, 2, 6)
    assert a._low_weight_table(6) is b._low_weight_table(6)
    for arr in (*a._low_weight_table(6)[:4], launches):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@pytest.mark.parametrize("which", ["fgg", "gr"])
def test_shared_arrays_are_read_only(request, which):
    sim = request.getfixturevalue(f"{which}_simulator")
    arrays = shared_arrays(sim)
    assert len(arrays) == (10 if which == "fgg" else 5)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_the_cache_keeps_at_most_its_bound():
    simulate_module._code_tables.cache_clear()
    codes = {}
    seed = 0
    while len(codes) <= simulate_module._CODES_CACHED:
        code, smap = random_realized(2, 1, 1, seed)
        codes.setdefault(code, smap)
        seed += 1
    for code, smap in codes.items():
        Simulator(code, smap)
    info = simulate_module._code_tables.cache_info()
    assert info.misses == len(codes) and info.maxsize == info.currsize == simulate_module._CODES_CACHED


@pytest.mark.parametrize("which", ["fgg", "gr", "lead", "realized"])
def test_outputs_equal_on_a_hit_and_after_a_clear(request, lead_code, which):
    code, encoder = {
        "fgg": lambda: (FGG_CODE, request.getfixturevalue("fgg_reference_encoder")),
        "gr": lambda: (GR_CODE, request.getfixturevalue("gr_synthesis").circuit),
        "lead": lambda: lead_code,
        "realized": lambda: random_realized(3, 1, 2, 0),
    }[which]()
    nframes, ps = 5, [0.05, 0.2]
    errors = np.concatenate([_sample_block(p, code.n, nframes, 8, 0, 40) for p in ps])

    def outputs():
        sim = Simulator(code, encoder)
        syndromes = sim.syndrome_block(errors)
        est = sim.decode_block(syndromes)
        counts = [r.failures for r in estimate_wers(code, encoder, ps, nframes, 30, seed=3)]
        return sim._trellis, syndromes, est, sim.failure_block(errors ^ est), counts

    simulate_module._code_tables.cache_clear()
    fresh = outputs()
    hit = outputs()
    assert hit[0] is fresh[0]
    simulate_module._code_tables.cache_clear()
    rebuilt = outputs()
    assert rebuilt[0] is not fresh[0]
    for a, b, c in zip(fresh[1:], hit[1:], rebuilt[1:]):
        assert np.array_equal(a, b) and np.array_equal(a, c)
