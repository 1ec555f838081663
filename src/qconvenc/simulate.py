"""Depolarizing-channel Monte Carlo for streamed stabilizer encoders.

A window of N physical frames is sent through the channel; the receiver
measures one syndrome bit per (generator, launch frame) pair for launches
1..N — the ancilla outputs of the online decoder.  The encoder must
realize the code (`pipeline.verify_encoder`), so those bits depend on
the code's generators alone, and the syndrome responses are read off
them.  Pulling an N-frame error back through the
frame-wise inverse encoder (final memory pinned to the identity) is a
bijection between window errors and (initial memory state, unencoded
frame sequence) pairs, and a syndrome bit is an ancilla X component of
the pullback.  So the errors that fit a syndrome do not depend on the
encoder's memory, and decoding is hard-decision maximum likelihood over
them.

Below p = 3/4 the channel likelihood is strictly decreasing in Pauli
weight, so the branch metric is plain weight; ties are broken toward the
lexicographically smallest error, frame by frame, wire 1 most
significant, ordered I < X < Y < Z.

A trial fails when the residual (actual times estimated error) moves any
logical content: equivalently, when its pullback shows anything but the
identity on an info wire.  Residuals inside the stabilizer group pull
back to pure ancilla-Z content and count as successes.

A block of trials is one frame key per (trial, frame), a symbol per
qubit (I = 0, X = 1, Y = 2, Z = 3, bits z and x ^ z), wire 1 most
significant: the key of a product is the XOR of the keys.  A pulled-back
bit is the symplectic product of the window error with the encoder's
image of the matching unencoded basis operator launched at that frame:
ancilla Z for a syndrome bit, info X or Z for the failure test.  The
images are the same at every launch frame, shifted, so `_response` maps
each frame key to its packed products with each lag of the one image,
and a launch's bits are the XOR of those lookups over the lags.  A
syndrome chunk packs a launch's n - k bits, generator a at bit a.

The decoder runs over the syndrome-former trellis (Schalkwijk and Vinck,
IEEE Trans. Commun. 1976).  Frame f adds the r = n - k bit chunk c_j(f)
to the syndrome of the launch j frames before it.  Lags at which every
syndrome response is the identity are trimmed from the front: the first
`lead` frames then reach no measured launch and decode to the identity,
and the last `lead` chunks are zero.  With nu the remaining span of the
generators (at least 2), the state after a frame packs the residual
chunks of the nu - 1 launches still open, slot j holding the launch j
frames back.  Frame f leaves state sigma under chunk s iff c_{nu-1}(f)
equals the top slot, which it closes, and leads to
((sigma << r) & mask) ^ C(f) ^ s, with C(f) the sum of c_j(f) << rj over
j < nu - 1.  Paths start anywhere (the open slots then stand for
launches before the window) and end at state 0.

Frames with the same chunk at every lag are parallel: they close the
same slot and lead to the same successor from every state, so only the
lightest of a class, lex-least among equal weights, can lie on the
decoded path, and the trellis keeps it alone.  It is stored in factored
form.  The branches of a live state are the class representatives whose
c_{nu-1} is its top slot, and the chunk enters a successor by XOR, so
the successor under chunk 0 and the weight of every (branch, state) pair
are the whole trellis: a backward step permutes the metrics after the
frame by the chunk, gathers them at those successors, adds the weights
and takes a `min` over the branches.  A state whose top slot lies
outside the image of c_{nu-1} has no branch and stays at the sentinel.
GR has 256 states of 16 branches, FGG 4 of 4.  Metrics are int16 while
the window's weight bound n N stays below the int16 sentinel, int32
beyond.  The forward walk stops once the path has no weight left: every
later frame is the identity.

A syndrome that some error of weight at most 2 gives needs no trellis
(syndrome decoding by coset leaders, MacWilliams and Sloane 1977, ch. 1).
Its minimum weight is the least weight of those errors, and every error
of that weight is among them, so it decodes to the lightest of them,
lex-least among equal weights: the zero syndrome to the identity.  The
low-weight table of a window holds the identity, every one-qubit error
and every product of two on distinct qubits, as frame keys (a product's
keys are the XOR of its factors'), and reads their chunk rows through
the same syndrome route as a block.  It orders them by weight and then
by their frame keys, keeps the first of each row, and stores the
distinct rows sorted, each with its error's frame keys; the batched pass
looks every trial up in it first, with one binary search per block.

A syndrome s that the table lacks goes through a split lookup first
(Dumer, Probl. Inf. Transm. 1989).  With every error of weight at most w
in the table, it looks up s ^ row(e) for every one-qubit error e, latest
qubit first and X < Y < Z on each, and answers e times the hit's error
for the first e whose hit's error starts at a qubit after e's.  That is
exact: a hit weighs w, since a lighter one times e would have put s in
the table; the lex-least error of weight w + 1 starts as late as it can,
with the least symbol there and then the lex-least rest; and the table
keeps the lex-least error of weight w of each row.  A weight-v error
changes at most v chunks per response lag, so a trial with more than
(w + 1) L nonzero chunks, L the lags from the lead, skips the lookup.

Small trellises decode as a finite automaton instead (Best, Burnashev,
Lévy, Rabinovich, Fishburn, Calderbank and Costello, IEEE Trans. Inf.
Theory 1995, use the same finite set of metric states to compute exact
Viterbi error rates).  A backward metric shifted to minimum 0 depends
only on the shifted metric one frame later and the frame's chunk, and
the forward walk's test (branch weight plus the metric after it equals
the metric before it) survives the shift; so the walk's committed key
and its next set of states depend only on its set of states, the
shifted metric after the frame and the chunk.  The simulator closes the
shifted metrics under backward steps from the pinned one, and the walk
sets under forward steps from the states at metric 0, and stores both
transition tables; a block then decodes by one lookup per frame
backward and one forward, all its trials at once.  The tables are built
by the same backward and forward steps as the batched pass, a walk set
under one shifted metric and chunk being one trial of the forward step,
whenever both closures fit the `_BLOCK_CELLS` budget,
counted as the cells their steps touch: on FGG, 5 shifted metrics and 7
walk sets.  The walk starts from two sets or more (the empty one and the
pinned metric's {0}), so the shifted metrics may fill half the budget.
A larger closure, or one that does not end, falls back to the batched
backward pass and forward walk: on GR the pinned metric and the first of
its 4 successors find 9 shifted metrics, over the 8 that fit.

`_BLOCK_CELLS` bounds each batch by the arrays it holds per trial, and
refuses a trellis whose one step of one trial would not fit it.  A
sample block holds the same trials at every point, each sampled per
point and then syndromed, decoded and failure-tested in one call per
layer, and holds a trial's Philox words and 2n N cells of sampling per
point; the split lookup takes the block's trials that miss the
low-weight table in groups held by their 3n N x N chunks against every
one-qubit error, and the batched pass those that it leaves in groups
held by the larger of their (N + 1) x states backward metrics and the
branches x states values of one backward step, which then runs once per
frame.  The table holds the one-qubit errors while their 3n N x N chunk
cells fit, and the two-qubit errors while their 9 C(n N, 2) x N cells
fit too: on GR up to N = 15.  `estimate_wers` runs every block in the
calling process, one after another.

The syndrome tables, trellis and automaton depend on the code alone, so
a process builds them once per code and cap (`_code_tables`, which keeps
the last `_CODES_CACHED` codes), and every `Simulator` of the code
shares them, read-only, with the low-weight table of each window kept
beside them.  The failure tables are built once per encoder map and
window (`_launches`), and shared in the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import SymplecticMap, as_symplectic
from .code import ConvolutionalCode, FramedPauliSequence
from .errors import SEED_LIMIT, InputDataError, TrellisError
from .pauli import PauliOperator
from .pipeline import verify_encoder

__all__ = [
    "DepolarizingChannel",
    "sample_error",
    "syndrome_by_products",
    "Simulator",
    "SimulationResult",
    "estimate_wer",
    "estimate_wers",
    "SEED_LIMIT",
]

# sentinels for unreachable states, in int32 and in int16 metrics; each
# stays far enough below its type's maximum to add one frame's weight
_INF = 1 << 30
_INF16 = 1 << 14

# Upper bound on the cells one batch of trials holds, divided among the
# trials by what each holds in the array that batch bounds:
# - a sample block, 4 x `_trial_counters` Philox words and 2n N cells
#   (each qubit's threshold tests and symbol) per trial and point;
# - a lookup group of the split lookup, its row XORed with each one-qubit
#   error's row: 3n N x N chunks;
# - a decode group of the batched pass, the larger of its (N + 1) x states
#   backward metrics and the branches x states values that one backward
#   step gathers and adds, so that each frame's step is one call.
# On GR at N = 10 that is 2,184 trials per sample block (1,092 at each of
# two points), 218 per lookup group and 64 per decode group; on FGG at
# N = 20, 1,456 per sample block.  A trellis whose step of one trial
# exceeds it is refused.  The low-weight table of a window drops its
# two-qubit errors when their chunk rows exceed it (on GR past N = 15),
# and holds only the zero row when the one-qubit errors' rows do too.  It
# also bounds each closure of the decoding automaton, at chunks x branches
# x states cells per shifted metric and that times the shifted metrics per
# walk set; a closure over it leaves the decoding to the batched pass.
# The shifted metrics get half of it: the walk starts from two sets or more.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class DepolarizingChannel:
    """Each qubit independently suffers X, Y or Z, each with probability p/3."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must lie in [0, 1]")


def _pack(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(v: int, length: int) -> np.ndarray:
    raw = np.frombuffer(v.to_bytes(-(-length // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def sample_error(ch: DepolarizingChannel, length: int, rng: np.random.Generator) -> PauliOperator:
    if length < 1:
        raise ValueError("need at least one qubit")
    # u below p/3 is X, below 2p/3 is Y and below p is Z, each at rate p/3
    u, p = rng.random(length), ch.p
    return PauliOperator(length, _pack(u < 2 * p / 3), _pack((u >= p / 3) & (u < p)))


def _trial_counters(n: int, nframes: int) -> int:
    """Philox counter values each trial owns: one 64-bit word per qubit,
    four words per counter value."""
    return -(-(n * nframes) // 4)


def _sample_block(p: float, n: int, nframes: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Frame keys (trials, N) of trials lo..hi-1.  One Philox stream is
    keyed by the seed, and trial i owns the counter range from i times
    `_trial_counters`, so a block is one `advance` and one `random_raw`
    draw, and its trials do not depend on where blocks start.  A word
    makes u < c, as `Generator.random` reads it, exactly when it lies
    below ceil(c 2^53) 2^11 (c < 1); the symbol is 3[u < p] - [u < p/3] -
    [u < 2p/3], as in `sample_error`."""
    stride = _trial_counters(n, nframes)
    bits = np.random.Philox(key=seed)
    bits.advance(lo * stride)
    raw = bits.random_raw((hi - lo) * 4 * stride).reshape(hi - lo, 4 * stride)
    words = raw[:, : n * nframes].reshape(hi - lo, nframes, n)
    third, two_thirds, hit = (words < (math.ceil(c * 2.0**53) << 11) for c in (p / 3, 2 * p / 3, p))
    return (3 * hit.view(np.uint8) - third - two_thirds) @ (4 ** np.arange(n - 1, -1, -1))


def _infer_frames(code: ConvolutionalCode, error: PauliOperator, nframes: Optional[int]) -> int:
    if nframes is None:
        if error.width % code.n:
            raise ValueError("error width is not a whole number of frames")
        return error.width // code.n
    if error.width != nframes * code.n:
        raise ValueError(f"error width {error.width} != {nframes} frames x {code.n}")
    return nframes


def place_at_frame(seq: FramedPauliSequence, shift: int, nframes: int) -> PauliOperator:
    """`seq` launched at frame `shift` (1-based) on an nframes window.

    Frames falling beyond the window are dropped; against an operator
    supported inside the window this truncation never changes a
    symplectic product.
    """
    n = seq.frame_width
    x = z = 0
    for t in range(1, seq.span + 1):
        pos = shift + t - 1
        if pos > nframes:
            break
        f = seq.frame(t)
        x |= f.x << ((pos - 1) * n)
        z |= f.z << ((pos - 1) * n)
    return PauliOperator(nframes * n, x, z)


def syndrome_by_products(
    code: ConvolutionalCode, error: PauliOperator, nframes: Optional[int] = None
) -> Tuple[int, ...]:
    """Reference route: bit (t, a) = sp(error, generator a launched at frame t)."""
    nframes = _infer_frames(code, error, nframes)
    bits: List[int] = []
    for t in range(1, nframes + 1):
        for gen in code.generators:
            bits.append(error.sp(place_at_frame(gen, t, nframes)))
    return tuple(bits)


def _void(rows: np.ndarray) -> np.ndarray:
    """One void scalar per row holding its bytes, sized by the row: a
    one-row view counts as contiguous whatever its row stride.  Voids
    compare and sort by their bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.shape[1] * rows.itemsize}").ravel()


class _Automaton(NamedTuple):
    """The trellis as a finite automaton over normalized path metrics.

    A vector is a backward metric over the states shifted to minimum 0
    (unreachable states at `_INF`); the one before a frame depends only
    on the one after it and the frame's chunk, so with V vectors and C
    chunks the edge e = vector after * C + chunk looks it up.  A walk
    set is the set of states still on an optimal path; the key the walk
    commits at a frame and its next set depend only on its set, the
    vector after the frame and the chunk, so the entry set * V * C + e
    looks them up.  Vector 0 is the pinned one, zero at the identity
    state only, and walk set 0 the empty set, which only the dead
    vector (no state reachable) starts from.
    """

    back: np.ndarray  # edge -> vector * C before the frame
    start: np.ndarray  # vector * C -> walk set * V * C of its states at metric 0
    fnext: np.ndarray  # entry -> next walk set * V * C
    fkey: np.ndarray  # entry -> committed frame key (above every key if none)
    ends: np.ndarray  # walk set -> holds the identity state
    stride: int  # V * C


def _closure(
    seeds: np.ndarray, expand: Callable[[np.ndarray], np.ndarray], cap: int,
    fanout: Optional[int] = None,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Breadth-first closure of the rows `seeds` (s, w) under `expand`,
    which maps rows (b, w) to successor rows (b, d, w).  Returns the
    distinct rows in the order found, the ids of the seeds and the ids
    (rows, d) of every row's successors; None once more than `cap` rows
    are found.  Given the fanout d, each expansion takes the fewest rows
    that could find too many, so that an overflow stops early."""
    ids: Dict[bytes, int] = {}
    found: List[np.ndarray] = []

    def index(rows: np.ndarray) -> List[int]:
        out = []
        for i, key in enumerate(_void(rows).tolist()):
            if key not in ids:
                ids[key] = len(found)
                found.append(rows[i])
            out.append(ids[key])
        return out

    seed_ids = index(seeds)
    succ = []
    done = 0
    while done < len(found):
        if len(found) > cap:
            return None
        size = len(found) if fanout is None else (cap - len(found)) // fanout + 1
        batch = found[done : done + size]
        nxt = expand(np.array(batch))
        done += len(batch)
        succ.append(np.reshape(index(nxt.reshape(-1, nxt.shape[2])), nxt.shape[:2]))
    return np.array(found), np.array(seed_ids), np.concatenate(succ)


class _Trellis(NamedTuple):
    """The syndrome-former trellis of one set of syndrome responses.

    `succ[b, s]` is the successor of state s on its branch b under chunk
    0 (chunk c XORs c into it), and `weight[b, s]` and `key[b, s]` the
    weight and key of the frame that branch emits.  `dead` lists the
    states with no branch, `tables` is the decoding automaton when its
    closures fit `_BLOCK_CELLS`, and the decoded frames start `lead`
    frames into the window.
    """

    lead: int
    succ: np.ndarray
    weight: np.ndarray
    key: np.ndarray
    dead: np.ndarray
    tables: Optional[_Automaton]


# codes whose decoding tables one process keeps (`_code_tables`)
_CODES_CACHED = 8


@functools.lru_cache(maxsize=_CODES_CACHED)
def _code_tables(code: ConvolutionalCode, cells: int) -> Tuple[np.ndarray, _Trellis, Callable]:
    """The decoding tables of `code` under the cap `cells` (the caller's
    `_BLOCK_CELLS`), built once per process and read-only: the syndrome
    tables `_synd` of `Simulator`, their trellis, and the cache of its
    windows' low-weight tables (`_window_table`, called with the window
    and the cap).  A refusal raises `InputDataError` and is not cached."""
    n = code.n
    if 4**n > cells:
        raise InputDataError(f"the syndrome trellis branches over 4^{n} frames; the cap is {cells:,}")
    # the responses of ancilla Z are the generators, since the encoder realizes the code
    synd = _response([[f.vec() for f in gen.frames] for gen in code.generators], n)
    tr = _build_trellis(synd, n, n - code.k, cells)
    for a in (synd, *tr[1:5], *(tr.tables or ())[:5]):
        a.setflags(write=False)
    windows = functools.lru_cache(maxsize=_CODES_CACHED)(functools.partial(_window_table, n, synd, tr))
    return synd, tr, windows


def _window_table(
    n: int, synd: np.ndarray, tr: _Trellis, nframes: int, cells: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """The low-weight table of an nframes window of n-qubit frames with
    the syndrome tables `synd` and their trellis `tr`, over the frames it
    decodes from the lead on, read-only: the distinct chunk rows of the
    identity, of every one-qubit error while their rows fit `cells` cells
    and of every two-qubit error while theirs do too, as sorted voids of
    the chunk dtype, and for each the frame-key row of the lightest error
    that gives it, lex-least among equal weights; for the split lookup,
    the one-qubit errors' rows, latest qubit first and X < Y < Z on each,
    each row's first qubit (wire 1 of the lead frame is 0) and the most
    nonzero chunks of an error one qubit heavier than the table's."""
    width = nframes - tr.lead
    # X, Y and Z on every wire, in ascending key order: one wire per triple, the last first
    codes = np.sort(np.arange(1, 4)[:, None] << (2 * np.arange(n)), axis=None)
    nerr = width * len(codes)
    if nerr * width > cells:
        nerr = 0
    # the frame keys of the identity and of every one-qubit error
    keys = np.zeros((1 + nerr, width), dtype=tr.key.dtype)
    for f in range(width if nerr else 0):
        keys[1 + f * len(codes) : 1 + (f + 1) * len(codes), f] = codes
    # every product of two one-qubit errors on distinct qubits, 9 per pair
    # of the n N qubits, while their rows fit; its keys are the XOR of theirs
    nq = nerr // 3
    if 0 < 9 * (nq * (nq - 1) // 2) * width <= cells:
        a, b = np.triu_indices(nq, 1)
        one = keys[1:].reshape(nq, 3, width)
        keys = np.concatenate([keys, (one[a, :, None] ^ one[b, None]).reshape(-1, width)])
    weight = np.repeat([0, 1, 2], [1, nerr, len(keys) - 1 - nerr])
    rows = _lagged(synd[tr.lead :], keys)
    # the one-qubit rows with their frames reversed: latest qubit first
    singles = rows[1 : 1 + nerr].reshape(-1, len(codes), width)[::-1].reshape(-1, width)
    # the chunk rows by a block's syndrome route, ordered by chunk row (its
    # bytes, as voids compare them), then by weight, then lex over the
    # frame keys, frame 1 most significant: the first error of each row is
    # its lightest, lex-least one
    raw = rows.view(np.uint8)
    order = np.lexsort([*keys.T[::-1], weight, *raw.T[::-1]])
    raw = raw[order]
    first = np.ones(len(raw), dtype=bool)
    first[1:] = (raw[1:] != raw[:-1]).any(axis=1)
    table, keys = _void(raw[first]), keys[order[first]]
    symbols = (keys[..., None] >> (2 * np.arange(n - 1, -1, -1))) & 3
    start = (symbols.reshape(len(keys), -1) != 0).argmax(axis=1)
    for arr in (table, keys, singles, start):
        arr.setflags(write=False)
    return table, keys, singles, start, int(weight[-1] + 1) * (len(synd) - tr.lead)


@functools.lru_cache(maxsize=_CODES_CACHED)
def _launches(smap: SymplecticMap, n: int, k: int, nframes: int) -> np.ndarray:
    """`_response` tables of info X and Z of the encoder map `smap` from
    identity memory, capped at the nframes window (a catastrophic
    encoder's responses never end), built once per process and
    read-only."""
    logical = [1 << (half + n - k + j) for half in (0, n) for j in range(k)]
    tables = _response([smap.stream(n, [d], nframes)[0] for d in logical], n)
    tables.setflags(write=False)
    return tables


def _weight(keys: np.ndarray, n: int) -> np.ndarray:
    """Pauli weights of n-qubit frame keys: the symbols that are not I."""
    return np.bitwise_count((keys | (keys >> 1)) & sum(1 << (2 * q) for q in range(n)))


def _build_trellis(synd: np.ndarray, n: int, r: int, cells: int) -> _Trellis:
    """The trellis of the syndrome tables from lag `lead`, the first at
    which one is not zero."""
    lead = int(synd.any(axis=1).argmax())
    resp = synd[lead:]
    nu = max(2, len(resp))
    # the chunk c_j(f) of every frame key f at every lag j, padded to nu lags
    chunk = np.zeros((nu, 4**n), dtype=np.intp)
    chunk[: len(resp)] = resp
    # int16, so that adding it to the metrics casts nothing
    weight = _weight(np.arange(4**n), n).astype(np.int16)
    # frames with one chunk vector are parallel: one class per vector,
    # represented by its lightest, lex-least frame.  Sorted by vector
    # from c_{nu-1} down, then by weight (the sort is stable, so keys
    # ascend among equals), the classes fall in one run per value in the
    # image of c_{nu-1}, each led by its representative
    order = np.lexsort(np.vstack([weight, chunk]))
    chunk = chunk[:, order]
    first = np.flatnonzero(np.diff(chunk, prepend=-1).any(axis=0))
    closing = np.bincount(chunk[-1, first], minlength=1 << r)
    image = np.flatnonzero(closing)
    nstates, nbranches = 1 << (r * (nu - 1)), len(first) // len(image)
    if nstates * nbranches > cells:
        raise InputDataError(
            f"the syndrome trellis needs {nstates:,} states x {nbranches:,} branches"
            f" = {nstates * nbranches:,} cells per step; the cap is {cells:,}"
        )
    runs = np.zeros((1 << r, nbranches), dtype=np.intp)
    runs[image] = np.arange(len(first)).reshape(len(image), nbranches)
    states = np.arange(nstates)
    top = states >> (r * (nu - 2))
    cls = runs[top].T
    opened = (chunk[:-1, first] << (r * np.arange(nu - 1))[:, None]).sum(axis=0)
    succ = ((states << r) & (nstates - 1)) ^ opened[cls]
    dead = np.flatnonzero(closing[top] == 0)
    branch = order[first][cls]
    tr = _Trellis(lead, succ, weight[branch], branch.astype(np.min_scalar_type(4**n)), dead, None)
    return tr._replace(tables=_build_automaton(tr, 1 << r, 4**n, cells))


def _build_automaton(tr: _Trellis, nchunks: int, nokey: int, cells: int) -> Optional[_Automaton]:
    """The automaton of `_Automaton` over the trellis, or None when either
    closure would touch more than `cells` cells.  `nokey` lies above every
    frame key."""
    nbranches, nstates = tr.succ.shape
    # cells of one backward step of one vector under every chunk
    cost = nchunks * nbranches * nstates

    # the closure expands the vectors in the order it finds them, and the
    # walk tests its branches against their steps before the shift
    stepped = []

    def normalized(vecs):  # vectors (V, S) -> shifted metrics (V, C, S) one frame earlier
        beta = np.repeat(vecs, nchunks, axis=0)
        c = np.tile(np.arange(nchunks), len(vecs))
        step = Simulator._step(tr, beta.T, c, _INF).T.reshape(len(vecs), nchunks, nstates)
        stepped.append(step)
        # a dead vector, every state unreachable, stays all _INF
        return np.where(step < _INF, step - step.min(axis=2, keepdims=True), _INF)

    pinned = np.full((1, nstates), _INF, dtype=np.int32)
    pinned[0, 0] = 0
    # the walk's two or more seed sets would refuse more vectors than this
    bwd = _closure(pinned, normalized, cells // (2 * cost), nchunks)
    if bwd is None:
        return None
    vecs, _, succ = bwd
    nvecs = len(vecs)
    # one forward step per (set, vector after the frame, chunk), the trial
    # of the walk: its pairs are the set's states with a finite metric
    # before the frame, the only ones with an optimal branch
    stride = nvecs * nchunks
    stepped = np.concatenate(stepped).reshape(stride, nstates)
    after = np.repeat(vecs, nchunks, axis=0).T
    keys = []

    def walk(sets):  # walk sets (L, S) -> next walk sets (L, V * C, S)
        bi, si = np.nonzero((sets[:, None, :] & (stepped < _INF)).reshape(-1, nstates))
        c = np.tile(np.arange(nchunks), len(sets) * nvecs)
        before = stepped[bi % stride, si]
        kmin, nxt = Simulator._forward(tr, bi, si, c, np.tile(after, len(sets)), before, nokey)
        keys.append(kmin.reshape(len(sets), -1))
        return nxt.reshape(len(sets), -1, nstates)

    starts = np.concatenate([np.zeros((1, nstates), dtype=bool), vecs == 0])
    # whole frontiers: its fanout V * C would cut batches to one set
    fwd = _closure(starts, walk, cells // (nvecs * cost))
    if fwd is None:
        return None
    sets, start, fnext = fwd
    return _Automaton(
        back=(succ * nchunks).ravel(),
        start=np.repeat(start[1:], nchunks) * stride,
        fnext=fnext.ravel() * stride,
        fkey=np.concatenate(keys).ravel().astype(tr.key.dtype),
        ends=sets[:, 0],
        stride=stride,
    )


def _response(emitted: List[List[int]], n: int) -> np.ndarray:
    """Tables (lag, 4^n), over the lags of the longest of `emitted`: bit d
    of entry [lag, f] is the symplectic product of the frame with key f
    and frame `lag` of emitted[d], the identity past its end."""
    frames = np.zeros((len(emitted), max(map(len, emitted), default=0)), dtype=np.int64)
    for d, seq in enumerate(emitted):
        frames[d, : len(seq)] = seq
    # per wire, ex gz + ez gx = (ex ^ ez) gz + ez (gx ^ gz): the product is
    # the parity of the key and a mask of symbol bits (gx ^ gz, gz)
    wires = np.arange(n)
    gx, gz = ((frames[..., None] >> (wires + half)) & 1 for half in (0, n))
    masks = (((gx ^ gz) << 1 | gz) << (2 * (n - 1 - wires))).sum(axis=2)
    tables = np.zeros((frames.shape[1], 4**n), dtype=np.min_scalar_type((1 << len(emitted)) - 1))
    for d, mask in enumerate(masks):
        tables |= ((np.bitwise_count(mask[:, None] & np.arange(4**n)) & 1) << d).astype(tables.dtype)
    return tables


def _lagged(tables: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Packed bits (trials, N) of the launches at every frame: the XOR,
    over the lags of `_response` tables, of the entries of the frames
    that each lag reaches."""
    nframes = keys.shape[1]
    acc = np.zeros(keys.shape, dtype=tables.dtype)
    for lag in np.flatnonzero(tables[:nframes].any(axis=1)):
        acc[:, : nframes - lag] ^= tables[lag].take(keys[:, lag:])
    return acc


def _lookup(table: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each void of `rows` falls in the sorted voids `table`, and whether it is there."""
    at = np.minimum(np.searchsorted(table, rows), len(table) - 1)
    return at, table[at] == rows


def _checked(a, bound: int, what: str) -> np.ndarray:
    """`a` as a (trials, N) integer array of values in [0, bound)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.dtype.kind not in "iu" or (a.size and (a.min() < 0 or a.max() >= bound)):
        raise ValueError(f"want a (trials, frames) integer array of {what} in [0, {bound})")
    return a


class Simulator:
    """Decoder and failure test of one encoder, over the syndrome-former
    trellis of its code.

    The encoder must realize the code: `pipeline.verify_encoder` runs
    first and raises `InputDataError` for one that does not, or that is
    narrower than one frame.  The syndrome tables `_synd` (for such an
    encoder the responses are the generators, so they are read off the
    code) and their one trellis `_trellis` depend on the code alone:
    every simulator of a code in one process shares them
    (`_code_tables`), read-only, and a code over the `_BLOCK_CELLS`
    bound raises `InputDataError` at construction.  The trellis decodes
    by its automaton when it has one, as FGG's does, and otherwise, as
    GR's does, by the window's low-weight table (`_low_weight_table`,
    built on first use and shared like the trellis), its split lookup,
    and the batched backward pass and forward walk for the syndromes
    both lack.  The batch methods take and return (trials, N) arrays of
    frame keys or syndrome chunks; the scalar methods are their one-trial
    views on Pauli operators and syndrome bits.
    """

    def __init__(self, code: ConvolutionalCode, encoder) -> None:
        smap = as_symplectic(encoder)
        verify_encoder(code, smap)
        self.code = code
        self.smap = smap
        self.n, self.k, self.m = code.n, code.k, smap.width - code.n
        self._nokey = 1 << (2 * code.n)  # above every frame key
        self._synd, self._trellis, self._windows = _code_tables(code, _BLOCK_CELLS)

    def _metric(self, nframes: int) -> Tuple[type, int]:
        """Metric dtype and unreachable-state sentinel of an nframes
        window: int16 while its weight bound n N stays below the int16
        sentinel, int32 beyond."""
        return (np.int16, _INF16) if self.n * nframes < _INF16 else (np.int32, _INF)

    @staticmethod
    def _step(tr: _Trellis, beta: np.ndarray, c, inf: int) -> np.ndarray:
        """Backward step through one frame: the least remaining weights
        (states, trials) before the frame from those after it, capped at
        the sentinel.  `c` is the frame's syndrome chunk, one for every
        trial or one per trial.  With the trials innermost, the gather at
        the successors copies a row of trials per (branch, state)."""
        nstates, ntrials = beta.shape
        # the chunk enters every successor by XOR: permute by it first
        perm = beta[np.arange(nstates)[:, None] ^ np.reshape(c, (1, -1)), np.arange(ntrials)]
        nxt = perm.take(tr.succ, axis=0)
        nxt += tr.weight[:, :, None]
        step = np.minimum.reduce(nxt, axis=0)
        if tr.dead.size:
            step[tr.dead] = inf
        return np.minimum(step, inf, out=step)

    @staticmethod
    def _forward(tr: _Trellis, bi, si, chunks, after, before, nokey: int) -> Tuple[np.ndarray, np.ndarray]:
        """Forward tie-break step through one frame from the pairs (bi,
        si) of trial and state on an optimal path, at metrics `before`,
        with each trial's chunk and the metrics (states, trials) `after`
        the frame.  A branch is optimal when its weight plus the metric
        after it is the one before it.  Returns the lex-least optimal key
        each trial commits (`nokey` if none) and the mask (trials, states)
        of the states its branches of that key reach."""
        nstates, ntrials = after.shape
        dst = tr.succ.T.take(si, axis=0) ^ chunks.take(bi)[:, None]
        ok = tr.weight.T.take(si, axis=0) + after.take(dst * ntrials + bi[:, None]) == before[:, None]
        cand = np.where(ok, tr.key.T.take(si, axis=0), nokey)
        kmin = np.full(ntrials, nokey, dtype=cand.dtype)
        np.minimum.at(kmin, bi, cand.min(axis=1))
        pi, ji = np.nonzero(ok & (cand == kmin.take(bi)[:, None]))
        nxt = np.zeros((ntrials, nstates), dtype=bool)
        nxt[bi[pi], dst[pi, ji]] = True
        return kmin, nxt

    def _block_size(self, nframes: int) -> int:
        """Trials per sample block, each holding its Philox words and two
        cells per qubit, its threshold tests and symbol."""
        return max(1, _BLOCK_CELLS // (4 * _trial_counters(self.n, nframes) + 2 * self.n * nframes))

    def _low_weight_table(self, nframes: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """The low-weight table of an nframes window (`_window_table`),
        which every simulator of the code in the process shares."""
        return self._windows(nframes, _BLOCK_CELLS)

    # -- batch path -----------------------------------------------------------

    def syndrome_block(self, keys: np.ndarray) -> np.ndarray:
        """Syndrome chunks (trials, N) of a block of window errors' frame keys."""
        return _lagged(self._synd, _checked(keys, self._nokey, "frame keys"))

    def failure_block(self, keys: np.ndarray) -> np.ndarray:
        """Per-trial flags: the residual of these keys disturbs info content."""
        keys = _checked(keys, self._nokey, "frame keys")
        return _lagged(_launches(self.smap, self.n, self.k, keys.shape[1]), keys).any(axis=1)

    def decode_block(self, chunks: np.ndarray) -> np.ndarray:
        """Frame keys (trials, N) of the minimum-weight errors with these
        syndrome chunks, lex-least among ties."""
        chunks = _checked(chunks, 1 << (self.n - self.k), "syndrome chunks")
        return self._viterbi(chunks.astype(np.intp, copy=False))

    def _viterbi(self, chunks: np.ndarray) -> np.ndarray:
        """Frame keys (trials, N) of the decoded errors."""
        tr = self._trellis
        decode = self._viterbi_tables if tr.tables is not None else self._viterbi_batched
        # the lead frames reach no measured launch, and the launches of the
        # last lead chunks no frame of the window
        cut = max(chunks.shape[1] - tr.lead, 0)
        if chunks[:, cut:].any():
            raise TrellisError("no trellis path matches the syndrome")
        keys = np.zeros(chunks.shape, dtype=tr.key.dtype)
        if cut:
            keys[:, tr.lead :] = decode(chunks[:, :cut])
        return keys

    def _viterbi_tables(self, chunks: np.ndarray) -> np.ndarray:
        """`_viterbi` by the automaton."""
        tab = self._trellis.tables
        # backward: turn every frame's chunk into its edge, from the pinned
        # vector 0 after the last frame; forward: turn each edge into the
        # walk's entry
        edges = chunks.T.copy()
        vec = np.zeros(chunks.shape[0], dtype=np.intp)
        for t in range(len(edges) - 1, -1, -1):
            edges[t] += vec
            vec = tab.back[edges[t]]
        walk = tab.start[vec]
        # only the dead vector, with no state at metric 0, starts empty
        if not walk.all():
            raise TrellisError("no trellis path matches the syndrome")
        for t in range(len(edges)):
            edges[t] += walk
            walk = tab.fnext[edges[t]]
        keys = tab.fkey[edges.T]
        if not tab.ends[walk // tab.stride].all():
            if (keys == self._nokey).any():
                raise TrellisError("optimal path lost mid-trellis")
            raise TrellisError("trellis walk did not terminate at the identity")
        return keys

    def _viterbi_batched(self, chunks: np.ndarray) -> np.ndarray:
        """`_viterbi` by the low-weight table, its split lookup, and the
        backward pass and forward walk for the syndromes both lack."""
        tr = self._trellis
        table, lightest, singles, start, most = self._low_weight_table(chunks.shape[1] + tr.lead)
        rows = chunks.astype(self._synd.dtype)
        at, done = _lookup(table, _void(rows))
        keys = lightest[at]
        if len(singles):
            # the split lookup, in groups that hold their rows XORed with every one-qubit error's;
            # error e puts symbol e % 3 + 1 on qubit[e], wire 1 of the lead frame being qubit 0
            qubit = len(singles) // 3 - 1 - np.arange(len(singles)) // 3
            near = np.flatnonzero(~done & (np.count_nonzero(rows, axis=1) <= most))
            group = max(1, _BLOCK_CELLS // singles.size)
            for a in range(0, near.size, group):
                part = near[a : a + group]
                at, hit = _lookup(table, _void((rows[part, None] ^ singles).reshape(-1, rows.shape[1])))
                at = at.reshape(len(part), -1)
                ok = hit.reshape(at.shape) & (start[at] > qubit)
                found, e = ok.any(axis=1), ok.argmax(axis=1)
                i, e, q = part[found], e[found], qubit[e[found]]
                keys[i] = lightest[at[found, e]]
                keys[i, q // self.n] |= ((e % 3 + 1) << (2 * (self.n - 1 - q % self.n))).astype(keys.dtype)
                done[i] = True
        # the others go in groups whose backward metrics and one step's
        # gathered values fit the budget
        missed = np.flatnonzero(~done)
        group = max(1, _BLOCK_CELLS // (max(chunks.shape[1] + 1, tr.succ.shape[0]) * tr.succ.shape[1]))
        for a in range(0, missed.size, group):
            part = missed[a : a + group]
            keys[part] = self._viterbi_nonzero(chunks[part])
        return keys

    def _viterbi_nonzero(self, chunks: np.ndarray) -> np.ndarray:
        tr = self._trellis
        ntrials, nframes = chunks.shape
        nstates = tr.succ.shape[1]
        dtype, inf = self._metric(nframes)
        # beta[t][s, b]: least remaining weight of trial b from state s
        # after frame t to the pinned state 0 after frame N, all trials'
        # steps at once
        beta = np.empty((nframes + 1, nstates, ntrials), dtype=dtype)
        beta[nframes] = inf
        beta[nframes, 0] = 0
        for t in range(nframes - 1, -1, -1):
            beta[t] = self._step(tr, beta[t + 1], chunks[:, t], inf)
        best = beta[0].min(axis=0)
        if (best >= inf).any():
            raise TrellisError("no trellis path matches the syndrome")
        # walk forward from every state at the least weight; a frame and
        # the state before it fix the state after it, so after nu - 1
        # frames one state is left per trial
        bi, si = np.nonzero((beta[0] == best).T)
        remaining = best
        keys = np.zeros((ntrials, nframes), dtype=tr.key.dtype)
        t = 0
        # once no weight remains, every later frame is the identity, key 0
        while t < nframes and remaining.any():
            kmin, nxt = self._forward(tr, bi, si, chunks[:, t], beta[t + 1], remaining.take(bi), self._nokey)
            if (kmin == self._nokey).any():
                raise TrellisError("optimal path lost mid-trellis")
            bi, si = np.nonzero(nxt)
            keys[:, t] = kmin
            remaining = remaining - _weight(kmin, self.n)
            t += 1
        # each trial reaches state 0 through the frames left at no further
        # weight (with none left, it is on state 0)
        ends = np.zeros(ntrials, dtype=bool)
        ends[bi[beta[t][si, bi] == 0]] = True
        if remaining.any() or not ends.all():
            raise TrellisError("trellis walk did not terminate at the identity")
        return keys

    # -- one trial --------------------------------------------------------------

    def _keys(self, error: PauliOperator, nframes: Optional[int]) -> np.ndarray:
        """The frame keys (1, N) of a window error."""
        shape = (1, _infer_frames(self.code, error, nframes), self.n)
        x, z = (_unpack(v, error.width).reshape(shape) for v in (error.x, error.z))
        return (2 * z + (x ^ z)) @ (4 ** np.arange(self.n - 1, -1, -1))

    def syndrome(self, error: PauliOperator, nframes: Optional[int] = None) -> Tuple[int, ...]:
        chunks = self.syndrome_block(self._keys(error, nframes))[0]
        return tuple(((chunks[:, None] >> np.arange(self.n - self.k)) & 1).ravel().tolist())

    def decode(self, syndrome: Sequence[int]) -> PauliOperator:
        """Minimum-weight error with this syndrome, lex-least among ties."""
        r = self.n - self.k
        if len(syndrome) % r:
            raise ValueError("syndrome length is not a whole number of frames")
        if len(syndrome) == 0:
            return PauliOperator.identity(0)
        bits = np.asarray(syndrome).reshape(-1, r)
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("syndrome bits must be 0 or 1")
        keys = self.decode_block((bits @ (1 << np.arange(r)))[None])[0]
        symbols = (keys[:, None] >> (2 * np.arange(self.n - 1, -1, -1))) & 3
        return PauliOperator(symbols.size, _pack((symbols & 1) ^ (symbols >> 1)), _pack(symbols >> 1))

    def carries_logical_error(self, residual: PauliOperator, nframes: Optional[int] = None) -> bool:
        """True when the residual disturbs info content at any window frame.

        Pulled back through the inverse encoder, stabilizer products show
        only ancilla-Z content; anything non-identity on an info wire
        anticommutes with an encoded logical operator launched in the
        window, and vice versa.
        """
        return bool(self.failure_block(self._keys(residual, nframes))[0])


# -- Monte Carlo ------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    p: float
    frames: int
    trials: int
    failures: int
    word_error_rate: float
    confidence_halfwidth: float
    seed: int


def _trial_failures(
    sim: Simulator, ps: Sequence[float], nframes: int, seed: int, lo: int, hi: int
) -> np.ndarray:
    """Failure flags (points, trials) of trials lo..hi-1 at every p, in
    blocks that hold the same trials at every point and are decoded in one
    pass."""
    block = max(1, sim._block_size(nframes) // len(ps))
    flags = []
    for a in range(lo, hi, block):
        b = min(a + block, hi)
        keys = np.concatenate([_sample_block(p, sim.n, nframes, seed, a, b) for p in ps])
        estimates = sim.decode_block(sim.syndrome_block(keys))
        flags.append(sim.failure_block(keys ^ estimates).reshape(len(ps), b - a))
    return np.concatenate(flags, axis=1)


def _run_trial(sim: Simulator, p: float, nframes: int, seed: int, trial: int) -> bool:
    return bool(_trial_failures(sim, [p], nframes, seed, trial, trial + 1)[0, 0])


def _worker_count(sim: Simulator, ps: Sequence[float], nframes: int, seed: int, lo: int, hi: int) -> List[int]:
    """Failures among trials lo..hi-1 at every p."""
    return _trial_failures(sim, ps, nframes, seed, lo, hi).sum(axis=1).tolist()


def estimate_wers(
    code: ConvolutionalCode,
    encoder,
    ps: Sequence[float],
    nframes: int,
    trials: int,
    seed: int = 0,
) -> List[SimulationResult]:
    """Word error rates of weight-ML decoding over an nframes window, one
    per depolarizing probability in `ps`.

    `encoder` is anything `as_symplectic` accepts that realizes `code`
    (otherwise `InputDataError`); its one `Simulator` serves every point,
    on the read-only trellis that every simulator of the code in the
    process shares.  Trial i draws from its own counter range
    of one Philox stream keyed by `seed`, in [0, SEED_LIMIT), so results
    are bit-identical for any block size.  Every point runs in the calling
    process, in the same sample blocks.  The 95% halfwidth uses the
    normal approximation.
    """
    ps = list(ps)
    if not ps:
        raise ValueError("need at least one probability")
    for p in ps:
        if not 0.0 <= p < 0.75:
            raise ValueError("weight metric is maximum-likelihood only for p < 3/4")
    if nframes < 1 or trials < 1:
        raise ValueError("need at least one frame and one trial")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError("the seed must lie in [0, 2^128)")
    counts = _worker_count(Simulator(code, encoder), ps, nframes, seed, 0, trials)
    results = []
    for p, failures in zip(ps, counts):
        wer = failures / trials
        half = 1.96 * math.sqrt(wer * (1.0 - wer) / trials)
        results.append(SimulationResult(p, nframes, trials, failures, wer, half, seed))
    return results


def estimate_wer(
    code: ConvolutionalCode,
    encoder,
    p: float,
    nframes: int,
    trials: int,
    seed: int = 0,
) -> SimulationResult:
    """Word error rate at one depolarizing probability: `estimate_wers`
    on a one-element list."""
    return estimate_wers(code, encoder, [p], nframes, trials, seed)[0]
