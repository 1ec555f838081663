"""Depolarizing-channel Monte Carlo for streamed stabilizer encoders.

A window of N physical frames is sent through the channel; the receiver
measures one syndrome bit per (generator, launch frame) pair for launches
1..N — the ancilla outputs of the online decoder.  Decoding is
hard-decision maximum likelihood over the encoder trellis: pulling an
N-frame error back through the frame-wise inverse encoder (final memory
pinned to the identity) is a bijection between window errors and
(initial memory state, unencoded frame sequence) pairs in which the
ancilla X-components spell the syndrome.  Paths therefore start anywhere,
end at the identity memory state, and branch per frame over the inputs
consistent with that frame's syndrome bits.

Below p = 3/4 the channel likelihood is strictly decreasing in Pauli
weight, so the branch metric is plain weight; ties are broken toward the
lexicographically smallest error, frame by frame, wire 1 most
significant, ordered I < X < Y < Z.

A trial fails when the residual (actual times estimated error) moves any
logical content: equivalently, when its pullback shows anything but the
identity on an info wire.  Residuals inside the stabilizer group pull
back to pure ancilla-Z content and count as successes.

The engine works on blocks of trials held as numpy bit arrays of shape
(trials, N, 2n), each frame laid out as its X bits then its Z bits.  The
pullback is GF(2)-linear, so a pulled-back bit is the symplectic product
of the window error with the encoder's image of the matching unencoded
basis operator launched at that frame: ancilla Z for a syndrome bit,
info X or Z for the failure test.  Those images are the same at every
launch frame, shifted, so each is stored once as its per-frame response
and the products are sums over response lags of uint8 matrix products
(parity survives the uint8 wrap-around since 256 is even).

The trellis is stored in factored form.  Every (syndrome chunk, state)
pair has exactly 4^n / 2^(n-k) branches, one per input frame with that
ancilla X pattern, and a branch's successor and emitted frame are the
XOR of the input frame's image and the memory state's image.  States are
relabelled linearly (the identity stays state 0) so that the high
coordinates v span the kernel of the memory part of the successor map:
the successor of state (v, u) on a branch then depends on u alone.  One
backward step is a gather of the next metrics at the (branch, u)
successors, a broadcast add of the (branch, v, u) branch weights, and a
`min` over the branch axis, whose rows come out in state order.  With u
the low coordinates, the add runs its inner loop over u.  On GR
the successor map has rank 8 of 12, so the gather reads 16 times fewer
cells than there are branches.  Metrics are int16 while the window's
weight bound n N stays below the int16 sentinel, int32 beyond.

Three exact shortcuts skip most of that pass on sparse syndromes.  A zero
syndrome decodes to the identity, the one error of weight 0.  The
backward metric at frame t depends only on the chunks from t on, so
after a trial's last nonzero chunk it is read from tables of all-zero
chunk runs, built once per window length.  Before a trial's first
nonzero chunk, when some optimal path crosses the zero chunks emitting
identity frames, that path is also lex-least, so those frames decode to
the identity and their backward steps are skipped (the test is in
`Simulator._viterbi_nonzero`).  The forward walk stops once the path has
no weight left: every later frame is the identity.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .circuit import _dual, as_symplectic
from .code import ConvolutionalCode, FramedPauliSequence
from .errors import InputDataError, TrellisError
from .pauli import PauliOperator

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

# seeds key the Philox stream, whose keys lie in [0, 2^128)
SEED_LIMIT = 1 << 128

# Upper bound on the cells one block of trials touches: the backward pass
# adds and compares trials x states x branches values per frame, and the
# block keeps trials x N x (states + 2n) values of metrics and error bits.
# It sets the block size, from one trial per block on the 4,096-state GR
# trellis to whole points on small trellises.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class DepolarizingChannel:
    """Each qubit independently suffers X, Y or Z, each with probability p/3."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must lie in [0, 1]")


def _depolarize(u: np.ndarray, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """X and Z bits of a depolarizing error from one uniform in [0, 1) per
    qubit: u < p hits, and floor(3u / p) picks X, Y or Z, so u below p/3
    is X, below 2p/3 is Y and below p is Z, each with probability p/3."""
    return u < 2 * p / 3, (u >= p / 3) & (u < p)


def _pack(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(v: int, length: int) -> np.ndarray:
    raw = np.frombuffer(v.to_bytes(-(-length // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def sample_error(ch: DepolarizingChannel, length: int, rng: np.random.Generator) -> PauliOperator:
    if length < 1:
        raise ValueError("need at least one qubit")
    x, z = _depolarize(rng.random(length), ch.p)
    return PauliOperator(length, _pack(x), _pack(z))


def _trial_counters(n: int, nframes: int) -> int:
    """Philox counter values each trial owns: one 64-bit word per qubit,
    four words per counter value."""
    return -(-(n * nframes) // 4)


def _sample_block(p: float, n: int, nframes: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Errors of trials lo..hi-1.  One Philox stream is keyed by the seed,
    and trial i owns the counter range from i times `_trial_counters`, so
    a block is one `advance` and one `random_raw` draw, and its trials do
    not depend on where blocks start.  Each word becomes a uniform as
    `Generator.random` makes it, from its top 53 bits."""
    stride = _trial_counters(n, nframes)
    bits = np.random.Philox(key=seed)
    bits.advance(lo * stride)
    raw = bits.random_raw((hi - lo) * 4 * stride).reshape(hi - lo, 4 * stride)
    u = (raw[:, : n * nframes] >> 11) * 2.0**-53
    x, z = _depolarize(u.reshape(hi - lo, nframes, n), p)
    return np.concatenate([x, z], axis=2).astype(np.uint8)


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


def _frame_lex_keys(physx: np.ndarray, physz: np.ndarray, n: int) -> np.ndarray:
    # per-qubit codes I=0 X=1 Y=2 Z=3, wire 1 most significant
    key = np.zeros_like(physx)
    for q in range(n):
        xq = (physx >> q) & 1
        zq = (physz >> q) & 1
        key |= (2 * zq + (xq ^ zq)) << (2 * (n - 1 - q))
    return key


class Simulator:
    """Precomputed trellis over the 4^m memory states of one encoder.

    States carry labels in a basis whose low `_ubits` coordinates u span
    a complement of the kernel of the successor map's memory part and
    whose high coordinates v span that kernel (`_basis` lists the basis
    states; label bit i selects basis state i), so a state's label is
    v * 2^_ubits + u.  `_physm` and `_succm` are the physical frame and
    successor label of every state's image, `_physf` and `_succf` those
    of every input frame, indexed by (syndrome chunk, branch); `_fwt` and
    `_fkey` are the weight and lexicographic key of every physical frame.
    `_gather[c, j, u]` is the successor on branch j of chunk c of every
    state with low coordinates u, and `_weight[c, j, v, u]` the weight of
    the frame that branch emits from state (v, u), in the metric dtype.
    The batch methods take and return bit arrays of shape (trials, N, 2n)
    or, for syndromes, (trials, N, n - k); the scalar methods are their
    one-trial views on Pauli operators.
    """

    def __init__(self, code: ConvolutionalCode, encoder) -> None:
        smap = as_symplectic(encoder)
        n, k = code.n, code.k
        m = smap.width - n
        if m < 0:
            raise ValueError("encoder narrower than one frame")
        if m + n > 12:
            raise InputDataError(
                f"the trellis enumerates 4^(m+n) branches; m + n = {m + n} exceeds the cap of 12"
            )
        self.code = code
        self.smap = smap
        self.n, self.k, self.m = n, k, m
        self.nstates = 1 << (2 * m)
        self.nbranches = 1 << (n + k)
        self._nokey = 1 << (2 * n)  # above every frame key
        self._responses: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._zero: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._build_trellis()

    def _build_trellis(self) -> None:
        n, k, m = self.n, self.k, self.m
        w = m + n
        r = n - k
        nmask = (1 << n) - 1
        mmask = (1 << m) - 1
        # the map is linear over GF(2), so the image of an input is the XOR
        # of the rows its bits select: memory states index X bits then Z
        # bits of the memory wires, frames X bits then Z bits of the frame
        rows = self.smap.rows
        memrows = rows[:m] + rows[w : w + m]

        def phys(img):
            return (img & nmask) | (((img >> w) & nmask) << n)

        def succ(img):
            return ((img >> n) & mmask) | (((img >> (w + n)) & mmask) << m)

        # kernel of the successor map on memory states: reducing the rows
        # (successor of basis state i | bit 2m + i) leaves, past the
        # successor bits, the rows of states that succeed to the identity
        reduced, pivots = gf2.row_reduce([succ(v) | (1 << (2 * m + i)) for i, v in enumerate(memrows)])
        kernel = [v >> (2 * m) for v, piv in zip(reduced, pivots) if piv >= 2 * m]
        # and a complement of it: the unit states off the kernel's pivots
        kpivots = gf2.row_reduce(kernel)[1]
        basis = [1 << i for i in range(2 * m) if i not in kpivots] + kernel
        self._basis = tuple(basis)
        self._ubits = 2 * m - len(kernel)
        states = np.array(gf2.span(basis), dtype=np.intp)
        label = np.empty_like(states)
        label[states] = np.arange(self.nstates)
        memimg = np.array(gf2.span(gf2.matmul(basis, memrows)), dtype=np.int32)
        # frame f is the input whose ancilla X bits spell chunk f mod 2^r,
        # with branch j = f div 2^r: info X bits j mod 2^k, Z bits j div 2^k
        frameimg = np.array(gf2.span(rows[m:w] + rows[w + m :]), dtype=np.int32)
        frameimg = frameimg.reshape(self.nbranches, 1 << r).T
        self._physm, self._succm = phys(memimg), label[succ(memimg)]
        self._physf, self._succf = phys(frameimg), label[succ(frameimg)]
        # weight and lex key of every physical frame
        codes = np.arange(1 << (2 * n))
        self._fwt = np.bitwise_count((codes | (codes >> n)) & nmask).astype(np.int16)
        self._fkey = _frame_lex_keys(codes & nmask, codes >> n, n).astype(np.min_scalar_type(self._nokey))
        # labels are linear coordinates, so successor labels XOR like states;
        # gathers take intp indices, converting any other on every call
        usucc = self._succm[: 1 << self._ubits]
        self._gather = self._succf[:, :, None] ^ usucc[None, None, :]
        vu = self._physm.reshape(-1, len(usucc))
        self._weight = np.empty((1 << r, self.nbranches) + vu.shape, dtype=np.int16)
        for c, pf in enumerate(self._physf):
            self._weight[c] = self._fwt[pf[:, None, None] ^ vu]

    def _metric(self, nframes: int) -> Tuple[type, int]:
        """Metric dtype and unreachable-state sentinel of an nframes
        window: int16 while its weight bound n N stays below the int16
        sentinel, int32 beyond."""
        return (np.int16, _INF16) if self.n * nframes < _INF16 else (np.int32, _INF)

    def _step(self, beta: np.ndarray, c, inf: int) -> np.ndarray:
        """Backward step through one frame: the least remaining weights
        (trials, states) before the frame from those after it, capped at
        the sentinel.  `c` is the frame's syndrome chunk, one for every
        trial or one per trial."""
        rows = np.arange(0, beta.size, beta.shape[1])[:, None, None]
        # successors are in range, so "wrap" only skips the bounds check
        nxt = np.take(beta, self._gather[c] + rows, mode="wrap")
        step = np.minimum.reduce(nxt[:, :, None, :] + self._weight[c], axis=1).reshape(beta.shape)
        return np.minimum(step, inf, out=step)

    def _block_size(self, nframes: int) -> int:
        per_trial = max(self.nstates * self.nbranches, nframes * (self.nstates + 2 * self.n))
        return max(1, _BLOCK_CELLS // per_trial)

    # -- launches -------------------------------------------------------------

    def _response(self, dirs: List[int], nframes: int) -> np.ndarray:
        """Bits (lag, 2n, d): the symplectic dual (Z bits then X bits) of
        the physical frame the encoder emits `lag` frames after the
        unencoded frame dirs[d] enters with identity memory, followed by
        identity frames."""
        n = self.n
        out = np.zeros((nframes, 2 * n, len(dirs)), dtype=np.uint8)
        for d, vec in enumerate(dirs):
            frame, mem = self.smap.step(n, 0, vec)
            for lag in range(nframes):
                out[lag, :, d] = (_dual(frame, n) >> np.arange(2 * n)) & 1
                if not mem:
                    break
                frame, mem = self.smap.step(n, mem, 0)
        return out

    def _launches(self, nframes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Responses for the syndrome (ancilla Z per generator) and for the
        failure test (info X and Z)."""
        cached = self._responses.get(nframes)
        if cached is None:
            n, k = self.n, self.k
            r = n - k
            synd = [1 << (n + a) for a in range(r)]
            logical = [1 << (r + j) for j in range(k)] + [1 << (n + r + j) for j in range(k)]
            cached = (self._response(synd, nframes), self._response(logical, nframes))
            self._responses[nframes] = cached
        return cached

    @staticmethod
    def _products(errors: np.ndarray, resp: np.ndarray) -> np.ndarray:
        """Bit (trial, t, d): sp(error, direction d launched at frame t)."""
        nframes = errors.shape[1]
        acc = np.zeros(errors.shape[:2] + resp.shape[2:], dtype=np.uint8)
        for lag in np.flatnonzero(resp.any(axis=(1, 2))):
            acc[:, : nframes - lag] += errors[:, lag:] @ resp[lag]
        return acc & 1

    def _check_block(self, errors: np.ndarray) -> np.ndarray:
        errors = np.asarray(errors, dtype=np.uint8)
        if errors.ndim != 3 or errors.shape[2] != 2 * self.n:
            raise ValueError(f"want a (trials, frames, {2 * self.n}) bit array")
        return errors

    # -- batch path -----------------------------------------------------------

    def syndrome_block(self, errors: np.ndarray) -> np.ndarray:
        """Syndrome bits (trials, N, n - k) of a block of window errors."""
        errors = self._check_block(errors)
        return self._products(errors, self._launches(errors.shape[1])[0])

    def failure_block(self, residuals: np.ndarray) -> np.ndarray:
        """Per-trial flags: the residual disturbs info content at some frame."""
        residuals = self._check_block(residuals)
        return self._products(residuals, self._launches(residuals.shape[1])[1]).any(axis=(1, 2))

    def decode_block(self, syndromes: np.ndarray) -> np.ndarray:
        """Minimum-weight errors (trials, N, 2n) with these syndromes,
        lex-least among ties."""
        s = np.asarray(syndromes)
        r = self.n - self.k
        if s.ndim != 3 or s.shape[2] != r:
            raise ValueError(f"want a (trials, frames, {r}) syndrome array")
        if ((s != 0) & (s != 1)).any():
            raise ValueError("syndrome bits must be 0 or 1")
        chunks = (s.astype(np.intp) << np.arange(r)).sum(axis=2)
        keys = self._viterbi(chunks)
        n = self.n
        shifts = 2 * (n - 1 - np.arange(n))
        hi = (keys[:, :, None] >> (shifts + 1)) & 1
        lo = (keys[:, :, None] >> shifts) & 1
        return np.concatenate([hi ^ lo, hi], axis=2).astype(np.uint8)

    def _zero_tables(self, nframes: int) -> Tuple[np.ndarray, np.ndarray]:
        """Two (nframes + 1, states) tables for runs of all-zero syndrome
        chunks: row j of the first is the least weight from each state
        through j such frames to the pinned identity state; row j of the
        second flags the states that j identity-emitting frames reach from
        some state."""
        cached = self._zero.get(nframes)
        if cached is None:
            dtype, inf = self._metric(nframes)
            suffix = np.empty((nframes + 1, self.nstates), dtype=dtype)
            suffix[0] = inf
            suffix[0, 0] = 0
            for j in range(1, nframes + 1):
                suffix[j] = self._step(suffix[j - 1][None], 0, inf)[0]
            branch, src = np.nonzero(self._weight[0].reshape(self.nbranches, -1) == 0)
            dst = self._gather[0][branch, src & ((1 << self._ubits) - 1)]
            reach = np.ones((nframes + 1, self.nstates), dtype=bool)
            for j in range(1, nframes + 1):
                reach[j] = False
                reach[j][dst[reach[j - 1][src]]] = True
            cached = self._zero[nframes] = (suffix, reach)
        return cached

    def _viterbi(self, chunks: np.ndarray) -> np.ndarray:
        """Frame keys (trials, N) of the decoded errors."""
        keys = np.zeros(chunks.shape, dtype=self._fkey.dtype)
        # a zero syndrome decodes to the identity, the one error of weight 0
        rows = np.flatnonzero(chunks.any(axis=1))
        if rows.size:
            keys[rows] = self._viterbi_nonzero(chunks[rows])
        return keys

    def _viterbi_nonzero(self, chunks: np.ndarray) -> np.ndarray:
        ntrials, nframes = chunks.shape
        suffix, reach = self._zero_tables(nframes)
        inf = self._metric(nframes)[1]
        nonzero = chunks != 0
        first = np.argmax(nonzero, axis=1)
        last = nframes - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        # beta[t][b, s]: least remaining weight of trial b from state s
        # before frame t+1 to the pinned identity state after frame N.  It
        # depends only on chunks t+1..N, so after a trial's last nonzero
        # chunk it is the all-zero-suffix table
        beta = np.empty((nframes + 1, ntrials, self.nstates), dtype=suffix.dtype)
        beta[:] = suffix[::-1, None, :]
        # start[b]: the frame the backward pass of trial b stops at and its
        # forward walk begins at; the zero-prefix test below may reset it to 0
        start = first.copy()
        for t in range(last.max(), -1, -1):
            if t < start.min():
                break
            rows = np.flatnonzero((last >= t) & (start <= t))
            if rows.size:
                c = chunks[rows, t]
                # one chunk for every trial saves a per-trial copy of its weights
                beta[t][rows] = self._step(beta[t + 1][rows], c[0] if (c == c[0]).all() else c, inf)
            # Zero-prefix test at a trial's first nonzero chunk.  A path that
            # emits identity frames through the zero chunks before it, and so
            # ends in reach[t], costs its beta there; any other path pays at
            # least 1 in the prefix.  When the cheapest of the former is at
            # most 1 above the cheapest beta, it is optimal and, its prefix
            # keys being 0, lex-least among optimal paths: the prefix frames
            # decode to the identity and need no backward steps.
            at = np.flatnonzero(first == t)
            if t and at.size:
                head = beta[t][at]
                via = np.where(reach[t], head, inf).min(axis=1)
                start[at[via > head.min(axis=1) + 1]] = 0
        # a trial's optimal paths from frame start[b] on: for start 0 all
        # states qualify (reach[0] is every state), otherwise those an
        # identity prefix reaches
        head = np.where(reach[start], beta[start, np.arange(ntrials)], inf)
        best = head.min(axis=1)
        if (best >= inf).any():
            raise TrellisError("no trellis path matches the syndrome")
        # walk forward keeping every (trial, state) pair still on an optimal
        # path, and at each frame commit the lex-least emission available
        # from any of them; trial b joins the walk at frame start[b]
        hb, hs = np.nonzero(head == best[:, None])
        bi = si = np.empty(0, dtype=np.intp)
        remaining = best
        keys = np.zeros((ntrials, nframes), dtype=self._fkey.dtype)
        even = sum(1 << (2 * q) for q in range(self.n))
        t = start.min()
        # once no weight remains, every later frame is the identity, key 0
        while t < nframes and remaining.any():
            join = start[hb] == t
            bi = np.concatenate([bi, hb[join]])
            si = np.concatenate([si, hs[join]])
            ci = chunks[bi, t]
            dst = self._gather[ci, :, si & ((1 << self._ubits) - 1)]
            # `take` costs less than fancy indexing on these small arrays
            frame = self._physf.take(ci, axis=0) ^ self._physm.take(si)[:, None]
            after = beta[t + 1].take(dst + (bi * self.nstates)[:, None])
            ok = self._fwt.take(frame) + after == remaining.take(bi)[:, None]
            cand = np.where(ok, self._fkey.take(frame), self._nokey)
            kmin = np.where(start <= t, self._nokey, 0).astype(cand.dtype)
            np.minimum.at(kmin, bi, cand.min(axis=1))
            if (kmin == self._nokey).any():
                raise TrellisError("optimal path lost mid-trellis")
            pi, ji = np.nonzero(cand == kmin.take(bi)[:, None])
            nxt = np.zeros((ntrials, self.nstates), dtype=bool)
            nxt[bi[pi], dst[pi, ji]] = True
            bi, si = np.nonzero(nxt)
            keys[:, t] = kmin
            remaining = remaining - np.bitwise_count((kmin | (kmin >> 1)) & even)
            t += 1
        # each trial reaches the identity state through the frames left at
        # no further weight (with none left, it is on the identity state)
        ends = np.zeros(ntrials, dtype=bool)
        ends[bi[suffix[nframes - t][si] == 0]] = True
        if remaining.any() or not ends.all():
            raise TrellisError("trellis walk did not terminate at the identity")
        return keys

    # -- one trial --------------------------------------------------------------

    def _framed(self, error: PauliOperator, nframes: Optional[int]) -> np.ndarray:
        nframes = _infer_frames(self.code, error, nframes)
        shape = (1, nframes, self.n)
        x = _unpack(error.x, error.width).reshape(shape)
        z = _unpack(error.z, error.width).reshape(shape)
        return np.concatenate([x, z], axis=2)

    def syndrome(self, error: PauliOperator, nframes: Optional[int] = None) -> Tuple[int, ...]:
        return tuple(int(b) for b in self.syndrome_block(self._framed(error, nframes)).ravel())

    def decode(self, syndrome: Sequence[int]) -> PauliOperator:
        """Minimum-weight error with this syndrome, lex-least among ties."""
        r = self.n - self.k
        if len(syndrome) % r:
            raise ValueError("syndrome length is not a whole number of frames")
        if len(syndrome) == 0:
            return PauliOperator.identity(0)
        est = self.decode_block(np.asarray(syndrome).reshape(1, -1, r))[0]
        n = self.n
        return PauliOperator(est.shape[0] * n, _pack(est[:, :n]), _pack(est[:, n:]))

    def carries_logical_error(self, residual: PauliOperator, nframes: Optional[int] = None) -> bool:
        """True when the residual disturbs info content at any window frame.

        Pulled back through the inverse encoder, stabilizer products show
        only ancilla-Z content; anything non-identity on an info wire
        anticommutes with an encoded logical operator launched in the
        window, and vice versa.
        """
        return bool(self.failure_block(self._framed(residual, nframes))[0])


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


def _trial_failures(sim: Simulator, p: float, nframes: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Failure flags of trials lo..hi-1, decoded in blocks."""
    block = sim._block_size(nframes)
    flags = []
    for a in range(lo, hi, block):
        errors = _sample_block(p, sim.n, nframes, seed, a, min(a + block, hi))
        estimates = sim.decode_block(sim.syndrome_block(errors))
        flags.append(sim.failure_block(errors ^ estimates))
    return np.concatenate(flags)


def _run_trial(sim: Simulator, p: float, nframes: int, seed: int, trial: int) -> bool:
    return bool(_trial_failures(sim, p, nframes, seed, trial, trial + 1)[0])


_WORKER: Optional[Tuple[Simulator, int, int]] = None


def _worker_init(sim: Simulator, nframes: int, seed: int) -> None:
    global _WORKER
    _WORKER = (sim, nframes, seed)


def _worker_count(task: Tuple[float, int, int]) -> int:
    sim, nframes, seed = _WORKER
    p, lo, hi = task
    return int(_trial_failures(sim, p, nframes, seed, lo, hi).sum())


def estimate_wers(
    code: ConvolutionalCode,
    encoder,
    ps: Sequence[float],
    nframes: int,
    trials: int,
    seed: int = 0,
    workers: Optional[int] = None,
) -> List[SimulationResult]:
    """Word error rates of weight-ML decoding over an nframes window, one
    per depolarizing probability in `ps`.

    `encoder` is anything `as_symplectic` accepts, or a `Simulator` built
    for `code`, which is then reused instead of building the trellis
    again.  Trial i draws from its own counter range of one Philox
    stream keyed by `seed`, in [0, SEED_LIMIT), so results are
    bit-identical for any worker count and block size.  With more
    than one worker, every point runs through one process pool of at
    most min(workers, tasks, CPUs) processes; the trials are cut into
    tasks by the requested count alone.  The 95% halfwidth uses the
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
    if isinstance(encoder, Simulator):
        if encoder.code != code:
            raise ValueError("the simulator was built for another code")
        sim = encoder
    else:
        sim = Simulator(code, encoder)
    # the per-window tables, built once here rather than in every worker
    sim._launches(nframes)
    sim._zero_tables(nframes)
    if workers is None or workers <= 1:
        counts = [int(_trial_failures(sim, p, nframes, seed, 0, trials).sum()) for p in ps]
    else:
        step = max(1, -(-trials // (4 * workers)))
        tasks = [(p, lo, min(lo + step, trials)) for p in ps for lo in range(0, trials, step)]
        procs = min(workers, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(
            max_workers=procs, initializer=_worker_init, initargs=(sim, nframes, seed)
        ) as pool:
            per_task = list(pool.map(_worker_count, tasks))
        # every point has the same number of tasks, in order
        counts = [int(c) for c in np.reshape(per_task, (len(ps), -1)).sum(axis=1)]
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
    workers: Optional[int] = None,
) -> SimulationResult:
    """Word error rate at one depolarizing probability: `estimate_wers`
    on a one-element list."""
    return estimate_wers(code, encoder, [p], nframes, trials, seed, workers)[0]
