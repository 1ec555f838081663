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
(parity survives the uint8 wrap-around since 256 is even).  The trellis
is a set of regular arrays indexed by (syndrome chunk, branch, state):
every (chunk, state) pair has exactly 4^n / 2^(n-k) branches, one per
input frame with that ancilla X pattern, so the Viterbi backward pass is
a gather followed by a `min` over the branch axis.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .circuit import as_symplectic
from .code import ConvolutionalCode, FramedPauliSequence
from .decoder import DecoderResult
from .errors import InputDataError, TrellisError
from .pauli import PauliOperator

__all__ = [
    "DepolarizingChannel",
    "sample_error",
    "syndrome_by_products",
    "syndrome_by_decoder",
    "Simulator",
    "SimulationResult",
    "estimate_wer",
]

_INF = 1 << 30

# Upper bound on the cells one block of trials touches: the backward pass
# gathers trials x states x branches values per frame, and the block keeps
# trials x N x (states + 2n) values of metrics and error bits.  It sets
# the block size, from one trial per block on the 4,096-state GR trellis
# to whole points on small trellises.
_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class DepolarizingChannel:
    """Each qubit independently suffers X, Y or Z, each with probability p/3."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must lie in [0, 1]")


def _draw(p: float, length: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """X and Z bits of one depolarizing error on `length` qubits."""
    hit = rng.random(length) < p
    kind = rng.integers(0, 3, size=length)  # 0=X 1=Y 2=Z
    return hit & (kind != 2), hit & (kind != 0)


def _pack(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _unpack(v: int, length: int) -> np.ndarray:
    raw = np.frombuffer(v.to_bytes(-(-length // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=length, bitorder="little")


def sample_error(ch: DepolarizingChannel, length: int, rng: np.random.Generator) -> PauliOperator:
    if length < 1:
        raise ValueError("need at least one qubit")
    x, z = _draw(ch.p, length, rng)
    return PauliOperator(length, _pack(x), _pack(z))


def _sample_block(p: float, n: int, nframes: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Errors of trials lo..hi-1, trial i drawn from its own (seed, i) stream."""
    out = np.empty((hi - lo, nframes, 2 * n), dtype=np.uint8)
    for row, trial in enumerate(range(lo, hi)):
        x, z = _draw(p, nframes * n, np.random.default_rng([seed, trial]))
        out[row, :, :n] = x.reshape(nframes, n)
        out[row, :, n:] = z.reshape(nframes, n)
    return out


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


def syndrome_by_decoder(
    decoder: DecoderResult, error: PauliOperator, nframes: Optional[int] = None
) -> Tuple[int, ...]:
    """Syndrome read off the streamed online decoder.

    The bit for generator a launched at frame t appears as the X-component
    on syndrome wire a after decoder application t + span_a - 1, so the
    decoder runs past the window on identity frames until every in-window
    launch has been read.
    """
    code = decoder.code
    n, k = code.n, code.k
    nframes = _infer_frames(code, error, nframes)
    m = decoder.memory
    dmap = decoder.map
    spans = [g.span for g in code.generators]
    napps = nframes + max(spans) - 1
    mem = PauliOperator.identity(m)
    anc_x: List[int] = []
    for s in range(1, napps + 1):
        if s <= nframes:
            frame = error.part((s - 1) * n, s * n)
        else:
            frame = PauliOperator.identity(n)
        out = dmap.apply(mem.tensor(frame))
        anc_x.append(out.x & ((1 << (n - k)) - 1))
        mem = out.part(n, n + m)
    bits: List[int] = []
    for t in range(1, nframes + 1):
        for a, span in enumerate(spans, 1):
            bits.append((anc_x[t + span - 2] >> (a - 1)) & 1)
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

    `_dst`, `_wt` and `_key` are indexed by (syndrome chunk, branch,
    state) and give the successor state, the weight of the emitted
    physical frame and its lexicographic key, which determines the frame.
    States are the last axis so that the `min` over branches combines
    contiguous rows.
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
        self._build_trellis()

    def _build_trellis(self) -> None:
        n, k, m = self.n, self.k, self.m
        w = m + n
        r = n - k
        nmask = (1 << n) - 1
        mmask = (1 << m) - 1
        # images of memory-only and frame-only inputs; a general input is
        # their XOR since the map is linear over GF(2)
        memimg = np.array(
            [self.smap.apply_vec((s & mmask) | ((s >> m) << w)) for s in range(self.nstates)],
            dtype=np.int32,
        )
        # branch j of chunk c is the input frame whose ancilla X bits spell
        # c, with info X bits j mod 2^k and Z bits j div 2^k
        shape = (1 << r, self.nbranches, self.nstates)
        # successors are intp: np.take would convert a narrower index array
        # on every backward step
        self._dst = np.empty(shape, dtype=np.intp)
        self._wt = np.empty(shape, dtype=np.uint8)
        self._key = np.empty(shape, dtype=np.min_scalar_type(self._nokey))
        for c in range(1 << r):
            ux = c | ((np.arange(self.nbranches) & ((1 << k) - 1)) << r)
            uz = np.arange(self.nbranches) >> k
            frameimg = np.array(
                [self.smap.apply_vec((x << m) | (z << (w + m))) for x, z in zip(ux, uz)],
                dtype=np.int32,
            )
            outs = frameimg[:, None] ^ memimg[None, :]
            physx = outs & nmask
            physz = (outs >> w) & nmask
            self._dst[c] = ((outs >> n) & mmask) | (((outs >> (w + n)) & mmask) << m)
            self._wt[c] = np.bitwise_count(physx | physz)
            self._key[c] = _frame_lex_keys(physx, physz, n)

    def _block_size(self, nframes: int) -> int:
        per_trial = max(self.nstates * self.nbranches, nframes * (self.nstates + 2 * self.n))
        return max(1, _BLOCK_CELLS // per_trial)

    # -- launches -------------------------------------------------------------

    def _response(self, dirs: List[int], nframes: int) -> np.ndarray:
        """Bits (lag, 2n, d): the symplectic dual (Z bits then X bits) of
        the physical frame the encoder emits `lag` frames after the
        unencoded frame dirs[d] enters with identity memory, followed by
        identity frames."""
        n, m = self.n, self.m
        w = m + n
        nmask, mmask = (1 << n) - 1, (1 << m) - 1
        out = np.zeros((nframes, 2 * n, len(dirs)), dtype=np.uint8)
        for d, vec in enumerate(dirs):
            state = ((vec & nmask) << m) | ((vec >> n) << (w + m))
            for lag in range(nframes):
                img = self.smap.apply_vec(state)
                dual = ((img >> w) & nmask) | ((img & nmask) << n)
                out[lag, :, d] = (dual >> np.arange(2 * n)) & 1
                state = ((img >> n) & mmask) | (((img >> (w + n)) & mmask) << w)
                if not state:
                    break
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

    def _viterbi(self, chunks: np.ndarray) -> np.ndarray:
        """Frame keys (trials, N) of the decoded errors."""
        ntrials, nframes = chunks.shape
        # beta[t][b, s]: least remaining weight of trial b from state s
        # before frame t+1 to the pinned identity state after frame N
        beta = np.empty((nframes + 1, ntrials, self.nstates), dtype=np.int32)
        beta[nframes] = _INF
        beta[nframes, :, 0] = 0
        for t in range(nframes - 1, -1, -1):
            for c in range(len(self._dst)):
                rows = np.flatnonzero(chunks[:, t] == c)
                if rows.size:
                    step = np.take(beta[t + 1][rows], self._dst[c], axis=1)
                    step += self._wt[c]
                    beta[t][rows] = np.minimum(step.min(axis=1), _INF)
        best = beta[0].min(axis=1)
        if (best >= _INF).any():
            raise TrellisError("no trellis path matches the syndrome")
        # walk forward keeping every state still on an optimal path, and at
        # each frame commit the lex-least emission available from any of them
        alive = beta[0] == best[:, None]
        remaining = best
        keys = np.empty((ntrials, nframes), dtype=self._key.dtype)
        even = sum(1 << (2 * q) for q in range(self.n))
        for t in range(nframes):
            bi, si = np.nonzero(alive)
            ci = chunks[bi, t]
            dst = self._dst[ci, :, si]
            ok = self._wt[ci, :, si] + beta[t + 1][bi[:, None], dst] == remaining[bi, None]
            cand = np.where(ok, self._key[ci, :, si], self._nokey)
            rowmin = np.full(alive.shape, self._nokey, dtype=cand.dtype)
            rowmin[bi, si] = cand.min(axis=1)
            kmin = rowmin.min(axis=1)
            if (kmin == self._nokey).any():
                raise TrellisError("optimal path lost mid-trellis")
            pi, ji = np.nonzero(cand == kmin[bi, None])
            alive = np.zeros_like(alive)
            alive[bi[pi], dst[pi, ji]] = True
            keys[:, t] = kmin
            remaining = remaining - np.bitwise_count((kmin | (kmin >> 1)) & even)
        if (remaining != 0).any() or not alive[:, 0].all():
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


_WORKER: Optional[Tuple[Simulator, float, int, int]] = None


def _worker_init(sim: Simulator, p: float, nframes: int, seed: int) -> None:
    global _WORKER
    _WORKER = (sim, p, nframes, seed)


def _worker_count(bounds: Tuple[int, int]) -> int:
    sim, p, nframes, seed = _WORKER
    return int(_trial_failures(sim, p, nframes, seed, *bounds).sum())


def estimate_wer(
    code: ConvolutionalCode,
    encoder,
    p: float,
    nframes: int,
    trials: int,
    seed: int = 0,
    workers: Optional[int] = None,
) -> SimulationResult:
    """Word error rate of weight-ML decoding over an nframes window.

    `encoder` is anything `as_symplectic` accepts, or a `Simulator` built
    for `code`, which is then reused instead of building the trellis
    again.  Trial i draws its own generator from (seed, i), so results
    are bit-identical for any worker count and block size.  The 95%
    halfwidth uses the normal approximation.
    """
    if not 0.0 <= p < 0.75:
        raise ValueError("weight metric is maximum-likelihood only for p < 3/4")
    if nframes < 1 or trials < 1:
        raise ValueError("need at least one frame and one trial")
    if isinstance(encoder, Simulator):
        if encoder.code != code:
            raise ValueError("the simulator was built for another code")
        sim = encoder
    else:
        sim = Simulator(code, encoder)
    if workers is None or workers <= 1:
        failures = int(_trial_failures(sim, p, nframes, seed, 0, trials).sum())
    else:
        step = max(1, -(-trials // (4 * workers)))
        bounds = [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init, initargs=(sim, p, nframes, seed)
        ) as pool:
            failures = sum(pool.map(_worker_count, bounds))
    wer = failures / trials
    half = 1.96 * math.sqrt(wer * (1.0 - wer) / trials)
    return SimulationResult(p, nframes, trials, failures, wer, half, seed)
