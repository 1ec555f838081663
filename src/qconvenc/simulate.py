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
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .circuit import SymplecticMap, as_symplectic
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

_INF = 1 << 40


@dataclass(frozen=True)
class DepolarizingChannel:
    """Each qubit independently suffers X, Y or Z, each with probability p/3."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("depolarizing probability must lie in [0, 1]")


def sample_error(ch: DepolarizingChannel, length: int, rng: np.random.Generator) -> PauliOperator:
    if length < 1:
        raise ValueError("need at least one qubit")
    hit = rng.random(length) < ch.p
    kind = rng.integers(0, 3, size=length)  # 0=X 1=Y 2=Z
    x = z = 0
    for i in np.flatnonzero(hit):
        k = int(kind[i])
        if k != 2:
            x |= 1 << int(i)
        if k != 0:
            z |= 1 << int(i)
    return PauliOperator(length, x, z)


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


def _pullback_frames(
    inv: SymplecticMap, m: int, n: int, error: PauliOperator, nframes: int
) -> List[PauliOperator]:
    """Unencoded frames u_1..u_N of the error, final memory pinned to identity.

    Runs the inverse frame map from the last frame backwards; the initial
    memory state it lands on is bookkeeping and is discarded.
    """
    mem = PauliOperator.identity(m)
    rev: List[PauliOperator] = []
    for t in range(nframes, 0, -1):
        frame = error.part((t - 1) * n, t * n)
        out = inv.apply(frame.tensor(mem))
        mem = out.part(0, m)
        rev.append(out.part(m, m + n))
    rev.reverse()
    return rev


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


class _Bucket(NamedTuple):
    """All trellis branches whose ancilla X-pattern equals the bucket key."""

    src: np.ndarray
    dst: np.ndarray
    wt: np.ndarray
    key: np.ndarray
    ex: np.ndarray
    ez: np.ndarray


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

    Branches are grouped by their ancilla X-pattern (the per-frame
    syndrome chunk); each carries the emitted physical frame, its weight
    and lexicographic rank, and the successor state.
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
        self.inv = smap.inverse()
        self.n, self.k, self.m = n, k, m
        self.nstates = 1 << (2 * m)
        self._buckets = self._build_buckets()

    def _build_buckets(self) -> Dict[int, _Bucket]:
        n, k, m = self.n, self.k, self.m
        w = m + n
        nstates = self.nstates
        # images of memory-only and frame-only inputs; a general input is
        # their XOR since the map is linear over GF(2)
        memimg = np.empty(nstates, dtype=np.int64)
        for s in range(nstates):
            mx = s & ((1 << m) - 1)
            mz = s >> m
            memimg[s] = self.smap.apply_vec(mx | (mz << w))
        nmask = (1 << n) - 1
        mmask = (1 << m) - 1
        src = np.arange(nstates, dtype=np.int64)
        grouped: Dict[int, List[List[np.ndarray]]] = {}
        for uidx in range(1 << (2 * n)):
            ux = uidx & nmask
            uz = uidx >> n
            base = self.smap.apply_vec((ux << m) | ((uz << m) << w))
            outs = memimg ^ base
            physx = outs & nmask
            physz = (outs >> w) & nmask
            dst = ((outs >> n) & mmask) | (((outs >> (w + n)) & mmask) << m)
            wt = np.bitwise_count(physx | physz).astype(np.int64)
            key = _frame_lex_keys(physx, physz, n)
            bucket = ux & ((1 << (n - k)) - 1)
            grouped.setdefault(bucket, []).append([src, dst, wt, key, physx, physz])
        return {
            b: _Bucket(*(np.concatenate(cols) for cols in zip(*parts)))
            for b, parts in grouped.items()
        }

    # -- syndrome ---------------------------------------------------------

    def syndrome(self, error: PauliOperator, nframes: Optional[int] = None) -> Tuple[int, ...]:
        n, k = self.n, self.k
        nframes = _infer_frames(self.code, error, nframes)
        bits: List[int] = []
        for u in _pullback_frames(self.inv, self.m, n, error, nframes):
            bits.extend((u.x >> a) & 1 for a in range(n - k))
        return tuple(bits)

    def _chunks(self, syndrome: Sequence[int]) -> List[int]:
        r = self.n - self.k
        if len(syndrome) % r:
            raise ValueError("syndrome length is not a whole number of frames")
        if any(b not in (0, 1) for b in syndrome):
            raise ValueError("syndrome bits must be 0 or 1")
        return [
            sum(syndrome[t * r + a] << a for a in range(r))
            for t in range(len(syndrome) // r)
        ]

    # -- decoding ---------------------------------------------------------

    def decode(self, syndrome: Sequence[int]) -> PauliOperator:
        """Minimum-weight error with this syndrome, lex-least among ties."""
        chunks = self._chunks(syndrome)
        nframes = len(chunks)
        n = self.n
        if nframes == 0:
            return PauliOperator.identity(0)
        # beta[t][s]: least remaining weight from state s before frame t+1
        # to the pinned identity state after frame N
        beta = [None] * (nframes + 1)
        last = np.full(self.nstates, _INF, dtype=np.int64)
        last[0] = 0
        beta[nframes] = last
        for t in range(nframes, 0, -1):
            b = self._buckets[chunks[t - 1]]
            cur = np.full(self.nstates, _INF, dtype=np.int64)
            np.minimum.at(cur, b.src, b.wt + beta[t][b.dst])
            beta[t - 1] = cur
        best = int(beta[0].min())
        if best >= _INF:
            raise TrellisError("no trellis path matches the syndrome")
        # walk forward keeping every state still on an optimal path, and at
        # each frame commit the lex-least emission available from any of them
        alive = beta[0] == best
        remaining = best
        x = z = 0
        for t in range(1, nframes + 1):
            b = self._buckets[chunks[t - 1]]
            ok = alive[b.src] & (b.wt + beta[t][b.dst] == remaining)
            if not ok.any():
                raise TrellisError("optimal path lost mid-trellis")
            kmin = b.key[ok].min()
            sel = ok & (b.key == kmin)
            first = int(np.flatnonzero(sel)[0])
            x |= int(b.ex[first]) << ((t - 1) * n)
            z |= int(b.ez[first]) << ((t - 1) * n)
            remaining -= int(b.wt[first])
            alive = np.zeros(self.nstates, dtype=bool)
            alive[b.dst[sel]] = True
        if remaining != 0 or not alive[0]:
            raise TrellisError("trellis walk did not terminate at the identity")
        return PauliOperator(nframes * n, x, z)

    # -- failure criterion --------------------------------------------------

    def carries_logical_error(self, residual: PauliOperator, nframes: Optional[int] = None) -> bool:
        """True when the residual disturbs info content at any window frame.

        Pulled back through the inverse encoder, stabilizer products show
        only ancilla-Z content; anything non-identity on an info wire
        anticommutes with an encoded logical operator launched in the
        window, and vice versa.
        """
        n, k = self.n, self.k
        nframes = _infer_frames(self.code, residual, nframes)
        for u in _pullback_frames(self.inv, self.m, n, residual, nframes):
            if not u.part(n - k, n).is_identity():
                return True
        return False


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


def _run_trial(sim: Simulator, p: float, nframes: int, seed: int, trial: int) -> bool:
    rng = np.random.default_rng([seed, trial])
    error = sample_error(DepolarizingChannel(p), sim.n * nframes, rng)
    estimate = sim.decode(sim.syndrome(error, nframes))
    return sim.carries_logical_error(error * estimate, nframes)


_WORKER: Optional[Tuple[Simulator, float, int, int]] = None


def _worker_init(sim: Simulator, p: float, nframes: int, seed: int) -> None:
    global _WORKER
    _WORKER = (sim, p, nframes, seed)


def _worker_count(bounds: Tuple[int, int]) -> int:
    sim, p, nframes, seed = _WORKER
    lo, hi = bounds
    return sum(_run_trial(sim, p, nframes, seed, t) for t in range(lo, hi))


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

    Trial i draws its own generator from (seed, i), so results are
    bit-identical for any worker count.  The 95% halfwidth uses the
    normal approximation.
    """
    if not 0.0 <= p < 0.75:
        raise ValueError("weight metric is maximum-likelihood only for p < 3/4")
    if nframes < 1 or trials < 1:
        raise ValueError("need at least one frame and one trial")
    sim = Simulator(code, encoder)
    if workers is None or workers <= 1:
        failures = sum(_run_trial(sim, p, nframes, seed, t) for t in range(trials))
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
