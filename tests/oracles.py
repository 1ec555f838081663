"""Reference routes and display helpers that only the tests use.

Each function here recomputes something the library computes another
way, or renders a value for a test to compare: membership in a span, a
nullspace, a linear system, an encoder node's base and a side's
symplectic partners, each by fresh reductions, the syndrome read off the
streamed online decoder, the commutant of an assignment that bounds the zero-weight cycles, a
bit-matrix transpose one bit at a time, a circuit's symplectic matrix
conjugated row by row, one encoder's cycle state
computed from scratch, the encoder completion search with every leaf
decided on its own, the states on zero-weight cycles found by walking
every memory state, the memory-state trellis decoder, the syndrome
trellis's merged branches found state by state, the lightest, lex-least
error of every syndrome that an error of weight at most 2 gives, the encode-then-decode
round trip streamed over the whole window once per launch frame, the
sampler's float route and the bit layout of frame keys and syndrome
chunks, the shifted products of
framed sequences frame by frame, the skeleton
products telescoped frame by frame, a CSS code's frames assembled bit
by bit, a code's text form, and small views
of skeletons, requirement matrices and maps.  The library does not
export them; the commands never reach them.  `per_state_trellis` and
`full_viterbi_keys` decode over the encoder's 4^m memory states, an
independent route to the errors the simulator decodes over syndrome
states.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from qconvenc import gf2
from qconvenc.catastrophic import _periodic_part, _unobservable
from qconvenc.circuit import CliffordCircuit, SymplecticMap, _dual, _field, _flips, _place, as_symplectic
from qconvenc.code import ConvolutionalCode, FramedPauliSequence
from qconvenc.pauli import PauliOperator
from qconvenc.pipeline import Realization
from qconvenc.simulate import _infer_frames
from qconvenc.skeleton import (
    Chain,
    MemoryAssignment,
    TransformationSkeleton,
    build_skeleton,
    skeleton_commutation_matrix,
)
from qconvenc.synthesis import PartialMap


def in_span(rows: List[int], v: int) -> bool:
    """Whether v lies in the GF(2) span of `rows`, by one fresh reduction."""
    return gf2.residue(*gf2.row_reduce(rows), v) == 0


def nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {x : row . x = 0 for every row}, by one fresh reduction."""
    return gf2.kernel(*gf2.row_reduce(rows), ncols)


def fresh_base(images: List[int], varying: Sequence[int]) -> Tuple[List[int], List[int]]:
    """An encoder node's base reduced afresh, which the completion search
    carries instead: the fixed images and a_i ^ a0 for the varying a_i, a0
    the first of them."""
    a0 = images[varying[0]] if varying else 0
    return gf2.row_reduce([y ^ a0 if i in varying else y for i, y in enumerate(images)])


def fresh_system(rows: List[int], rhs: List[int], ncols: int) -> Tuple[List[int], List[int], int, int]:
    """The system row_i . x = rhs_i reduced afresh, as the arguments the
    `gf2` solvers take: [row_i | rhs_i << ncols] reduced, and rhs mask 1."""
    return (*gf2.row_reduce([r | b << ncols for r, b in zip(rows, rhs)]), 1, ncols)


def complete_side_by_fresh_systems(
    pairs: List[Tuple[int, int]], isos: List[int], width: int
) -> Optional[List[Tuple[int, int]]]:
    """`synthesis._complete_side` with every system reduced afresh: each
    isotropic vector, then each complement vector (the first basis vector
    of the placed vectors' symplectic complement), gets as partner the
    least d with sp(c, d) = 1 and sp(e, d) = 0 for the other placed and
    pending e.  None when a system has no solution or the complement
    vanishes early."""
    pairs, pending = list(pairs), list(isos)
    while len(pairs) < width:
        placed = [v for ab in pairs for v in ab]
        if not pending:
            pending = nullspace([_dual(e, width) for e in placed], 2 * width)[:1]
            if not pending:
                return None
        c = pending[0]
        rows = [_dual(e, width) for e in placed + pending]
        d = next(gf2.solutions(*fresh_system(rows, [int(e == c) for e in placed + pending], 2 * width)), None)
        if d is None:
            return None
        pairs.append((c, d))
        pending = pending[1:]
    return pairs


def syndrome_by_decoder(
    decoder: Realization, error: PauliOperator, nframes: Optional[int] = None
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


def admissible_cycle_states(
    skeleton: TransformationSkeleton, assignment: MemoryAssignment
) -> List[PauliOperator]:
    """Generators of the memory subgroup that zero-weight cycles live in.

    Every state on a zero-weight cycle commutes with every assigned memory
    operator: iterating the boundary relation sp(state, g_{a,t}) =
    sp(previous state, g_{a,t-1}) down to the identity boundary kills each
    product in turn.  The commutant is returned as an independent
    generator list (empty for the trivial subgroup).
    """
    if len(assignment.operators) != len(skeleton.unknowns()):
        raise ValueError("assignment does not match the skeleton's unknown count")
    m = assignment.m
    if m == 0:
        return []
    duals = [_dual(op.vec(), m) for op in assignment.operators]
    basis = nullspace(duals, 2 * m)
    return [PauliOperator.from_vec(m, v) for v in basis]


def transpose(images: List[int], nbits: int) -> List[int]:
    """Bit j of row i is bit i of images[j], assembled one bit at a time."""
    return [sum(((img >> i) & 1) << j for j, img in enumerate(images)) for i in range(nbits)]


def symplectic_by_rows(circuit: CliffordCircuit) -> SymplecticMap:
    """The circuit's matrix with every gate conjugating each of the 2w rows
    in turn, one row at a time."""
    w = circuit.width
    rows = list(SymplecticMap.identity(w).rows)
    for g in circuit.gates:
        flips = _flips(g, w)
        for r, v in enumerate(rows):
            for src, dst in flips:
                if (v >> src) & 1:
                    v ^= 1 << dst
            rows[r] = v
    return SymplecticMap(w, tuple(rows))


def encoder_cycle_state(images: List[int], n: int, k: int, m: int) -> Optional[Tuple[int, List[int]]]:
    """The leaf check of one encoder, everything computed afresh: from its
    images of the memory X's, memory Z's and ancilla Z's, a memory state on
    a zero-weight cycle with nonzero info part and the images of T, or None.
    The completion search decides a node's leaves together instead."""
    w = m + n
    duals = [_field(_dual(v, w), w, n, m) for v in images]
    pull = duals[m:2 * m] + duals[:m]
    ts = transpose(pull, 2 * m)
    basis = _periodic_part(_unobservable(pull, duals[2 * m:], m), ts)
    reduced, pivots = gf2.row_reduce(images)
    for b in basis:
        if gf2.residue(reduced, pivots, _place(b, m, n, w)):
            return b, ts
    return None


def encoder_search_by_leaves(
    partial: PartialMap, n: int, k: int, max_candidates: int
) -> Tuple[object, int, int]:
    """The encoder completion search with every leaf decided on its own.

    The free memory directions (X's, then Z's, outside the span of the
    partial map's inputs) get their outputs depth-first, each level's
    candidates in `gf2.solutions` order.  A leaf's images are read off a
    fresh reduction of its rows, and `encoder_cycle_state` decides it.  A
    leaf is accepted when no cycle state is found and its outputs are
    independent.  Drawing a candidate at any level once `max_candidates`
    leaves are tried ends the search, and the lone leaf of a search with
    no free direction is tried without a draw.  Returns the accepted rows
    or the exhaustion message, the leaves tried, and the number of
    distinct dynamics (T, A), as the dual memory fields of the read
    images, over the tried leaves."""
    if max_candidates < 1:
        raise ValueError("max_candidates must be at least 1")
    w = partial.width
    m = w - n
    directions: List[int] = []
    for u in [1 << q for q in range(m)] + [1 << (w + q) for q in range(m)]:
        if not in_span([ri for ri, _ in partial.rows] + directions, u):
            directions.append(u)
    reads = [1 << i for i in [*range(m), *range(w, w + m + n - k)]]  # memory X's, Z's, ancilla Z's
    tried, keys = 0, set()

    class Exhausted(Exception):
        pass

    def walk(rows):
        nonlocal tried
        if len(rows) == len(partial.rows) + len(directions):
            tried += 1
            reduced, pivots = gf2.row_reduce([ri | ro << (2 * w) for ri, ro in rows])
            images = [gf2.residue(reduced, pivots, t) >> (2 * w) for t in reads]
            keys.add(tuple(_field(_dual(y, w), w, n, m) for y in images))
            independent = gf2.rank([ro for _, ro in rows]) == len(rows)
            return rows if independent and encoder_cycle_state(images, n, k, m) is None else None
        u = directions[len(rows) - len(partial.rows)]
        rhs = [gf2.parity(u & _dual(ri, w)) for ri, _ in rows]
        for v in gf2.solutions(*fresh_system([_dual(ro, w) for _, ro in rows], rhs, 2 * w)):
            if tried >= max_candidates:
                raise Exhausted(f"no non-catastrophic completion within {max_candidates} candidates")
            found = walk(rows + [(u, v)])
            if found:
                return found
        return None

    try:
        outcome = walk(list(partial.rows)) or "every consistent completion is catastrophic"
    except Exhausted as exc:
        outcome = str(exc)
    return outcome, tried, len(keys)


def periodic_states(smap: SymplecticMap, n: int, k: int, m: int, direction: str) -> List[int]:
    """The memory states on zero-weight cycles, by brute force over all 4^m
    states (m <= 3): those whose orbit under the zero-weight transition,
    taken where the ancilla/syndrome X part is 0, comes back to the state.
    The transitions are forward images of whole inputs, so neither the
    inverse map nor the duality read of T and A is used: an encoder state s
    steps to the memory input whose input frame (ancilla Z's, any info)
    leaves an identity output frame and memory s; a decoder state steps to
    its memory output under an identity received frame."""
    if m > 3:
        raise ValueError("the walk is for m <= 3")
    w = m + n
    step = {}
    for s in range(1 << (2 * m)):
        if direction == "encoder":
            for anc in range(1 << (n - k)):
                for info in range(1 << (2 * k)):
                    # Z's on the ancillas, any Pauli on the info wires
                    frame = _place(anc << (n - k), n - k, 0, n) | _place(info, k, n - k, n)
                    out = smap.apply_vec(_place(s, m, 0, w) | _place(frame, n, m, w))
                    if _field(out, w, 0, n) == 0:
                        step[_field(out, w, n, m)] = s
        else:
            out = smap.apply_vec(_place(s, m, 0, w))
            if out & ((1 << (n - k)) - 1) == 0:  # no X on a syndrome wire
                step[s] = _field(out, w, n, m)
    periodic = []
    for s in range(1 << (2 * m)):
        cur = step.get(s)
        for _ in range(1 << (2 * m)):
            if cur is None or cur == s:
                break
            cur = step.get(cur)
        if cur == s:
            periodic.append(s)
    return periodic


def polynomial_to_text(mask: int) -> str:
    """Inverse of `parse_polynomial`: bit t of the mask is the coefficient of D^t."""
    terms = []
    t = 0
    while mask:
        if mask & 1:
            terms.append("1" if t == 0 else ("D" if t == 1 else f"D^{t}"))
        mask >>= 1
        t += 1
    return "+".join(terms) if terms else "0"


def css_frames_by_bits(polys: List[int]) -> Tuple[FramedPauliSequence, FramedPauliSequence]:
    """The X and Z generators of `from_classical_polynomial`, each frame
    assembled one entry bit at a time."""
    n = len(polys)
    frames_x, frames_z = [], []
    for t in range(max(p.bit_length() for p in polys)):
        x = 0
        for j, p in enumerate(polys):
            if (p >> t) & 1:
                x |= 1 << j
        frames_x.append(PauliOperator(n, x, 0))
        frames_z.append(PauliOperator(n, 0, x))
    return FramedPauliSequence(n, tuple(frames_x)), FramedPauliSequence(n, tuple(frames_z))


def render_code(code: ConvolutionalCode) -> str:
    """Code-file text that `parse_code` reads back as the same code."""
    lines = [f"n={code.n}"]
    lines += [g.to_string() for g in code.generators]
    return "\n".join(lines) + "\n"


def as_pauli(seq: FramedPauliSequence, nframes: int) -> PauliOperator:
    """Flatten onto a window of `nframes` frames (must contain the span)."""
    if nframes < seq.span:
        raise ValueError("window shorter than the sequence span")
    out = PauliOperator.identity(0)
    for t in range(1, nframes + 1):
        out = out.tensor(seq.frame(t))
    return out


def sp_at_shift(a: FramedPauliSequence, b: FramedPauliSequence, shift: int) -> int:
    """Symplectic product of a with b delayed by `shift` frames, frame by frame."""
    acc = 0
    for t, f in enumerate(a.frames, 1):
        acc ^= f.sp(b.frame(t - shift))
    return acc


def first_anticommuting_shift(
    generators: Tuple[FramedPauliSequence, ...], nu: int
) -> Optional[Tuple[int, int, int]]:
    """The (a, b, shift) that `code.validate` reports first, found by
    `sp_at_shift` in its order; None when every pair commutes."""
    for a, ga in enumerate(generators, 1):
        for b, gb in enumerate(generators, 1):
            if b < a:
                continue
            for shift in range(nu):
                if sp_at_shift(ga, gb, shift):
                    return a, b, shift
                if shift and sp_at_shift(gb, ga, shift):
                    return b, a, shift
    return None


def fgg_transformation_rows() -> List[Tuple[PauliOperator, PauliOperator]]:
    """The four (input, output) rows the FGG encoder must implement,
    with memory choice g1 = X, g2 = Z."""
    rows = [
        ("I ZI I", "XXX X"),
        ("I IZ I", "ZZZ Z"),
        ("X II I", "XZY I"),
        ("Z II I", "ZYX I"),
    ]
    return [
        (PauliOperator.from_string(a), PauliOperator.from_string(b)) for a, b in rows
    ]


def anticommuting_pairs(matrix: Sequence[int]) -> List[Tuple[int, int]]:
    """Index pairs i < j whose required product is 1."""
    return [
        (i, j)
        for i in range(len(matrix))
        for j in range(i + 1, len(matrix))
        if (matrix[i] >> j) & 1
    ]


def anticommuting_slots(skeleton: TransformationSkeleton) -> Set[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """The (chain, t) slots of `skeleton.unknowns()`, in pairs i < j whose
    required product is 1: the requirement indexes its rows by those slots."""
    slots = skeleton.unknowns()
    return {(slots[i], slots[j]) for i, j in anticommuting_pairs(skeleton_commutation_matrix(skeleton))}


def required_commutation_matrix(code: ConvolutionalCode) -> Tuple[int, ...]:
    return skeleton_commutation_matrix(build_skeleton(code))


def skeleton_rows(skeleton: TransformationSkeleton) -> List[Tuple[int, int]]:
    """Display rows as (chain, frame) ordered t-major then chain."""
    out = []
    max_span = max((c.span for c in skeleton.chains), default=0)
    for t in range(1, max_span + 1):
        for i, c in enumerate(skeleton.chains, 1):
            if t <= c.span:
                out.append((i, t))
    return out


def compose(first: SymplecticMap, then: SymplecticMap) -> SymplecticMap:
    """`first` followed by `then`."""
    return SymplecticMap(first.width, tuple(gf2.matmul(first.rows, then.rows)))


def telescope(ci: Chain, s: int, cj: Chain, t: int) -> int:
    """The forced product sp(g_{i,s}, g_{j,t}) of two skeleton slots, summed
    frame by frame down to the identity boundary."""
    acc = 0
    for r in range(min(s, t)):
        acc ^= ci.inputs[s - 1 - r].sp(cj.inputs[t - 1 - r])
        acc ^= ci.outputs[s - 1 - r].sp(cj.outputs[t - 1 - r])
    return acc


def telescoped_requirement(
    skeleton: TransformationSkeleton,
) -> Tuple[List[int], List[Tuple[int, int, int]]]:
    """The unknowns' product rows by `telescope`, and every (chain i, chain
    j, frame t) whose boundary product with chain i at its full span is 1,
    in (i, j, t) order."""
    chains = skeleton.chains
    unknowns = skeleton.unknowns()
    rows = [
        sum(telescope(chains[i - 1], s, chains[j - 1], t) << col for col, (j, t) in enumerate(unknowns))
        for i, s in unknowns
    ]
    bad = [
        (i, j, t)
        for i, ci in enumerate(chains, 1)
        for j, cj in enumerate(chains, 1)
        for t in range(1, cj.span + 1)
        if telescope(ci, ci.span, cj, t)
    ]
    return rows, bad


@functools.lru_cache(maxsize=8)
def _memory_trellis(smap: SymplecticMap, n: int, k: int):
    m = smap.width - n
    w = m + n
    r = n - k
    nmask = (1 << n) - 1
    mmask = (1 << m) - 1
    nstates = 1 << (2 * m)
    nbranches = 1 << (n + k)
    memimg = np.array(
        [smap.apply_vec((s & mmask) | ((s >> m) << w)) for s in range(nstates)],
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
            [smap.apply_vec((x << m) | (z << (w + m))) for x, z in zip(ux.tolist(), uz.tolist())],
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


def per_state_trellis(sim):
    """The encoder's memory-state trellis: its (chunk, branch, state)
    successor, weight and key tables, built one state and one branch at a
    time from `apply_vec` on the whole input.  States are the memory bit
    patterns, X bits then Z bits; chunk c and branch j select the input
    frame whose ancilla X bits spell c, info X bits j mod 2^k and Z bits
    j div 2^k."""
    return _memory_trellis(sim.smap, sim.n, sim.k)


def per_state_step(sim, beta, c, inf):
    """One backward step over (trials, memory states) by the per-state tables."""
    dst, wt, _ = per_state_trellis(sim)
    return np.minimum((beta[:, dst[c]] + wt[c]).min(axis=1), inf)


def per_state_pass(sim, chunks, inf=1 << 30):
    """Backward metrics (N + 1, trials, memory states) of the full pass
    over every frame of every trial, from the identity state pinned after
    the last frame."""
    dst_table = per_state_trellis(sim)[0]
    ntrials, nframes = chunks.shape
    beta = np.empty((nframes + 1, ntrials, dst_table.shape[2]), dtype=np.int32)
    beta[nframes] = inf
    beta[nframes, :, 0] = 0
    for t in range(nframes - 1, -1, -1):
        for c in range(len(dst_table)):
            rows = np.flatnonzero(chunks[:, t] == c)
            if rows.size:
                beta[t][rows] = per_state_step(sim, beta[t + 1][rows], c, inf)
    return beta


def merged_syndrome_trellis(chunks: np.ndarray, n: int, r: int) -> List[dict]:
    """The syndrome trellis with its parallel branches merged, state by
    state.  `chunks` holds c_j(f) for every lag j < nu and every physical
    frame f (X bits then Z bits, wire 1 lowest).  Every frame that closes
    state s's top slot is a branch of the unmerged trellis, to ((s << r) &
    mask) ^ C(f) under chunk 0; the branches are grouped by that successor,
    and each group keeps its lightest frame, lex-least among equal weights.
    Returns one dict per state: successor -> (weight, key)."""
    nu = len(chunks)
    nstates = 1 << (r * (nu - 1))
    frames = []
    for f in range(1 << (2 * n)):
        x, z = f & ((1 << n) - 1), f >> n
        key = sum((2 * (z >> q & 1) + ((x ^ z) >> q & 1)) << (2 * (n - 1 - q)) for q in range(n))
        opened = sum(int(chunks[j][f]) << (r * j) for j in range(nu - 1))
        frames.append((int(chunks[nu - 1][f]), opened, (x | z).bit_count(), key))
    merged = []
    for s in range(nstates):
        best: dict = {}
        for closing, opened, weight, key in frames:
            if closing == s >> (r * (nu - 2)):
                dst = ((s << r) & (nstates - 1)) ^ opened
                best[dst] = min(best.get(dst, (weight, key)), (weight, key))
        merged.append(best)
    return merged


def full_viterbi_keys(sim, chunks):
    """Frame keys of the decoded errors by the full backward pass over
    every frame of every trial, then the dense lex-least forward walk,
    both over the memory-state trellis."""
    inf = 1 << 30
    dst_table, wt_table, key_table = per_state_trellis(sim)
    ntrials, nframes = chunks.shape
    beta = per_state_pass(sim, chunks, inf)
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


def keys_from_bits(bits: np.ndarray) -> np.ndarray:
    """Frame keys (trials, N) of a (trials, N, 2n) bit block, each frame its
    X bits then its Z bits: symbol (z, x ^ z) per wire, wire 1 most
    significant."""
    n = bits.shape[2] // 2
    x, z = bits[..., :n].astype(np.int64), bits[..., n:].astype(np.int64)
    return ((2 * z + (x ^ z)) << (2 * np.arange(n - 1, -1, -1))).sum(axis=2)


def bits_from_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """The (trials, N, 2n) uint8 bit block of frame keys (trials, N)."""
    shifts = 2 * np.arange(n - 1, -1, -1)
    hi = (np.asarray(keys, dtype=np.int64)[..., None] >> (shifts + 1)) & 1
    lo = (np.asarray(keys, dtype=np.int64)[..., None] >> shifts) & 1
    return np.concatenate([hi ^ lo, hi], axis=-1).astype(np.uint8)


def chunks_from_bits(syndromes: np.ndarray) -> np.ndarray:
    """Syndrome chunks (trials, N) of (trials, N, n - k) syndrome bits,
    generator a at bit a."""
    syndromes = np.asarray(syndromes)
    return (syndromes.astype(np.intp) << np.arange(syndromes.shape[2])).sum(axis=2)


def sample_block_bits(p: float, n: int, nframes: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The (trials, N, 2n) error bits of trials lo..hi-1 by floats: each
    trial's Philox counter range, one uniform u per qubit from its word's
    top 53 bits as `Generator.random` makes it, X bit u < 2p/3 and Z bit
    p/3 <= u < p."""
    stride = -(-(n * nframes) // 4)
    bits = np.random.Philox(key=seed)
    bits.advance(lo * stride)
    raw = bits.random_raw((hi - lo) * 4 * stride).reshape(hi - lo, 4 * stride)
    u = ((raw[:, : n * nframes] >> 11) * 2.0**-53).reshape(hi - lo, nframes, n)
    return np.concatenate([u < 2 * p / 3, (u >= p / 3) & (u < p)], axis=2).astype(np.uint8)


def low_weight_table(syndrome: Callable[[PauliOperator], tuple], n: int, nframes: int, weight: int) -> dict:
    """Syndrome -> frame-key row of the lightest error that has it, lex-least
    among equal weights, over every error of weight at most `weight` of an
    nframes window of n-qubit frames, with the syndromes `syndrome` gives."""
    width = n * nframes
    best: dict = {}
    for w in range(weight + 1):
        for qubits in itertools.combinations(range(width), w):
            # X, Y and Z on each qubit: I < X < Y < Z, wire 1 most
            # significant within a frame
            for kinds in itertools.product((1, 2, 3), repeat=w):
                x = z = 0
                keys = [0] * nframes
                for q, kind in zip(qubits, kinds):
                    x |= (kind != 3) << q
                    z |= (kind != 1) << q
                    keys[q // n] |= kind << (2 * (n - 1 - q % n))
                bits = syndrome(PauliOperator(width, x, z))
                best[bits] = min(best.get(bits, (w, tuple(keys))), (w, tuple(keys)))
    return {bits: keys for bits, (_, keys) in best.items()}


def roundtrip_by_launch(code: ConvolutionalCode, encoder, decoder: Realization, nframes: int) -> List[str]:
    """`decoder.windowed_roundtrip_failures` with every probe streamed
    through the encoder and then the decoder over the whole window, once
    for each launch frame."""
    n, k = code.n, code.k
    emap = as_symplectic(encoder)
    dmap = decoder.map

    # (label, probe, span, whether the decoded syndrome must equal the probe's)
    cases: List[Tuple[str, PauliOperator, int, bool]] = []
    for a, gen in enumerate(code.generators, 1):
        cases.append((f"ancilla Z {a}", PauliOperator.single(n, a - 1, "Z"), gen.span, True))
    for j in range(1, k + 1):
        wire = n - k + j - 1
        ex, ez = decoder.skeleton.chains[2 * j - 2:2 * j]  # the decoder's logical X and Z chains
        cases.append((f"logical X {j}", PauliOperator.single(n, wire, "X"), ex.span, False))
        cases.append((f"logical Z {j}", PauliOperator.single(n, wire, "Z"), ez.span, False))

    def stream(src: PauliOperator, t: int) -> Tuple[List[PauliOperator], bool]:
        mem_e = mem_d = 0
        frames: List[PauliOperator] = []
        for s in range(nframes):
            sent, mem_e = emap.step(n, mem_e, src.vec() if s == t else 0)
            out, mem_d = dmap.step(n, mem_d, sent)
            frames.append(PauliOperator.from_vec(n, out))
        return frames, not (mem_e or mem_d)

    failures: List[str] = []
    for t in range(nframes):
        for label, src, span, exact_syndrome in cases:
            t_out = t + span - 1
            if t_out >= nframes:
                continue
            frames, restored = stream(src, t)
            if not restored:
                failures.append(f"{label} frame {t + 1}: memory not restored")
                continue
            for s, fp in enumerate(frames):
                info = fp.part(n - k, n)
                synd = fp.part(0, n - k)
                want = src.part(n - k, n) if s == t_out else PauliOperator.identity(k)
                if info != want:
                    failures.append(
                        f"{label} frame {t + 1}: info at frame {s + 1} is "
                        f"{info.to_string()}, wanted {want.to_string()}"
                    )
                    break
                if synd.x:
                    failures.append(
                        f"{label} frame {t + 1}: X content on syndrome wires at frame {s + 1}"
                    )
                    break
                if exact_syndrome and s == t_out and src.part(0, n - k) != synd:
                    failures.append(
                        f"{label} frame {t + 1}: syndrome at frame {s + 1} is "
                        f"{synd.to_string()}, wanted {src.part(0, n - k).to_string()}"
                    )
                    break
    return failures
