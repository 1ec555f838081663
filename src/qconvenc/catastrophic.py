"""Zero-weight cycle analysis of encoder/decoder memory dynamics.

A streamed encoder is catastrophic when some input stream that never stops
carrying logical content produces only finitely many non-identity physical
frames.  Any such stream eventually loops through memory states while
emitting identity frames, so the criterion (Grassl and Roetteler, ISIT
2006) is: restrict the memory state diagram to transitions whose physical
side is the identity and look for a cycle with positive logical weight.

For an encoder the physical side is the *output*, so edges are found by
pulling (identity physical, target memory) back through the inverse map;
the preimage is unique, making the restricted diagram functional when
iterated backwards in time.  For a decoder the physical side is the
received *input* and edges are forward images of (memory, identity).  In
both directions ancilla/syndrome coordinates must stay in {I, Z}: those
wires hold prepared or measured |0> states, so X content there would make
the transition unrealizable.  A map streams n-qubit frames, so its memory
size m is its width less n: the verdicts read m off the map, refusing one
narrower than a frame, and the completion search off the rows' width.

Each of these transitions is GF(2)-linear in the 2m-bit memory state s it
is keyed by: it leads to the state T s, puts A s on the X part of the
ancilla/syndrome wires and L s on the info wires, and it exists exactly
when A s = 0.  So the diagram is decided by linear algebra instead of a
walk over the 4^m states.  A state whose whole T-trajectory keeps A = 0
lies in V, the largest T-stable subspace of ker A.  T maps V into itself,
and V splits (Fitting) into a part T eventually sends to 0 and the
periodic part P = T^dim V (V), on which T is invertible.  Every state of
P therefore returns to itself, and a state on a cycle is a power of T
applied to itself, so it lies in P: the zero-weight cycles are exactly the
T-orbits in P.  The map is catastrophic exactly when L is nonzero on P,
that is on some basis vector b of P, and the T-orbit of b is a witness.

An encoder's edges are preimages, but no inverse is needed to read them.
M is symplectic, so sp(M u, M v) = sp(u, v), and coordinate X_q of the
preimage of y is sp(M^-1 y, Z_q) = sp(y, M Z_q); coordinate Z_q is
sp(y, M X_q).  T and A therefore come from the images of the memory X's
and Z's and of the ancilla Z's alone.  L needs no info image either: a
state b of P lies in ker A, so the preimage of y_b = (I, b) is made of
memory, ancilla Z and info parts, and L b = 0 exactly when y_b lies in the
span of M(memory X, Z) and M(ancilla Z).  A decoder's T, A and L come
from the images of the memory X's and Z's alone, the edges keyed by those
states.  The completion search, in either direction, uses this: every leaf
fixes those images (as the same XOR combinations of its rows at every
leaf), so a leaf is decided without completing it to a full map, and only
the accepted leaf is completed and synthesized.  An encoder's leaves
under one last-level node differ only in the last direction's output v,
which is XORed into just the images a_i whose combination uses that row.
With a0 the first of them, a leaf's images span what base and a0 ^ v
span, where base holds the other images and every a_i ^ a0.  So base is
row-reduced once per node, and (I, b) lies in a leaf's span exactly when
its residue modulo base is 0 or equals c0 ^ residue(v), c0 being that of
a0.  Both residue(v) and v's dual memory field are linear in v, so a leaf
gets them from the previous sibling's by XOR with those of the difference
of the two outputs, which the node caches.  T and A, hence P, depend only
on the images' dual memory fields, which recur across siblings and nodes,
so one search computes P at most once per distinct value, a node reduces
each basis state of P once, and it settles once per class of dual fields
(below) which state decides a leaf for each value of c0 ^ residue(v).
After the node's set-up a leaf costs a few XORs and lookups: no residue
and no row reduction.

Within a node, even a new dynamics need not recompute V.  A candidate v
changes only the dual fields of the varying images, each by the same dv,
and those fields are the rows of T's transpose for the memory inputs
(memory X_i gives row m + i, Z_i row i) and A's functionals for the
ancilla Z's.  So for two candidates v and v', with u the mask of the
changed rows, T' s = T s ^ <dv ^ dv', s> u, and A' = A when no ancilla
image varies.  If u lies in V, then T' maps V into itself, so V lies in
V'; then u lies in V', and the same argument the other way gives V' = V.
A node therefore computes V at its first new dynamics and tests u against
it with one residue; when u lies in V, no later dynamics of the node
computes V, and otherwise each new one computes its own.  V's basis is
read off the reduced rows of its annihilator, which V alone fixes, so P,
and every verdict, are those computed afresh.

Nor does a shared V need a P per dynamics.  On V, T' and T differ by
<dv ^ dv', s> u with u in V, so T restricted to V, and with it P =
T^dim V (V), depends on dv only through its restriction to V: the
parities <dv, b> over V's basis.  The dual fields with one restriction
form a class, and the node computes P and its decision (r1 and the two
deciding states, below) once per class; without a shared V each dual
field is its own class.  A bare GR search meets 64 dual fields per node
but 4 restrictions, as dim V = 4.  The memo still holds every dynamics
with its own images of T, read off the node's first: T' e_j = T e_j ^ u
where bit j of dv ^ dv' is set.

`zero_weight_graph` still enumerates the whole diagram, for display; no
verdict uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from . import gf2
from .circuit import CliffordCircuit, SymplecticMap, _dual, _field, _place, as_symplectic
from .errors import CompletionSearchExhausted, MapConsistencyError
from .pauli import PauliOperator
from .synthesis import PartialMap, check_consistency, complete_to_symplectic, synthesize_circuit

__all__ = [
    "ENUM_CAP",
    "MAX_CANDIDATES",
    "ZeroWeightEdge",
    "ZeroWeightGraph",
    "zero_weight_graph",
    "CatastrophicityVerdict",
    "is_noncatastrophic",
    "is_noncatastrophic_decoder",
    "subgroup_elements",
    "complete_noncatastrophic",
]

# full-enumeration limit on memory qubits (4^10 ~ 1e6 graph nodes)
ENUM_CAP = 10

# default completion search budget (leaf checks) for every caller
MAX_CANDIDATES = 20000


@dataclass(frozen=True)
class ZeroWeightEdge:
    """One identity-physical-frame transition of the memory register."""

    before: PauliOperator  # memory entering the frame
    after: PauliOperator  # memory leaving the frame
    ancilla: PauliOperator  # ancilla input (encoder) / syndrome output (decoder)
    logical: PauliOperator  # info input (encoder) / info output (decoder)

    @property
    def logical_weight(self) -> int:
        return self.logical.weight()


@dataclass(frozen=True)
class ZeroWeightGraph:
    """Functional zero-weight transition diagram over all 4^m memory states.

    Edges are keyed by the state they are iterated from: the *later* memory
    state for encoders (preimages walk backwards in time) and the earlier
    one for decoders.  A missing key means the unique candidate transition
    put X or Y on an ancilla/syndrome wire and was discarded.
    """

    m: int
    n: int
    k: int
    direction: str
    edges: Dict[int, ZeroWeightEdge] = field(repr=False)


def _encoder_edge(inv: SymplecticMap, n: int, k: int, state_vec: int) -> Optional[ZeroWeightEdge]:
    w = inv.width
    m = w - n
    pre = inv.apply_vec(_place(state_vec, m, n, w))
    frame = PauliOperator.from_vec(n, _field(pre, w, m, n))
    anc = frame.part(0, n - k)
    if anc.x:
        return None
    before = PauliOperator.from_vec(m, _field(pre, w, 0, m))
    return ZeroWeightEdge(before, PauliOperator.from_vec(m, state_vec), anc, frame.part(n - k, n))


def _decoder_edge(smap: SymplecticMap, n: int, k: int, state_vec: int) -> Optional[ZeroWeightEdge]:
    m = smap.width - n
    frame, after = smap.step(n, state_vec, 0)
    out = PauliOperator.from_vec(n, frame)
    synd = out.part(0, n - k)
    if synd.x:
        return None
    return ZeroWeightEdge(
        PauliOperator.from_vec(m, state_vec), PauliOperator.from_vec(m, after), synd, out.part(n - k, n)
    )


def zero_weight_graph(
    c: Union[CliffordCircuit, SymplecticMap], n: int, k: int, direction: str = "encoder"
) -> ZeroWeightGraph:
    smap = as_symplectic(c)
    m = _memory(smap, n)
    if m > ENUM_CAP:
        raise ValueError(f"memory {m} exceeds the enumeration cap {ENUM_CAP}")
    if direction == "encoder":
        inv = smap.inverse()
        probe = lambda s: _encoder_edge(inv, n, k, s)
    elif direction == "decoder":
        probe = lambda s: _decoder_edge(smap, n, k, s)
    else:
        raise ValueError("direction must be 'encoder' or 'decoder'")
    edges = {}
    for s in range(1 << (2 * m)):
        e = probe(s)
        if e is not None:
            edges[s] = e
    return ZeroWeightGraph(m, n, k, direction, edges)


@dataclass(frozen=True)
class _CycleSeed:
    """A state b on a zero-weight cycle with nonzero info part, with the
    map and the images `ts` of T that walk its orbit."""

    smap: SymplecticMap
    n: int
    k: int
    b: int
    ts: Tuple[int, ...]

    def walk(self, direction: str) -> Tuple[ZeroWeightEdge, ...]:
        orbit = [self.b]
        while (s := gf2.matmul(orbit[-1:], list(self.ts))[0]) != self.b:
            orbit.append(s)
        if direction == "encoder":
            inv = self.smap.inverse()
            # the edge keyed by s leads back in time to T s: reverse for forward order
            return tuple(_encoder_edge(inv, self.n, self.k, s) for s in reversed(orbit))
        return tuple(_decoder_edge(self.smap, self.n, self.k, s) for s in orbit)


@dataclass(frozen=True)
class CatastrophicityVerdict:
    """A witness cycle, in forward-time order, is attached exactly when
    the answer is 'catastrophic'.  Its T-orbit (up to 4^m - 1 edges) is
    walked the first time `witness` is read."""

    non_catastrophic: bool
    direction: str
    seed: Optional[_CycleSeed] = field(default=None, repr=False)

    def __post_init__(self):
        if (self.non_catastrophic is False) != (self.seed is not None):
            raise ValueError("a cycle must be present exactly for catastrophic verdicts")

    @cached_property
    def witness(self) -> Optional[Tuple[ZeroWeightEdge, ...]]:
        return None if self.seed is None else self.seed.walk(self.direction)


def _unobservable(pull: List[int], funcs: List[int], m: int) -> List[int]:
    """Basis of V, the largest T-stable subspace of ker A, for the step T
    given by its transpose `pull` and the functionals `funcs` whose common
    kernel is ker A: one vector per free column of the reduced functionals,
    topped by that column, since each of their rows pivots on its lowest
    bit.  So the basis with its top bits is a `gf2.residue` input."""
    # V is the common kernel of A, A T, A T^2, ...: the span of those
    # functionals grows by the products with T of the ones last added until
    # none is new (at most 2m steps)
    reduced: List[int] = []
    pivots: List[int] = []
    new = funcs
    while new:
        new = gf2.matmul(gf2.extend(reduced, pivots, new), pull)
    return gf2.kernel(reduced, pivots, 2 * m)


def _periodic_part(basis: List[int], ts: List[int]) -> List[int]:
    """Basis of P for the step T given by the images `ts` of the 2m basis
    states, from a basis of a T-stable subspace V: the images T^j(V) shrink
    until T is invertible on them."""
    while True:
        image = gf2.row_reduce(gf2.matmul(basis, ts))[0]
        if len(image) == len(basis):
            return basis
        basis = image


def _cycle_states(
    images: List[int], varying: Sequence[int], candidates: Iterable[int], n: int, k: int, m: int,
    memo: dict,
) -> Iterator[Tuple[int, Optional[Tuple[int, Tuple[int, ...]]]]]:
    """For each candidate v, drawn when its pair is asked for: v and a state
    on a zero-weight cycle with nonzero info part and the images of T, or
    None, for the encoder images `images` with v XORed into those at `varying`.

    `images` are the encoder's images of its memory inputs X_0..X_(m-1),
    Z_0..Z_(m-1) and then of its ancilla inputs Z; the rest of the map is
    not read (see the module docstring).  `memo` maps the images' dual
    memory fields, which fix T and A, to the images of T and a basis of P.
    Once a dynamics new to `memo` shows that its V holds u, the pull rows
    that the varying images change, the node's later dynamics share that
    V and fall into classes by their restriction to it; P, a memo entry's
    basis, and the decision below are found once per class.

    The images are row-reduced once, as base: the fixed images and a_i ^ a0
    for the varying a_i, a0 the first of them.  A candidate's images span
    what base and a0 ^ v span, so the state b of P has nonzero info part
    exactly when the residue of (I, b) modulo base, cached per b, is
    neither 0 nor c0 ^ residue(v), c0 being the residue of a0.

    The dual field dv of v and residue(v) are linear in v: each candidate's
    pair is the previous candidate's XOR that of their difference, cached
    per difference.  Any order of candidates works; a `gf2.solutions` walk
    has one difference per nullspace vector.  The candidates' dv recur,
    and for each class the decision is found once: the first state of P
    with a nonzero residue r1, and the first whose nonzero residue is not
    r1.  The first decides the leaf unless c0 ^ residue(v) is r1, and then
    the second does; either is returned with its own dv's images of T.
    """
    w = m + n
    # coordinate X_q (Z_q) of a preimage of y is sp(y, M Z_q) (sp(y, M X_q)):
    # as functionals of the outgoing memory state these are dual images
    duals = [_field(_dual(v, w), w, n, m) for v in images]
    # the varying images a_i ^ v differ from a0 ^ v by a_i ^ a0 (0 for a0 itself)
    a0 = images[varying[0]] if varying else 0
    base = gf2.row_reduce([y ^ a0 if i in varying else y for i, y in enumerate(images)])
    c0 = gf2.residue(*base, a0)
    node: dict = {}  # dual field of v -> the decision of the candidates with that field
    classes: dict = {}  # class of dual fields -> P and its decision, as states
    placed: dict = {}  # state b -> residue of (I, b) modulo base
    steps: dict = {}  # difference d of two candidates -> dual field and residue of d
    last, dv, res = 0, 0, c0  # the previous candidate, its dual field and c0 ^ its residue
    # dv enters pull row m + i for a varying memory X_i and row i for Z_i:
    # T changes by a rank-1 term with image u, and A does not unless an
    # ancilla image varies.  If u lies in the V of one dynamics of the node,
    # that V is every one's, and P depends on dv only through its
    # restriction to V (see the module docstring)
    u = sum(1 << (i + m if i < m else i - m) for i in varying if i < 2 * m)
    shares = all(i < 2 * m for i in varying)
    stable = None  # the node's V, once a new dynamics showed it holds u
    for v in candidates:
        d = v ^ last
        if d not in steps:
            steps[d] = (_field(_dual(d, w), w, n, m), gf2.residue(*base, d)) if varying else (0, 0)
        ddv, dres = steps[d]
        last, dv, res = v, dv ^ ddv, res ^ dres
        if dv not in node:
            fields = list(duals)
            for i in varying:
                fields[i] ^= dv
            key = tuple(fields)
            entry = memo.get(key)
            if not node:  # T's images at the node's first dynamics; a later one's differ by u
                dv0, ts0 = dv, entry[0] if entry else tuple(gf2.transpose(key[m:2 * m] + key[:m], 2 * m))
            ts = entry[0] if entry else tuple(t ^ u if (dv ^ dv0) >> j & 1 else t for j, t in enumerate(ts0))
            if entry is None and stable is None:
                fresh = _unobservable(list(key[m:2 * m] + key[:m]), list(key[2 * m:]), m)
                if shares and not gf2.residue(fresh, [b.bit_length() - 1 for b in fresh], u):
                    stable = fresh
            # a class per restriction of dv to the shared V, else per dv
            cls = dv if stable is None else tuple(gf2.parity(dv & b) for b in stable)
            if cls not in classes:
                basis = entry[1] if entry else _periodic_part(fresh, ts)
                for b in basis:
                    if b not in placed:
                        placed[b] = gf2.residue(*base, _place(b, m, n, w))
                marked = [(placed[b], b) for b in basis if placed[b]]
                r1, b1 = marked[0] if marked else (0, None)
                classes[cls] = basis, r1, b1, next((b for r, b in marked if r != r1), None)
            basis, r1, b1, b2 = classes[cls]
            memo.setdefault(key, (ts, basis))
            node[dv] = r1, None if b1 is None else (b1, ts), None if b2 is None else (b2, ts)
        r1, hit, other = node[dv]
        # L b != 0 exactly when (I, b) has no preimage in span(memory, ancilla Z),
        # that is when its residue modulo base is neither 0 nor c0 ^ residue(v)
        yield v, hit if r1 != res else other


def _decoder_cycle_state(images: List[int], n: int, k: int, m: int, memo: dict) -> Optional[Tuple[int, List[int]]]:
    """As `_cycle_states` for one candidate, for a decoder's images of its memory inputs
    X_0..X_(m-1), Z_0..Z_(m-1); `memo` maps T and A to a basis of P."""
    w = m + n
    ts = [_field(r, w, n, m) for r in images]  # image layout (syndrome, info, memory)
    xs = tuple(r & ((1 << (n - k)) - 1) for r in images)
    key = tuple(ts), xs
    if key not in memo:
        memo[key] = _periodic_part(_unobservable(gf2.transpose(ts, 2 * m), gf2.transpose(xs, n - k), m), ts)
    for b, lb in zip(memo[key], gf2.matmul(memo[key], [_field(r, w, n - k, k) for r in images])):
        if lb:
            return b, ts
    return None


def _leaf_states(direction: str, images: List[int], varying: Sequence[int], candidates: Iterable[int],
                 n: int, k: int, m: int, memo: dict) -> Iterator[Tuple[int, Optional[Tuple[int, List[int]]]]]:
    """`_cycle_states` for an encoder's images (`_reads`); for a decoder's,
    each candidate v decided on its own, with v XORed into those at `varying`."""
    if direction == "encoder":
        return _cycle_states(images, varying, candidates, n, k, m, memo)
    return ((v, _decoder_cycle_state([y ^ v if i in varying else y for i, y in enumerate(images)], n, k, m, memo))
            for v in candidates)


def _memory(smap: SymplecticMap, n: int) -> int:
    """The memory size m of a map on n-qubit frames: its width less the frame."""
    if smap.width < n:
        raise ValueError(f"circuit width {smap.width} is narrower than one frame of {n}")
    return smap.width - n


def _verdict(c: Union[CliffordCircuit, SymplecticMap], n: int, k: int, direction: str) -> CatastrophicityVerdict:
    smap = as_symplectic(c)
    m = _memory(smap, n)
    images = [smap.rows[i] for i in _reads(n, k, m, direction)]
    _, found = next(_leaf_states(direction, images, (), [0], n, k, m, {}))
    if found is None:
        return CatastrophicityVerdict(True, direction)
    b, ts = found
    return CatastrophicityVerdict(False, direction, _CycleSeed(smap, n, k, b, tuple(ts)))


def _reads(n: int, k: int, m: int, direction: str) -> List[int]:
    """Row indices of the inputs a leaf check reads: memory X's, memory
    Z's, then an encoder's ancilla Z's."""
    w = m + n
    return [*range(m), *range(w, w + m + (n - k if direction == "encoder" else 0))]


def is_noncatastrophic(c: Union[CliffordCircuit, SymplecticMap], n: int, k: int) -> CatastrophicityVerdict:
    return _verdict(c, n, k, "encoder")


def is_noncatastrophic_decoder(c: Union[CliffordCircuit, SymplecticMap], n: int, k: int) -> CatastrophicityVerdict:
    return _verdict(c, n, k, "decoder")


def subgroup_elements(generators: Sequence[PauliOperator], m: int) -> List[PauliOperator]:
    """All elements generated (phase-free, so just the GF(2) span)."""
    elems = sorted(set(gf2.span([g.vec() for g in generators])))
    return [PauliOperator.from_vec(m, v) for v in elems]


def complete_noncatastrophic(
    p: PartialMap, n: int, k: int, direction: str = "encoder", *, max_candidates: int = MAX_CANDIDATES
) -> Tuple[SymplecticMap, CliffordCircuit, CatastrophicityVerdict]:
    """Extend p, the rows of an encoder or decoder (`direction`) on
    n-qubit frames with k info wires and memory m = p.width - n, with rows
    for unfixed memory directions until the map is non-catastrophic;
    returns the map it completed, that map's circuit and the verdict of
    its leaf check.

    Candidate inputs are the canonical memory X's (then Z's) that are
    independent of p's input rows; candidate outputs for each are drawn
    lazily in increasing packed-vector order (`gf2.solutions`), depth-first,
    subject to the symplectic products forced by all rows fixed so far.
    Each full completion is checked with the exact catastrophicity test,
    read from its rows alone; only the accepted one is completed to a full
    map and synthesized, and one whose outputs are dependent, which no map
    extends, is passed over.  An encoder's leaves under a last-level node
    are checked together, with P memoized per search, and V and P shared
    within a node when the node allows it (see the module docstring), and
    `max_candidates` leaf checks are the search's only limit.
    """
    check_consistency(p)
    w = p.width
    m = w - n

    span = [row[0] for row in p.rows]
    directions: List[int] = []
    inputs = gf2.row_reduce(span)
    # memory X_q then Z_q on input wire q, as packed width-w vectors
    for u in [1 << q for q in range(m)] + [1 << (w + q) for q in range(m)]:
        if gf2.extend(*inputs, [u]):
            directions.append(u)
    # every leaf has the inputs span + directions, which hold every memory
    # basis vector, so the inputs its check reads are the same XOR
    # combinations of its rows at every leaf
    coeffs = _combinations(span + directions, [1 << i for i in _reads(n, k, m, direction)], w)
    # the leaves under one last-level node differ only in the last row's
    # output v, which enters the images whose combination uses that row
    last = len(span) + len(directions) - 1
    varying = [i for i, c in enumerate(coeffs) if directions and (c >> last) & 1]
    memo: dict = {}  # one per search: the last-level nodes share their dynamics
    tried = 0

    def exhausted(message: str) -> CompletionSearchExhausted:
        return CompletionSearchExhausted(message, tried=tried, budget=max_candidates, dynamics=len(memo))

    def within_budget(candidates: Iterator[int]) -> Iterator[int]:
        for v in candidates:
            if tried >= max_candidates:
                raise exhausted(f"no non-catastrophic completion within {max_candidates} candidates")
            yield v

    def leaves(rows_acc: List[Tuple[int, int]], level: int) -> Iterator[Tuple[List[Tuple[int, int]], int, Iterator]]:
        # per last-level node: its rows, the last direction u and its leaves'
        # (v, state) pairs; with no free direction the rows are the one leaf, u = 0
        if level == len(directions):
            yield rows_acc, 0, _leaf_states(direction, _leaf_images(coeffs, rows_acc), (), [0], n, k, m, memo)
            return
        u = directions[level]
        rhs = [gf2.parity(u & _dual(ri, w)) for ri, _ in rows_acc]
        candidates = within_budget(gf2.solutions([_dual(ro, w) for _, ro in rows_acc], rhs, 2 * w))
        if level < len(directions) - 1:
            for v in candidates:
                yield from leaves(rows_acc + [(u, v)], level + 1)
        else:  # decided together, each drawn only after the budget check
            yield rows_acc, u, _leaf_states(direction, _leaf_images(coeffs, rows_acc), varying, candidates,
                                               n, k, m, memo)

    for node, u, states in leaves(list(p.rows), 0):
        for v, found in states:
            tried += 1
            if found is None:
                rows = node + [(u, v)] if u else node
                if gf2.rank([out for _, out in rows]) == len(rows):
                    smap = complete_to_symplectic(PartialMap(w, tuple(rows)))
                    return smap, synthesize_circuit(smap), CatastrophicityVerdict(True, direction)
    raise exhausted("every consistent completion is catastrophic")


def _leaf_images(coeffs: List[int], rows: List[Tuple[int, int]]) -> List[int]:
    """The images a leaf check reads, from the rows of a leaf, or of a
    last-level node with the last direction's output taken as 0."""
    return gf2.matmul(coeffs, [out for _, out in rows] + [0])


def _combinations(inputs: List[int], targets: List[int], w: int) -> List[int]:
    """For each target, the bitmask of the (independent) inputs whose XOR it
    is, so that a map's image of it is the XOR of those rows' outputs."""
    tagged = [u | (1 << (2 * w + i)) for i, u in enumerate(inputs)]
    reduced, pivots = gf2.row_reduce(tagged)
    out = []
    for t in targets:
        r = gf2.residue(reduced, pivots, t)
        if r & ((1 << (2 * w)) - 1):
            raise MapConsistencyError("the rows leave an ancilla Z input unmapped")
        out.append(r >> (2 * w))
    return out

