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
states.  The completion search, in either direction, uses this: every
leaf fixes those images (as the same XOR combinations of its rows at every
leaf), so a leaf is decided without completing it to a full map, and only
the accepted leaf is completed and synthesized.

An encoder's last-level node is decided over its leaf indices, not leaf by
leaf.  Its leaves differ only in the last direction's output v, and one
reduction of the node's system gives them all: leaf i has v_i = x0 ^ (the
XOR of the kernel vectors null[j] at the set bits j of i), in increasing
order (`gf2.solution_space`).  v is XORed into just the images a_i whose
combination uses that row.  With a0 the first of them, a leaf's images span
what base and a0 ^ v span, where base holds the other images and every
a_i ^ a0.  So base is row-reduced once per node, and (I, b) lies in a
leaf's span exactly when its residue modulo base is 0 or equals
residue(a0 ^ v).
That residue and v's dual memory field dv are linear in v, so affine in i:
their values at x0, XORed with those of the null[j] at i's bits.  T and A,
hence P, depend only on the images' dual memory fields.  The leaves fall
into classes of dv (below) that share P, and a class's decision is the
first state of P with a nonzero residue r1 and the first whose nonzero
residue is not r1.  A leaf is accepted exactly when there is no first state,
or when its residue(a0 ^ v) is r1 and there is no second, and its outputs
are independent.  Belonging to a class and having residue r1 are linear
conditions on i, so each class's accepted leaves are the solutions of one
system in i, whose least solution `gf2.solution_space` reads off.  A leaf
with dependent outputs, whose v lies in the span of the node's outputs (an
affine condition on i), is passed over: the least leaf of a class outside
that condition is read off the same solution space.  The node takes its
classes in order of their least leaf, a class's least leaf being that of
its first distinct dv, and decides only those that start before the best
leaf found so far.  It then records the distinct dv of the leaves it tried,
each with its class's V and P, so that one search computes P at most once
per dynamics.  No work runs per leaf: a node costs a few reductions, one
decision per class and one dictionary entry per distinct dual field.

Within a node, even a new dynamics need not recompute V.  A leaf changes
only the dual fields of the varying images, each by the same dv, and those
fields are the rows of T's transpose for the memory inputs (memory X_i
gives row m + i, Z_i row i) and A's functionals for the ancilla Z's.  So
for two leaves with dv and dv', with u the mask of the changed rows, T' s =
T s ^ <dv ^ dv', s> u, and A' = A when no ancilla image varies.  If u lies
in V, then T' maps V into itself, so V lies in V'; then u lies in V', and
the same argument the other way gives V' = V.  A node therefore reads V at
its first leaf's dynamics, off the memo or computed, and tests u against
it with one residue; when u lies in V, it is every leaf's V, and otherwise
each class computes its own.  V's basis is read off the reduced rows of its
annihilator, which V alone fixes, so P, and every verdict, are those
computed afresh.

Nor does a shared V need a P per dynamics.  On V, T' and T differ by
<dv ^ dv', s> u with u in V, so T restricted to V, and with it P =
T^dim V (V), depends on dv only through its restriction to V: the
parities <dv, b> over V's basis, affine in i too.  The dual fields with
one restriction form a class; without a shared V each dual field is its
own class.  A bare GR search meets 64 dual fields per node but 4
restrictions, as dim V = 4.

The search carries its GF(2) systems.  A level's system, sp(input, u) =
sp(output, v) over the rows fixed so far, is its parent's plus one row: the
rows' dual outputs, tagged with their row index above bit 2w, are reduced
once and each level extends a copy.  Its rhs is fixed by the inputs: one
bit vector per level, a reduced row's rhs the parity of its tags ANDed with
it.  A node's base rows are fixed combinations of its rows, each reduced in
by the level that fixes the last row it uses.  The reduced echelon form
with lowest-bit pivots is unique for a row space, and no tag holds a pivot
below bit 2w, so every solution, kernel and residue is a fresh reduction's.

`zero_weight_graph` still enumerates the whole diagram, for display; no
verdict uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

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
    m = _memory(smap.width, n, k)
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


def _key(images: List[int], n: int, m: int) -> Tuple[int, ...]:
    """The dual memory fields of an encoder's images of its memory inputs
    X_0..X_(m-1), Z_0..Z_(m-1) and then of its ancilla inputs Z, which fix
    T and A: coordinate X_q (Z_q) of a preimage of y is sp(y, M Z_q)
    (sp(y, M X_q)), a functional of the outgoing memory state."""
    w = m + n
    return tuple([_field(_dual(y, w), w, n, m) for y in images])


def _subspaces(key: Tuple[int, ...], stable: Optional[List[int]], m: int) -> Tuple[List[int], List[int]]:
    """V and a basis of P for the dynamics `key`, V given as `stable` when
    it is known: T's transpose, the pull rows, is the memory Z's fields
    then the X's, and A's functionals are the ancilla Z's fields."""
    pull = list(key[m:2 * m] + key[:m])
    stable = _unobservable(pull, list(key[2 * m:]), m) if stable is None else stable
    return stable, _periodic_part(stable, gf2.transpose(pull, 2 * m))


def _decision(basis: List[int], base: Tuple[List[int], List[int]], placed: dict, n: int, m: int
              ) -> Tuple[int, Optional[int], Optional[int]]:
    """The decision of P against the reduced span `base`: r1, the first
    state b1 of P whose (I, b1) has the nonzero residue r1, and the first
    b2 whose nonzero residue is not r1 (None when there is none).  `placed`
    caches the residues of the states."""
    for b in basis:
        if b not in placed:
            placed[b] = gf2.residue(*base, _place(b, m, n, m + n))
    marked = [(placed[b], b) for b in basis if placed[b]]
    r1, b1 = marked[0] if marked else (0, None)
    return r1, b1, next((b for r, b in marked if r != r1), None)


def _affine(vals: Sequence[int], i: int) -> int:
    """vals[0] XOR the vals[1 + j] at the set bits j of i: the value at leaf
    index i of a quantity affine in the leaf's output."""
    return vals[0] ^ gf2.matmul([i], vals[1:])[0]


def _firsts(bound: int, vals: Sequence[int], more: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Each distinct `_affine(vals, i)` over i < bound with its least i, in
    increasing i, and `_affine(more, i)` at that i.  A least i sets only
    bits j whose vals[1 + j] is independent of the earlier ones, and any
    such i is a least one; doubling the list at each such j keeps it in
    increasing i, and no j with 2^j >= bound adds an i below the bound."""
    reduced: List[int] = []
    pivots: List[int] = []
    firsts = [(0, vals[0], more[0])]
    for j, val in enumerate(vals[1:]):
        if 1 << j >= bound:
            break
        if gf2.extend(reduced, pivots, [val]):
            firsts += [(i | 1 << j, x ^ val, y ^ more[1 + j]) for i, x, y in firsts]
    return [first for first in firsts if first[0] < bound]


def _least_independent(rows: List[int], rhs: List[int], ncols: int, marker: List[int]) -> Optional[int]:
    """The least leaf index i with row_j . i = rhs_j whose outputs are
    independent, `_affine(marker, i)` nonzero (`_independent`), or None.
    The solutions are s0 ^ (the null[j] at t's bits) in increasing t; if
    the marker is 0 at s0, it changes first at the first null[j] that
    changes it, as no t below 2^j sets bit j or a later one."""
    space = gf2.solution_space(*gf2.row_reduce([r | b << ncols for r, b in zip(rows, rhs)]), 1, ncols)
    if space is None:
        return None
    s0, null = space
    if _affine(marker, s0):
        return s0
    return next((s0 ^ y for y in null if gf2.matmul([y], marker[1:])[0]), None)


def _encoder_node(images: List[int], varying: Sequence[int], x0: int, null: List[int], outputs: List[int],
                  bound: int, n: int, k: int, m: int, memo: dict, base: Tuple[List[int], List[int]]) -> Optional[int]:
    """The least leaf index i below `bound` that an encoder's last-level
    node accepts, or None.  Leaf i has the output v_i = x0 ^ (the null[j]
    at the set bits j of i), XORed into the images at `varying` of
    `images`, the node's images of its memory X's, Z's and ancilla Z's at
    v = 0; the rest of the map is not read (see the module docstring).  It
    is accepted when it has no state on a zero-weight cycle with nonzero
    info part and its outputs, the node's `outputs` and v_i (if an image
    varies), are independent, which `_independent` reads once a leaf
    passes the first test.  `memo` holds V and P per dynamics, and the
    node adds those of the leaves it tried, up to the accepted one or
    below `bound`.  A dynamics is keyed by the dual fields no leaf
    changes, with those at `varying` taken relative to the first, and then
    by that first one; so one memo serves one `varying`.

    base is the fixed images and a_i ^ a0 for the varying a_i, a0 the first
    of them, row-reduced (the search carries it): a leaf's images span what
    base and a0 ^ v span, so the module docstring's test reads residues
    modulo base, and c0 ^ residue(v) = residue(a0 ^ v).
    """
    w = m + n
    duals = _key(images, n, m)
    a0 = images[varying[0]] if varying else 0
    # dv and c0 ^ residue(v) = residue(a0 ^ v) of each leaf, affine in i:
    # at x0, then per null[j]; v enters no image when none varies
    outs = [x0, *null] if varying else [0] * (1 + len(null))
    dvs = [_field(_dual(v, w), w, n, m) for v in outs]
    res: List[int] = []  # read once a class needs it

    def key(dv: int) -> Tuple[int, ...]:
        fields = list(duals)
        for i in varying:
            fields[i] ^= dv
        return tuple(fields)

    d0 = duals[varying[0]] if varying else 0
    known = memo.setdefault(key(d0), {})  # the fields at varying relative to the first

    def equal(vals: List[int], value: int, nbits: int) -> Tuple[List[int], List[int]]:
        # the system in i of _affine(vals, i) == value, one row per bit
        return gf2.transpose(vals[1:], nbits), [(value ^ vals[0]) >> t & 1 for t in range(nbits)]

    # dv enters pull row m + i for a varying memory X_i and row i for Z_i:
    # T changes by a rank-1 term with image u, and A does not unless an
    # ancilla image varies.  If u lies in the V of one leaf, that V is
    # every leaf's, and P depends on dv only through its restriction to V
    # (see the module docstring)
    first = known.get(d0 ^ dvs[0]) or _subspaces(key(dvs[0]), None, m)
    stable = first[0]
    u = sum(1 << (i + m if i < m else i - m) for i in varying if i < 2 * m)
    shared = all(i < 2 * m for i in varying) and not gf2.residue(stable, [b.bit_length() - 1 for b in stable], u)
    # a class per restriction of dv to the shared V, as its parities with
    # V's basis, else per dv
    width = len(stable) if shared else 2 * m
    cls = gf2.matmul(dvs, gf2.transpose(stable, 2 * m)) if shared else dvs
    classes: dict = {}  # class -> V and P
    placed: dict = {}  # state b -> residue of (I, b) modulo base
    marker: List[int] = []  # the independence marker, read once a leaf passes the cycle test
    best, found = bound, False
    # the distinct dv in order of their least leaf; a class's least leaf is
    # that of its first dv
    firsts = _firsts(bound, dvs, cls)
    for least, dv, c in firsts:
        if least >= best:
            break
        if c in classes:
            continue
        classes[c] = first if not least else known.get(d0 ^ dv) or _subspaces(key(dv), stable if shared else None, m)
        r1, b1, b2 = _decision(classes[c][1], base, placed, n, m)
        if b2 is not None:  # b1 or b2 rejects every leaf of the class
            continue
        marker = marker or _independent(outputs, varying, [x0, *null])
        if b1 is None and _affine(marker, least):  # the class's least leaf is accepted
            i = least
        else:
            rows, rhs = equal(cls, c, width)
            if b1 is not None:  # b1 rejects the leaves whose c0 ^ residue(v) is not r1
                res = res or [gf2.residue(*base, v) for v in [a0 ^ outs[0], *outs[1:]]]
                more = equal(res, r1, 2 * w)
                rows, rhs = rows + more[0], rhs + more[1]
            i = _least_independent(rows, rhs, len(null), marker)
        if i is not None and i < best:
            best, found = i, True
    cut = best + 1 if found else bound
    for least, dv, c in firsts:
        if least >= cut:
            break
        known.setdefault(d0 ^ dv, classes[c])
    return best if found else None


def _decoder_cycle_state(images: List[int], n: int, k: int, m: int, memo: dict) -> Optional[Tuple[int, List[int]]]:
    """For a decoder's images of its memory inputs X_0..X_(m-1),
    Z_0..Z_(m-1): a state on a zero-weight cycle with nonzero info part and
    the images of T, or None; `memo` maps T and A to a basis of P."""
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


def _decoder_node(images: List[int], varying: Sequence[int], x0: int, null: List[int], outputs: List[int],
                  bound: int, n: int, k: int, m: int, memo: dict) -> Optional[int]:
    """As `_encoder_node`, for a decoder's images of its memory X's and Z's,
    each leaf decided on its own in turn."""
    outs = [x0, *null]
    marker: List[int] = []
    for i in range(bound):
        v = _affine(outs, i)
        if _decoder_cycle_state([y ^ v if j in varying else y for j, y in enumerate(images)], n, k, m, memo) is None:
            marker = marker or _independent(outputs, varying, outs)
            if _affine(marker, i):
                return i
    return None


def _memory(width: int, n: int, k: int) -> int:
    """The memory size m, width - n, of a map or rows on n-qubit frames with k info wires."""
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} info wires do not fit in a frame of {n}")
    if width < n:
        raise ValueError(f"circuit width {width} is narrower than one frame of {n}")
    return width - n


def _verdict(c: Union[CliffordCircuit, SymplecticMap], n: int, k: int, direction: str) -> CatastrophicityVerdict:
    smap = as_symplectic(c)
    m = _memory(smap.width, n, k)
    images = [smap.rows[i] for i in _reads(n, k, m, direction)]
    if direction == "encoder":
        # the map's own images span what it reads: a state of P with nonzero
        # residue modulo them has nonzero info part
        key = _key(images, n, m)
        b = _decision(_subspaces(key, None, m)[1], gf2.row_reduce(images), {}, n, m)[1]
        found = None if b is None else (b, gf2.transpose(list(key[m:2 * m] + key[:m]), 2 * m))
    else:
        found = _decoder_cycle_state(images, n, k, m, {})
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
    lazily in increasing packed-vector order, depth-first, subject to the
    symplectic products forced by all rows fixed so far, each level's
    system an extension of its parent's (see the module docstring).
    Each full completion is checked with the exact catastrophicity test,
    read from its rows alone; only the accepted one is completed to a full
    map and synthesized, and one whose outputs are dependent, which no map
    extends, is passed over.  An encoder's last-level node is decided over
    its leaf indices, with P memoized per search (see the module
    docstring); a decoder's leaves are decided one by one.  Drawing a
    candidate at any level once `max_candidates` leaves are tried, the
    search's only limit, ends the search; a budget below 1 is refused, as
    are a k outside 0..n and rows narrower than a frame.
    """
    if max_candidates < 1:
        raise ValueError("max_candidates must be at least 1")
    w = p.width
    m = _memory(w, n, k)
    check_consistency(p)
    span, outs, low = [ri for ri, _ in p.rows], [ro for _, ro in p.rows], (1 << 2 * w) - 1
    memory = [1 << q for q in range(m)] + [1 << (w + q) for q in range(m)]  # X_q then Z_q on wire q
    # the inputs tagged with their row index above bit 2w: a memory vector
    # is a direction when its row in a copy keeps a bit below 2w.  With the
    # directions, they hold every memory basis vector, so the inputs a
    # leaf's check reads are the same XOR combinations of its rows, read
    # off residues, at every leaf
    inputs = gf2.row_reduce([ri | 1 << (2 * w + j) for j, ri in enumerate(span)])
    trial = gf2.extend(*map(list, inputs), [u | 1 << (2 * w + len(span) + q) for q, u in enumerate(memory)])
    directions = [u for u, t in zip(memory, trial) if t & low]
    gf2.extend(*inputs, [u | 1 << (2 * w + len(span) + j) for j, u in enumerate(directions)])
    coeffs = [gf2.residue(*inputs, 1 << i) for i in _reads(n, k, m, direction)]
    if any(c & low for c in coeffs):
        raise MapConsistencyError("the rows leave an ancilla Z input unmapped")
    coeffs = [c >> (2 * w) for c in coeffs]
    # the leaves under one last-level node differ only in the last row's
    # output v, which enters the images whose combination uses that row
    last = len(span) + len(directions) - 1
    varying = [i for i, c in enumerate(coeffs) if directions and (c >> last) & 1]
    # each level's rhs (its bits past the level's rows meet no tag), and an
    # encoder node's base rows (`_encoder_node`) as combinations of its
    # rows, each joined to the carried base at the level of its last row
    rhs = [sum(gf2.parity(ri & du) << j for j, ri in enumerate(span + directions))
           for du in (_dual(u, w) for u in directions)]
    masks = [c ^ coeffs[varying[0]] if i in varying else c for i, c in enumerate(coeffs)]
    joins = [[c for c in masks if c.bit_length() == j + 1] if direction == "encoder" else [] for j in range(last + 1)]
    decide = _encoder_node if direction == "encoder" else lambda *args: _decoder_node(*args[:-1])
    memo: dict = {}  # one per search: the last-level nodes share their dynamics
    tried = 0
    over = f"no non-catastrophic completion within {max_candidates} candidates"

    def exhausted(message: str) -> CompletionSearchExhausted:
        # an encoder's memo holds a dict of dynamics per part no leaf changes
        dynamics = sum(map(len, memo.values())) if direction == "encoder" else len(memo)
        return CompletionSearchExhausted(message, tried=tried, budget=max_candidates, dynamics=dynamics)

    def grown(reduction: tuple, rows: List[int]) -> tuple:
        # a copy, as the parent's solutions are still read off its own
        reduced, pivots = list(reduction[0]), list(reduction[1])
        gf2.extend(reduced, pivots, rows)
        return reduced, pivots

    def nodes(rows: List[Tuple[int, int]], system: tuple, base: tuple) -> Iterator[tuple]:
        # per last-level node: its rows, the last direction u, its leaves'
        # outputs as `gf2.solution_space` gives them and its base; with no
        # free direction the rows are the one leaf, u = 0
        level = len(rows) - len(span)
        if level == len(directions):
            yield rows, 0, (0, []), base
            return
        u = directions[level]
        if level == len(directions) - 1:
            yield rows, u, gf2.solution_space(*system, rhs[level], 2 * w), base
            return
        for v in gf2.solutions(*system, rhs[level], 2 * w):
            if tried >= max_candidates:
                raise exhausted(over)
            yield from nodes(rows + [(u, v)], grown(system, [_dual(v, w) | 1 << (2 * w + len(rows))]),
                             grown(base, gf2.matmul(joins[len(rows)], [ro for _, ro in rows] + [v])))

    root = gf2.row_reduce([_dual(ro, w) | 1 << (2 * w + j) for j, ro in enumerate(outs)])
    for node, u, space, base in nodes(list(p.rows), root, gf2.row_reduce(gf2.matmul(sum(joins[:len(span)], []), outs))):
        if space is None:
            continue
        x0, null = space
        count, left = 1 << len(null), max_candidates - tried
        i = decide(_leaf_images(coeffs, node), varying, x0, null, [out for _, out in node], min(count, left),
                   n, k, m, memo, base)
        if i is not None:
            rows = node + [(u, _affine([x0, *null], i))] if u else node
            smap = complete_to_symplectic(PartialMap(w, tuple(rows)))
            return smap, synthesize_circuit(smap), CatastrophicityVerdict(True, direction)
        tried += min(count, left)
        if count > left:  # the budget ends inside the node
            raise exhausted(over)
    raise exhausted("every consistent completion is catastrophic")


def _independent(outputs: List[int], varying: Sequence[int], outs: List[int]) -> List[int]:
    """The affine marker (`_affine`) of a node's leaves whose outputs are
    independent: the node's `outputs` and, when an image varies, the leaf's
    own v = `_affine(outs, i)`.  None are when the node's outputs are
    dependent, all are when they are not and no image varies (the lone
    leaf of a search with no free direction), and otherwise those whose v
    has a nonzero residue modulo the node's outputs."""
    reduced, pivots = gf2.row_reduce(outputs)
    if len(reduced) < len(outputs):
        return [0] * len(outs)
    return [gf2.residue(reduced, pivots, v) for v in outs] if varying else [1] + [0] * (len(outs) - 1)


def _leaf_images(coeffs: List[int], rows: List[Tuple[int, int]]) -> List[int]:
    """The images a leaf check reads, from the rows of a leaf, or of a
    last-level node with the last direction's output taken as 0."""
    return gf2.matmul(coeffs, [out for _, out in rows] + [0])

