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
the transition unrealizable.

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
span of M(memory X, Z) and M(ancilla Z).  The completion search uses
this: every leaf fixes those images (as the same XOR combinations of its
rows at every leaf), so a leaf is decided without completing it to a full
map, and only the accepted leaf is completed and synthesized.  The leaves
under one last-level node differ only in the last direction's output v,
which enters just the images whose combination uses that row: the others
are reduced once per node.  T and A, hence P, depend only on the images'
dual memory fields, which recur across siblings and nodes, so one search
computes P once per distinct value.

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
from .skeleton import MemoryAssignment, TransformationSkeleton
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

# widest candidate space one completion direction may enumerate (2^16 outputs)
_MAX_BRANCH_BITS = 16


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


def _encoder_edge(inv: SymplecticMap, n: int, k: int, m: int, state_vec: int) -> Optional[ZeroWeightEdge]:
    w = m + n
    pre = inv.apply_vec(_place(state_vec, m, n, w))
    frame = PauliOperator.from_vec(n, _field(pre, w, m, n))
    anc = frame.part(0, n - k)
    if anc.x:
        return None
    before = PauliOperator.from_vec(m, _field(pre, w, 0, m))
    return ZeroWeightEdge(before, PauliOperator.from_vec(m, state_vec), anc, frame.part(n - k, n))


def _decoder_edge(smap: SymplecticMap, n: int, k: int, m: int, state_vec: int) -> Optional[ZeroWeightEdge]:
    frame, after = smap.step(n, state_vec, 0)
    out = PauliOperator.from_vec(n, frame)
    synd = out.part(0, n - k)
    if synd.x:
        return None
    return ZeroWeightEdge(
        PauliOperator.from_vec(m, state_vec), PauliOperator.from_vec(m, after), synd, out.part(n - k, n)
    )


def zero_weight_graph(
    c: Union[CliffordCircuit, SymplecticMap],
    n: int,
    k: int,
    m: int,
    direction: str = "encoder",
) -> ZeroWeightGraph:
    smap = as_symplectic(c)
    if smap.width != m + n:
        raise ValueError(f"circuit width {smap.width} != memory {m} + frame {n}")
    if m > ENUM_CAP:
        raise ValueError(f"memory {m} exceeds the enumeration cap {ENUM_CAP}")
    if direction == "encoder":
        inv = smap.inverse()
        probe = lambda s: _encoder_edge(inv, n, k, m, s)
    elif direction == "decoder":
        probe = lambda s: _decoder_edge(smap, n, k, m, s)
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
    m: int
    direction: str
    b: int
    ts: Tuple[int, ...]

    def walk(self) -> Tuple[ZeroWeightEdge, ...]:
        orbit = [self.b]
        while (s := gf2.matmul(orbit[-1:], list(self.ts))[0]) != self.b:
            orbit.append(s)
        if self.direction == "encoder":
            args = (self.smap.inverse(), self.n, self.k, self.m)
            # the edge keyed by s leads back in time to T s: reverse for forward order
            return tuple(_encoder_edge(*args, s) for s in reversed(orbit))
        args = (self.smap, self.n, self.k, self.m)
        return tuple(_decoder_edge(*args, s) for s in orbit)


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
        return None if self.seed is None else self.seed.walk()


def _transpose(images: List[int], nbits: int) -> List[int]:
    """Row i holds bit i of every image: bit j of it is bit i of images[j]."""
    rows = [0] * nbits
    mask = (1 << nbits) - 1
    for j, img in enumerate(images):
        img &= mask
        while img:
            low = img & -img
            rows[low.bit_length() - 1] |= 1 << j
            img ^= low
    return rows


def _periodic_part(ts: List[int], pull: List[int], funcs: List[int], m: int) -> List[int]:
    """Basis of P for the step T, given by the images `ts` of the 2m basis
    states and by its transpose `pull`, and for the functionals `funcs`
    whose common kernel is ker A."""
    # V, the largest T-stable subspace of ker A, is the common kernel of
    # A, A T, ..., A T^(2m-1) (Cayley-Hamilton bounds the powers needed)
    frontier = funcs
    for _ in range(2 * m - 1):
        frontier = gf2.matmul(frontier, pull)
        funcs = funcs + frontier
    basis = gf2.nullspace(funcs, 2 * m)
    # the images T^j(V) shrink until T is invertible on them: the periodic part P
    while True:
        image = gf2.row_reduce(gf2.matmul(basis, ts))[0]
        if len(image) == len(basis):
            return basis
        basis = image


def _cycle_states(
    images: List[int], varying: Sequence[int], candidates: Iterable[int], n: int, k: int, m: int,
    memo: dict,
) -> Iterator[Optional[Tuple[int, Tuple[int, ...]]]]:
    """For each candidate v, in order: a memory state on a zero-weight cycle
    with nonzero info part and the images of T, or None when there is none,
    for the encoder images `images` with v XORed into those at `varying`.

    `images` are the encoder's images of its memory inputs X_0..X_(m-1),
    Z_0..Z_(m-1) and then of its ancilla inputs Z; the rest of the map is
    not read (see the module docstring).  `memo` maps the images' dual
    memory fields, which fix T and A, to the images of T and a basis of P.
    """
    w = m + n
    # coordinate X_q (Z_q) of a preimage of y is sp(y, M Z_q) (sp(y, M X_q)):
    # as functionals of the outgoing memory state these are dual images
    duals = [_field(_dual(v, w), w, n, m) for v in images]
    fixed = gf2.row_reduce([v for i, v in enumerate(images) if i not in varying])
    for v in candidates:
        dv = _field(_dual(v, w), w, n, m)
        key = tuple(d ^ dv if i in varying else d for i, d in enumerate(duals))
        if key not in memo:
            pull = list(key[m:2 * m] + key[:m])
            ts = _transpose(pull, 2 * m)
            memo[key] = tuple(ts), _periodic_part(ts, pull, list(key[2 * m:]), m)
        ts, basis = memo[key]
        # y lies in span(images) exactly when its residue modulo the fixed
        # images lies in the span of the varying images' residues
        moving = gf2.row_reduce([gf2.residue(*fixed, images[i] ^ v) for i in varying])
        # L b != 0 exactly when (I, b) has no preimage in span(memory, ancilla Z)
        placed = (gf2.residue(*fixed, _place(b, m, n, w)) for b in basis)
        found = next((b for b, y in zip(basis, placed) if gf2.residue(*moving, y)), None)
        yield None if found is None else (found, ts)


def _decoder_cycle_state(smap: SymplecticMap, n: int, k: int, m: int) -> Optional[Tuple[int, List[int]]]:
    """As `_cycle_states` for one candidate, for a decoder map.  Its rows for memory
    X_i and Z_i (input wires i) are the edges keyed by those basis states,
    so T, A and L are read off them without applying the map."""
    w = m + n
    ts, xs, ls = [], [], []
    for i in [*range(m), *range(w, w + m)]:
        r = smap.rows[i]  # image layout (syndrome, info, memory)
        ts.append(_field(r, w, n, m))
        xs.append(r & ((1 << (n - k)) - 1))
        ls.append(_field(r, w, n - k, k))
    basis = _periodic_part(ts, _transpose(ts, 2 * m), _transpose(xs, n - k), m)
    for b, lb in zip(basis, gf2.matmul(basis, ls)):
        if lb:
            return b, ts
    return None


def _verdict(
    c: Union[CliffordCircuit, SymplecticMap], n: int, k: int, m: int, direction: str
) -> CatastrophicityVerdict:
    smap = as_symplectic(c)
    if smap.width != m + n:
        raise ValueError(f"circuit width {smap.width} != memory {m} + frame {n}")
    if direction == "encoder":
        images = [smap.rows[i] for i in _encoder_reads(n, k, m)]
        found = next(_cycle_states(images, (), [0], n, k, m, {}))
    else:
        found = _decoder_cycle_state(smap, n, k, m)
    if found is None:
        return CatastrophicityVerdict(True, direction)
    b, ts = found
    seed = _CycleSeed(smap, n, k, m, direction, b, tuple(ts))
    return CatastrophicityVerdict(False, direction, seed)


def _encoder_reads(n: int, k: int, m: int) -> List[int]:
    """Row indices of the inputs `_cycle_states` reads: memory X's,
    memory Z's, then ancilla Z's."""
    w = m + n
    return [*range(m), *range(w, w + m + n - k)]


def is_noncatastrophic(
    c: Union[CliffordCircuit, SymplecticMap], n: int, k: int, m: int
) -> CatastrophicityVerdict:
    return _verdict(c, n, k, m, "encoder")


def is_noncatastrophic_decoder(
    c: Union[CliffordCircuit, SymplecticMap], n: int, k: int, m: int
) -> CatastrophicityVerdict:
    return _verdict(c, n, k, m, "decoder")


def subgroup_elements(generators: Sequence[PauliOperator], m: int) -> List[PauliOperator]:
    """All elements generated (phase-free, so just the GF(2) span)."""
    elems = sorted(set(gf2.span([g.vec() for g in generators])))
    return [PauliOperator.from_vec(m, v) for v in elems]


def complete_noncatastrophic(
    p: PartialMap,
    skeleton: TransformationSkeleton,
    assignment: MemoryAssignment,
    *,
    max_candidates: int = MAX_CANDIDATES,
) -> Tuple[CliffordCircuit, CatastrophicityVerdict]:
    """Extend p with rows for unfixed memory directions until the
    synthesized encoder is non-catastrophic; returns the circuit and the
    verdict of its leaf check.

    Candidate inputs are the canonical memory X's (then Z's) that are
    independent of p's input rows; candidate outputs for each are walked in
    increasing packed-vector order, depth-first, subject to the symplectic
    products forced by all rows fixed so far.  Each full completion is
    checked with the exact catastrophicity test, read from its rows alone;
    only the accepted one is completed to a full map and synthesized.  The
    leaves of a last-level node are checked together, in order and within
    the budget, with P memoized per search (see the module docstring).
    """
    check_consistency(p)
    n, k, m = skeleton.n, skeleton.k, assignment.m
    w = m + n

    span = [row[0] for row in p.rows]
    directions: List[int] = []
    # memory X_q then Z_q on input wire q, as packed width-w vectors
    for u in [1 << q for q in range(m)] + [1 << (w + q) for q in range(m)]:
        if not gf2.in_span(span + directions, u):
            directions.append(u)
    # every leaf has the inputs span + directions, so the inputs its check
    # reads are the same XOR combinations of its rows at every leaf
    coeffs = _combinations(span + directions, [1 << i for i in _encoder_reads(n, k, m)], w)

    # the leaves under one last-level node differ only in the last row's
    # output v, which enters the images whose combination uses that row
    last = len(span) + len(directions) - 1
    varying = [i for i, c in enumerate(coeffs) if directions and (c >> last) & 1]
    memo: dict = {}  # one per search: the last-level nodes share their dynamics
    tried = 0

    def exhausted(message: str) -> CompletionSearchExhausted:
        return CompletionSearchExhausted(message, tried=tried, budget=max_candidates)

    def dfs(rows_acc: List[Tuple[int, int]], level: int) -> Optional[List[Tuple[int, int]]]:
        nonlocal tried
        if level == len(directions):  # no free direction: the rows are the one leaf
            tried += 1
            states = _cycle_states(_leaf_images(coeffs, rows_acc), (), [0], n, k, m, memo)
            return rows_acc if next(states) is None else None
        u = directions[level]
        constraint_rows = [_dual(ro, w) for _, ro in rows_acc]
        rhs = [gf2.parity(u & _dual(ri, w)) for ri, _ in rows_acc]
        v0 = gf2.solve(constraint_rows, rhs, 2 * w)
        if v0 is None:
            return None
        null = gf2.nullspace(constraint_rows, 2 * w)
        if len(null) > _MAX_BRANCH_BITS:
            raise exhausted(
                f"candidate space at direction {level + 1} has 2^{len(null)} "
                "elements; refusing to enumerate"
            )
        candidates = sorted(v0 ^ x for x in gf2.span(null))
        leaves = level == len(directions) - 1
        if leaves:  # decided together, lazily, in step with the budget
            states = _cycle_states(_leaf_images(coeffs, rows_acc), varying, candidates, n, k, m, memo)
        for v in candidates:
            if tried >= max_candidates:
                raise exhausted(f"no non-catastrophic completion within {max_candidates} candidates")
            if leaves:
                tried += 1
                if next(states) is None:
                    return rows_acc + [(u, v)]
            elif (found := dfs(rows_acc + [(u, v)], level + 1)) is not None:
                return found
        return None

    rows = dfs(list(p.rows), 0)
    if rows is None:
        raise exhausted("every consistent completion is catastrophic")
    smap = complete_to_symplectic(PartialMap(w, tuple(rows)))
    return synthesize_circuit(smap), CatastrophicityVerdict(True, "encoder")


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

