"""Zero-weight cycle analysis of encoder/decoder memory dynamics.

A streamed encoder is catastrophic when some input stream that never stops
carrying logical content produces only finitely many non-identity physical
frames.  Any such stream eventually loops through memory states while
emitting identity frames, so the test is: restrict the memory state
diagram to transitions whose physical side is the identity and look for a
cycle with positive logical weight.

For an encoder the physical side is the *output*, so edges are found by
pulling (identity physical, target memory) back through the inverse map;
the preimage is unique, making the restricted diagram functional when
iterated backwards in time.  For a decoder the physical side is the
received *input* and edges are forward images of (memory, identity).  In
both directions ancilla/syndrome coordinates must stay in {I, Z}: those
wires hold prepared or measured |0> states, so X content there would make
the transition unrealizable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import gf2
from .circuit import CliffordCircuit, SymplecticMap, as_symplectic
from .errors import CompletionSearchExhausted
from .pauli import PauliOperator, tensor
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
    "admissible_cycle_states",
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

    def next_state(self, edge: ZeroWeightEdge) -> PauliOperator:
        return edge.before if self.direction == "encoder" else edge.after


def _encoder_edge(inv: SymplecticMap, n: int, k: int, m: int, state_vec: int) -> Optional[ZeroWeightEdge]:
    after = PauliOperator.from_vec(m, state_vec)
    target = tensor(PauliOperator.identity(n), after)
    pre = PauliOperator.from_vec(m + n, inv.apply_vec(target.vec()))
    before = pre.part(0, m)
    frame = pre.part(m, m + n)
    anc = frame.part(0, n - k)
    if anc.x:
        return None
    return ZeroWeightEdge(before, after, anc, frame.part(n - k, n))


def _decoder_edge(smap: SymplecticMap, n: int, k: int, m: int, state_vec: int) -> Optional[ZeroWeightEdge]:
    before = PauliOperator.from_vec(m, state_vec)
    src = tensor(before, PauliOperator.identity(n))
    out = PauliOperator.from_vec(m + n, smap.apply_vec(src.vec()))
    synd = out.part(0, n - k)
    if synd.x:
        return None
    return ZeroWeightEdge(before, out.part(n, n + m), synd, out.part(n - k, n))


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
class CatastrophicityVerdict:
    """non_catastrophic is None when the question was left undecided
    (memory above the enumeration cap without a trivial admissible
    subgroup).  A witness cycle, in forward-time order, is attached
    exactly when the answer is 'catastrophic'."""

    non_catastrophic: Optional[bool]
    direction: str
    witness: Optional[Tuple[ZeroWeightEdge, ...]] = None
    note: str = ""

    def __post_init__(self):
        if (self.non_catastrophic is False) != (self.witness is not None):
            raise ValueError("witness must be present exactly for catastrophic verdicts")


def _scan_cycles(
    graph: ZeroWeightGraph,
    states: Optional[Iterable[int]] = None,
) -> Optional[Tuple[ZeroWeightEdge, ...]]:
    """First positive-logical-weight cycle found, in iteration order."""
    allowed = None if states is None else set(states)
    starts = range(1 << (2 * graph.m)) if allowed is None else sorted(allowed)
    done: set = set()
    for s0 in starts:
        if s0 in done:
            continue
        pos: Dict[int, int] = {}
        path: List[ZeroWeightEdge] = []
        cur = s0
        while True:
            if cur in done:
                break
            if cur in pos:
                cycle = tuple(path[pos[cur]:])
                if sum(e.logical_weight for e in cycle) > 0:
                    return cycle
                break
            edge = graph.edges.get(cur)
            if edge is None:
                break
            nxt = graph.next_state(edge).vec()
            pos[cur] = len(path)
            path.append(edge)
            if allowed is not None and nxt not in allowed:
                # cycle states all lie in the admissible commutant, so a
                # trajectory that leaves it can never close up
                break
            cur = nxt
        done.update(pos)
    return None


def _orient_forward(graph: ZeroWeightGraph, cycle: Tuple[ZeroWeightEdge, ...]) -> Tuple[ZeroWeightEdge, ...]:
    return tuple(reversed(cycle)) if graph.direction == "encoder" else cycle


def _verdict(
    c: Union[CliffordCircuit, SymplecticMap],
    n: int,
    k: int,
    m: int,
    direction: str,
    admissible: Optional[Sequence[PauliOperator]],
) -> CatastrophicityVerdict:
    if m <= ENUM_CAP:
        graph = zero_weight_graph(c, n, k, m, direction)
        bad = _scan_cycles(graph)
        if bad is None:
            return CatastrophicityVerdict(True, direction)
        return CatastrophicityVerdict(False, direction, _orient_forward(graph, bad))
    if admissible is not None and all(g.is_identity() for g in admissible):
        return CatastrophicityVerdict(
            True, direction, note="memory above enumeration cap; admissible subgroup trivial"
        )
    return CatastrophicityVerdict(
        None, direction, note=f"memory {m} above enumeration cap {ENUM_CAP}"
    )


def is_noncatastrophic(
    c: Union[CliffordCircuit, SymplecticMap],
    n: int,
    k: int,
    m: int,
    *,
    admissible: Optional[Sequence[PauliOperator]] = None,
) -> CatastrophicityVerdict:
    return _verdict(c, n, k, m, "encoder", admissible)


def is_noncatastrophic_decoder(
    c: Union[CliffordCircuit, SymplecticMap],
    n: int,
    k: int,
    m: int,
    *,
    admissible: Optional[Sequence[PauliOperator]] = None,
) -> CatastrophicityVerdict:
    return _verdict(c, n, k, m, "decoder", admissible)


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
    if len(assignment.operators) != skeleton.unknown_count:
        raise ValueError("assignment does not match the skeleton's unknown count")
    m = assignment.m
    if m == 0:
        return []
    duals = []
    for op in assignment.operators:
        v = op.vec()
        duals.append((v >> m) | ((v & ((1 << m) - 1)) << m))
    basis = gf2.nullspace(duals, 2 * m)
    return [PauliOperator.from_vec(m, v) for v in basis]


def subgroup_elements(generators: Sequence[PauliOperator], m: int) -> List[PauliOperator]:
    """All elements generated (phase-free, so just the GF(2) span)."""
    elems = {0}
    for g in generators:
        elems |= {e ^ g.vec() for e in elems}
    return [PauliOperator.from_vec(m, v) for v in sorted(elems)]


def _mem_direction_vec(d: PauliOperator, n: int) -> int:
    return tensor(d, PauliOperator.identity(n)).vec()


def complete_noncatastrophic(
    p: PartialMap,
    skeleton: TransformationSkeleton,
    assignment: MemoryAssignment,
    *,
    max_candidates: int = MAX_CANDIDATES,
) -> Tuple[CliffordCircuit, CatastrophicityVerdict]:
    """Extend p with rows for unfixed memory directions until the
    synthesized encoder is non-catastrophic; returns the circuit and the
    verdict of its unrestricted re-check.

    Candidate inputs are the canonical memory X's (then Z's) that are
    independent of p's input rows; candidate outputs for each are walked in
    increasing packed-vector order, depth-first, subject to the symplectic
    products forced by all rows fixed so far.  Full completions are tested
    via the admissible-subgroup-restricted cycle scan (exact, because all
    cycle states lie in that subgroup), and the returned circuit is
    re-verified with the unrestricted verdict.
    """
    check_consistency(p)
    n, k, m = skeleton.n, skeleton.k, assignment.m
    w = m + n
    gens = admissible_cycle_states(skeleton, assignment)
    admissible_vecs = [e.vec() for e in subgroup_elements(gens, m)]

    span = [row[0] for row in p.rows]
    directions: List[int] = []
    for kind in ("X", "Z"):
        for q in range(m):
            u = _mem_direction_vec(PauliOperator.single(m, q, kind), n)
            if not gf2.in_span(span + directions, u):
                directions.append(u)

    budget = [max_candidates]

    def leaf_check(rows_acc: List[Tuple[int, int]]) -> Optional[SymplecticMap]:
        budget[0] -= 1
        smap = complete_to_symplectic(PartialMap(w, tuple(rows_acc)))
        # probe only the admissible states: cycles cannot leave the commutant
        inv = smap.inverse()
        edges = {}
        for s in admissible_vecs:
            e = _encoder_edge(inv, n, k, m, s)
            if e is not None:
                edges[s] = e
        graph = ZeroWeightGraph(m, n, k, "encoder", edges)
        if _scan_cycles(graph, admissible_vecs) is None:
            return smap
        return None

    def dfs(rows_acc: List[Tuple[int, int]], level: int) -> Optional[SymplecticMap]:
        if level == len(directions):
            return leaf_check(rows_acc)
        u = directions[level]
        mask = (1 << w) - 1
        constraint_rows = [((ro >> w) | ((ro & mask) << w)) for _, ro in rows_acc]
        rhs = []
        for ri, _ in rows_acc:
            rhs.append(gf2.parity(((u & mask) & (ri >> w)) ^ ((u >> w) & (ri & mask))))
        v0 = gf2.solve(constraint_rows, rhs, 2 * w)
        if v0 is None:
            return None
        null = gf2.nullspace(constraint_rows, 2 * w)
        if len(null) > _MAX_BRANCH_BITS:
            raise CompletionSearchExhausted(
                f"candidate space at direction {level + 1} has 2^{len(null)} "
                "elements; refusing to enumerate",
                admissible=gens,
            )
        cands = sorted(_affine_span(v0, null))
        for v in cands:
            if budget[0] <= 0:
                raise CompletionSearchExhausted(
                    f"no non-catastrophic completion within {max_candidates} candidates",
                    admissible=gens,
                )
            found = dfs(rows_acc + [(u, v)], level + 1)
            if found is not None:
                return found
        return None

    smap = dfs(list(p.rows), 0)
    if smap is None:
        raise CompletionSearchExhausted(
            "every consistent completion is catastrophic", admissible=gens
        )
    circuit = synthesize_circuit(smap)
    final = is_noncatastrophic(smap, n, k, m, admissible=gens)
    if final.non_catastrophic is not True:
        raise CompletionSearchExhausted(
            "restricted scan accepted a completion the full scan rejects",
            admissible=gens,
        )
    return circuit, final


def _affine_span(base: int, null: List[int]) -> List[int]:
    out = [base]
    for v in null:
        out += [x ^ v for x in out]
    return out
