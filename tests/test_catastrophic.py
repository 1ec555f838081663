"""Zero-weight cycle detection, cross-checked by exhaustive enumeration.

The implementation decides catastrophicity by GF(2) linear algebra on the
memory state; the oracle here rebuilds the full edge list by brute force
over every (memory state, valid frame input) pair and decides by
reachability, so the two routes share no code.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qconvenc import (
    CliffordCircuit,
    CliffordGate,
    PauliOperator,
    SymplecticMap,
    circuit_to_symplectic,
    gf2,
    parse_code,
    synthesize_encoder,
    tensor,
)
from qconvenc.catastrophic import (
    ENUM_CAP,
    _reads,
    complete_noncatastrophic,
    is_noncatastrophic,
    is_noncatastrophic_decoder,
    subgroup_elements,
    zero_weight_graph,
)
from qconvenc.circuit import _dual, _field, _place
from qconvenc.cli import main
from qconvenc.errors import CodeValidationError, CompletionSearchExhausted, InputDataError, ParseError, QconvError
from qconvenc.library import (
    FGG_CODE,
    FGG_CODE_TEXT,
    FGG_ENCODER,
    GR_CODE,
    GR_COMPLETION_ROWS,
    GR_MEMORY_CHOICE,
)
from qconvenc.skeleton import (
    MemoryAssignment,
    assign_memory,
    build_skeleton,
    partial_rows,
    skeleton_commutation_matrix,
)
from qconvenc.synthesis import PartialMap, check_consistency, complete_to_symplectic

from conftest import CATASTROPHIC_CODE_TEXT, SMALL_GENERATORS, random_circuit, random_symplectic
from oracles import (
    admissible_cycle_states,
    encoder_cycle_state,
    encoder_search_by_leaves,
    fresh_base,
    fresh_system,
    in_span,
    nullspace,
    periodic_states,
    transpose,
)

P = PauliOperator.from_string


def all_paulis(m):
    return [PauliOperator(m, x, z) for x in range(1 << m) for z in range(1 << m)]


def brute_force_edges(smap: SymplecticMap, n: int, k: int, m: int, direction: str):
    """Every zero-physical-weight transition, by forward enumeration of all
    4^m memory states x 2^(n-k) ancilla patterns x 4^k info inputs."""
    edges = []
    if direction == "encoder":
        for mu in all_paulis(m):
            for anc_z in range(1 << (n - k)):
                anc = PauliOperator(n - k, 0, anc_z)
                for info in all_paulis(k):
                    out = smap.apply(tensor(mu, anc, info))
                    if not out.part(0, n).is_identity():
                        continue
                    edges.append((mu, out.part(n, n + m), info.weight()))
    else:
        # zero weight on the received side leaves no freedom at all
        for mu in all_paulis(m):
            out = smap.apply(tensor(mu, PauliOperator.identity(n)))
            if out.part(0, n - k).x:
                continue
            edges.append((mu, out.part(n, n + m), out.part(n - k, n).weight()))
    return edges


def brute_force_noncatastrophic(smap, n, k, m, direction):
    """A map is catastrophic iff some positive-logical-weight zero-weight
    edge lies on a cycle: its head must reach its tail."""
    edges = brute_force_edges(smap, n, k, m, direction)
    succ = {}
    for src, dst, _ in edges:
        succ.setdefault(src.vec(), set()).add(dst.vec())
    for src, dst, lw in edges:
        if lw == 0:
            continue
        # BFS from dst back to src
        seen, frontier = {dst.vec()}, [dst.vec()]
        while frontier:
            cur = frontier.pop()
            if cur == src.vec():
                return False
            for nxt in succ.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return True


TOY_CNOT = CliffordCircuit(2, (CliffordGate("CNOT", (1, 2)),))


def test_reference_encoder_graph_is_identity_self_loop(fgg_reference_encoder):
    g = zero_weight_graph(fgg_reference_encoder, 3, 1)
    assert set(g.edges) == {0}
    edge = g.edges[0]
    assert edge.before.is_identity() and edge.after.is_identity()
    assert edge.logical.is_identity() and edge.ancilla.is_identity()


def test_synthesized_encoder_graph_matches(fgg_synthesis):
    g = zero_weight_graph(fgg_synthesis.map, 3, 1)
    assert set(g.edges) == {0}


def test_memoryless_encoder_graph():
    # any m=0 map has the one node and its trivial self-loop
    g = zero_weight_graph(SymplecticMap.identity(2), 2, 1)
    assert set(g.edges) == {0}
    assert g.edges[0].before.width == 0


def test_reference_encoder_noncatastrophic(fgg_reference_encoder):
    v = is_noncatastrophic(fgg_reference_encoder, 3, 1)
    assert v.non_catastrophic and v.witness is None
    assert v.direction == "encoder"


def test_toy_cnot_encoder_catastrophic():
    v = is_noncatastrophic(TOY_CNOT, 1, 1)
    assert not v.non_catastrophic
    assert v.witness is not None
    total = sum(e.logical_weight for e in v.witness)
    assert total > 0
    # the witness must be a genuine zero-weight cycle of the map
    smap = circuit_to_symplectic(TOY_CNOT)
    for e in v.witness:
        out = smap.apply(tensor(e.before, e.ancilla, e.logical))
        assert out.part(0, 1).is_identity()
        assert out.part(1, 2) == e.after
    heads = [e.after.vec() for e in v.witness]
    tails = [e.before.vec() for e in v.witness]
    assert sorted(heads) == sorted(tails)


def assert_witness_cycle(smap, n, k, m, verdict):
    """The witness is a cycle of edges the map realizes with an identity
    physical side and X-free ancilla/syndrome wires, carrying logicals."""
    w = verdict.witness
    for e in w:
        assert not e.ancilla.x
        if verdict.direction == "encoder":
            out = smap.apply(tensor(e.before, e.ancilla, e.logical))
            assert out == tensor(PauliOperator.identity(n), e.after)
        else:
            out = smap.apply(tensor(e.before, PauliOperator.identity(n)))
            assert out == tensor(e.ancilla, e.logical, e.after)
    for i, e in enumerate(w):
        assert e.after == w[(i + 1) % len(w)].before
    assert sum(e.logical_weight for e in w) > 0


@pytest.mark.parametrize("check", [is_noncatastrophic, is_noncatastrophic_decoder])
def test_witness_is_a_long_cycle(check):
    # the first seeded m = 2 map whose witness cycle has more than one edge
    rng = random.Random(3)
    m, n, k = 2, 2, 1
    for _ in range(200):
        smap = circuit_to_symplectic(random_circuit(m + n, 6 * (m + n), rng))
        v = check(smap, n, k)
        if v.witness is not None and len(v.witness) > 1:
            break
    else:
        pytest.fail("no multi-edge witness among the seeded maps")
    assert not brute_force_noncatastrophic(smap, n, k, m, v.direction)
    assert_witness_cycle(smap, n, k, m, v)


def test_toy_cnot_decoder_catastrophic():
    v = is_noncatastrophic_decoder(TOY_CNOT, 1, 1)
    assert not v.non_catastrophic


def test_identity_decoder_not_catastrophic():
    # an identity decoder forwards memory to the info wire only by first
    # consuming received content, so no zero-weight cycle carries logicals;
    # the brute-force route agrees
    ident = SymplecticMap.identity(2)
    assert is_noncatastrophic_decoder(ident, 1, 1).non_catastrophic
    assert brute_force_noncatastrophic(ident, 1, 1, 1, "decoder")


def test_memoryless_decoder_true():
    v = is_noncatastrophic_decoder(SymplecticMap.identity(2), 2, 1)
    assert v.non_catastrophic


def test_catastrophic_fixture_verdict(catastrophic_encoder_map):
    v = is_noncatastrophic(catastrophic_encoder_map, 2, 1)
    assert not v.non_catastrophic
    assert any(e.logical_weight for e in v.witness)


def test_verdicts_match_brute_force_corpus(
    fgg_reference_encoder, fgg_synthesis, catastrophic_encoder_map
):
    corpus = [
        (circuit_to_symplectic(fgg_reference_encoder), 3, 1, 1),
        (fgg_synthesis.map, 3, 1, 1),
        (catastrophic_encoder_map, 2, 1, 1),
        (circuit_to_symplectic(TOY_CNOT), 1, 1, 1),
        (SymplecticMap.identity(2), 1, 1, 1),
    ]
    for smap, n, k, m in corpus:
        got = is_noncatastrophic(smap, n, k).non_catastrophic
        want = brute_force_noncatastrophic(smap, n, k, m, "encoder")
        assert got == want, (n, k, m)
        gotd = is_noncatastrophic_decoder(smap, n, k).non_catastrophic
        wantd = brute_force_noncatastrophic(smap, n, k, m, "decoder")
        assert gotd == wantd, (n, k, m)


def test_verdicts_match_brute_force_random():
    rng = random.Random(50)
    shapes = [(1, 2, 1), (2, 2, 1), (2, 3, 2), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)]
    for trial in range(60):
        m, n, k = shapes[trial % len(shapes)]
        smap = circuit_to_symplectic(random_circuit(m + n, 6 * (m + n), rng))
        got = is_noncatastrophic(smap, n, k).non_catastrophic
        want = brute_force_noncatastrophic(smap, n, k, m, "encoder")
        assert got == want, (trial, m, n, k)
        gotd = is_noncatastrophic_decoder(smap, n, k).non_catastrophic
        wantd = brute_force_noncatastrophic(smap, n, k, m, "decoder")
        assert gotd == wantd, (trial, m, n, k)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 26) - 1), max_size=24), st.integers(0, 24))
def test_transpose_matches_the_bitwise_formula(images, nbits):
    # images may carry bits at or above nbits, which neither route reads
    assert gf2.transpose(images, nbits) == transpose(images, nbits)


def test_a_map_narrower_than_a_frame_is_refused_once():
    # the memory size is the map's width less the frame, so the one refusal
    # left is of a map narrower than one frame
    narrow = SymplecticMap.identity(2)
    for check in (is_noncatastrophic, is_noncatastrophic_decoder, zero_weight_graph):
        with pytest.raises(ValueError, match="^circuit width 2 is narrower than one frame of 3$"):
            check(narrow, 3, 1)


def test_a_k_outside_the_frame_and_rows_narrower_than_it_are_refused():
    # the verdicts, the graph and the search share one check: k info wires
    # fit in the n-qubit frame, and a map, or the rows of one, is at least
    # a frame wide
    for check in (is_noncatastrophic, is_noncatastrophic_decoder, zero_weight_graph):
        for k in (-1, 4):
            with pytest.raises(ValueError, match=f"^k = {k} info wires do not fit in a frame of 3$"):
                check(FGG_ENCODER, 3, k)
        for k in (0, 3):  # the ends of the range are kept
            check(FGG_ENCODER, 3, k)
    with pytest.raises(ValueError, match="^circuit width 2 is narrower than one frame of 3$"):
        complete_noncatastrophic(PartialMap(2, ((1, 1),)), 3, 1)
    partial, n, k = _encoder_partial(FGG_CODE)
    for k in (-1, n + 1):
        for direction in ("encoder", "decoder"):
            with pytest.raises(ValueError, match=f"^k = {k} info wires do not fit in a frame of {n}$"):
                complete_noncatastrophic(partial, n, k, direction)


def test_completion_returns_the_map_it_completed():
    skel = build_skeleton(FGG_CODE)
    asg = assign_memory(skeleton_commutation_matrix(skel))
    smap, circ, _ = complete_noncatastrophic(PartialMap.from_operators(partial_rows(skel, asg)), skel.n, skel.k)
    assert smap.width == asg.m + skel.n
    assert smap == circuit_to_symplectic(circ)


def test_enum_cap_guard():
    with pytest.raises(ValueError):
        zero_weight_graph(SymplecticMap.identity(ENUM_CAP + 3), 2, 1)


def test_subgroup_elements_spans():
    gens = [P("ZI"), P("IZ")]
    elems = subgroup_elements(gens, 2)
    assert {e.to_string() for e in elems} == {"II", "ZI", "IZ", "ZZ"}
    assert [e.to_string() for e in subgroup_elements([], 2)] == ["II"]


def test_admissible_states_trivial_for_rate_third():
    # commutant generator list is empty: cycles can only sit at the identity
    skel = build_skeleton(FGG_CODE)
    asg = assign_memory(skeleton_commutation_matrix(skel))
    gens = admissible_cycle_states(skel, asg)
    assert gens == []
    assert [e.to_string() for e in subgroup_elements(gens, 1)] == ["I"]


def test_admissible_states_css_code_displayed_form():
    skel = build_skeleton(GR_CODE)
    asg = MemoryAssignment(6, GR_MEMORY_CHOICE)
    gens = admissible_cycle_states(skel, asg)
    got = {e.to_string() for e in subgroup_elements(gens, 6)}
    # Z factors free on memory qubits 1, 2, 5 and 6; identity on 3 and 4
    want = set()
    for b1 in "IZ":
        for b2 in "IZ":
            for b5 in "IZ":
                for b6 in "IZ":
                    want.add(b1 + b2 + "II" + b5 + b6)
    assert got == want
    assert len(got) == 16


def test_admissible_states_are_commutant():
    # independent route: the subgroup must be exactly the m-qubit Paulis
    # commuting with every assigned memory operator
    skel = build_skeleton(GR_CODE)
    asg = MemoryAssignment(6, GR_MEMORY_CHOICE)
    gens = admissible_cycle_states(skel, asg)
    got = {e.vec() for e in subgroup_elements(gens, 6)}
    want = {
        p.vec()
        for p in all_paulis(6)
        if all(p.sp(op) == 0 for op in asg.operators)
    }
    assert got == want


def test_unconstrained_memory_admits_full_group():
    # a span-1 code leaves no unknowns, so nothing constrains the cycle
    # states and the admissible subgroup is the whole Pauli group
    from qconvenc import parse_code

    skel = build_skeleton(parse_code("n=2\nZZ\n"))
    gens = admissible_cycle_states(skel, MemoryAssignment(1, ()))
    assert len(subgroup_elements(gens, 1)) == 4


def test_completion_search_finds_rate_third_encoder():
    skel = build_skeleton(FGG_CODE)
    asg = assign_memory(skeleton_commutation_matrix(skel))
    partial = PartialMap.from_operators(partial_rows(skel, asg))
    _, circ, verdict = complete_noncatastrophic(partial, skel.n, skel.k)
    v = is_noncatastrophic(circ, 3, 1)
    assert v.non_catastrophic
    assert verdict == v


def test_css_completion_rows_noncatastrophic(gr_synthesis):
    assert gr_synthesis.verdict.non_catastrophic
    assert gr_synthesis.memory == 6
    m = gr_synthesis.map
    for src, dst in GR_COMPLETION_ROWS:
        assert m.apply(src) == dst


def test_bare_css_search_exhausts_small_budget():
    skel = build_skeleton(GR_CODE)
    asg = MemoryAssignment(6, GR_MEMORY_CHOICE)
    partial = PartialMap.from_operators(partial_rows(skel, asg))
    with pytest.raises(CompletionSearchExhausted):
        complete_noncatastrophic(partial, skel.n, skel.k, max_candidates=50)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda ncols: st.tuples(
    st.just(ncols), st.lists(st.tuples(st.integers(0, (1 << ncols) - 1), st.integers(0, 1)), max_size=12)
)))
def test_solutions_come_lazily_in_increasing_order(system):
    # the search walks each direction's outputs in this order, unsorted:
    # it must be the sorted solution set, empty when there is none, also
    # with more equations than columns, whose dependent rows meet
    ncols, equations = system
    rows, rhs = [r for r, _ in equations], [b for _, b in equations]
    got = list(gf2.solutions(*fresh_system(rows, rhs, ncols)))
    assert got == [x for x in range(1 << ncols) if all(gf2.parity(r & x) == b for r, b in equations)]
    # and a node reads its i-th leaf off the solution space by i's bits
    space = gf2.solution_space(*fresh_system(rows, rhs, ncols))
    assert (space is None) == (not got)
    if space:
        x0, null = space
        assert [x0 ^ gf2.matmul([i], null)[0] for i in range(1 << len(null))] == got
    event("no solution" if not got else "one solution" if len(got) == 1 else "several solutions")


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda ncols: st.tuples(
    st.just(ncols), st.lists(st.tuples(st.integers(0, (1 << ncols) - 1), st.integers(0, 1)), max_size=12)
)))
def test_a_carried_reduction_solves_as_a_fresh_one(system):
    # the search's level systems grow by a row at a time: each row tagged
    # with its index above ncols and reduced in by `extend`, the rhs one
    # bit vector, also over rows not yet added.  After every row the
    # solution space and the stream are those of a fresh reduction, also
    # past a dependent row, an inconsistent rhs or more rows than columns
    ncols, equations = system
    reduced, pivots = [], []
    rhs = sum(b << j for j, (_, b) in enumerate(equations))
    for j, (row, _) in enumerate(equations):
        dependent = not gf2.extend(reduced, pivots, [row | 1 << (ncols + j)])[0] & ((1 << ncols) - 1)
        fresh = fresh_system([r for r, _ in equations[:j + 1]], [b for _, b in equations[:j + 1]], ncols)
        space = gf2.solution_space(reduced, pivots, rhs, ncols)
        assert space == gf2.solution_space(*fresh)
        assert list(gf2.solutions(reduced, pivots, rhs, ncols)) == list(gf2.solutions(*fresh))
        event("dependent row" if dependent else "independent row")
        event("inconsistent" if space is None else "consistent")
    if len(equations) > ncols:
        event("more rows than columns")


# generated n = 4 CSS codes (the `poly:` rows) whose search meets a
# direction with 2^18 candidate outputs, more than were once enumerated
WIDE_DIRECTION_POLYS = [
    "D^2+D^5+D^7, D^4, D^2+D^5+D^7, D^3",
    "D+D^5+D^6+D^7, D+D^5+D^6+D^7, D+D^3+D^5+D^7, 1+D^2+D^4+D^6",
    "D^2+D^3+D^6+D^7, 1+D+D^3+D^4+D^5, D+D^2+D^4+D^5+D^6, D^2+D^3+D^6+D^7",
    "1+D^4+D^5+D^6, 1+D+D^2+D^3+D^4+D^5, 1+D+D^2+D^3+D^4+D^5, D^2+D^6+D^7+D^8",
]


@pytest.mark.parametrize("poly", WIDE_DIRECTION_POLYS)
def test_wide_candidate_spaces_search_up_to_the_budget(poly):
    import qconvenc.catastrophic as cat

    # a level above the last streams its candidate outputs off the
    # reduction it carries; their number is 2^(its kernel's size)
    widths, real = [], gf2.solutions
    with mock.patch.object(cat.gf2, "solutions", lambda reduced, pivots, rhs, ncols: widths.append(
        len(gf2.kernel(reduced, pivots, ncols))
    ) or real(reduced, pivots, rhs, ncols)):
        with pytest.raises(CompletionSearchExhausted) as info:
            synthesize_encoder(parse_code(f"n=4\npoly: {poly}\n"), max_candidates=50)
    assert max(widths) == 18
    assert (info.value.tried, info.value.budget) == (50, 50)
    assert str(info.value) == "no non-catastrophic completion within 50 candidates"


def test_witness_is_walked_only_when_read(monkeypatch):
    import qconvenc.catastrophic as cat

    edges = []
    real = cat._encoder_edge
    monkeypatch.setattr(cat, "_encoder_edge", lambda *args: edges.append(args) or real(*args))
    v = is_noncatastrophic(TOY_CNOT, 1, 1)
    assert not v.non_catastrophic and edges == []
    witness = v.witness
    assert len(edges) == len(witness) > 0
    assert v.witness is witness  # walked once


# -- the completion search's leaf check against a full completion -----------


def _cycle_state_of_inverse(inv: SymplecticMap, n: int, k: int, m: int):
    """Oracle for a leaf: read T, A and L off the inverse of a full encoder
    map, at its rows for the outgoing memory X_i and Z_i (output wires
    n + i), and return the first basis state of the periodic part P with
    nonzero info part, with the images of T; None when there is none."""
    w = m + n

    def field(v, lo, size):
        mask = (1 << size) - 1
        return ((v >> lo) & mask) | (((v >> (w + lo)) & mask) << size)

    def transpose(rows, nbits):
        return [sum(((r >> i) & 1) << j for j, r in enumerate(rows)) for i in range(nbits)]

    ts, xs, ls = [], [], []
    for i in [*range(n, w), *range(w + n, 2 * w)]:
        r = inv.rows[i]  # preimage layout (memory, ancilla, info)
        ts.append(field(r, 0, m))
        xs.append((r >> m) & ((1 << (n - k)) - 1))
        ls.append(field(r, m + n - k, k))
    pull = transpose(ts, 2 * m)
    funcs = frontier = transpose(xs, n - k)
    for _ in range(2 * m - 1):
        frontier = gf2.matmul(frontier, pull)
        funcs = funcs + frontier
    basis = nullspace(funcs, 2 * m)
    while True:
        image = gf2.row_reduce(gf2.matmul(basis, ts))[0]
        if len(image) == len(basis):
            break
        basis = image
    for b, lb in zip(basis, gf2.matmul(basis, ls)):
        if lb:
            return b, ts
    return None


def _random_rows(rng: random.Random, direction: str):
    """A consistent row set of a random map: n <= 3, m <= 2, rows (u, S u)
    of a random symplectic S at random independent inputs u, which for an
    encoder start with its ancilla Z's; with n, k and m."""
    n, m = rng.randint(1, 3), rng.randint(0, 2)
    k, w = rng.randint(0, n - 1), m + n
    smap = random_symplectic(w, rng)
    inputs = [1 << (w + m + a) for a in range(n - k)] if direction == "encoder" else []
    for u in [rng.getrandbits(2 * w) for _ in range(rng.randint(1, 2 * w))]:
        if not in_span(inputs, u):
            inputs.append(u)
    return PartialMap(w, tuple((u, smap.apply_vec(u)) for u in inputs)), n, k, m


def _recorded_leaves(direction, search):
    """Every leaf the completion search in `direction` that `search()` runs
    tried, as its rows with whether the search accepted it, and the
    search's outcome (what `search` returns, or the exhaustion error).  A
    node's leaves are read off its decision, the least leaf below its
    bound that it accepts: the leaves before that one are rejected, and
    all of them below the bound when there is none.  The rows of each node
    come from its `_leaf_images` call."""
    import qconvenc.catastrophic as cat

    leaves, node = [], []
    real_images, real_decide = cat._leaf_images, getattr(cat, f"_{direction}_node")

    def images(coeffs, rows):
        node[:] = rows
        return real_images(coeffs, rows)

    def decide(images, varying, x0, null, outputs, bound, n, k, m, memo, *base):
        accepted = real_decide(images, varying, x0, null, outputs, bound, n, k, m, memo, *base)
        rows, w = list(node), m + n
        outputs = [0]
        if varying:
            # a last-level node: its leaves add a row for the last direction,
            # the first canonical memory X or Z outside the node's inputs,
            # with the outputs the symplectic products allow, in order
            inputs = [ri for ri, _ in rows]
            memory = [1 << q for q in range(m)] + [1 << (w + q) for q in range(m)]
            u = next(d for d in memory if not in_span(inputs, d))
            rhs = [gf2.parity(u & _dual(ri, w)) for ri, _ in rows]
            system = fresh_system([_dual(ro, w) for _, ro in rows], rhs, 2 * w)
            outputs = list(itertools.islice(gf2.solutions(*system), bound))
        for i in range(bound if accepted is None else accepted + 1):
            leaves.append((rows + [(u, outputs[i])] if varying else rows, i == accepted))
        return accepted

    with mock.patch.object(cat, "_leaf_images", images), mock.patch.object(cat, f"_{direction}_node", decide):
        try:
            outcome = search()
        except CompletionSearchExhausted as exc:
            outcome = exc
    return leaves, outcome


# small codes whose canonical assignment leaves memory directions free, so
# that their searches reject catastrophic leaves before accepting one
FREE_DIRECTION_CODES = ["n=2\nZX|ZI\n", "n=3\nIZI|IZX\n", "n=2\nYZ|YZ|XX\n"]

# seeds of `_random_rows` decoder row sets whose searches pass over
# leaves before accepting one (no decoder of a small code has such a
# search): 24 with m = 1 and 196 with 21 leaves, both of whose first
# completion is catastrophic; 95 with catastrophic leaves whose outputs
# are dependent, and 263 with non-catastrophic ones
DECODER_SEEDS = [24, 95, 196, 263]


def _leaf_case(direction, source):
    """A search with several leaves, as a thunk returning its verdict, with
    its n, k and m: an encoder code's synthesis at a budget of 400, or the
    decoder completion of a seeded random row set."""
    if direction == "encoder":
        code = GR_CODE if source == "gr" else parse_code(source)
        m = assign_memory(skeleton_commutation_matrix(build_skeleton(code))).m
        return lambda: synthesize_encoder(code, max_candidates=400).verdict, code.n, code.k, m
    partial, n, k, m = _random_rows(random.Random(source), "decoder")
    return lambda: complete_noncatastrophic(partial, n, k, "decoder", max_candidates=400)[2], n, k, m


@pytest.mark.parametrize("direction, source", [
    *[pytest.param("encoder", text, id=text) for text in ["gr", *FREE_DIRECTION_CODES]],
    *[pytest.param("decoder", seed, id=f"decoder-{seed}") for seed in DECODER_SEEDS],
])
def test_leaf_check_matches_full_completion(direction, source):
    # the search decides a leaf by the rows it fixes; the one-map verdict of
    # a full completion of those rows must accept exactly the leaves the
    # search accepts.  That verdict's witness state is the one read off the
    # inverse, for an encoder, and its answer the brute-force one for a
    # decoder
    search, n, k, m = _leaf_case(direction, source)
    leaves, outcome = _recorded_leaves(direction, search)
    if source == "gr":
        assert isinstance(outcome, CompletionSearchExhausted) and len(leaves) == 400
    else:
        assert outcome.non_catastrophic and len(leaves) > 1
    rejected = dependent = 0
    for rows, accepted in leaves:
        if gf2.rank([ro for _, ro in rows]) < len(rows):
            assert not accepted
            dependent += 1  # no map extends the rows, and the search passes over them
            continue
        smap = complete_to_symplectic(PartialMap(m + n, tuple(rows)))
        if direction == "encoder":
            verdict = is_noncatastrophic(smap, n, k)
            want = _cycle_state_of_inverse(smap.inverse(), n, k, m)
            assert verdict.non_catastrophic == (want is None)
            if want is not None:
                assert (verdict.seed.b, list(verdict.seed.ts)) == (want[0], list(want[1]))
        else:
            verdict = is_noncatastrophic_decoder(smap, n, k)
            assert verdict.non_catastrophic == brute_force_noncatastrophic(smap, n, k, m, "decoder")
        assert accepted == verdict.non_catastrophic
        rejected += not accepted
    # every leaf but an accepted last one is catastrophic, or extends to no map
    accepted = 0 if source == "gr" else 1
    assert len(leaves) - accepted == rejected + dependent > 0
    if direction == "encoder":
        assert dependent == 0  # the skeleton's ancilla Z inputs keep the outputs independent


def test_search_completes_rows_whose_accepted_leaf_has_dependent_outputs():
    # the first leaf the check accepts repeats an output row, so no map
    # extends it; the search passes over it to the next
    partial = PartialMap(5, ((0x80, 0x2), (0x100, 0x280), (0x3b3, 0x28a)))
    smap, circ, verdict = complete_noncatastrophic(partial, 3, 1)
    assert verdict.non_catastrophic and brute_force_noncatastrophic(smap, 3, 1, 2, "encoder")
    assert all(smap.apply_vec(u) == v for u, v in partial.rows)
    assert circuit_to_symplectic(circ) == smap and len(circ) == 24


@pytest.mark.parametrize("direction", ["encoder", "decoder"])
def test_search_completes_every_consistent_row_set(direction):
    # rows `check_consistency` accepts give a non-catastrophic map that
    # satisfies each of them, or an exhausted search, and no other error
    rng = random.Random(40)
    tally = {"completed": 0, "exhausted": 0}
    for _ in range(400):
        partial, n, k, m = _random_rows(rng, direction)
        try:
            smap, circ, verdict = complete_noncatastrophic(partial, n, k, direction)
        except CompletionSearchExhausted:
            tally["exhausted"] += 1
            continue
        assert verdict.non_catastrophic and brute_force_noncatastrophic(smap, n, k, m, direction)
        assert all(smap.apply_vec(u) == v for u, v in partial.rows)
        assert circuit_to_symplectic(circ) == smap
        tally["completed"] += 1
    assert tally["exhausted"] > 0 and tally["completed"] > 300


def test_decoder_search_passes_a_catastrophic_first_completion():
    # `complete_to_symplectic`'s own completion of these decoder rows is
    # catastrophic; the search finds a non-catastrophic one, or exhausts
    rng = random.Random(41)
    tally = {"passed": 0, "exhausted": 0}
    for _ in range(400):
        partial, n, k, m = _random_rows(rng, "decoder")
        if brute_force_noncatastrophic(complete_to_symplectic(partial), n, k, m, "decoder"):
            continue
        try:
            smap, _, verdict = complete_noncatastrophic(partial, n, k, "decoder")
        except CompletionSearchExhausted as exc:
            # every consistent completion is catastrophic: the report counts
            # the distinct dynamics (T, A) whose P the search computed
            assert str(exc) == "every consistent completion is catastrophic"
            assert 0 < exc.dynamics <= exc.tried < exc.budget
            tally["exhausted"] += 1
            continue
        assert verdict.non_catastrophic and brute_force_noncatastrophic(smap, n, k, m, "decoder")
        assert all(smap.apply_vec(u) == v for u, v in partial.rows)
        tally["passed"] += 1
    assert tally == {"passed": 21, "exhausted": 7}


@settings(max_examples=300, deadline=None)
@given(SMALL_GENERATORS, st.integers(1, 60))
def test_sibling_leaves_match_one_leaf_checks_on_small_codes(drawn, budget):
    # the search decides a node's leaves together; the oracle walks them
    # one at a time, with the same budget
    n, lines = drawn
    try:
        partial, n, k = _encoder_partial(parse_code(f"n={n}\n" + "".join(line + "\n" for line in lines)))
        check_consistency(partial)
    except (QconvError, ValueError):  # refused before any search
        return
    event(_assert_search_matches_the_oracle(partial, n, k, budget).split(" within")[0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3), st.randoms(use_true_random=False))
def test_a_node_matches_one_leaf_checks_on_any_affine_space(n, k, m, rnd):
    # any images, any rows that vary, any affine space of outputs (its
    # vectors may be dependent, so outputs repeat) and any outputs of the
    # node's rows, dependent or not: the node's answer is the first leaf
    # below its bound, in index order, that the one-leaf check accepts and
    # whose outputs, with its own if an image varies, are independent.  It
    # records the dynamics of exactly the leaves up to that one, or below
    # the bound, each with its V and P computed afresh, and one memo serves
    # every node of the same varying rows, also nodes that share images
    # and so dynamics
    import qconvenc.catastrophic as cat

    k = min(k, n - 1)
    w, reads = m + n, 2 * m + n - k
    varying = sorted(rnd.sample(range(reads), rnd.randint(0, reads)))
    memo, images = {}, None
    for _ in range(3):
        if images is None or rnd.random() < 0.5:
            images = [rnd.getrandbits(2 * w) for _ in range(reads)]
        x0, null = rnd.getrandbits(2 * w), [rnd.getrandbits(2 * w) for _ in range(rnd.randint(0, 5))]
        outputs = [rnd.getrandbits(2 * w) for _ in range(rnd.randint(0, 3))]
        bound = rnd.randint(0, 1 << len(null))
        before = _dynamics(memo, varying)
        got = cat._encoder_node(images, varying, x0, null, outputs, bound, n, k, m, memo, fresh_base(images, varying))
        want, keys = None, set()
        for i in range(bound):
            v = x0 ^ gf2.matmul([i], null)[0]
            leaf = [y ^ v if j in varying else y for j, y in enumerate(images)]
            keys.add(tuple(_field(_dual(y, w), w, n, m) for y in leaf))
            rows = outputs + [v] * bool(varying)
            if encoder_cycle_state(leaf, n, k, m) is None and gf2.rank(rows) == len(rows):
                want = i
                break
        event("accepted" if want is not None else "none accepted")
        event("a dynamics met before" if keys & set(before) else "no dynamics met before")
        assert got == want
        after = _dynamics(memo, varying)
        assert set(after) == set(before) | keys
        for key in keys:
            pull, funcs = list(key[m:2 * m] + key[:m]), list(key[2 * m:])
            stable = cat._unobservable(pull, funcs, m)
            assert after[key] == (stable, cat._periodic_part(stable, gf2.transpose(pull, 2 * m)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3), st.randoms(use_true_random=False))
def test_cycle_states_match_one_leaf_checks_on_any_images(n, k, m, rnd):
    # any images, any rows that vary, any candidates, each decided as a
    # node of one leaf: every verdict must be the one-leaf check's, every
    # dynamics' V and P the ones computed afresh, and one memo serves every
    # call of the same varying rows.  Up to 40 candidates from a small span,
    # with repeats and v = 0, in an order no `gf2.solutions` walk gives
    import qconvenc.catastrophic as cat

    k = min(k, n - 1)
    w, reads = m + n, 2 * m + n - k
    for _ in range(3):
        images = [rnd.getrandbits(2 * w) for _ in range(reads)]
        varying = sorted(rnd.sample(range(reads), rnd.randint(0, reads)))
        pool = gf2.span([rnd.getrandbits(2 * w) for _ in range(rnd.randint(1, 4))])
        candidates = [rnd.choice(pool) for _ in range(rnd.randint(0, 39))]
        candidates.insert(rnd.randint(0, len(candidates)), 0)
        memo = {}
        for v in candidates:
            got = cat._encoder_node(images, varying, v, [], [], 1, n, k, m, memo, fresh_base(images, varying))
            leaf = [y ^ v if i in varying else y for i, y in enumerate(images)]
            rows = [v] * bool(varying)
            want = encoder_cycle_state(leaf, n, k, m) is None and gf2.rank(rows) == len(rows)
            event("accepted" if want else "rejected")
            assert (got == 0) == want and got in (0, None)
            key = tuple(_field(_dual(y, w), w, n, m) for y in leaf)
            pull, funcs = list(key[m:2 * m] + key[:m]), list(key[2 * m:])
            stable = cat._unobservable(pull, funcs, m)
            assert _dynamics(memo, varying)[key] == (stable, cat._periodic_part(stable, gf2.transpose(pull, 2 * m)))


def test_cycle_states_answer_every_candidate_in_its_turn():
    # repeats and v = 0 included: at every bound, the node answers with the
    # first leaf below it that the one-leaf check accepts and whose outputs
    # are independent, and records the dynamics of the leaves up to it
    import qconvenc.catastrophic as cat

    rnd = random.Random(7)
    n, k, m = 3, 1, 2
    w = m + n
    images = [rnd.getrandbits(2 * w) for _ in range(2 * m + n - k)]
    null = [rnd.getrandbits(2 * w) for _ in range(3)]
    null += [null[0] ^ null[1], 0]
    x0 = null[2]
    leaves = [x0 ^ gf2.matmul([i], null)[0] for i in range(1 << len(null))]
    assert 0 in leaves and len(set(leaves)) < len(leaves)
    seen = set()
    for varying in ([], [0, 2, 5]):
        for outputs in ([], [null[0]]):
            states = [[y ^ v if j in varying else y for j, y in enumerate(images)] for v in leaves]
            accepted = [encoder_cycle_state(leaf, n, k, m) is None
                        and gf2.rank(outputs + [v] * bool(varying)) == len(outputs) + bool(varying)
                        for v, leaf in zip(leaves, states)]
            seen.update(accepted)
            for bound in range(len(leaves) + 1):
                memo = {}
                got = cat._encoder_node(images, varying, x0, null, outputs, bound, n, k, m, memo,
                                        fresh_base(images, varying))
                want = next((i for i in range(bound) if accepted[i]), None)
                assert got == want
                tried = states[:bound if want is None else want + 1]
                assert set(_dynamics(memo, varying)) == {
                    tuple(_field(_dual(y, w), w, n, m) for y in leaf) for leaf in tried}
    assert seen == {True, False}


def test_gr_leaves_match_one_leaf_checks_past_the_first_nodes():
    # 3,000 leaves reach 24 last-level nodes; the first 400 cover only 4
    for budget in (400, 3000):
        outcome = _assert_search_matches_the_oracle(*_encoder_partial(GR_CODE), budget)
        assert outcome == f"no non-catastrophic completion within {budget} candidates"


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.sampled_from(["encoder", "decoder"]),
    st.randoms(use_true_random=False),
)
def test_periodic_part_matches_walking_every_state(m, n, k, direction, rnd):
    # the states of P, spanned by the basis the verdict computes, are the
    # states whose zero-weight orbit comes back to them
    import qconvenc.catastrophic as cat

    k = min(k, n - 1)
    w = m + n
    # few gates leave many zero-weight cycles, many gates few
    smap = circuit_to_symplectic(random_circuit(w, rnd.randint(0, 6 * w), rnd))
    bases = []
    real = cat._periodic_part
    with mock.patch.object(cat, "_periodic_part", lambda *a: bases.append(real(*a)) or bases[-1]):
        (is_noncatastrophic if direction == "encoder" else is_noncatastrophic_decoder)(smap, n, k)
    event(f"dim P = {len(bases[0])}")
    assert sorted(gf2.span(bases[0])) == periodic_states(smap, n, k, m, direction)


def _dynamics(memo, varying):
    """An encoder search's memo as the dynamics it holds, keyed by the dual
    fields of the read images, to V and P: the memo keys them by the
    fields no leaf changes, those at `varying` relative to the first, and
    then by that first one."""
    return {tuple(f ^ first if i in varying else f for i, f in enumerate(fixed)): parts
            for fixed, known in memo.items() for first, parts in known.items()}


def _every_leaf(images, varying, x0, null, n, k, m):
    """The dynamics that an encoder node whose leaves all have dependent
    outputs records, with V and P: it tries every leaf."""
    import qconvenc.catastrophic as cat

    memo = {}
    assert cat._encoder_node(images, varying, x0, null, [0], 1 << len(null), n, k, m, memo,
                             fresh_base(images, varying)) is None
    return _dynamics(memo, varying)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2), st.sampled_from(["A = 0", "any A", "ancilla varies"]),
    st.randoms(use_true_random=False),
)
def test_shared_unobservable_subspace_gives_each_dynamics_its_own_periodic_part(m, n, k, mode, rnd):
    # a node computes V at its first leaf's dynamics and, when u lies in
    # that V, only P at the others: every V and P must be the one computed
    # afresh
    import qconvenc.catastrophic as cat

    k = min(k, n - 1)
    w, reads = m + n, 2 * m + n - k
    # images on the frame wires alone have a zero dual memory field, so
    # ancilla images there make A = 0 and V every state
    frame = ((1 << n) - 1) * (1 | 1 << w)
    images = [rnd.getrandbits(2 * w) & (frame if mode == "A = 0" and i >= 2 * m else -1) for i in range(reads)]
    varying = sorted(rnd.sample(range(2 * m), rnd.randint(1, 2 * m)))
    if mode == "ancilla varies":
        varying = sorted({*varying, rnd.randrange(2 * m, reads)})
    x0, null = rnd.getrandbits(2 * w), [rnd.getrandbits(2 * w) for _ in range(rnd.randint(1, 4))]
    computed = []
    real = cat._unobservable
    with mock.patch.object(cat, "_unobservable", lambda *a: computed.append(a) or real(*a)):
        memo = _every_leaf(images, varying, x0, null, n, k, m)
    dynamics = [(list(key[m:2 * m] + key[:m]), list(key[2 * m:]), stable, basis)
                for key, (stable, basis) in memo.items()]
    pull, funcs = dynamics[0][:2]
    if mode == "ancilla varies":
        outcome = "an ancilla image varies"
    else:
        # the pull rows a candidate changes: row m + i for memory X_i, row i for Z_i
        u = sum(1 << (i + m if i < m else i - m) for i in varying)
        outcome = "u in V_ref" if u in gf2.span(real(pull, funcs, m)) else "u not in V_ref"
    event(outcome)
    assert len(computed) == (1 if outcome == "u in V_ref" else len(dynamics))
    for pull, funcs, stable, basis in dynamics:
        assert stable == real(pull, funcs, m)
        assert basis == cat._periodic_part(stable, gf2.transpose(pull, 2 * m))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
    st.sampled_from(["u kept in V", "any A", "ancilla varies"]), st.randoms(use_true_random=False),
)
def test_a_node_computes_one_periodic_part_per_restriction_to_its_shared_subspace(m, n, k, mode, rnd):
    # when u lies in V, dual fields with one restriction to V give one P:
    # as many P's as restrictions among the leaves, else one per dynamics
    import qconvenc.catastrophic as cat

    k = min(k, n - 1)
    w, reads = m + n, 2 * m + n - k
    images = [rnd.getrandbits(2 * w) for _ in range(reads)]
    varying = sorted(rnd.sample(range(2 * m), rnd.randint(1, 2 * m)))
    if mode == "ancilla varies":
        varying = sorted({*varying, rnd.randrange(2 * m, reads)})
    u = sum(1 << (i + m if i < m else i - m) for i in varying)
    if mode == "u kept in V":
        # ancilla images whose dual memory fields vanish on the T-orbit of
        # u (at v = 0) keep u in V, and V as small as that orbit when
        # there are enough of them
        fields = [_field(_dual(y, w), w, n, m) for y in images]
        ts, orbit = gf2.transpose(fields[m:2 * m] + fields[:m], 2 * m), [u]
        for _ in range(2 * m):
            orbit += gf2.matmul(orbit[-1:], ts)
        vanishing = nullspace(orbit, 2 * m)
        for i in range(2 * m, reads):
            f = vanishing[i % len(vanishing)] if vanishing else 0
            swapped = f >> m | (f & ((1 << m) - 1)) << m  # the memory part whose dual field is f
            images[i] = images[i] & ~_place((1 << 2 * m) - 1, m, n, w) | _place(swapped, m, n, w)
            assert _field(_dual(images[i], w), w, n, m) == f
    x0, null = rnd.getrandbits(2 * w), [rnd.getrandbits(2 * w) for _ in range(rnd.randint(1, 5))]
    periodic = []
    real = cat._periodic_part
    with mock.patch.object(cat, "_periodic_part", lambda *a: periodic.append(a) or real(*a)):
        memo = _every_leaf(images, varying, x0, null, n, k, m)
    key = next(iter(memo))
    v_ref = gf2.span(cat._unobservable(list(key[m:2 * m] + key[:m]), list(key[2 * m:]), m))
    if mode == "ancilla varies" or u not in v_ref:
        assert mode != "u kept in V"
        event("V not shared")
        assert len(periodic) == len(memo)
        return
    # a leaf's dual field, restricted to V as its values on every state of V
    fields = {_field(_dual(x0 ^ gf2.matmul([i], null)[0], w), w, n, m) for i in range(1 << len(null))}
    restrictions = {tuple(gf2.parity(dv & s) for s in v_ref) for dv in fields}
    event("fewer classes than dynamics" if len(restrictions) < len(memo) else "one dynamics per class")
    assert len(memo) == len(fields) and len(periodic) == len(restrictions)


def _counted_search(search):
    """The calls that `search()` makes of the GF(2) kernels and of the
    node's steps, by name, with what it returned or raised."""
    import qconvenc.catastrophic as cat

    calls = dict.fromkeys(["row_reduce", "extend", "nodes", "residue", "placed", "V", "P", "transpose"], 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    with mock.patch.object(gf2, "row_reduce", counted("row_reduce", gf2.row_reduce)), \
            mock.patch.object(gf2, "extend", counted("extend", gf2.extend)), \
            mock.patch.object(gf2, "residue", counted("residue", gf2.residue)), \
            mock.patch.object(cat, "_place", counted("placed", cat._place)), \
            mock.patch.object(cat, "_encoder_node", counted("nodes", cat._encoder_node)), \
            mock.patch.object(cat, "_unobservable", counted("V", cat._unobservable)), \
            mock.patch.object(cat, "_periodic_part", counted("P", cat._periodic_part)), \
            mock.patch.object(gf2, "transpose", counted("transpose", gf2.transpose)):
        try:
            outcome = search()
        except CompletionSearchExhausted as exc:
            outcome = exc
    return calls, outcome


def test_search_reductions_grow_with_nodes_and_dynamics_not_leaves():
    # operation counts, not timings: a leaf adds no row reduction and no
    # residue, a last-level node a few, a new (T, A) the ones of its
    # periodic part, a newly placed state of P one residue
    counts = []
    for budget in (400, 800):
        calls, info = _counted_search(lambda: synthesize_encoder(GR_CODE, max_candidates=budget))
        counts.append((calls["row_reduce"], calls["extend"], calls["nodes"], info.dynamics,
                       calls["residue"], calls["placed"], calls["V"], calls["P"], calls["transpose"]))
    (r1, e1, n1, d1, s1, p1, v1, q1, t1), (r2, e2, n2, d2, s2, p2, v2, q2, t2) = counts
    assert (n1, d1, n2, d2) == (4, 64, 7, 128)
    # a node computes V at its first dynamics unless the memo holds it, and
    # shares it with the others: one per dynamics made 64 and 128
    assert (v1, v2) == (1, 2)
    # and P once per restriction of the dual fields to that V (4 of them
    # on GR, where dim V = 4) that the memo lacks: one P per dynamics made
    # 64 and 128.  A node transposes its class map, and each new P its T
    assert (q1, q2) == (4, 8) and (t1, t2) == (n1 + q1, n2 + q2)
    # residues: the 14 read images' combinations once per search, and per
    # node u's against V, besides the newly placed states of P.  Every
    # class rejects all its leaves, so no node reads the residues of its
    # outputs, nor their independence.  One residue per leaf made 434 and
    # 849 calls
    assert (p1, p2) == (16, 28)
    assert (s1, s2) == (14 + n1 + p1, 14 + n2 + p2)
    # the counts of deciding a node over its leaf indices against one
    # reduced span, one V and one P per class, and of carrying the level
    # systems and the node bases, each reduced once per search and
    # extended by a row per level.  Pinned: 5 before the search (the last
    # frames' rank, the assignment's check and inverse, the consistency
    # check's 2 ranks), the search's 3 (its inputs, root level and root
    # base) and those of P's loops (one row reduction per candidate system
    # made 22 and 32, one per leaf 564 and 1,101; one V per dynamics made
    # 421 and 814 extend calls)
    assert (r1, r2) == (12, 16) == (8 + q1, 8 + q2)
    assert e1 <= 64 and e2 <= 101
    # the 400 more leaves of the larger budget cost only their nodes and
    # classes; past the row reductions, extend runs in V's loop, in the
    # pivot scan of a node's 7 kernel vectors, and once for its level
    # system and once for its base
    assert r2 - r1 <= 3 * (n2 - n1) + (q2 - q1)
    assert e2 - e1 <= r2 - r1 + 9 * (n2 - n1) + 7 * (v2 - v1)


# a hand-built encoder row set (n = 9, k = 8, m = 2) with one free
# direction, memory X_0, so one last-level node of 2^18 leaves: memory
# qubit 1 carries its X and Z to itself and two physical Z's, so P holds
# states whose (I, b) no single leaf output brings into the span, and
# every leaf is catastrophic
_W = 11
BIG_NODE_ROWS = PartialMap(_W, (
    (1 << (_W + 2), 1 << (_W + 4)),  # ancilla Z -> a physical Z
    (1 << _W, 1 << (_W + 9) | 1 << (_W + 1)),  # memory Z_0 -> Z_0 out, a physical Z
    (1 << 1, 1 << 10 | 1 << (_W + 2)),  # memory X_1 -> X_1 out, a physical Z
    (1 << (_W + 1), 1 << (_W + 10) | 1 << (_W + 3)),  # memory Z_1 -> Z_1 out, a physical Z
))


def test_a_node_costs_its_classes_not_its_leaves():
    # two budgets that end 2^10 and 2^16 leaves into the one node: the same
    # outcome as the leaf-by-leaf oracle, the same kernel calls, bounded by
    # the node's classes and dynamics, and the same peak memory
    import tracemalloc

    runs = []
    for budget in (1 << 10, 1 << 16):
        assert _assert_search_matches_the_oracle(BIG_NODE_ROWS, 9, 8, budget) == \
            f"no non-catastrophic completion within {budget} candidates"
        calls, info = _counted_search(lambda: complete_noncatastrophic(BIG_NODE_ROWS, 9, 8, max_candidates=budget))
        assert (info.tried, info.dynamics) == (budget, 4)
        tracemalloc.start()
        with pytest.raises(CompletionSearchExhausted):
            complete_noncatastrophic(BIG_NODE_ROWS, 9, 8, max_candidates=budget)
        runs.append((calls, tracemalloc.get_traced_memory()[1]))
        tracemalloc.stop()
    (calls1, peak1), (calls2, peak2) = runs
    # the scan for a node's distinct dual fields stops at the kernel vector
    # 2^j >= bound, so it extends 6 more times at 2^16 than at 2^10; no
    # other count depends on the budget
    assert calls2 == {**calls1, "extend": calls1["extend"] + 6}
    # one node, whose 4 dynamics have 4 restrictions to its shared V: one V
    # and a P per class, each rejecting all its leaves.  Its residues are
    # the 5 read images' combinations, u's against V and the placed states
    # of P; its row reductions a few per search and node and those of P's
    # loops
    assert (calls1["nodes"], calls1["V"], calls1["P"]) == (1, 1, 4)
    assert calls1["residue"] == 5 + 1 + calls1["placed"]
    assert calls1["row_reduce"] <= 5 + 2 * calls1["P"]
    assert abs(peak2 - peak1) <= peak1 / 10


# the circuit files `synthesize --out` writes, as the width line and the
# gates; they change only if the search order or gate synthesis does
SYNTHESIZED_CIRCUITS = {
    FGG_CODE_TEXT: (
        "# width: 4",
        "H 4, P 4, H 4, P 4, H 3, CZ 3 4, H 3, SWAP 4 3, H 2, CNOT 2 4, CNOT 2 3, P 2, H 2, "
        "P 2, CZ 2 3, CNOT 2 3, P 2, H 1, P 1, CZ 1 2, CNOT 1 3, CNOT 1 2, H 1, P 1, CZ 1 3, "
        "CZ 1 2, CNOT 1 3",
    ),
    CATASTROPHIC_CODE_TEXT: ("# width: 3", "H 3, H 3, H 2, CZ 2 3, H 2, H 1, CZ 1 2, H 1, CNOT 1 2"),
    FREE_DIRECTION_CODES[0]: ("# width: 3", "H 3, H 3, H 2, CNOT 2 3, H 2, SWAP 3 2, H 1, H 1, CZ 1 2"),
    FREE_DIRECTION_CODES[1]: (
        "# width: 4",
        "H 4, H 4, H 4, H 3, H 3, H 2, CZ 2 4, H 2, SWAP 4 2, H 1, CZ 1 2, H 1, SWAP 3 1, H 3",
    ),
    FREE_DIRECTION_CODES[2]: (
        "# width: 4",
        "H 4, H 4, H 3, CZ 3 4, H 3, H 2, CNOT 2 4, P 2, H 2, SWAP 4 2, P 4, H 1, P 1, CZ 1 4, "
        "CZ 1 2, CNOT 1 4, H 1, SWAP 4 1",
    ),
}


@pytest.mark.parametrize("text", list(SYNTHESIZED_CIRCUITS))
def test_synthesize_writes_the_pinned_circuit(tmp_path, capsys, text):
    (tmp_path / "code.qcc").write_text(text)
    out = tmp_path / "enc.circ"
    assert main(["synthesize", "--code", str(tmp_path / "code.qcc"), "--out", str(out)]) == 0
    capsys.readouterr()
    width, gates = SYNTHESIZED_CIRCUITS[text]
    assert out.read_text() == "\n".join([width, *gates.split(", ")]) + "\n"


def test_completion_builds_one_full_map(monkeypatch):
    import qconvenc.catastrophic as cat

    calls = []
    real = cat.complete_to_symplectic
    monkeypatch.setattr(cat, "complete_to_symplectic", lambda p: calls.append(p) or real(p))
    for text in ["n=2\nZZ|IZ\n", *FREE_DIRECTION_CODES]:
        calls.clear()
        syn = synthesize_encoder(parse_code(text))
        assert len(calls) == 1  # the accepted leaf only
        assert syn.verdict == is_noncatastrophic(syn.circuit, syn.code.n, syn.code.k)
    calls.clear()
    with pytest.raises(CompletionSearchExhausted):
        synthesize_encoder(GR_CODE, max_candidates=50)
    assert calls == []


def test_exhausted_search_reports_its_count():
    with pytest.raises(CompletionSearchExhausted) as info:
        synthesize_encoder(GR_CODE, max_candidates=50)
    assert (info.value.tried, info.value.budget) == (50, 50)
    assert "within 50 candidates" in str(info.value)


# -- the search against the leaf-by-leaf oracle -------------------------------


def _encoder_partial(code):
    """The encoder rows the search completes for `code`, with n and k."""
    skel = build_skeleton(code)
    asg = assign_memory(skeleton_commutation_matrix(skel))
    return PartialMap.from_operators(partial_rows(skel, asg)), code.n, code.k


def _library_search(partial, n, k, budget):
    """The library search in the oracle's terms: the completed map, or the
    exhaustion message with `tried` and `dynamics`."""
    try:
        return complete_noncatastrophic(partial, n, k, max_candidates=budget)[0], None, None
    except CompletionSearchExhausted as exc:
        assert exc.budget == budget
        return str(exc), exc.tried, exc.dynamics


def _assert_search_matches_the_oracle(partial, n, k, budget):
    """The search and `encoder_search_by_leaves` agree on the accepted rows,
    the leaves tried, the dynamics met and the message.  The library does
    not report an accepting search's count, so that count is checked at
    the budget one below it, where both must exhaust."""
    want, tried, dynamics = encoder_search_by_leaves(partial, n, k, budget)
    got = _library_search(partial, n, k, budget)
    if isinstance(want, str):
        assert got == (want, tried, dynamics)
        return want
    smap = got[0]
    assert isinstance(smap, SymplecticMap) and all(smap.apply_vec(u) == v for u, v in want)
    if tried > 1:
        below = encoder_search_by_leaves(partial, n, k, tried - 1)
        assert below[:2] == (f"no non-catastrophic completion within {tried - 1} candidates", tried - 1)
        assert _library_search(partial, n, k, tried - 1) == below
    return "accepted"


@pytest.mark.parametrize("text", [*FREE_DIRECTION_CODES, *[f"n=4\npoly: {p}\n" for p in WIDE_DIRECTION_POLYS]])
def test_small_and_wide_searches_match_the_oracle_search(text):
    _assert_search_matches_the_oracle(*_encoder_partial(parse_code(text)), 50)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 100))
def test_random_row_set_searches_match_the_oracle_search(rnd, budget):
    partial, n, k, m = _random_rows(rnd, "encoder")
    event(_assert_search_matches_the_oracle(partial, n, k, budget).split(" within")[0])


@pytest.mark.parametrize("budget, message, tried, dynamics", [
    # the first last-level node of a bare GR search has 128 leaves and 64
    # dynamics, and the second starts with dynamics the first met
    (127, "no non-catastrophic completion within 127 candidates", 127, 64),
    (128, "no non-catastrophic completion within 128 candidates", 128, 64),
    (129, "no non-catastrophic completion within 129 candidates", 129, 64),
])
def test_gr_exhaustion_at_the_end_of_its_first_node(budget, message, tried, dynamics):
    assert _library_search(*_encoder_partial(GR_CODE), budget) == (message, tried, dynamics)


@pytest.mark.parametrize("budget, message", [
    (47, "no non-catastrophic completion within 47 candidates"),
    (48, "every consistent completion is catastrophic"),
    (49, "every consistent completion is catastrophic"),
])
def test_a_catastrophic_row_set_exhausts_by_budget_only_before_its_last_leaf(budget, message):
    # every one of the 48 leaves of these rows (24 last-level nodes of 2) is
    # catastrophic: a budget of 48 tries them all and draws no other
    partial, n, k, m = _random_rows(random.Random(825), "encoder")
    assert (n, k, m) == (2, 1, 2)
    assert _library_search(partial, n, k, budget) == (message, min(budget, 48), 24)


@pytest.mark.parametrize("budget", [0, -1])
def test_a_budget_below_one_is_refused(budget):
    # the budget is checked before the search, so a search with no free
    # direction (FGG), whose lone leaf is tried without a draw, refuses it
    # as GR does
    for code in (FGG_CODE, GR_CODE):
        with pytest.raises(ValueError, match="max_candidates must be at least 1"):
            synthesize_encoder(code, max_candidates=budget)


def _assert_carried_bases_are_fresh(search, rnd):
    """Run `search()`, checking at every last-level node that the base the
    search carried into it reduces as a fresh `row_reduce` of the node's
    fixed images and a_i ^ a0 does: the same residues, of the images, the
    outputs, the leaves' outputs and random vectors, and the same reduced
    rows.  Returns the outputs of each node checked, in order."""
    import qconvenc.catastrophic as cat

    real, checked = cat._encoder_node, []

    def decide(images, varying, x0, null, outputs, bound, n, k, m, memo, base):
        fresh = fresh_base(images, varying)
        probes = images + outputs + [x0, *null] + [rnd.getrandbits(2 * (m + n)) for _ in range(8)]
        assert [gf2.residue(*base, v) for v in probes] == [gf2.residue(*fresh, v) for v in probes]
        assert sorted(zip(base[1], base[0])) == sorted(zip(fresh[1], fresh[0]))
        checked.append(tuple(outputs))
        return real(images, varying, x0, null, outputs, bound, n, k, m, memo, base)

    with mock.patch.object(cat, "_encoder_node", decide):
        try:
            search()
        except CompletionSearchExhausted:
            pass
    return checked


@pytest.mark.parametrize("text, budget, nodes", [
    # the 7 nodes of a bare GR search at budget 800 are siblings, and the
    # wide searches' 16 nodes at 2,000 have parents at two levels
    ("GR", 800, 7), *[(f"n=4\npoly: {p}\n", 2000, 16) for p in WIDE_DIRECTION_POLYS]])
def test_searches_carry_fresh_bases_into_sibling_nodes(text, budget, nodes):
    partial, n, k = _encoder_partial(GR_CODE if text == "GR" else parse_code(text))
    search = lambda: complete_noncatastrophic(partial, n, k, max_candidates=budget)
    assert len(_assert_carried_bases_are_fresh(search, random.Random(7))) == nodes


def _sparse_rows(rng: random.Random):
    """A consistent encoder row set of a random map with at most two rows
    past its ancilla Z's, so that its search has several free directions:
    n <= 3, 1 <= m <= 3; with n and k."""
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    k, w = rng.randint(0, n - 1), m + n
    smap = random_symplectic(w, rng)
    inputs = [1 << (w + m + a) for a in range(n - k)]
    for u in [rng.getrandbits(2 * w) for _ in range(rng.randint(0, 2))]:
        if not in_span(inputs, u):
            inputs.append(u)
    return PartialMap(w, tuple((u, smap.apply_vec(u)) for u in inputs)), n, k


@pytest.mark.parametrize("seed", [9, 186, 271, 295])
def test_sparse_searches_carry_fresh_bases_across_parents(seed):
    # seeds of `_sparse_rows` whose searches at budget 300 open nodes under
    # more than one parent, so that a base is carried down a new branch
    partial, n, k = _sparse_rows(random.Random(seed))
    search = lambda: complete_noncatastrophic(partial, n, k, max_candidates=300)
    outputs = _assert_carried_bases_are_fresh(search, random.Random(seed))
    assert len({node[:-1] for node in outputs}) > 1


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 100))
def test_random_row_set_searches_carry_fresh_bases(rnd, budget):
    partial, n, k, m = _random_rows(rnd, "encoder")
    nodes = len(_assert_carried_bases_are_fresh(
        lambda: complete_noncatastrophic(partial, n, k, max_candidates=budget), rnd))
    event("several nodes" if nodes > 1 else f"{nodes} node(s)")
