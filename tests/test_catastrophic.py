"""Zero-weight cycle detection, cross-checked by exhaustive enumeration.

The implementation decides catastrophicity by GF(2) linear algebra on the
memory state; the oracle here rebuilds the full edge list by brute force
over every (memory state, valid frame input) pair and decides by
reachability, so the two routes share no code.
"""

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
    _combinations,
    _cycle_states,
    _encoder_reads,
    _transpose,
    complete_noncatastrophic,
    is_noncatastrophic,
    is_noncatastrophic_decoder,
    subgroup_elements,
    zero_weight_graph,
)
from qconvenc.cli import main
from qconvenc.errors import CodeValidationError, CompletionSearchExhausted, InputDataError, ParseError
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
from qconvenc.synthesis import PartialMap, complete_to_symplectic

from conftest import CATASTROPHIC_CODE_TEXT, SMALL_GENERATORS, random_circuit
from oracles import admissible_cycle_states, encoder_cycle_state, transpose

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
    g = zero_weight_graph(fgg_reference_encoder, 3, 1, 1)
    assert set(g.edges) == {0}
    edge = g.edges[0]
    assert edge.before.is_identity() and edge.after.is_identity()
    assert edge.logical.is_identity() and edge.ancilla.is_identity()


def test_synthesized_encoder_graph_matches(fgg_synthesis):
    g = zero_weight_graph(fgg_synthesis.map, 3, 1, 1)
    assert set(g.edges) == {0}


def test_memoryless_encoder_graph():
    # any m=0 map has the one node and its trivial self-loop
    g = zero_weight_graph(SymplecticMap.identity(2), 2, 1, 0)
    assert set(g.edges) == {0}
    assert g.edges[0].before.width == 0


def test_reference_encoder_noncatastrophic(fgg_reference_encoder):
    v = is_noncatastrophic(fgg_reference_encoder, 3, 1, 1)
    assert v.non_catastrophic and v.witness is None
    assert v.direction == "encoder"


def test_toy_cnot_encoder_catastrophic():
    v = is_noncatastrophic(TOY_CNOT, 1, 1, 1)
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
        v = check(smap, n, k, m)
        if v.witness is not None and len(v.witness) > 1:
            break
    else:
        pytest.fail("no multi-edge witness among the seeded maps")
    assert not brute_force_noncatastrophic(smap, n, k, m, v.direction)
    assert_witness_cycle(smap, n, k, m, v)


def test_toy_cnot_decoder_catastrophic():
    v = is_noncatastrophic_decoder(TOY_CNOT, 1, 1, 1)
    assert not v.non_catastrophic


def test_identity_decoder_not_catastrophic():
    # an identity decoder forwards memory to the info wire only by first
    # consuming received content, so no zero-weight cycle carries logicals;
    # the brute-force route agrees
    ident = SymplecticMap.identity(2)
    assert is_noncatastrophic_decoder(ident, 1, 1, 1).non_catastrophic
    assert brute_force_noncatastrophic(ident, 1, 1, 1, "decoder")


def test_memoryless_decoder_true():
    v = is_noncatastrophic_decoder(SymplecticMap.identity(2), 2, 1, 0)
    assert v.non_catastrophic


def test_catastrophic_fixture_verdict(catastrophic_encoder_map):
    v = is_noncatastrophic(catastrophic_encoder_map, 2, 1, 1)
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
        got = is_noncatastrophic(smap, n, k, m).non_catastrophic
        want = brute_force_noncatastrophic(smap, n, k, m, "encoder")
        assert got == want, (n, k, m)
        gotd = is_noncatastrophic_decoder(smap, n, k, m).non_catastrophic
        wantd = brute_force_noncatastrophic(smap, n, k, m, "decoder")
        assert gotd == wantd, (n, k, m)


def test_verdicts_match_brute_force_random():
    rng = random.Random(50)
    shapes = [(1, 2, 1), (2, 2, 1), (2, 3, 2), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)]
    for trial in range(60):
        m, n, k = shapes[trial % len(shapes)]
        smap = circuit_to_symplectic(random_circuit(m + n, 6 * (m + n), rng))
        got = is_noncatastrophic(smap, n, k, m).non_catastrophic
        want = brute_force_noncatastrophic(smap, n, k, m, "encoder")
        assert got == want, (trial, m, n, k)
        gotd = is_noncatastrophic_decoder(smap, n, k, m).non_catastrophic
        wantd = brute_force_noncatastrophic(smap, n, k, m, "decoder")
        assert gotd == wantd, (trial, m, n, k)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 26) - 1), max_size=24), st.integers(0, 24))
def test_transpose_matches_the_bitwise_formula(images, nbits):
    # images may carry bits at or above nbits, which neither route reads
    assert _transpose(images, nbits) == transpose(images, nbits)


def test_enum_cap_guard():
    with pytest.raises(ValueError):
        zero_weight_graph(SymplecticMap.identity(ENUM_CAP + 3), 2, 1, ENUM_CAP + 1)


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
    circ, verdict = complete_noncatastrophic(partial, skel, asg)
    v = is_noncatastrophic(circ, 3, 1, 1)
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
        complete_noncatastrophic(partial, skel, asg, max_candidates=50)


def test_witness_is_walked_only_when_read(monkeypatch):
    import qconvenc.catastrophic as cat

    edges = []
    real = cat._encoder_edge
    monkeypatch.setattr(cat, "_encoder_edge", lambda *args: edges.append(args) or real(*args))
    v = is_noncatastrophic(TOY_CNOT, 1, 1, 1)
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
    basis = gf2.nullspace(funcs, 2 * m)
    while True:
        image = gf2.row_reduce(gf2.matmul(basis, ts))[0]
        if len(image) == len(basis):
            break
        basis = image
    for b, lb in zip(basis, gf2.matmul(basis, ls)):
        if lb:
            return b, ts
    return None


def _recorded_leaves(code, **kwargs):
    """Every leaf of the completion search for `code`, as its rows with the
    state its check returned, and the search's outcome (the synthesis, or
    the exhaustion error).  Leaves are recorded as `_cycle_states` decides
    them; the rows of each node come from its `_leaf_images` call."""
    import qconvenc.catastrophic as cat

    leaves, node = [], []
    real_images, real_states = cat._leaf_images, cat._cycle_states

    def images(coeffs, rows):
        node[:] = rows
        return real_images(coeffs, rows)

    def states(images, varying, candidates, n, k, m, memo):
        rows, w = list(node), m + n
        if varying:
            # a last-level node: its leaves add a row for the last direction,
            # the first canonical memory X or Z outside the node's inputs
            inputs = [ri for ri, _ in rows]
            memory = [1 << q for q in range(m)] + [1 << (w + q) for q in range(m)]
            u = next(d for d in memory if not gf2.in_span(inputs, d))
        for v, found in zip(candidates, real_states(images, varying, candidates, n, k, m, memo)):
            leaves.append((rows + [(u, v)] if varying else rows, found))
            yield found

    with mock.patch.object(cat, "_leaf_images", images), mock.patch.object(cat, "_cycle_states", states):
        try:
            outcome = synthesize_encoder(code, **kwargs)
        except CompletionSearchExhausted as exc:
            outcome = exc
    return leaves, outcome


def _assert_leaves_match_one_leaf_checks(code, leaves):
    n, k = code.n, code.k
    m = assign_memory(skeleton_commutation_matrix(build_skeleton(code))).m
    reads = [1 << i for i in _encoder_reads(n, k, m)]
    for rows, found in leaves:
        # the images the leaf check reads, combined afresh from the leaf's rows
        coeffs = _combinations([ri for ri, _ in rows], reads, m + n)
        want = encoder_cycle_state(gf2.matmul(coeffs, [ro for _, ro in rows]), n, k, m)
        assert (found is None) == (want is None)
        if found is not None:
            assert found[0] == want[0] and list(found[1]) == list(want[1])


# small codes whose canonical assignment leaves memory directions free, so
# that their searches reject catastrophic leaves before accepting one
FREE_DIRECTION_CODES = ["n=2\nZX|ZI\n", "n=3\nIZI|IZX\n", "n=2\nYZ|YZ|XX\n"]


@pytest.mark.parametrize("text", ["gr", *FREE_DIRECTION_CODES])
def test_leaf_check_matches_full_completion(text):
    # the leaf check reads only the rows a leaf fixes; a full completion of
    # those rows, inverted, must give the same verdict and witness state
    code = GR_CODE if text == "gr" else parse_code(text)
    leaves, outcome = _recorded_leaves(code, max_candidates=400)
    if text == "gr":
        assert isinstance(outcome, CompletionSearchExhausted) and len(leaves) == 400
    else:
        assert outcome.verdict.non_catastrophic and len(leaves) > 1
    n, k = code.n, code.k
    m = assign_memory(skeleton_commutation_matrix(build_skeleton(code))).m
    rejected = 0
    for rows, found in leaves:
        want = _cycle_state_of_inverse(complete_to_symplectic(PartialMap(m + n, tuple(rows))).inverse(), n, k, m)
        assert (found is None) == (want is None)
        if found is not None:
            assert found[0] == want[0] and list(found[1]) == list(want[1])
            rejected += 1
    # every leaf but an accepted last one is catastrophic
    accepted = 0 if text == "gr" else 1
    assert rejected == len(leaves) - accepted > 0
    # and deciding siblings together changes no leaf's state
    _assert_leaves_match_one_leaf_checks(code, leaves)


@settings(max_examples=300, deadline=None)
@given(SMALL_GENERATORS)
def test_sibling_leaves_match_one_leaf_checks_on_small_codes(drawn):
    n, lines = drawn
    try:
        code = parse_code(f"n={n}\n" + "".join(line + "\n" for line in lines))
    except (ParseError, CodeValidationError):
        return
    try:
        leaves, _ = _recorded_leaves(code, max_candidates=200)
    except InputDataError:  # dependent last frames: refused before any search
        return
    event("one leaf" if len(leaves) == 1 else "several leaves")
    _assert_leaves_match_one_leaf_checks(code, leaves)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(1, 3), st.randoms(use_true_random=False))
def test_cycle_states_match_one_leaf_checks_on_any_images(n, k, m, rnd):
    # any images, any rows that vary, any candidates: every state must be
    # the one computed afresh, and one memo serves every call
    k = min(k, n - 1)
    w, reads = m + n, 2 * m + n - k
    memo = {}
    for _ in range(3):
        images = [rnd.getrandbits(2 * w) for _ in range(reads)]
        varying = sorted(rnd.sample(range(reads), rnd.randint(0, reads)))
        candidates = [rnd.getrandbits(2 * w) for _ in range(rnd.randint(1, 6))] if varying else [0]
        for v, found in zip(candidates, _cycle_states(images, varying, candidates, n, k, m, memo)):
            want = encoder_cycle_state([y ^ v if i in varying else y for i, y in enumerate(images)], n, k, m)
            assert (found is None) == (want is None)
            if found is not None:
                assert found[0] == want[0] and list(found[1]) == list(want[1])


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
        assert syn.verdict == is_noncatastrophic(syn.circuit, syn.code.n, syn.code.k, syn.memory)
    calls.clear()
    with pytest.raises(CompletionSearchExhausted):
        synthesize_encoder(GR_CODE, max_candidates=50)
    assert calls == []


def test_exhausted_search_reports_its_count():
    with pytest.raises(CompletionSearchExhausted) as info:
        synthesize_encoder(GR_CODE, max_candidates=50)
    assert (info.value.tried, info.value.budget) == (50, 50)
    assert "within 50 candidates" in str(info.value)
