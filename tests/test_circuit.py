"""Clifford gates, circuit/text/JSON round trips, symplectic matrices.

Gate conjugation is checked against an independent single/two-qubit truth
table; everything else layers on that.
"""

import ast
import json
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qconvenc
from qconvenc import (
    CliffordCircuit,
    CliffordGate,
    PauliOperator,
    SymplecticMap,
    circuit_from_json,
    circuit_to_json,
    circuit_to_symplectic,
    circuit_to_text,
    parse_circuit,
    wire_roles,
)
from qconvenc.circuit import MAX_WIDTH, gram
from qconvenc.errors import ParseError
from qconvenc.library import FGG_ENCODER, FGG_ENCODER_TEXT

from conftest import random_circuit
from oracles import compose, fgg_transformation_rows, symplectic_by_rows

P = PauliOperator.from_string

# independent conjugation tables, phases dropped
H_TABLE = {"I": "I", "X": "Z", "Z": "X", "Y": "Y"}
P_TABLE = {"I": "I", "X": "Y", "Z": "Z", "Y": "X"}
CNOT_TABLE = {  # (control, target) -> (control, target)
    "II": "II", "IX": "IX", "IZ": "ZZ", "IY": "ZY",
    "XI": "XX", "XX": "XI", "XZ": "YY", "XY": "YZ",
    "ZI": "ZI", "ZX": "ZX", "ZZ": "IZ", "ZY": "IY",
    "YI": "YX", "YX": "YI", "YZ": "XY", "YY": "XZ",
}


def czc(a: str, b: str) -> str:
    # CZ = H on target, CNOT, H on target
    a2, b2 = CNOT_TABLE[a + H_TABLE[b]]
    return a2 + H_TABLE[b2]


def gate_map(kind, qubits, width):
    """The map of the one-gate circuit of this width."""
    return circuit_to_symplectic(CliffordCircuit(width, (CliffordGate(kind, qubits),)))


def test_single_qubit_gate_tables():
    for letter in "IXYZ":
        assert gate_map("H", (1,), 1).apply(P(letter)) == P(H_TABLE[letter])
        assert gate_map("P", (1,), 1).apply(P(letter)) == P(P_TABLE[letter])


def test_two_qubit_gate_tables():
    for a in "IXYZ":
        for b in "IXYZ":
            pair = P(a + b)
            assert gate_map("CNOT", (1, 2), 2).apply(pair) == P(CNOT_TABLE[a + b])
            assert gate_map("CZ", (1, 2), 2).apply(pair) == P(czc(a, b))
            assert gate_map("SWAP", (1, 2), 2).apply(pair) == P(b + a)


def test_gates_act_on_named_wires_only():
    # control 3 carries X -> X spreads to target 1; wire 5 untouched
    assert gate_map("CNOT", (3, 1), 5).apply(P("IIXIY")) == P("XIXIY")
    assert gate_map("H", (2,), 5).apply(P("IXIII")) == P("IZIII")


def test_gate_wider_than_pauli_is_rejected():
    # on packed vectors qubit 3 of a width-2 Pauli would alias a Z bit
    with pytest.raises(ValueError, match="pauli width 2 does not match map width 3"):
        gate_map("H", (3,), 3).apply(P("ZI"))


def test_double_hadamard_is_identity():
    c = CliffordCircuit(1, (CliffordGate("H", (1,)), CliffordGate("H", (1,))))
    m = circuit_to_symplectic(c)
    assert m == SymplecticMap.identity(1)


def test_apply_circuit_matches_matrix_route():
    rng = random.Random(20)
    for _ in range(30):
        w = rng.randrange(1, 6)
        circ = random_circuit(w, 20, rng)
        m = symplectic_by_rows(circ)
        p = PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w))
        assert circuit_to_symplectic(circ).apply(p) == m.apply(p)
        assert m.is_symplectic()


def _gates(width: int):
    """Gates of every kind that fits `width` qubits."""
    qubit = st.integers(1, width)
    one = st.builds(lambda kind, q: CliffordGate(kind, (q,)), st.sampled_from(["H", "P"]), qubit)
    if width < 2:
        return one
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True).map(tuple)
    return one | st.builds(CliffordGate, st.sampled_from(["CNOT", "CZ", "SWAP"]), pair)


CIRCUITS = st.integers(0, 12).flatmap(
    lambda w: st.lists(_gates(max(w, 1)), max_size=40 if w else 0).map(
        lambda gates: CliffordCircuit(w, tuple(gates))
    )
)


@settings(max_examples=300, deadline=None)
@given(CIRCUITS)
def test_column_kernel_matches_the_row_by_row_oracle(circuit):
    smap = circuit_to_symplectic(circuit)
    assert smap == symplectic_by_rows(circuit)
    assert smap.is_symplectic()


def test_gr_encoder_map_matches_the_row_by_row_oracle(gr_synthesis):
    # the 47-gate published-rows encoder realizes the completed map
    circuit = gr_synthesis.circuit
    assert circuit.width == 10 and len(circuit) == 47
    assert circuit_to_symplectic(circuit) == symplectic_by_rows(circuit) == gr_synthesis.map


def _callers(name):
    """(module, function) for every call of `name` in the package, as a
    plain name or an attribute."""
    callers = []
    for path in sorted(Path(qconvenc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                ]
    return callers


def _parameters():
    """(module, function, parameter names) for every function and method in
    the package."""
    for path in sorted(Path(qconvenc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                yield path.stem, fn.name, {a.arg for a in args}


def test_no_function_takes_the_memory_size_beside_a_map():
    # a map's memory size is its width less the frame: a separate m could
    # disagree with it
    maps = {"c", "smap", "inv", "encoder", "circuit"}
    params = list(_parameters())
    # guards against a parse that finds nothing, which would pass vacuously
    assert any("m" in names for _, _, names in params) and any(names & maps for _, _, names in params)
    assert [(mod, fn) for mod, fn, names in params if "m" in names and names & maps] == []


def test_only_the_circuit_helpers_and_synthesis_check_multiply_out_a_circuit():
    # the encoder and decoder results keep the map they completed
    assert _callers("circuit_to_symplectic") == [
        ("circuit", "as_symplectic"), ("synthesis", "synthesize_circuit")]


def test_gates_are_applied_only_by_the_column_update():
    # one way to apply a gate: a row-by-row loop over `_flips` in the
    # package would show up here as a second caller
    assert _callers("_flips") == [("circuit", "_conjugate")]


def test_maps_are_fed_frame_by_frame_only_by_stream():
    # one loop over `SymplecticMap.step`; the catastrophicity graph probes
    # one step from each memory state, which is no stream
    assert _callers("step") == [("catastrophic", "_decoder_edge"), ("circuit", "stream")]


def test_the_unobservable_subspace_has_one_loop():
    # V's Krylov loop lives in `_unobservable`, the one reader of a kernel
    # off its functionals, and only the leaf checks of the two directions
    # call it: the V and P of an encoder dynamics, for the verdicts and the
    # search's nodes, and the decoder's check; the solvers read the kernel
    # of a linear system, no V, and the partner systems the complement off
    # the kernel of theirs
    assert _callers("_unobservable") == [("catastrophic", "_subspaces"), ("catastrophic", "_decoder_cycle_state")]
    assert _callers("_periodic_part") == [("catastrophic", "_subspaces"), ("catastrophic", "_decoder_cycle_state")]
    assert _callers("kernel") == [
        ("catastrophic", "_unobservable"), ("gf2", "solution_space"), ("gf2", "solutions"),
        ("synthesis", "_complete_side")]


def test_gf2_systems_have_one_solver():
    # the search's candidate outputs, a node's accepted leaf indices and
    # the symplectic partners are read off a reduction of a system, the
    # search's levels and the partners' off one they carry: its solution
    # space, or the lazy stream of its solutions in the same order, whose
    # first is the least one
    assert _callers("_least") == [("gf2", "solution_space"), ("gf2", "solutions")]
    assert _callers("solution_space") == [
        ("catastrophic", "_least_independent"), ("catastrophic", "complete_noncatastrophic"),
        ("catastrophic", "nodes")]
    assert _callers("solutions") == [
        ("catastrophic", "complete_noncatastrophic"), ("catastrophic", "nodes"), ("synthesis", "_complete_side")]
    assert not hasattr(qconvenc.gf2, "solve") and not hasattr(qconvenc.catastrophic, "_solutions")
    # and no solver that reduces a system afresh is left without a caller
    assert not hasattr(qconvenc.gf2, "_particular") and not hasattr(qconvenc.gf2, "nullspace")
    assert not hasattr(qconvenc.synthesis, "_solve_partner")


def test_the_decoding_tables_have_one_builder():
    # a code's trellis and automaton are built only by the cached builder
    # that every simulator of the code shares
    assert _callers("_build_trellis") == [("simulate", "_code_tables")]
    assert _callers("_build_automaton") == [("simulate", "_build_trellis")]
    assert _callers("_code_tables") == [("simulate", "__init__")]


def test_one_forward_tie_break_step():
    # the automaton's walk tables and the batched pass commit a frame's
    # key by one forward step, the one home of the commit rule
    assert _callers("_forward") == [
        ("simulate", "_build_automaton"), ("simulate", "walk"), ("simulate", "_viterbi_nonzero")]
    commits = []
    for path in sorted(Path(qconvenc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                commits += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "at"
                    and getattr(node.value, "attr", None) == "minimum"
                ]
    assert commits == [("simulate", "_forward")]


def test_a_simulate_block_has_one_loop_over_response_lags():
    # the syndrome, the failure test and the low-weight table's chunk rows
    # are lookups in `_response` tables, XORed over the lags by one
    # helper; the failure test's tables are
    # built once per process per encoder map and window
    assert _callers("_response") == [("simulate", "_code_tables"), ("simulate", "_launches")]
    assert _callers("_launches") == [("simulate", "failure_block")]
    assert _callers("_lagged") == [
        ("simulate", "_window_table"), ("simulate", "syndrome_block"), ("simulate", "failure_block")]


def test_the_low_weight_table_has_one_lookup():
    # the block lookup and the split lookup search the sorted table by one
    # helper, the one binary search in the package
    assert _callers("_lookup") == [("simulate", "_viterbi_batched"), ("simulate", "_viterbi_batched")]
    searches = []
    for path in sorted(Path(qconvenc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                searches += [
                    (path.stem, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Attribute) and node.attr == "searchsorted"
                ]
    assert searches == [("simulate", "_lookup")]


def test_only_synthesis_builds_the_encoder_skeleton():
    # check reads the requirement off the operators it verified
    assert _callers("build_skeleton") == [("pipeline", "synthesize_encoder")]


def test_one_gram_schmidt_and_the_requirement_is_its_gram_rows():
    # memory assignment and map completion share one symplectic
    # Gram–Schmidt, and the requirement it reads is a tuple of Gram rows
    assert _callers("symplectic_gram_schmidt") == [
        ("skeleton", "assign_memory"), ("synthesis", "complete_to_symplectic")]
    for path in sorted(Path(qconvenc.__file__).parent.glob("*.py")):
        # names, attributes, imports, definitions and `__all__` strings
        names = {getattr(node, key, None) for node in ast.walk(ast.parse(path.read_text()))
                 for key in ("id", "attr", "name", "value")}
        assert "CommutationRequirement" not in names, path.stem


def test_only_synthesis_and_the_decoder_telescope_a_requirement():
    # skeleton, requirement, assignment, rows and the completion search,
    # in both directions: the one search completes the one map
    assert _callers("skeleton_commutation_matrix") == [("pipeline", "realize")]
    assert _callers("complete_noncatastrophic") == [("pipeline", "realize")]
    assert _callers("realize") == [("decoder", "derive_online_decoder"), ("pipeline", "synthesize_encoder")]
    assert _callers("complete_to_symplectic") == [("catastrophic", "complete_noncatastrophic")]


def test_is_symplectic_matches_pauli_products():
    # packed-row check against pairwise products of the rows as operators,
    # on symplectic maps and on copies with one bit flipped
    rng = random.Random(22)
    seen = set()
    for _ in range(300):
        w = rng.randrange(1, 5)
        rows = list(circuit_to_symplectic(random_circuit(w, 12, rng)).rows)
        if rng.random() < 0.5:
            rows[rng.randrange(2 * w)] ^= 1 << rng.randrange(2 * w)
        ops = [PauliOperator.from_vec(w, r) for r in rows]
        want = all(
            ops[i].sp(ops[j]) == (j - i == w) for i in range(2 * w) for j in range(i + 1, 2 * w)
        )
        assert SymplecticMap(w, tuple(rows)).is_symplectic() == want
        seen.add(want)
    assert seen == {True, False}


def test_gram_matches_pauli_products():
    rng = random.Random(23)
    for _ in range(100):
        w = rng.randrange(0, 5)
        ops = [PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w)) for _ in range(rng.randrange(0, 7))]
        rows = gram([op.vec() for op in ops], w)
        assert rows == [sum(a.sp(b) << j for j, b in enumerate(ops)) for a in ops]


def test_step_matches_tensor_apply_part():
    # memory on the first m input wires and the last m output wires
    rng = random.Random(24)
    for _ in range(100):
        n, m = rng.randrange(1, 4), rng.randrange(0, 4)
        smap = circuit_to_symplectic(random_circuit(m + n, 6 * (m + n), rng))
        mem = PauliOperator(m, rng.getrandbits(m), rng.getrandbits(m))
        frame = PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n))
        out = smap.apply(mem.tensor(frame))
        assert smap.step(n, mem.vec(), frame.vec()) == (out.part(0, n).vec(), out.part(n, n + m).vec())



@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3), st.integers(0, 3), st.randoms(use_true_random=False),
       st.lists(st.integers(0, 63), max_size=4), st.integers(0, 8))
def test_stream_is_the_step_loop_cut_where_the_memory_closes(n, m, rnd, frames, limit):
    smap = circuit_to_symplectic(random_circuit(m + n, 6 * (m + n), rnd))
    frames = [f & ((1 << (2 * n)) - 1) for f in frames]
    # oracle: step every frame in, then identity frames, for `limit` frames
    out, mems, mem = [], [], 0
    for t in range(limit):
        frame, mem = smap.step(n, mem, frames[t] if t < len(frames) else 0)
        out.append(frame)
        mems.append(mem)
    # the stream ends at the first frame count, all frames in, with identity memory
    end = next((c for c in range(len(frames), limit) if not (mems[c - 1] if c else 0)), limit)
    assert not any(out[end:] + mems[end:])  # past the end, everything is the identity
    assert smap.stream(n, frames, limit) == (out[:end], mems[:end])
    event("more frames than the limit" if len(frames) > limit else
          "cut by the limit, memory open" if end == limit else
          "closes after identity frames" if end > len(frames) else "closes as the last frame enters")


def test_stream_stops_where_the_memory_closes_and_at_the_limit(catastrophic_encoder_map):
    # FGG's first generator XXX|XZY, memory X then the identity, though
    # the limit allows five frames
    fgg = circuit_to_symplectic(FGG_ENCODER)
    assert fgg.stream(3, [P("ZII").vec()], 5) == ([P("XXX").vec(), P("XZY").vec()], [P("X").vec(), 0])
    # an orbit that never closes runs to the limit
    out, mems = catastrophic_encoder_map.stream(2, [P("IZ").vec()], 4)
    assert len(out) == 4 and all(mems)


def test_numpy_integer_vectors_give_the_python_int_images():
    # a numpy integer shifted past 63 bits wraps to 0 without a word, so
    # apply_vec and step take their vectors as Python ints before any shift
    rng = random.Random(41)
    for smap, n in ((circuit_to_symplectic(FGG_ENCODER), 3), (SymplecticMap.identity(40), 3)):
        m = smap.width - n
        for v in [8] + [rng.getrandbits(min(2 * smap.width, 63)) for _ in range(20)]:
            got = smap.apply_vec(np.int64(v))
            assert got == smap.apply_vec(v) and type(got) is int
        for mem, frame in [(0, 8)] + [(rng.getrandbits(min(2 * m, 63)), rng.getrandbits(2 * n)) for _ in range(20)]:
            assert smap.step(n, np.int64(mem), np.int64(frame)) == smap.step(n, mem, frame)
        frames = [rng.getrandbits(2 * n) for _ in range(4)]
        assert smap.stream(n, [np.int64(f) for f in frames], 6) == smap.stream(n, frames, 6)
        for call in (lambda: smap.apply_vec(1.0), lambda: smap.step(n, 0, 8.0), lambda: smap.step(n, 1.0, 0)):
            with pytest.raises(TypeError):
                call()


def test_compose_is_sequential_application():
    rng = random.Random(21)
    c1 = random_circuit(3, 15, rng)
    c2 = random_circuit(3, 15, rng)
    m = compose(circuit_to_symplectic(c1), circuit_to_symplectic(c2))
    p = P("XZY")
    assert m.apply(p) == circuit_to_symplectic(c2).apply(circuit_to_symplectic(c1).apply(p))


def test_reference_encoder_first_row():
    # feeding Z on the first ancilla wire emits the first-frame output XXX
    # and stores X in the memory wire
    out = circuit_to_symplectic(FGG_ENCODER).apply(P("IZII"))
    assert out == P("XXXX")


def test_reference_encoder_memory_row():
    # an X already in memory flushes as the second frame XZY
    out = circuit_to_symplectic(FGG_ENCODER).apply(P("XIII"))
    assert out == P("XZYI")


def test_reference_encoder_all_rows():
    for src, dst in fgg_transformation_rows():
        assert circuit_to_symplectic(FGG_ENCODER).apply(src) == dst


def test_inverse_recovers_encoder_input():
    inv = circuit_to_symplectic(FGG_ENCODER).inverse()
    assert inv.apply(P("XXXX")) == P("IZII")


def test_inverse_round_trip_random():
    rng = random.Random(22)
    for _ in range(20):
        m = circuit_to_symplectic(random_circuit(3, 24, rng))
        assert compose(m, m.inverse()) == SymplecticMap.identity(3)
        assert compose(m.inverse(), m) == SymplecticMap.identity(3)


def test_parse_render_round_trip():
    c = parse_circuit(FGG_ENCODER_TEXT)
    assert parse_circuit(circuit_to_text(c)) == c
    assert c.width == 4 and len(c) == 14


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_circuit("H 1 2\n")
    with pytest.raises(ParseError):
        parse_circuit("CNOT 1 1\n")
    with pytest.raises(ParseError):
        parse_circuit("FLIP 1\n")
    with pytest.raises(ParseError):
        parse_circuit("# width: 2\nH 5\n")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CliffordGate("T", (1,)), "unknown gate 'T'"),
        (lambda: parse_circuit("FLIP 1\n"), "unknown gate 'FLIP'"),
        (lambda: CliffordGate("CNOT", (1,)), "CNOT takes 2 qubit(s)"),
        (lambda: parse_circuit("H 1 2\n"), "H takes 1 qubit(s)"),
        (lambda: CliffordGate("H", (0,)), "qubit positions are 1-based"),
        (lambda: parse_circuit("CZ 2 0\n"), "qubit positions are 1-based"),
        (lambda: CliffordGate("SWAP", (2, 2)), "gate qubits must be distinct"),
        (lambda: parse_circuit("CNOT 1 1\n"), "gate qubits must be distinct"),
        (lambda: parse_circuit("# width: 2\nH 5\n"), "gate H 5 exceeds circuit width 2"),
        (lambda: circuit_from_json('{"width": 2, "gates": [["CNOT", 1, 3]]}'),
         "gate CNOT 1 3 exceeds circuit width 2"),
        (lambda: circuit_from_json('{"width": 2, "gates": [["H", true]]}'),
         "bad JSON gate ['H', True]: want [kind, qubit, ...]"),
        (lambda: circuit_from_json('{"width": 2, "gates": [["CZ", 1, 1.5]]}'),
         "bad JSON gate ['CZ', 1, 1.5]: want [kind, qubit, ...]"),
    ],
)
def test_gate_refusals_name_their_cause(build, message):
    with pytest.raises(ParseError) as exc:
        build()
    assert str(exc.value) == message


def test_json_round_trip_with_roles():
    roles_in, roles_out = wire_roles(3, 1, 1, "encoder")
    doc = circuit_to_json(FGG_ENCODER, roles_in, roles_out)
    parsed = json.loads(doc)
    assert parsed["width"] == 4
    assert parsed["input_roles"] == ["mem", "anc", "anc", "info"]
    assert parsed["output_roles"] == ["phys", "phys", "phys", "mem"]
    assert circuit_from_json(doc) == FGG_ENCODER


def test_wire_roles_both_directions():
    ins, outs = wire_roles(3, 1, 1, "encoder")
    assert ins == ["mem", "anc", "anc", "info"]
    assert outs == ["phys", "phys", "phys", "mem"]
    ins, outs = wire_roles(3, 1, 2, "decoder")
    assert ins == ["mem", "mem", "phys", "phys", "phys"]
    assert outs == ["anc", "anc", "info", "mem", "mem"]


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        '{"gates": []}',  # missing width
        '{"width": 3}',  # missing gates
        '{"width": "3", "gates": []}',
        '{"width": true, "gates": []}',
        '{"width": -1, "gates": []}',
        '{"width": 3, "gates": "H 1"}',
        '{"width": 3, "gates": [[]]}',
        '{"width": 3, "gates": [["H"]]}',
        '{"width": 3, "gates": [[1, 2]]}',
        '{"width": 3, "gates": [["H", "1"]]}',
        '{"width": 3, "gates": [["H", 1.0]]}',
        '{"width": 2, "gates": [["CNOT", 1, 3]]}',
        '{"width": 1000000000, "gates": []}',  # above MAX_WIDTH
    ],
)
def test_json_rejects_malformed(text):
    with pytest.raises(ParseError):
        circuit_from_json(text)


def test_declared_width_is_capped():
    # refused when the circuit is made, before any matrix is built
    assert CliffordCircuit(MAX_WIDTH, ()).width == MAX_WIDTH
    for text in ("# width: 1000000000\nH 1\n", f"# width: {MAX_WIDTH + 1}\n", f"H {MAX_WIDTH + 1}\n"):
        with pytest.raises(ParseError, match="exceeds the cap"):
            parse_circuit(text)
