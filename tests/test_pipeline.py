"""Code-to-encoder pipeline and independent re-verification of circuits."""

import dataclasses

import pytest

from qconvenc import (
    MemoryAssignment,
    is_noncatastrophic,
    PauliOperator,
    apply_circuit,
    parse_code,
    synthesize_encoder,
    verify_encoder,
)
from qconvenc import catastrophic
from qconvenc.circuit import CliffordCircuit, circuit_to_symplectic, circuit_to_text
from qconvenc.errors import InputDataError, MapConsistencyError
from qconvenc.library import FGG_CODE, GR_CODE, GR_COMPLETION_ROWS, GR_MEMORY_CHOICE
from qconvenc.skeleton import build_skeleton

from conftest import random_realized

P = PauliOperator.from_string


def test_results_keep_the_map_their_circuit_realizes(fgg_synthesis, gr_synthesis, fgg_decoder):
    for result in (fgg_synthesis, gr_synthesis, fgg_decoder):
        assert result.map == circuit_to_symplectic(result.circuit)
        assert result.map.width == result.memory + result.code.n


def test_results_refuse_a_circuit_replaced_without_its_map(fgg_synthesis, fgg_decoder):
    # a map left over from another circuit would be read in the circuit's place
    for result in (fgg_synthesis, fgg_decoder):
        wider = CliffordCircuit(result.circuit.width + 1, result.circuit.gates)
        with pytest.raises(ValueError, match="map width"):
            dataclasses.replace(result, circuit=wider)
        assert dataclasses.replace(result, circuit=wider, map=circuit_to_symplectic(wider)).circuit == wider


def test_rate_third_synthesis_end_to_end(fgg_synthesis):
    assert fgg_synthesis.memory == 1
    assert fgg_synthesis.verdict.non_catastrophic
    g1, g2 = fgg_synthesis.assignment.operators
    assert g1.sp(g2) == 1
    # the circuit must implement every forced row
    m = fgg_synthesis.map
    for (src, dst) in zip(
        [P("IZII"), P("IIZI")],
        [P("XXX").tensor(g1), P("ZZZ").tensor(g2)],
    ):
        assert m.apply(src) == dst
    assert m.apply(g1.tensor(P("III"))) == P("XZYI")
    assert m.apply(g2.tensor(P("III"))) == P("ZYXI")


def test_verify_encoder_accepts_reference(fgg_reference_encoder):
    asg = verify_encoder(FGG_CODE, fgg_reference_encoder)
    assert asg.m == 1
    assert [op.to_string() for op in asg.operators] == ["X", "Z"]


def test_verify_encoder_accepts_synthesized(fgg_synthesis):
    asg = verify_encoder(FGG_CODE, fgg_synthesis)
    assert asg.m == 1
    assert asg.operators == fgg_synthesis.assignment.operators


def test_verify_encoder_names_failing_row(fgg_reference_encoder):
    broken = CliffordCircuit(4, fgg_reference_encoder.gates[:-1])
    with pytest.raises(InputDataError) as err:
        verify_encoder(FGG_CODE, broken)
    assert "generator" in str(err.value) and "frame" in str(err.value)


def test_verify_encoder_rejects_narrow_circuit():
    with pytest.raises(InputDataError):
        verify_encoder(FGG_CODE, CliffordCircuit(2, ()))



def test_verify_encoder_orders_slots_as_the_skeleton():
    # the memory after frame t of generator a fills the skeleton's slot
    # (a, t); generators of different spans tell the frame-major order
    # from the generator-major one
    reordered = 0
    for shape in [(2, 0, 2), (3, 1, 2)]:
        for seed in range(20):
            code, smap = random_realized(*shape, seed)
            if len({gen.span for gen in code.generators}) < 2:
                continue
            n, m = code.n, smap.width - code.n
            after = {}
            for a, gen in enumerate(code.generators, 1):
                mem = 0
                for t in range(1, gen.span):
                    _, mem = smap.step(n, mem, 1 << (n + a - 1) if t == 1 else 0)
                    after[(a, t)] = PauliOperator.from_vec(m, mem)
            slots = build_skeleton(code).unknowns()
            reordered += slots != sorted(slots)
            assert verify_encoder(code, smap) == MemoryAssignment(m, tuple(after[s] for s in slots))
    assert reordered >= 5


def test_css_synthesis_with_reference_completion(gr_synthesis):
    assert gr_synthesis.memory == 6
    assert gr_synthesis.verdict.non_catastrophic
    asg = verify_encoder(GR_CODE, gr_synthesis.circuit)
    assert asg.m == 6
    assert asg.operators == GR_MEMORY_CHOICE


def test_explicit_assignment_is_checked():
    bad = MemoryAssignment(1, (P("X"), P("X")))
    with pytest.raises(MapConsistencyError):
        synthesize_encoder(FGG_CODE, assignment=bad)


@pytest.mark.parametrize("m, ops, message", [
    (1, ("XI", "IX"), "memory operator 1 has width 2, not the assignment's m = 1"),
    (2, ("X", "Z"), "memory operator 1 has width 1, not the assignment's m = 2"),
], ids=["wider than m", "narrower than m"])
def test_explicit_assignment_widths_are_checked(m, ops, message):
    # each passes the product check on its own width, so only the width check catches it
    with pytest.raises(InputDataError, match=f"^{message}$"):
        synthesize_encoder(FGG_CODE, assignment=MemoryAssignment(m, tuple(P(s) for s in ops)))


def test_completion_rows_width_checked():
    with pytest.raises(MapConsistencyError):
        synthesize_encoder(
            FGG_CODE,
            completion_rows=[(P("XX"), P("XX"))],  # width 2, needs 4
        )


def test_synthesized_encoder_streams_generators(fgg_synthesis):
    # run the circuit frame by frame on each generator launch and compare
    # the emitted stream with the generator, an independent route from the
    # row checks above
    circ = fgg_synthesis.circuit
    for a, gen in enumerate(FGG_CODE.generators, 1):
        mem = PauliOperator.identity(1)
        emitted = []
        for t in range(1, gen.span + 1):
            fed = P("ZII") if (t == 1 and a == 1) else (
                P("IZI") if (t == 1 and a == 2) else P("III")
            )
            out = apply_circuit(circ, mem.tensor(fed))
            emitted.append(out.part(0, 3))
            mem = out.part(3, 4)
        assert mem.is_identity()
        assert emitted == [gen.frame(t) for t in range(1, gen.span + 1)]


def test_default_pipeline_on_tiny_code():
    syn = synthesize_encoder(parse_code("n=2\nZZ|IZ\n"))
    assert syn.memory == 1
    assert syn.verdict.non_catastrophic
    verify_encoder(syn.code, syn.circuit)


# exact gate lists of the default syntheses: the search order, the
# completion and the gate synthesis all decide them, and none may drift
FGG_SYNTHESIS_TEXT = """\
# width: 4
H 4
P 4
H 4
P 4
H 3
CZ 3 4
H 3
SWAP 4 3
H 2
CNOT 2 4
CNOT 2 3
P 2
H 2
P 2
CZ 2 3
CNOT 2 3
P 2
H 1
P 1
CZ 1 2
CNOT 1 3
CNOT 1 2
H 1
P 1
CZ 1 3
CZ 1 2
CNOT 1 3
"""

TINY_SYNTHESIS_TEXT = """\
# width: 3
H 3
H 3
H 2
CZ 2 3
H 2
H 1
CZ 1 2
H 1
CNOT 1 2
"""


def test_fgg_synthesis_gate_list_is_pinned(fgg_synthesis):
    assert circuit_to_text(fgg_synthesis.circuit) == FGG_SYNTHESIS_TEXT


def test_tiny_code_synthesis_gate_list_is_pinned():
    syn = synthesize_encoder(parse_code("n=2\nZZ|IZ\n"))
    assert circuit_to_text(syn.circuit) == TINY_SYNTHESIS_TEXT


def test_synthesis_scans_the_state_graph_once(monkeypatch):
    # the completion search's leaf check is the exact linear-algebra test
    # and supplies the reported verdict: neither the 4^m state graph nor the
    # admissible subgroup is ever enumerated
    built = []

    def counting(name):
        real = getattr(catastrophic, name)
        return lambda *args, **kwargs: built.append(name) or real(*args, **kwargs)

    for name in ("zero_weight_graph", "subgroup_elements"):
        monkeypatch.setattr(catastrophic, name, counting(name))
    syn = synthesize_encoder(
        GR_CODE,
        assignment=MemoryAssignment(6, GR_MEMORY_CHOICE),
        completion_rows=GR_COMPLETION_ROWS,
    )
    assert built == []
    monkeypatch.undo()
    assert syn.verdict == is_noncatastrophic(syn.circuit, GR_CODE.n, GR_CODE.k)
