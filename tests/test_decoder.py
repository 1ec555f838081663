"""Encoded logical operators, streaming decoder derivation, round trips."""

import dataclasses
import itertools
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from qconvenc import (
    CliffordCircuit,
    ConvolutionalCode,
    FramedPauliSequence,
    MemoryAssignment,
    PauliOperator,
    SymplecticMap,
    circuit_to_symplectic,
    circuit_to_text,
    parse_code,
    synthesize_encoder,
    tensor,
)
from qconvenc.decoder import (
    _propagate,
    build_decoder_skeleton,
    derive_online_decoder,
    encoded_logical_operators,
    windowed_roundtrip_failures,
)
from qconvenc.errors import (
    InputDataError,
    MapConsistencyError,
    OrbitError,
    QconvError,
    SkeletonInconsistencyError,
)
from qconvenc.library import FGG_CODE, FGG_DECODER_MEMORY_CHOICE
from qconvenc.skeleton import Chain, check_assignment, minimal_memory

from conftest import random_circuit, random_symplectic
from oracles import anticommuting_pairs, roundtrip_by_launch, skeleton_rows, sp_at_shift

P = PauliOperator.from_string


def test_encoded_logicals_of_reference_encoder(fgg_reference_encoder):
    logs = encoded_logical_operators(fgg_reference_encoder, FGG_CODE)
    assert len(logs) == 1
    ex, ez = logs[0]
    assert ex.to_string() == "YIZ|XZY"
    assert ez.to_string() == "ZYI|XZY"


def test_non_closing_orbit_stops_after_2m_zero_input_steps(
    monkeypatch, catastrophic_code, catastrophic_encoder_map
):
    # ker T^j of the zero-input step T stops growing by j = 2m, so 2m steps
    # decide an orbit without walking the 4^m memory states
    calls = []
    real = SymplecticMap.step
    monkeypatch.setattr(SymplecticMap, "step", lambda self, *args: calls.append(args) or real(self, *args))
    n = catastrophic_code.n
    m = catastrophic_encoder_map.width - n
    with pytest.raises(OrbitError, match="^memory orbit of IZ never closes; stuck at X$"):
        _propagate(catastrophic_encoder_map, n, P("IZ"))
    assert len(calls) <= 2 * m + 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.randoms(use_true_random=False))
def test_orbit_bound_matches_walking_every_memory_state(n, m, rnd):
    smap = random_symplectic(m + n, rnd)
    for fed in [1 << q for q in range(2 * n)]:
        # oracle: step with zero input until the memory clears, up to 4^m times
        frame, mem = smap.step(n, 0, fed)
        frames = [frame]
        for _ in range(1 << (2 * m)):
            if not mem:
                break
            frame, mem = smap.step(n, mem, 0)
            frames.append(frame)
        inp = PauliOperator.from_vec(n, fed)
        if mem:
            event("never closes")
            with pytest.raises(OrbitError):
                _propagate(smap, n, inp)
        else:
            event("closes")
            want = tuple(PauliOperator.from_vec(n, f) for f in frames)
            assert _propagate(smap, n, inp) == FramedPauliSequence(n, want)


def test_encoded_logicals_commute_with_generators(fgg_reference_encoder):
    logs = encoded_logical_operators(fgg_reference_encoder, FGG_CODE)
    ex, ez = logs[0]
    # at every relative shift, both ways
    for gen in FGG_CODE.generators:
        for shift in range(4):
            assert sp_at_shift(ex, gen, shift) == 0
            assert sp_at_shift(gen, ex, shift) == 0
            assert sp_at_shift(ez, gen, shift) == 0
            assert sp_at_shift(gen, ez, shift) == 0
    # and the pair anticommutes at shift 0 like any conjugated (X, Z)
    assert sp_at_shift(ex, ez, 0) == 1


def test_memoryless_identity_encoder_logicals():
    code = ConvolutionalCode(1, ())  # k = n = 1: no stabilizer, all info
    logs = encoded_logical_operators(SymplecticMap.identity(1), code)
    assert len(logs) == 1
    ex, ez = logs[0]
    assert ex.to_string() == "X" and ez.to_string() == "Z"


def test_decoder_skeleton_bracket_pattern(fgg_decoder):
    # four unknowns; anticommuting pairs exactly {(1,2),(1,4),(2,4),(3,4)}
    mat = fgg_decoder.matrix
    assert len(mat) == 4
    assert anticommuting_pairs(mat) == [(0, 1), (0, 3), (1, 3), (2, 3)]


def test_decoder_skeleton_rows(fgg_decoder):
    skel = fgg_decoder.skeleton
    assert skel.direction == "decoder"
    # two logical chains and two stabilizer chains, each spanning 2 frames
    assert len(skel.chains) == 4
    assert all(c.span == 2 for c in skel.chains)
    assert len(skeleton_rows(skel)) == 8


def test_decoder_memory_is_two(fgg_decoder):
    assert minimal_memory(fgg_decoder.matrix) == 2
    assert fgg_decoder.memory == 2


def test_no_single_qubit_decoder_memory(fgg_decoder):
    # exhaustive: no four one-qubit Paulis satisfy the bracket pattern
    mat = fgg_decoder.matrix
    singles = [PauliOperator(1, x, z) for x in range(2) for z in range(2)]
    for combo in itertools.product(singles, repeat=4):
        ok = all(
            combo[i].sp(combo[j]) == (mat[i] >> j) & 1
            for i in range(4)
            for j in range(i + 1, 4)
        )
        assert not ok


def test_published_memory_choice_accepted(fgg_decoder):
    choice = MemoryAssignment(2, FGG_DECODER_MEMORY_CHOICE)
    assert check_assignment(fgg_decoder.matrix, choice) is None


def test_decoder_noncatastrophic(fgg_decoder):
    assert fgg_decoder.verdict.non_catastrophic
    assert fgg_decoder.verdict.direction == "decoder"


def test_decoder_with_published_choice(fgg_reference_encoder):
    dec = derive_online_decoder(
        FGG_CODE,
        fgg_reference_encoder,
        assignment=MemoryAssignment(2, FGG_DECODER_MEMORY_CHOICE),
    )
    assert dec.memory == 2
    assert dec.verdict.non_catastrophic


@pytest.mark.parametrize("ops, error, message", [
    # FGG's four decoder operators plus ZZ: one more than the requirement has
    (("XX", "ZX", "IX", "IZ", "ZZ"), InputDataError, "assignment size differs from the requirement"),
    # slots 1 and 2 must anticommute
    (("XX", "XX", "IX", "IZ"), MapConsistencyError, "memory operators 1 and 2 violate the required product"),
    # FGG's choice with its fourth operator one wire too wide, and its second one too narrow
    (("XX", "ZX", "IX", "IZZ"), InputDataError, "memory operator 4 has width 3, not the assignment's m = 2"),
    (("XX", "Z", "IX", "IZ"), InputDataError, "memory operator 2 has width 1, not the assignment's m = 2"),
], ids=["extra operator", "violated product", "wide operator", "narrow operator"])
def test_decoder_checks_a_given_assignment(fgg_reference_encoder, ops, error, message):
    bad = MemoryAssignment(2, tuple(P(s) for s in ops))
    with pytest.raises(error, match=f"^{message}$") as raised:
        derive_online_decoder(FGG_CODE, fgg_reference_encoder, assignment=bad)
    # a fault of the input, raised as the package's own error type
    assert isinstance(raised.value, QconvError)


def test_windowed_roundtrip(fgg_reference_encoder, fgg_decoder):
    for nframes in range(1, 5):
        fails = windowed_roundtrip_failures(fgg_reference_encoder, fgg_decoder, nframes)
        assert fails == [], nframes


def test_windowed_roundtrip_synthesized(fgg_synthesis):
    dec = derive_online_decoder(FGG_CODE, fgg_synthesis.circuit)
    fails = windowed_roundtrip_failures(fgg_synthesis.circuit, dec, 3)
    assert fails == []


def test_encoder_then_decoder_is_delayed_identity(fgg_reference_encoder, fgg_decoder):
    # streaming the encoder and then the decoder over a window returns
    # every unencoded input, delayed by its span minus one frames on the
    # info/ancilla wires; checked here for 3 frames via the round-trip
    # helper plus an explicit logical probe through the frame maps
    enc = circuit_to_symplectic(fgg_reference_encoder)
    dec = circuit_to_symplectic(fgg_decoder.circuit)
    assert windowed_roundtrip_failures(fgg_reference_encoder, fgg_decoder, 3) == []
    assert enc.width == 1 + 3 and dec.width == 2 + 3
    mem_e, mem_d, decoded = P("I"), P("II"), []
    for fed in (P("IIX"), P("III"), P("III")):  # logical X at frame 1
        out = enc.apply(tensor(mem_e, fed))
        mem_e = out.part(3, 4)
        out = dec.apply(tensor(mem_d, out.part(0, 3)))
        mem_d = out.part(3, 5)
        decoded.append(out.part(0, 3))
    assert decoded == [P("III"), P("IIX"), P("III")]  # span 2: out at frame 2
    assert mem_e.is_identity() and mem_d.is_identity()


def _drop_gate(circuit: CliffordCircuit, i: int) -> CliffordCircuit:
    return CliffordCircuit(circuit.width, circuit.gates[:i] + circuit.gates[i + 1:])


def _with_circuit(decoder, circuit: CliffordCircuit):
    """The decoder result with its circuit, and the map it stores, replaced."""
    return dataclasses.replace(decoder, circuit=circuit, map=circuit_to_symplectic(circuit))


def test_windowed_roundtrip_catches_dropped_decoder_gate(fgg_reference_encoder, fgg_decoder):
    # a round trip that cannot fail proves nothing.  Not every deletion is
    # visible: a trailing gate that only moves Z content onto syndrome
    # wires is tolerated by contract, so probe the first and a middle gate
    gates = fgg_decoder.circuit.gates
    for i in (0, len(gates) // 2):
        broken = _with_circuit(fgg_decoder, _drop_gate(fgg_decoder.circuit, i))
        fails = windowed_roundtrip_failures(fgg_reference_encoder, broken, 3)
        assert fails, (i, gates[i])


def test_windowed_roundtrip_catches_dropped_encoder_gate(fgg_reference_encoder, fgg_decoder):
    # every gate of the published 14-gate encoder matters to the round trip
    gates = fgg_reference_encoder.gates
    for i in range(len(gates)):
        broken = _drop_gate(fgg_reference_encoder, i)
        fails = windowed_roundtrip_failures(broken, fgg_decoder, 3)
        assert fails, (i, gates[i])


def _with_stabilizer_chain(decoder, chain: Chain):
    """The decoder result with its first stabilizer chain replaced."""
    chains = list(decoder.skeleton.chains)
    chains[2 * decoder.code.k] = chain
    return dataclasses.replace(decoder, skeleton=dataclasses.replace(decoder.skeleton, chains=tuple(chains)))


def test_windowed_roundtrip_reads_its_contract_off_the_decoder_skeleton(fgg_reference_encoder, fgg_decoder):
    # the probes and spans are the decoder skeleton's chains, not the
    # code's generators: the published decoder breaks the first stabilizer
    # chain stretched by one frame, or decoding to another target
    chain = fgg_decoder.skeleton.chains[2]
    assert chain.label == "stabilizer 1" and chain.outputs == (P("III"), P("ZII"))
    longer = Chain(chain.label, chain.inputs + (P("III"),), (P("III"),) + chain.outputs)
    retargeted = Chain(chain.label, chain.inputs, (P("III"), P("XII")))
    assert windowed_roundtrip_failures(fgg_reference_encoder, fgg_decoder, 4) == []
    for changed, fault in ((longer, "syndrome at frame"), (retargeted, "X content")):
        fails = windowed_roundtrip_failures(fgg_reference_encoder, _with_stabilizer_chain(fgg_decoder, changed), 4)
        assert fails and all(f.startswith("ancilla Z 1 frame ") and fault in f for f in fails), fails



def test_roundtrip_streamed_once_matches_streaming_every_launch(fgg_reference_encoder, fgg_decoder):
    # one stream per probe against the whole window streamed once per
    # launch frame: the published pair, every one-gate deletion of either
    # circuit and seeded random decoder maps, at every window up to 7
    enc, dec = fgg_reference_encoder, fgg_decoder
    pairs = [(enc, dec)]
    pairs += [(_drop_gate(enc, i), dec) for i in range(len(enc.gates))]
    pairs += [(enc, _with_circuit(dec, _drop_gate(dec.circuit, i)))
              for i in range(len(dec.circuit.gates))]
    rng = random.Random(31)
    pairs += [(enc, _with_circuit(dec, random_circuit(5, 40, rng))) for _ in range(20)]
    seen = []
    for e, d in pairs:
        for nframes in range(1, 8):
            want = roundtrip_by_launch(FGG_CODE, e, d, nframes)
            assert windowed_roundtrip_failures(e, d, nframes) == want, nframes
            seen += want
    # every fault kind shows up
    for fault in ("memory not restored", "info at frame", "X content", "syndrome at frame"):
        assert any(fault in f for f in seen), fault


def _draw_small_code(rng: random.Random) -> str:
    """A random code text: n in {2, 3}, 1 to n generators of span 1 to 3."""
    n = rng.choice((2, 3))
    gens = ["|".join("".join(rng.choice("IXYZ") for _ in range(n)) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, n))]
    return f"n={n}\n" + "".join(g + "\n" for g in gens)


def test_decoder_census_of_random_small_codes():
    # the first 40 seeded random codes that synthesize: each decoder is
    # non-catastrophic and round-trips over N = 12, or fails with dependent
    # rows (none is left) or a forced boundary product.  Split by the
    # encoder's memory: a memoryless encoder is a block code in effect
    from test_catastrophic import brute_force_noncatastrophic

    rng = random.Random(11)
    outcomes = ("round trip empty", "dependent rows", "boundary product")
    strata = {"m = 0": dict.fromkeys(outcomes, 0), "m >= 1": dict.fromkeys(outcomes, 0)}
    draws = accepted = 0
    while accepted < 40:
        draws += 1
        try:
            code = parse_code(_draw_small_code(rng))
            encoder = synthesize_encoder(code, max_candidates=200)
        except QconvError:
            continue
        accepted += 1
        tally = strata["m = 0" if encoder.memory == 0 else "m >= 1"]
        try:
            decoder = derive_online_decoder(code, encoder.circuit)
        except MapConsistencyError as exc:
            assert str(exc) == "input rows are linearly dependent", code
            tally["dependent rows"] += 1
            continue
        except SkeletonInconsistencyError as exc:
            assert str(exc).startswith("boundary product "), code
            tally["boundary product"] += 1
            continue
        assert decoder.verdict.non_catastrophic, code
        assert brute_force_noncatastrophic(decoder.map, code.n, code.k, decoder.memory, "decoder"), code
        assert windowed_roundtrip_failures(encoder.circuit, decoder, 12) == [], code
        tally["round trip empty"] += 1
    # a chain's leading identity frames keep the memory at the identity, so
    # no row is dependent; a decoder skeleton that mends the forced boundary
    # product moves these counts
    totals = {o: sum(t[o] for t in strata.values()) for o in outcomes}
    assert (draws, totals) == (178, {"round trip empty": 35, "dependent rows": 0, "boundary product": 5})
    # all 22 memoryless encoders' decoders round-trip; of the 18 encoders
    # with memory, 13 decoders do
    assert strata == {
        "m = 0": {"round trip empty": 22, "dependent rows": 0, "boundary product": 0},
        "m >= 1": {"round trip empty": 13, "dependent rows": 0, "boundary product": 5},
    }


def test_leading_identity_frames_hold_no_memory_slot():
    # the encoder for n=2 / ZY|XZ emits the identity in the first frame of
    # its logical Z, so the decoder chain's first row consumes and emits the
    # identity: it holds no unknown and gives no row, and the decoder that
    # is left round-trips like one that streams every launch
    from test_catastrophic import brute_force_noncatastrophic

    code = parse_code("n=2\nZY|XZ\n")
    encoder = synthesize_encoder(code, max_candidates=200).circuit
    skel = build_decoder_skeleton(encoded_logical_operators(encoder, code), code)
    assert [c.lead for c in skel.chains] == [0, 1, 0]
    assert (2, 1) not in skel.unknowns()
    decoder = derive_online_decoder(code, encoder)
    assert decoder.verdict.non_catastrophic
    assert brute_force_noncatastrophic(decoder.map, code.n, code.k, decoder.memory, "decoder")
    for nframes in range(1, 9):
        assert windowed_roundtrip_failures(encoder, decoder, nframes) == []
        assert roundtrip_by_launch(code, encoder, decoder, nframes) == []


def test_decoder_refuses_encoders_that_do_not_realize_the_code():
    # none of these maps realizes FGG, so each is refused as input before
    # its logicals are streamed or its decoder rows built
    for seed in range(300):
        rng = random.Random(seed)
        m = rng.randint(1, 2)
        with pytest.raises(InputDataError, match="^input circuit does not realize the code: "):
            derive_online_decoder(FGG_CODE, random_symplectic(m + 3, rng))


FGG_DECODER_TEXT = """\
# width: 5
H 5
H 5
H 4
CZ 4 5
H 4
H 3
CZ 3 5
CNOT 3 4
P 3
H 3
P 3
CZ 3 4
CNOT 3 5
CNOT 3 4
H 2
H 2
CNOT 2 3
H 2
H 1
P 1
CZ 1 3
CNOT 1 3
P 1
H 1
SWAP 2 1
CNOT 2 3
"""


def test_fgg_decoder_gate_list_is_pinned(fgg_decoder):
    # the online decoder of the published FGG encoder, gate for gate
    assert circuit_to_text(fgg_decoder.circuit) == FGG_DECODER_TEXT
