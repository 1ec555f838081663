"""Property tests for the inputs: any text either parses or is refused
with a documented input error, `info` on any code text, and `check`,
`derive-decoder` and `simulate` on any small circuit, exit with a
documented code, never with a stray exception, and `synthesize` on any
small code writes a verified non-catastrophic minimal-memory encoder
that `check` accepts, or exits with a documented code."""

import contextlib
import io
import json

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import CATASTROPHIC_CODE_TEXT, GATE_KINDS
from oracles import render_code
from qconvenc.catastrophic import is_noncatastrophic
from qconvenc.circuit import CliffordCircuit, CliffordGate, circuit_from_json, circuit_to_text, parse_circuit
from qconvenc.cli import main
from qconvenc.code import from_classical_polynomial, parse_code
from qconvenc.errors import CodeValidationError, ParseError
from qconvenc.library import FGG_CODE_TEXT, FGG_ENCODER, GR_CODE_TEXT
from qconvenc.pipeline import synthesize_encoder, verify_encoder
from qconvenc.synthesis import synthesize_circuit

# code files: header, generator and polynomial lines built from the
# format's own alphabet, so most lines get past the first character
_CODE_LINE = st.one_of(
    st.text(alphabet="IXYZ|", max_size=12),
    st.builds("n={}".format, st.integers(-2, 5)),
    st.builds("poly: {}".format, st.text(alphabet="1D^0123456789+, ", max_size=16)),
    st.text(max_size=12),
)
_CODE_TEXT = st.lists(_CODE_LINE, max_size=5).map("\n".join)

# a code of 1 to n generators on n <= 3 qubits per frame, each 1 to 3
# frames of Paulis (so some generators commute and some are refused)
_SMALL_CODE = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=1, max_size=3),
        min_size=1,
        max_size=n,
    ).map(lambda gens: f"n={n}\n" + "".join("|".join(g) + "\n" for g in gens))
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=True) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
_GATE = st.lists(st.sampled_from(["H", "P", "CNOT", "CZ", "SWAP", "X"]) | _JSON, max_size=4)
_CIRCUIT_DOC = st.fixed_dictionaries(
    {},
    optional={
        "width": st.integers(-2, 6) | _JSON,
        "gates": st.lists(_GATE | _JSON, max_size=4) | _JSON,
    },
)
# gate-per-line circuits: gate words with qubit fields, width comments,
# and free text
_GATE_LINE = st.builds(
    "{} {}".format,
    st.sampled_from(["H", "P", "CNOT", "cz", "SWAP", "X", "#", ""]),
    st.text(alphabet="0123456789-+ ", max_size=8),
)
_WIDTH_LINE = st.builds("# width{}".format, st.text(alphabet="0123456789-: x", max_size=6))
_GATE_TEXT = st.lists(_GATE_LINE | _WIDTH_LINE | st.text(max_size=12), max_size=6).map("\n".join)

_CIRCUIT_TEXT = st.one_of(st.text(max_size=40), _JSON.map(json.dumps), _CIRCUIT_DOC.map(json.dumps))


@settings(max_examples=300, deadline=None)
@given(_CODE_TEXT)
def test_parse_code_succeeds_or_refuses(text):
    try:
        parse_code(text)
    except (ParseError, CodeValidationError):
        pass


@settings(max_examples=200, deadline=None)
@given(text=_CODE_TEXT | _SMALL_CODE, as_json=st.booleans())
def test_info_exits_with_documented_code(tmp_path_factory, text, as_json):
    path = tmp_path_factory.mktemp("info") / "code.qcc"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["info", "--code", str(path)] + ["--json"] * as_json)
    event(f"exit {status}")
    assert status in (0, 65), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(_CIRCUIT_TEXT)
def test_circuit_from_json_succeeds_or_refuses(text):
    try:
        circuit_from_json(text)
    except (ParseError, CodeValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(_GATE_TEXT)
def test_parse_circuit_succeeds_or_refuses(text):
    try:
        parse_circuit(text)
    except ParseError:
        pass


# a rate-0 code: no info wires, so no logical launches
RATE_ZERO_CODE_TEXT = "n=2\nXX\nZZ\n"

# a rate-1/3 CSS code whose encoder needs m = 10
CSS_M10_CODE_TEXT = render_code(from_classical_polynomial([26, 114, 70]))


@pytest.fixture(scope="module")
def check_inputs(tmp_path_factory, catastrophic_encoder_map):
    """A directory with the codes, and each code's known encoder."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "fgg.qcc").write_text(FGG_CODE_TEXT)
    (d / "tiny.qcc").write_text(CATASTROPHIC_CODE_TEXT)
    (d / "rate0.qcc").write_text(RATE_ZERO_CODE_TEXT)
    (d / "css.qcc").write_text(CSS_M10_CODE_TEXT)
    return d, {
        "fgg": FGG_ENCODER,
        "tiny": synthesize_circuit(catastrophic_encoder_map),
        "rate0": synthesize_encoder(parse_code(RATE_ZERO_CODE_TEXT)).circuit,
        "css": synthesize_encoder(parse_code(CSS_M10_CODE_TEXT)).circuit,
    }


def _gate(kind, a, b, width):
    if width < 2:
        kind = "H" if kind in ("CNOT", "CZ", "SWAP") else kind
    if kind in ("H", "P"):
        return CliffordGate(kind, (a % width + 1,))
    # the second qubit is a nonzero offset from the first, so they differ
    return CliffordGate(kind, (a % width + 1, (a + 1 + b % (width - 1)) % width + 1))


# a random circuit of width <= 8, or a known encoder cut short and followed
# by random gates (some of these realize the code and reach the verdict)
@settings(max_examples=200, deadline=None)
@given(
    code=st.sampled_from(["fgg", "tiny"]),
    known=st.booleans(),
    width=st.integers(0, 8),
    keep=st.integers(0, 30),
    extra=st.lists(st.tuples(st.sampled_from(GATE_KINDS), st.integers(0, 7), st.integers(0, 7)), max_size=8),
)
def test_check_exits_with_documented_code(check_inputs, code, known, width, keep, extra):
    d, encoders = check_inputs
    base = encoders[code].gates[:keep] if known else ()
    if known:
        width = encoders[code].width
    gates = base + tuple(_gate(kind, a, b, width) for kind, a, b in extra if width)
    enc = d / f"{code}.circ"
    enc.write_text(circuit_to_text(CliffordCircuit(width, gates)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["check", "--witness", "--code", str(d / f"{code}.qcc"), "--encoder", str(enc)])
    assert status in (0, 1, 65), err.getvalue()


# derive-decoder on the same kinds of circuit as check, and on the rate-0
# code; the catastrophic code's encoders never close a logical's orbit.
# Exit 70 is accepted only for the known decoder-skeleton defect: each
# decoder chain emits at the end of its own span, so chains of different
# spans can force a boundary product (ROADMAP item 1, a common delay).
# The example's decoder chain for stabilizer 1 consumes and emits the
# identity in its first frame, which once gave a zero, dependent row
@settings(max_examples=100, deadline=None)
@example(code="tiny", known=True, width=0, keep=16, extra=[("CNOT", 1, 0), ("CNOT", 1, 1)], as_json=False)
@given(
    code=st.sampled_from(["fgg", "tiny", "rate0"]),
    known=st.booleans(),
    width=st.integers(0, 6),
    keep=st.integers(0, 30),
    extra=st.just([])
    | st.lists(st.tuples(st.sampled_from(GATE_KINDS), st.integers(0, 5), st.integers(0, 5)), max_size=6),
    as_json=st.booleans(),
)
def test_derive_decoder_exits_with_documented_code(check_inputs, code, known, width, keep, extra, as_json):
    d, encoders = check_inputs
    base = encoders[code].gates[:keep] if known else ()
    if known:
        width = encoders[code].width
    gates = base + tuple(_gate(kind, a, b, width) for kind, a, b in extra if width)
    enc = d / f"{code}-dec.circ"
    enc.write_text(circuit_to_text(CliffordCircuit(width, gates)))
    argv = ["derive-decoder", "--code", str(d / f"{code}.qcc"), "--encoder", str(enc), "--skeleton"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv + ["--json"] * as_json)
    event(f"exit {status}")
    known_defect = status == 70 and "boundary product of chain" in err.getvalue()
    assert status in (0, 65) or known_defect, err.getvalue()


# simulate on a random circuit of width <= 6 or a known encoder, possibly
# cut short, with window and probability arguments that are sometimes out
# of range (keep None keeps the whole encoder).  The [26, 114, 70] code's
# trellis has a lead frame and decodes by the batched pass
@settings(max_examples=100, deadline=None)
@given(
    code=st.sampled_from(["fgg", "tiny", "rate0", "css"]),
    known=st.booleans(),
    width=st.integers(0, 6),
    keep=st.none() | st.integers(0, 30),
    # often no extra gate, so that whole known encoders reach the trellis
    extra=st.just([])
    | st.lists(st.tuples(st.sampled_from(GATE_KINDS), st.integers(0, 5), st.integers(0, 5)), max_size=6),
    frames=st.integers(0, 3),
    trials=st.integers(1, 4),
    p=st.sampled_from(["0", "0.1", "0.5", "0.74", "0.75", "x"]),
)
def test_simulate_exits_with_documented_code(check_inputs, code, known, width, keep, extra, frames, trials, p):
    d, encoders = check_inputs
    base = encoders[code].gates[:keep] if known else ()
    if known:
        width = encoders[code].width
    gates = base + tuple(_gate(kind, a, b, width) for kind, a, b in extra if width)
    enc = d / f"{code}-sim.circ"
    enc.write_text(circuit_to_text(CliffordCircuit(width, gates)))
    argv = [
        "simulate", "--code", str(d / f"{code}.qcc"), "--encoder", str(enc),
        "--p", p, "--frames", str(frames), "--trials", str(trials), "--seed", "1", "--workers", "1",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert status in (0, 64, 65), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    text=_SMALL_CODE | st.sampled_from(
        [FGG_CODE_TEXT, CATASTROPHIC_CODE_TEXT, RATE_ZERO_CODE_TEXT, GR_CODE_TEXT, CSS_M10_CODE_TEXT]
    ),
    budget=st.integers(1, 50),
    ext=st.sampled_from([".circ", ".json"]),
    as_json=st.booleans(),
)
def test_synthesize_exits_with_documented_code(tmp_path_factory, text, budget, ext, as_json):
    d = tmp_path_factory.mktemp("synth")
    (d / "code.qcc").write_text(text)
    out_path = d / f"enc{ext}"
    argv = ["synthesize", "--code", str(d / "code.qcc"), "--max-candidates", str(budget), "--out", str(out_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv + ["--json"] * as_json)
    event(f"exit {status}")
    assert status in (0, 2, 65), err.getvalue()
    if status == 0:
        written = out_path.read_text()
        circuit = circuit_from_json(written) if ext == ".json" else parse_circuit(written)
        code = parse_code(text)
        m = verify_encoder(code, circuit).m
        assert is_noncatastrophic(circuit, code.n, code.k).non_catastrophic
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["check", "--json", "--code", str(d / "code.qcc"), "--encoder", str(out_path)])
        assert status == 0, err.getvalue()
        report = json.loads(out.getvalue())
        assert report["memory"] == report["minimal_memory"] == m
