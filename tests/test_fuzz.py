"""Property tests for the input parsers: any text either parses or is
refused with a documented input error, never with a stray exception."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qconvenc.circuit import circuit_from_json
from qconvenc.code import parse_code
from qconvenc.errors import CodeValidationError, ParseError

# code files: header, generator and polynomial lines built from the
# format's own alphabet, so most lines get past the first character
_CODE_LINE = st.one_of(
    st.text(alphabet="IXYZ|", max_size=12),
    st.builds("n={}".format, st.integers(-2, 5)),
    st.builds("poly: {}".format, st.text(alphabet="1D^0123456789+, ", max_size=16)),
    st.text(max_size=12),
)
_CODE_TEXT = st.lists(_CODE_LINE, max_size=5).map("\n".join)

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
_CIRCUIT_TEXT = st.one_of(st.text(max_size=40), _JSON.map(json.dumps), _CIRCUIT_DOC.map(json.dumps))


@settings(max_examples=300, deadline=None)
@given(_CODE_TEXT)
def test_parse_code_succeeds_or_refuses(text):
    try:
        parse_code(text)
    except (ParseError, CodeValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(_CIRCUIT_TEXT)
def test_circuit_from_json_succeeds_or_refuses(text):
    try:
        circuit_from_json(text)
    except (ParseError, CodeValidationError):
        pass
