"""Code files, framed sequences, polynomial input and validity checking."""

import random

import pytest
from hypothesis import given, settings

from qconvenc import (
    ConvolutionalCode,
    FramedPauliSequence,
    PauliOperator,
    parse_code,
)
from qconvenc.code import (
    from_classical_polynomial,
    parse_polynomial,
)
from qconvenc.errors import CodeValidationError, InputDataError, ParseError
from qconvenc.library import FGG_CODE_TEXT, GR_CODE_TEXT, GR_POLYNOMIAL_TEXT

from conftest import SMALL_GENERATORS
from oracles import (
    as_pauli,
    css_frames_by_bits,
    first_anticommuting_shift,
    polynomial_to_text,
    render_code,
    sp_at_shift,
)

P = PauliOperator.from_string
F = FramedPauliSequence.from_string


def sp_letters(a, b):
    anti = {"XZ", "ZX", "XY", "YX", "YZ", "ZY"}
    return sum(x + y in anti for x, y in zip(a, b)) % 2


def test_rate_third_code_file():
    code = parse_code(FGG_CODE_TEXT)
    assert code.n == 3 and code.k == 1 and code.nu == 2
    assert [g.to_string() for g in code.generators] == ["XXX|XZY", "ZZZ|ZYX"]


def test_single_z_generator():
    code = parse_code("n=1\nZ\n")
    assert code.n == 1 and code.k == 0 and code.nu == 1


def test_shift_commutation_violation_detected():
    # hand oracle: XX against the IZ frame overlaps in one anticommuting
    # position, so the pair fails at shift 0 (XX|XX vs ZZ|IZ) already
    assert sp_letters("XX", "ZZ") == 0
    assert sp_letters("XX", "IZ") == 1
    with pytest.raises(CodeValidationError):
        parse_code("n=2\nXX|XX\nZZ|IZ\n")


def test_hand_built_code_validates_itself():
    # the same pair as above, built without the parser
    with pytest.raises(CodeValidationError) as info:
        ConvolutionalCode(2, (F("XX|XX"), F("ZZ|IZ")))
    assert (info.value.gen_a, info.value.gen_b, info.value.shift) == (1, 2, 0)


@pytest.mark.parametrize("row, shift", [([0b1], 0), ([0b11], 1), ([0b101], 2), ([0b11, 0b101], 1)])
def test_non_self_orthogonal_row_fails_first_pair(row, shift):
    # the X-type generator meets its Z twin with odd overlap first at `shift`
    with pytest.raises(CodeValidationError) as info:
        from_classical_polynomial(row)
    assert (info.value.gen_a, info.value.gen_b, info.value.shift) == (1, 2, shift)


@settings(max_examples=400, deadline=None)
@given(SMALL_GENERATORS)
def test_validate_reports_the_first_pair_of_the_framewise_products(drawn):
    n, lines = drawn
    gens = tuple(F(line, n) for line in lines)
    identities = [a for a, g in enumerate(gens, 1) if not g.span]
    if identities:
        # refused before the products are checked
        with pytest.raises(InputDataError, match=f"generator {identities[0]} is the identity"):
            ConvolutionalCode(n, gens)
        return
    want = first_anticommuting_shift(gens, max((g.span for g in gens), default=1))
    if want is None:
        ConvolutionalCode(n, gens)
        return
    with pytest.raises(CodeValidationError) as info:
        ConvolutionalCode(n, gens)
    assert (info.value.gen_a, info.value.gen_b, info.value.shift) == want


@pytest.mark.parametrize("gens", [(F("", 3),), (F("XXX|XZY"), F("ZZZ|ZYX"), F("", 3))], ids=["alone", "fgg"])
def test_identity_generator_is_refused_at_construction(gens):
    # the skeleton, the verifier and the simulator all need a first frame
    with pytest.raises(InputDataError, match=f"generator {len(gens)} is the identity on every frame"):
        ConvolutionalCode(3, gens)


def test_css_frames_match_the_bit_loop():
    # rows of up to 6 entries of degree <= 8; every entry appears an even
    # number of times, so each row is self-orthogonal
    rng = random.Random(25)
    for _ in range(300):
        entries = [rng.randrange(1, 1 << 9) for _ in range(rng.randint(1, 3))]
        row = entries * 2 + [0] * rng.randint(0, 6 - 2 * len(entries))
        rng.shuffle(row)
        assert from_classical_polynomial(row).generators == css_frames_by_bits(row)


def test_polynomial_row_expands_to_css_frames():
    code = parse_code(GR_CODE_TEXT)
    assert code.n == 4 and code.k == 2 and code.nu == 5
    assert code.generators[0].to_string() == "XXXX|XXII|IXIX|IIXX|XXXX"
    assert code.generators[1].to_string() == "ZZZZ|ZZII|IZIZ|IIZZ|ZZZZ"


def test_polynomial_round_trip():
    for term in GR_POLYNOMIAL_TEXT.split(","):
        mask = parse_polynomial(term.strip())
        assert parse_polynomial(polynomial_to_text(mask)) == mask
    assert parse_polynomial("1+D+D^4") == 0b10011
    assert parse_polynomial("D^2") == 0b100
    with pytest.raises(ParseError):
        parse_polynomial("1+Q")


def test_short_self_orthogonal_row():
    code = from_classical_polynomial([parse_polynomial("1+D"), parse_polynomial("1+D")])
    assert [g.to_string() for g in code.generators] == ["XX|XX", "ZZ|ZZ"]
    # brute-force overlap sums: X-type row against its own Z twin at all
    # shifts must have even overlap
    for shift in range(2):
        a, b = "XXXX", "ZZZZ"
        overlap = sum(
            sp_letters(a[i + 2 * shift], b[i]) for i in range(len(a) - 2 * shift)
        )
        assert overlap % 2 == 0


def test_trailing_identity_frames_trimmed():
    assert F("XZ|II") == F("XZ")
    assert F("XZ|II").span == 1


def test_frame_out_of_span_is_identity():
    g = F("XXX|XZY")
    assert g.frame(1) == P("XXX")
    assert g.frame(2) == P("XZY")
    assert g.frame(3) == P("III")
    assert g.frame(0) == P("III")


def test_as_pauli_flattens_onto_window():
    g = F("XZ|IY")
    assert as_pauli(g, 3) == P("XZIYII")
    with pytest.raises(ValueError):
        as_pauli(g, 1)


def test_sp_at_shift_matches_flattened_products():
    a, b = F("XXX|XZY"), F("ZZZ|ZYX")
    for shift in range(3):
        window = 6
        lhs = as_pauli(a, window)
        rhs_frames = [P("III")] * shift + [b.frame(t) for t in range(1, window - shift + 1)]
        rhs = PauliOperator.identity(0)
        for f in rhs_frames:
            rhs = rhs.tensor(f)
        assert sp_at_shift(a, b, shift) == lhs.sp(rhs)


def test_render_parse_round_trip():
    for text in (FGG_CODE_TEXT, GR_CODE_TEXT):
        code = parse_code(text)
        assert parse_code(render_code(code)) == code


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_code("XXX|XZY\n")  # missing n= header
    with pytest.raises(ParseError):
        parse_code("n=3\nXXX|XZ\n")  # ragged frames
    with pytest.raises(ParseError):
        parse_code("n=3\nXX|XX\n")  # frame width disagrees with header
    with pytest.raises(ParseError):
        parse_code("n=2\npoly: 1+D\n")  # needs an even split of rows... or n


@pytest.mark.parametrize(
    "text",
    [
        "n=3\n",  # no generator lines
        "n=3\n# only a comment\n",
        "n=3\nIII\n",  # all-identity generator
        "n=3\nXXX|XZY\nIII|III\n",
        "n=2\n|\n",  # empty frame list under a known width
        "XX\nn=3\n",  # header after a generator of another width
        "n=2\nXX\nn=3\nXXX\n",  # second header changes the width
        "poly: 1+D^1000\n",  # exponent beyond three digits
        "n=1\nZ\nZ|Z\n",  # more generators than qubits per frame: k < 0
    ],
)
def test_parse_rejects_empty_identity_and_ragged_codes(text):
    with pytest.raises(ParseError):
        parse_code(text)
