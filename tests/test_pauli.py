"""Phase-free Pauli algebra in the packed (x|z) representation."""

import random

import pytest

from qconvenc import PauliOperator, tensor
from qconvenc.errors import ParseError

P = PauliOperator.from_string

# one-qubit commutation table: 1 iff the two letters anticommute
ANTI = {
    ("X", "Z"), ("Z", "X"),
    ("X", "Y"), ("Y", "X"),
    ("Y", "Z"), ("Z", "Y"),
}


def sp_by_letters(a: str, b: str) -> int:
    return sum((ca, cb) in ANTI for ca, cb in zip(a, b)) % 2


def test_identity_commutes_with_identity():
    assert P("III").sp(P("III")) == 0


def test_single_qubit_x_z_anticommute():
    assert P("X").sp(P("Z")) == 1
    assert P("X") * P("Z") == P("Y")


def test_memory_extended_generator_pair_commutes():
    # the two first-frame encoder outputs with their memory operators
    # attached: XXX (x) X against ZZZ (x) Z
    assert P("XXXX").sp(P("ZZZZ")) == 0


def test_second_frame_outputs_anticommute():
    # three anticommuting positions, odd count
    assert P("XZY").sp(P("ZYX")) == 1
    assert sp_by_letters("XZY", "ZYX") == 1


def test_second_frame_product():
    # componentwise XOR of the bit patterns
    assert P("XZY") * P("ZYX") == P("YXZ")


def test_frame_weight():
    assert P("IXIX").weight() == 2
    assert P("IIII").weight() == 0
    assert P("XYZI").weight() == 3


def test_sp_against_letter_oracle():
    rng = random.Random(10)
    letters = "IXYZ"
    for _ in range(300):
        w = rng.randrange(1, 7)
        a = "".join(rng.choice(letters) for _ in range(w))
        b = "".join(rng.choice(letters) for _ in range(w))
        assert P(a).sp(P(b)) == sp_by_letters(a, b)


def test_sp_is_symmetric_and_bilinear():
    rng = random.Random(11)
    for _ in range(100):
        w = rng.randrange(1, 6)
        a = PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w))
        b = PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w))
        c = PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w))
        assert a.sp(b) == b.sp(a)
        assert (a * b).sp(c) == (a.sp(c) ^ b.sp(c))
        assert a.sp(a) == 0


def test_multiply_is_xor_and_involutive():
    rng = random.Random(12)
    for _ in range(100):
        w = rng.randrange(1, 6)
        a = PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w))
        b = PauliOperator(w, rng.getrandbits(w), rng.getrandbits(w))
        assert a * b == b * a
        assert (a * b) * b == a
        assert a * a == PauliOperator.identity(w)


def test_string_round_trip():
    for s in ("I", "XYZ", "IIZX", "YYYY"):
        assert P(s).to_string() == s
    assert P("XXX|XZY") == P("XXXXZY")  # separators are ignored on input


def test_from_string_rejects_garbage():
    with pytest.raises(ParseError):
        P("XQZ")


def test_single_places_factor_little_endian():
    p = PauliOperator.single(4, 2, "Y")
    assert p.to_string() == "IIYI"
    assert p.x == 0b0100 and p.z == 0b0100


def test_tensor_low_bits_first_and_part_inverse():
    a, b = P("XZ"), P("YII")
    t = a.tensor(b)
    assert t.to_string() == "XZYII"
    assert t.part(0, 2) == a
    assert t.part(2, 5) == b
    assert tensor(a, b, P("Z")) == P("XZYIIZ")


def test_vec_packs_x_low_z_high():
    p = P("XZY")
    assert p.vec() == (p.x | (p.z << 3))
    assert PauliOperator.from_vec(3, p.vec()) == p


def test_width_guard():
    with pytest.raises(ValueError):
        PauliOperator(2, 0b100, 0)
    with pytest.raises(ValueError):
        P("XX").sp(P("X"))
