"""Phase-free Pauli operators in binary symplectic form.

An n-qubit Pauli is stored as two n-bit integers (x, z), little-endian:
bit i of x / z being set means an X / Z factor on qubit i (both set = Y).
Global phases are dropped everywhere; multiplication is coordinate-wise
XOR and the symplectic product

    sp(P, Q) = x_P . z_Q + z_P . x_Q  (mod 2)

is 0 exactly when P and Q commute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError
from .gf2 import parity

__all__ = [
    "PauliOperator",
    "tensor",
]

_CODE = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliOperator:
    width: int
    x: int
    z: int

    def __post_init__(self):
        mask = (1 << self.width) - 1
        if self.width < 0 or self.x & ~mask or self.z & ~mask:
            raise ValueError("pauli bits out of range for width")

    @staticmethod
    def identity(width: int) -> "PauliOperator":
        return PauliOperator(width, 0, 0)

    @staticmethod
    def single(width: int, index: int, kind: str) -> "PauliOperator":
        """Single-qubit factor at 0-based position `index`."""
        xb, zb = _CODE[kind]
        return PauliOperator(width, xb << index, zb << index)

    @staticmethod
    def from_string(text: str) -> "PauliOperator":
        x = z = 0
        w = 0
        for ch in text:
            if ch in " \t|":
                continue
            if ch not in _CODE:
                raise ParseError(f"bad pauli character {ch!r}")
            xb, zb = _CODE[ch]
            x |= xb << w
            z |= zb << w
            w += 1
        return PauliOperator(w, x, z)

    def char(self, i: int) -> str:
        xb = (self.x >> i) & 1
        zb = (self.z >> i) & 1
        return "IXZY"[xb + 2 * zb]

    def to_string(self) -> str:
        return "".join(self.char(i) for i in range(self.width))

    def weight(self) -> int:
        return bin(self.x | self.z).count("1")

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def sp(self, other: "PauliOperator") -> int:
        if self.width != other.width:
            raise ValueError("width mismatch")
        return parity((self.x & other.z) ^ (self.z & other.x))

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        if self.width != other.width:
            raise ValueError("width mismatch")
        return PauliOperator(self.width, self.x ^ other.x, self.z ^ other.z)

    def tensor(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(
            self.width + other.width,
            self.x | (other.x << self.width),
            self.z | (other.z << self.width),
        )

    def part(self, lo: int, hi: int) -> "PauliOperator":
        """Sub-operator on qubits [lo, hi), 0-based."""
        mask = (1 << (hi - lo)) - 1
        return PauliOperator(hi - lo, (self.x >> lo) & mask, (self.z >> lo) & mask)

    def vec(self) -> int:
        """Packed (x | z) symplectic vector of length 2*width."""
        return self.x | (self.z << self.width)

    @staticmethod
    def from_vec(width: int, v: int) -> "PauliOperator":
        mask = (1 << width) - 1
        return PauliOperator(width, v & mask, (v >> width) & mask)

    def __str__(self) -> str:
        return self.to_string()


def tensor(*parts: PauliOperator) -> PauliOperator:
    out = parts[0]
    for p in parts[1:]:
        out = out.tensor(p)
    return out
