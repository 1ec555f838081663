"""Framed Pauli sequences and quantum convolutional codes.

A convolutional code on n qubits per frame is given by n-k stabilizer
generators, each a finite sequence of n-qubit frames ("XXX|XZY" spans two
frames).  Validity means every pair of generators commutes at every
relative frame shift, so the shifted copies generate an abelian group.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import CodeValidationError, InputDataError, ParseError
from .gf2 import parity, transpose
from .pauli import PauliOperator

__all__ = [
    "FramedPauliSequence",
    "ConvolutionalCode",
    "parse_code",
    "parse_polynomial",
    "from_classical_polynomial",
    "validate",
]


@dataclass(frozen=True)
class FramedPauliSequence:
    """A Pauli operator on a stream, given frame by frame.

    Trailing identity frames are trimmed so equal operators compare equal.
    An empty frame tuple is the identity on the whole stream.
    """

    frame_width: int
    frames: Tuple[PauliOperator, ...]

    def __post_init__(self):
        for f in self.frames:
            if f.width != self.frame_width:
                raise ValueError("frame width mismatch")
        while self.frames and self.frames[-1].is_identity():
            object.__setattr__(self, "frames", self.frames[:-1])

    @staticmethod
    def from_string(text: str, frame_width: int | None = None) -> "FramedPauliSequence":
        chunks = [c.strip() for c in text.split("|")]
        paulis = [PauliOperator.from_string(c) for c in chunks if c]
        if not paulis:
            if frame_width is None:
                raise ParseError("cannot infer frame width of an empty sequence")
            return FramedPauliSequence(frame_width, ())
        widths = {p.width for p in paulis}
        if len(widths) != 1:
            raise ParseError(f"frames have differing widths in {text!r}")
        w = widths.pop()
        if frame_width is not None and w != frame_width:
            raise ParseError(f"expected {frame_width}-qubit frames in {text!r}")
        return FramedPauliSequence(w, tuple(paulis))

    @property
    def span(self) -> int:
        return len(self.frames)

    def frame(self, t: int) -> PauliOperator:
        """Frame t, 1-based; identity outside the span."""
        if 1 <= t <= len(self.frames):
            return self.frames[t - 1]
        return PauliOperator.identity(self.frame_width)

    def to_string(self) -> str:
        if not self.frames:
            return "I" * self.frame_width
        return "|".join(f.to_string() for f in self.frames)

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class ConvolutionalCode:
    """A valid code: constructing one refuses an identity generator and
    runs `validate`."""

    n: int
    generators: Tuple[FramedPauliSequence, ...]

    def __post_init__(self):
        for a, g in enumerate(self.generators, 1):
            if g.frame_width != self.n:
                raise ValueError("generator frame width differs from n")
            if not g.span:
                raise InputDataError(f"generator {a} is the identity on every frame")
        validate(self)

    @property
    def k(self) -> int:
        return self.n - len(self.generators)

    @property
    def nu(self) -> int:
        """Constraint length: the longest generator span in frames."""
        return max((g.span for g in self.generators), default=1)


def validate(code: ConvolutionalCode) -> None:
    """Raise CodeValidationError unless all generators commute at all shifts."""
    n = code.n
    # each generator packed as (x, z), frame t on bits [t n, (t + 1) n): a delay
    # of `shift` frames is a left shift by shift n bits
    packed = [(sum(f.x << (t * n) for t, f in enumerate(g.frames)),
               sum(f.z << (t * n) for t, f in enumerate(g.frames))) for g in code.generators]
    for a, (xa, za) in enumerate(packed, 1):
        for b, (xb, zb) in enumerate(packed[a - 1:], a):
            for shift in range(code.nu):
                s = shift * n
                if parity((xa & (zb << s)) ^ (za & (xb << s))):
                    raise CodeValidationError(a, b, shift)
                if shift and parity((xb & (za << s)) ^ (zb & (xa << s))):
                    raise CodeValidationError(b, a, shift)


# at most three exponent digits: the degree becomes a bit position, so an
# absurd exponent would allocate its whole bit mask before any check ran
_POLY_TERM = re.compile(r"^(1|D(\^\d{1,3})?)$")


def parse_polynomial(text: str) -> int:
    """Parse '1+D+D^4' into a coefficient bitmask (bit t = coeff of D^t)."""
    mask = 0
    for term in text.replace(" ", "").split("+"):
        if not _POLY_TERM.match(term):
            raise ParseError(f"bad polynomial term {term!r}")
        if term == "1":
            mask |= 1
        elif term == "D":
            mask |= 2
        else:
            mask |= 1 << int(term[2:])
    return mask


def from_classical_polynomial(polys: Sequence[int]) -> ConvolutionalCode:
    """CSS code from one self-orthogonal classical polynomial row.

    Entry j (bitmask over D powers) puts an X on position j of frame t for
    every set bit t, and a Z twin does the same.  Self-orthogonality (even
    overlap of the row with each of its shifts) makes the pair commute.
    """
    n = len(polys)
    if n == 0 or all(p == 0 for p in polys):
        raise ParseError("polynomial row is empty")
    # frame t holds bit t of every entry: row t of the transposed bit matrix
    frames = transpose(polys, max(p.bit_length() for p in polys))
    return ConvolutionalCode(
        n,
        (
            FramedPauliSequence(n, tuple(PauliOperator(n, x, 0) for x in frames)),
            FramedPauliSequence(n, tuple(PauliOperator(n, 0, x) for x in frames)),
        ),
    )


def parse_code(text: str) -> ConvolutionalCode:
    """Parse a code file: 'n=<int>' header, one generator per line,
    '#' comments, or a 'poly: p1, p2, ...' row for the CSS construction."""
    n: Optional[int] = None
    polys: Optional[List[int]] = None
    gens: List[FramedPauliSequence] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("n="):
            try:
                n = int(line[2:])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad n= header") from exc
            continue
        if line.lower().startswith("poly:"):
            polys = [parse_polynomial(p) for p in line[5:].split(",") if p.strip()]
            continue
        try:
            gen = FramedPauliSequence.from_string(line, n)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        if not gen.span:
            raise ParseError(f"line {lineno}: generator is the identity")
        gens.append(gen)
    if polys is not None:
        if gens:
            raise ParseError("give either a poly: row or generator lines, not both")
        if n is not None and n != len(polys):
            raise ParseError("n= header disagrees with the polynomial row length")
        return from_classical_polynomial(polys)
    if n is None:
        raise ParseError("missing n= header")
    if not gens:
        raise ParseError("code has no generator lines")
    if any(g.frame_width != n for g in gens):
        raise ParseError(f"generator frame widths disagree with the header n={n}")
    if len(gens) > n:
        raise ParseError(f"{len(gens)} generators on n={n} qubits per frame leave k < 0")
    return ConvolutionalCode(n, tuple(gens))
