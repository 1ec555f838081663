"""Exception types and input limits shared across the package."""

from __future__ import annotations

# simulate's seeds key its Philox stream, whose keys lie in [0, 2^128); the
# bound lives here so that the CLI checks a seed without importing numpy
SEED_LIMIT = 1 << 128


class QconvError(Exception):
    """Base class for everything this package raises on purpose."""


class ParseError(QconvError):
    """Malformed Pauli string, circuit text or code file."""


class InputDataError(QconvError, ValueError):
    """Input that parses but cannot be used: a circuit that does not
    realize its code, an encoder too wide for the trellis, or a memory
    assignment of the wrong size."""


class CodeValidationError(QconvError):
    """A framed generator set fails the shifted commutation requirement."""

    def __init__(self, gen_a: int, gen_b: int, shift: int):
        self.gen_a = gen_a
        self.gen_b = gen_b
        self.shift = shift
        super().__init__(
            f"generators {gen_a} and {gen_b} anticommute at relative frame shift {shift}"
        )


class SkeletonInconsistencyError(QconvError):
    """The commutation requirement forces an impossible product; no encoder exists."""


class MapConsistencyError(QconvError):
    """Partial symplectic map is internally inconsistent."""


class SynthesisError(QconvError):
    """Gate synthesis failed an internal self-check."""


class OrbitError(QconvError):
    """Memory orbit of a propagated operator does not close (bad input)."""


class TrellisError(QconvError):
    """No trellis path is consistent with a syndrome; indicates a bug."""


class CompletionSearchExhausted(QconvError):
    """No non-catastrophic completion found within the search budget;
    `tried` leaf checks were made out of `budget`, and `dynamics` counts
    the distinct memory dynamics (T, A) the search met."""

    def __init__(self, message: str, *, tried: int, budget: int, dynamics: int):
        self.tried = tried
        self.budget = budget
        self.dynamics = dynamics
        super().__init__(message)
