"""Reference codes and circuits used by the tests, docs and CLI examples.

FGG is the rate-1/3 single-generator-pair convolutional code of Forney,
Grassl and Guha; GR is the rate-2/4 CSS code of Grassl and Roetteler
built from a self-orthogonal classical generator row.
"""

from __future__ import annotations

from .circuit import parse_circuit
from .code import ConvolutionalCode, parse_code
from .pauli import PauliOperator

__all__ = [
    "FGG_CODE",
    "FGG_CODE_TEXT",
    "FGG_ENCODER",
    "FGG_ENCODER_TEXT",
    "FGG_DECODER_MEMORY_CHOICE",
    "GR_POLYNOMIAL_TEXT",
    "GR_CODE",
    "GR_CODE_TEXT",
    "GR_MEMORY_CHOICE",
    "GR_COMPLETION_ROWS",
]

FGG_CODE_TEXT = """\
# rate-1/3 convolutional code, single X/Z generator pair per frame
n=3
XXX|XZY
ZZZ|ZYX
"""

FGG_CODE: ConvolutionalCode = parse_code(FGG_CODE_TEXT)

# Known-good 14-gate encoder for the FGG code, one memory qubit.
# Wires: in (mem, anc, anc, info), out (phys, phys, phys, mem).
FGG_ENCODER_TEXT = """\
# width: 4
H 2
CNOT 4 1
H 4
CNOT 4 1
CNOT 4 2
CNOT 1 4
H 4
CNOT 3 4
P 1
CNOT 4 3
CNOT 1 3
CNOT 2 1
CNOT 2 3
CNOT 2 4
"""

FGG_ENCODER = parse_circuit(FGG_ENCODER_TEXT)

# A valid two-memory-qubit choice for the FGG online decoder unknowns.
FGG_DECODER_MEMORY_CHOICE = tuple(
    PauliOperator.from_string(s) for s in ("XX", "ZX", "IX", "IZ")
)

GR_POLYNOMIAL_TEXT = "1+D+D^4, 1+D+D^2+D^4, 1+D^3+D^4, 1+D^2+D^3+D^4"

GR_CODE_TEXT = f"""\
# rate-2/4 CSS convolutional code from a self-orthogonal classical row
n=4
poly: {GR_POLYNOMIAL_TEXT}
"""

GR_CODE: ConvolutionalCode = parse_code(GR_CODE_TEXT)

# Six-qubit memory choice for the GR encoder unknowns g1..g8.
GR_MEMORY_CHOICE = tuple(
    PauliOperator.from_string(s)
    for s in (
        "ZIIIII",  # g1
        "IZIIII",  # g2
        "IIXIII",  # g3
        "IIIXII",  # g4
        "IIIZII",  # g5
        "IIZIII",  # g6
        "IIIIZI",  # g7
        "IIIIIZ",  # g8
    )
)

# Known non-catastrophic basis completion for the GR encoder: inputs are
# the memory X directions the main rows leave free, with these outputs.
# Strings are (mem1..mem6, anc, anc, info, info) in and
# (phys1..phys4, mem1..mem6) out.
GR_COMPLETION_ROWS = tuple(
    (PauliOperator.from_string(a), PauliOperator.from_string(b))
    for a, b in (
        ("XIIIII IIII", "IIII IIZIII"),
        ("IXIIII IIII", "IIII IIIZII"),
        ("IIIIXI IIII", "IZZZ XIZIII"),
        ("IIIIIX IIII", "XIII IXIZIZ"),
    )
)
