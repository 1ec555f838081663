"""Clifford gates, circuits and their symplectic matrices.

Gates act on Paulis by conjugation, phase-free.  Gate text uses 1-based
qubit positions ("H 2", "CNOT 4 1"); for CNOT the first position is the
control.  A circuit's symplectic matrix is over row vectors: applying the
circuit to P maps its packed vector v to v . M, so composing circuit c1
followed by c2 multiplies M(c1) . M(c2).

`_flips` is the one definition of each gate, and `_conjugate` the one
way to apply it: matrices are kept as columns, one int each over the 2w
rows, so a flip is one XOR for all rows (Aaronson and Gottesman, PRA
2004).  `SymplecticMap.stream` is the one loop that feeds a map frame
by frame.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import ParseError
from .gf2 import invert as gf2_invert
from .gf2 import matmul, transpose
from .pauli import PauliOperator

__all__ = [
    "CliffordGate",
    "CliffordCircuit",
    "SymplecticMap",
    "circuit_to_symplectic",
    "as_symplectic",
    "gram",
    "parse_circuit",
    "circuit_to_text",
    "circuit_to_json",
    "circuit_from_json",
]

_ARITY = {"H": 1, "P": 1, "CNOT": 2, "CZ": 2, "SWAP": 2}

# widest circuit accepted: its symplectic matrix has 2 * width rows of
# 2 * width bits, so a declared width is checked before anything is built
MAX_WIDTH = 1024


@dataclass(frozen=True)
class CliffordGate:
    kind: str
    qubits: Tuple[int, ...]  # 1-based

    def __post_init__(self):
        arity = _ARITY.get(self.kind)
        if arity is None:
            raise ParseError(f"unknown gate {self.kind!r}")
        if len(self.qubits) != arity:
            raise ParseError(f"{self.kind} takes {arity} qubit(s)")
        if min(self.qubits) < 1:
            raise ParseError("qubit positions are 1-based")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ParseError("gate qubits must be distinct")

    def __str__(self) -> str:
        return " ".join([self.kind] + [str(q) for q in self.qubits])


@dataclass(frozen=True)
class CliffordCircuit:
    width: int
    gates: Tuple[CliffordGate, ...]

    def __post_init__(self):
        if self.width < 0:
            raise ParseError(f"circuit width {self.width} is negative")
        if self.width > MAX_WIDTH:
            raise ParseError(f"circuit width {self.width} exceeds the cap of {MAX_WIDTH} qubits")
        for g in self.gates:
            if max(g.qubits) > self.width:
                raise ParseError(f"gate {g} exceeds circuit width {self.width}")

    def __len__(self) -> int:
        return len(self.gates)


def _flips(gate: CliffordGate, width: int) -> List[Tuple[int, int]]:
    """The bit flips (source bit, flipped bit) that conjugate a packed vector
    by `gate`, in order; H and SWAP exchange coordinates by three."""
    i = gate.qubits[0] - 1
    xi, zi = i, width + i
    if gate.kind == "H":
        return [(zi, xi), (xi, zi), (zi, xi)]
    if gate.kind == "P":
        return [(xi, zi)]
    j = gate.qubits[1] - 1
    xj, zj = j, width + j
    if gate.kind == "CNOT":
        return [(xi, xj), (zj, zi)]
    if gate.kind == "CZ":
        return [(xi, zj), (xj, zi)]
    return [(xi, xj), (xj, xi), (xi, xj), (zi, zj), (zj, zi), (zi, zj)]  # SWAP


def _conjugate(gate: CliffordGate, cols: List[int], width: int) -> None:
    """Conjugate the matrix with packed columns `cols` by `gate`, in place."""
    for src, dst in _flips(gate, width):
        cols[dst] ^= cols[src]


def _dual(v: int, width: int) -> int:
    """Row r with parity(r & u) == sp(v, u) for every u."""
    mask = (1 << width) - 1
    return (v >> width) | ((v & mask) << width)


def gram(vecs: Sequence[int], width: int) -> List[int]:
    """Symplectic Gram matrix of packed width-`width` vectors: bit j of row
    i is sp(vecs[i], vecs[j])."""
    out = []
    for v in vecs:
        d, row = _dual(v, width), 0
        for j, u in enumerate(vecs):
            if (d & u).bit_count() & 1:
                row |= 1 << j
        out.append(row)
    return out


def _field(v: int, w: int, lo: int, size: int) -> int:
    """Packed vector of qubits [lo, lo + size) of a packed width-w vector."""
    mask = (1 << size) - 1
    return ((v >> lo) & mask) | (((v >> (w + lo)) & mask) << size)


def _place(v: int, size: int, lo: int, w: int) -> int:
    """Packed width-size vector v on qubits [lo, lo + size) of width w."""
    return ((v & ((1 << size) - 1)) << lo) | ((v >> size) << (w + lo))


@dataclass(frozen=True)
class SymplecticMap:
    """2w x 2w GF(2) matrix; row i is the image of basis vector e_i."""

    width: int
    rows: Tuple[int, ...]

    @staticmethod
    def identity(width: int) -> "SymplecticMap":
        return SymplecticMap(width, tuple(1 << i for i in range(2 * width)))

    def apply_vec(self, v: int) -> int:
        # numpy integers lack `bit_length`; operator.index takes any integer and refuses floats
        return matmul([operator.index(v)], self.rows)[0]

    def apply(self, p: PauliOperator) -> PauliOperator:
        # on packed vectors a Pauli of another width would alias X and Z bits
        if p.width != self.width:
            raise ValueError(f"pauli width {p.width} does not match map width {self.width}")
        return PauliOperator.from_vec(self.width, self.apply_vec(p.vec()))

    def inverse(self) -> "SymplecticMap":
        inv = gf2_invert(list(self.rows), 2 * self.width)
        if inv is None:
            raise ValueError("map is singular")  # cannot happen for symplectic maps
        return SymplecticMap(self.width, tuple(inv))

    def is_symplectic(self) -> bool:
        w = self.width
        return gram(self.rows, w) == [1 << ((i + w) % (2 * w)) for i in range(2 * w)]

    def step(self, n: int, mem: int, frame: int) -> Tuple[int, int]:
        """Stream one packed n-qubit frame in with packed memory `mem` (on the
        first m input wires, as `wire_roles` lays them out); returns the
        emitted frame (first n output wires) and the next memory (last m)."""
        # as Python ints before any shift: a numpy integer would overflow silently
        mem, frame = operator.index(mem), operator.index(frame)
        w = self.width
        m = w - n
        img = self.apply_vec(_place(mem, m, 0, w) | _place(frame, n, m, w))
        return _field(img, w, 0, n), _field(img, w, n, m)

    def stream(self, n: int, frames: Sequence[int], limit: int) -> Tuple[List[int], List[int]]:
        """Step packed n-qubit `frames` in from identity memory, then
        identity frames, until all have entered and the memory is the
        identity again, or `limit` frames have entered; returns the emitted
        frames and the memory after each.  Past an end where the memory
        closed, every frame and memory is the identity."""
        out, mems, mem = [], [], 0
        for t in range(limit):
            if t >= len(frames) and not mem:
                break
            frame, mem = self.step(n, mem, frames[t] if t < len(frames) else 0)
            out.append(frame)
            mems.append(mem)
        return out, mems


def circuit_to_symplectic(circuit: CliffordCircuit) -> SymplecticMap:
    """The circuit's matrix; column c packs bit c of every row."""
    w = circuit.width
    cols = [1 << c for c in range(2 * w)]
    for g in circuit.gates:
        _conjugate(g, cols, w)
    return SymplecticMap(w, tuple(transpose(cols, 2 * w)))


def as_symplectic(encoder) -> SymplecticMap:
    """The symplectic map of a circuit, of a map itself, or of a
    `Realization` (which carries its map)."""
    if isinstance(encoder, SymplecticMap):
        return encoder
    if isinstance(encoder, CliffordCircuit):
        return circuit_to_symplectic(encoder)
    return encoder.map


def parse_circuit(text: str) -> CliffordCircuit:
    """Parse gate-per-line text; '# width: N' comments fix the width."""
    gates: List[CliffordGate] = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("width"):
                try:
                    width = int(body.split(":", 1)[1] if ":" in body else body.split()[1])
                except (IndexError, ValueError) as exc:
                    raise ParseError(f"line {lineno}: bad width comment") from exc
            continue
        if not line:
            continue
        fields = line.split()
        kind = fields[0].upper()
        try:
            qubits = tuple(int(f) for f in fields[1:])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad qubit index in {line!r}") from exc
        gates.append(CliffordGate(kind, qubits))
    if width is None:
        width = max((max(g.qubits) for g in gates), default=0)
    return CliffordCircuit(width, tuple(gates))


def circuit_to_text(circuit: CliffordCircuit) -> str:
    lines = [f"# width: {circuit.width}"]
    lines += [str(g) for g in circuit.gates]
    return "\n".join(lines) + "\n"


def circuit_to_json(circuit: CliffordCircuit, input_roles: Sequence[str], output_roles: Sequence[str]) -> str:
    doc = {
        "width": circuit.width,
        "gates": [[g.kind, *g.qubits] for g in circuit.gates],
        "input_roles": list(input_roles),
        "output_roles": list(output_roles),
    }
    return json.dumps(doc, indent=2)


def circuit_from_json(text: str) -> CliffordCircuit:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"malformed JSON circuit: {exc}") from exc
    # json.loads makes only exact ints and bools, and type(True) is bool
    if not (isinstance(doc, dict) and type(doc.get("width")) is int
            and isinstance(doc.get("gates"), list)):
        raise ParseError('a JSON circuit needs an integer "width" and a "gates" list')
    gates = []
    for g in doc["gates"]:
        if not (isinstance(g, list) and g and isinstance(g[0], str)
                and {*map(type, g[1:])} <= {int}):
            raise ParseError(f"bad JSON gate {g!r}: want [kind, qubit, ...]")
        gates.append(CliffordGate(g[0], tuple(g[1:])))
    return CliffordCircuit(doc["width"], tuple(gates))


def wire_roles(n: int, k: int, m: int, direction: str) -> Tuple[List[str], List[str]]:
    """Input/output wire roles under the package wire convention.

    Encoders read (memory, ancilla, info) and write (physical, memory);
    decoders read (memory, received) and write (syndrome, info, memory).
    Memory enters on the first m wires and leaves on the last m.
    """
    if direction == "encoder":
        inp = ["mem"] * m + ["anc"] * (n - k) + ["info"] * k
        out = ["phys"] * n + ["mem"] * m
    elif direction == "decoder":
        inp = ["mem"] * m + ["phys"] * n
        out = ["anc"] * (n - k) + ["info"] * k + ["mem"] * m
    else:
        raise ValueError("direction must be 'encoder' or 'decoder'")
    return inp, out
