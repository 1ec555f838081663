"""Shared fixtures: reference codes, synthesized circuits, and small oracles.

Expensive artifacts (synthesis runs, decoder derivations, trellis tables)
are session-scoped; everything downstream treats them as read-only.
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

import pytest
from hypothesis import strategies as st

from qconvenc import (
    CliffordCircuit,
    CliffordGate,
    ConvolutionalCode,
    FramedPauliSequence,
    MemoryAssignment,
    PauliOperator,
    SymplecticMap,
    Simulator,
    as_symplectic,
    circuit_to_symplectic,
    derive_online_decoder,
    parse_code,
    synthesize_encoder,
)
from qconvenc.library import (
    FGG_CODE,
    FGG_ENCODER,
    GR_CODE,
    GR_COMPLETION_ROWS,
    GR_MEMORY_CHOICE,
)

P = PauliOperator.from_string


@pytest.fixture(scope="session")
def fgg_code():
    return FGG_CODE


@pytest.fixture(scope="session")
def gr_code():
    return GR_CODE


@pytest.fixture(scope="session")
def fgg_reference_encoder():
    """The known-good 14-gate single-memory-qubit encoder."""
    return FGG_ENCODER


@pytest.fixture(scope="session")
def fgg_synthesis():
    return synthesize_encoder(FGG_CODE)


@pytest.fixture(scope="session")
def gr_synthesis():
    return synthesize_encoder(
        GR_CODE,
        assignment=MemoryAssignment(6, GR_MEMORY_CHOICE),
        completion_rows=GR_COMPLETION_ROWS,
    )


@pytest.fixture(scope="session")
def fgg_decoder(fgg_reference_encoder):
    return derive_online_decoder(FGG_CODE, fgg_reference_encoder)


@pytest.fixture(scope="session")
def fgg_simulator(fgg_reference_encoder):
    return Simulator(FGG_CODE, fgg_reference_encoder)


@pytest.fixture(scope="session")
def gr_simulator(gr_synthesis):
    return Simulator(GR_CODE, gr_synthesis.circuit)


# A row-consistent encoder for the two-frame code below whose zero-weight
# diagram has a logical self-loop at memory state Z: reading frames off the
# wire never reveals the info stream entering through that loop.
CATASTROPHIC_CODE_TEXT = "n=2\nZZ|IZ\n"

_CATASTROPHIC_ROWS = ["ZXX", "XZI", "IZZ", "IZI", "ZZZ", "XZX"]


@pytest.fixture(scope="session")
def catastrophic_code():
    return parse_code(CATASTROPHIC_CODE_TEXT)


@pytest.fixture(scope="session")
def catastrophic_encoder_map():
    return SymplecticMap(3, tuple(P(s).vec() for s in _CATASTROPHIC_ROWS))


# (n, generator lines): 1 to n generators on n <= 3 qubits per frame, each
# 1 to 3 frames drawn letter by letter; many of these codes are invalid
SMALL_GENERATORS = st.integers(1, 3).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n).map("".join),
                     min_size=1, max_size=3).map("|".join),
            min_size=1,
            max_size=n,
        ),
    )
)

GATE_KINDS = ("H", "P", "CNOT", "CZ", "SWAP")


def random_circuit(width: int, ngates: int, rng: random.Random) -> CliffordCircuit:
    """Uniform random gate sequence; the standard way tests fabricate an
    arbitrary symplectic map with a trusted circuit realization."""
    gates = []
    for _ in range(ngates):
        kind = rng.choice(GATE_KINDS if width > 1 else GATE_KINDS[:2])
        if kind in ("H", "P"):
            gates.append(CliffordGate(kind, (rng.randrange(1, width + 1),)))
        else:
            a, b = rng.sample(range(1, width + 1), 2)
            gates.append(CliffordGate(kind, (a, b)))
    return CliffordCircuit(width, tuple(gates))


def random_symplectic(width: int, rng: random.Random) -> SymplecticMap:
    return circuit_to_symplectic(random_circuit(width, 8 * width, rng))


def realized_code(encoder, n: int, k: int) -> Optional[ConvolutionalCode]:
    """The code the encoder realizes on n-qubit frames with k info wires:
    its generators are the frames it emits for ancilla Z on each of the
    first n - k input wires, from identity memory until the memory is the
    identity again.  None if a response does not end within 2m + 1
    frames; the memory then evolves by one linear map A, so a response
    that ends at all ends once A^(2m) has run."""
    smap = as_symplectic(encoder)
    m = smap.width - n
    gens = []
    for a in range(n - k):
        frame, mem = smap.step(n, 0, 1 << (n + a))
        frames = [frame]
        while mem:
            if len(frames) > 2 * m:
                return None
            frame, mem = smap.step(n, mem, 0)
            frames.append(frame)
        gens.append(FramedPauliSequence(n, tuple(PauliOperator.from_vec(n, f) for f in frames)))
    return ConvolutionalCode(n, tuple(gens))


def random_realized(n: int, k: int, m: int, seed: int) -> Tuple[ConvolutionalCode, SymplecticMap]:
    """The first random encoder of width m + n, drawn from a generator
    seeded with `seed`, whose syndrome responses end, and the code it
    realizes."""
    rng = random.Random(seed)
    while True:
        smap = random_symplectic(m + n, rng)
        code = realized_code(smap, n, k)
        if code is not None:
            return code, smap
