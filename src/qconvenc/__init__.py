"""Encoder synthesis and simulation for quantum convolutional codes."""

from .pauli import PauliOperator, tensor
from .circuit import (
    CliffordCircuit,
    CliffordGate,
    SymplecticMap,
    apply_circuit,
    apply_gate,
    as_symplectic,
    circuit_from_json,
    circuit_to_json,
    circuit_to_symplectic,
    circuit_to_text,
    parse_circuit,
    wire_roles,
)
from .code import ConvolutionalCode, FramedPauliSequence, parse_code, validate
from .skeleton import (
    MemoryAssignment,
    TransformationSkeleton,
    assign_memory,
    build_skeleton,
    minimal_memory,
    skeleton_commutation_matrix,
    symplectic_gram_schmidt,
)
from .synthesis import PartialMap, synthesize_circuit
from .catastrophic import (
    CatastrophicityVerdict,
    ZeroWeightGraph,
    is_noncatastrophic,
    is_noncatastrophic_decoder,
    zero_weight_graph,
)
from .pipeline import Realization, synthesize_encoder, verify_encoder
from .decoder import derive_online_decoder, encoded_logical_operators, windowed_roundtrip_failures

# the Monte Carlo is the one numpy user: its names load `simulate` on
# first use, so the design commands start without numpy (PEP 562)
_SIMULATE_NAMES = frozenset(
    {"DepolarizingChannel", "SimulationResult", "Simulator", "estimate_wer", "estimate_wers", "sample_error"}
)


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PauliOperator",
    "tensor",
    "CliffordGate",
    "CliffordCircuit",
    "SymplecticMap",
    "apply_circuit",
    "apply_gate",
    "as_symplectic",
    "circuit_from_json",
    "circuit_to_json",
    "circuit_to_symplectic",
    "circuit_to_text",
    "parse_circuit",
    "wire_roles",
    "ConvolutionalCode",
    "FramedPauliSequence",
    "parse_code",
    "validate",
    "TransformationSkeleton",
    "MemoryAssignment",
    "build_skeleton",
    "skeleton_commutation_matrix",
    "symplectic_gram_schmidt",
    "minimal_memory",
    "assign_memory",
    "PartialMap",
    "synthesize_circuit",
    "ZeroWeightGraph",
    "CatastrophicityVerdict",
    "zero_weight_graph",
    "is_noncatastrophic",
    "is_noncatastrophic_decoder",
    "Realization",
    "synthesize_encoder",
    "verify_encoder",
    "encoded_logical_operators",
    "derive_online_decoder",
    "windowed_roundtrip_failures",
    "DepolarizingChannel",
    "sample_error",
    "Simulator",
    "SimulationResult",
    "estimate_wer",
    "estimate_wers",
]
