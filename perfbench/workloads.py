"""Workload table and input generation for the qconvenc benchmark.

Each workload is one client in a closed loop: the next CLI call starts
when the previous one has returned.  The program only ever sees the
files written by `write_inputs` plus its command line.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Work per op is sized so that a 15-second run completes at least ten ops
# on every workload, on a 2-core machine.
WORKLOADS = {
    # simulate on FGG with the published 14-gate encoder (m = 1, 4 trellis
    # states): the cost is per-trial Python work in the four simulate layers
    "fgg-stream": {
        "kind": "simulate", "code": "fgg", "frames": 20,
        "p": (0.01, 0.05), "trials": 100, "workers": 1,
        "check_p": (0.05,), "check_trials": 60,
    },
    # simulate on GR (m = 6, 4,096 states, 4 x 262,144 branches): the Viterbi
    # backward pass dominates, and the trellis is built and a 2-worker pool
    # forked once per p; the decode is numpy-bound, so its times are divided
    # by a numpy calibration loop rather than the pure-Python one
    "gr-trellis": {
        "kind": "simulate", "code": "gr", "frames": 10,
        "p": (0.01, 0.02), "trials": 30, "workers": 2,
        "check_p": (0.1,), "check_trials": 6, "calibration": "numpy",
    },
    # synthesize -> check -> derive-decoder on FGG: skeleton, synthesis,
    # decoder and CLI overheads, each small
    "fgg-design": {"kind": "design", "code": "fgg"},
    # check on GR: the full 4^6-state zero-weight enumeration dominates
    "gr-check": {"kind": "check", "code": "gr"},
    # bare synthesize on GR with a fixed budget: the completion search's leaf
    # check (complete_to_symplectic) dominates, and the search exits 2
    "gr-search": {"kind": "search", "code": "gr", "budget": 400},
}

# derive-decoder on GR is not a workload: it exits 70 today (the decoder
# chains of the GR logicals end at different shifts), and its fast failure
# would read as speed.

EXPECTED = {
    # memory = minimal memory, verdict of synthesize/check, decoder memory
    "fgg": {"memory": 1, "decoder_memory": 2},
    "gr": {"memory": 6},
}


def _code_text(code: str) -> str:
    from qconvenc.library import FGG_CODE_TEXT, GR_CODE_TEXT

    return FGG_CODE_TEXT if code == "fgg" else GR_CODE_TEXT


def _encoder_text(code: str, fmt: str) -> str:
    from qconvenc.circuit import circuit_to_json, circuit_to_text, wire_roles

    if code == "fgg":
        from qconvenc.library import FGG_CODE as CODE, FGG_ENCODER as circuit
        m = 1
    else:
        from qconvenc import MemoryAssignment, synthesize_encoder
        from qconvenc.library import GR_CODE as CODE, GR_COMPLETION_ROWS, GR_MEMORY_CHOICE

        result = synthesize_encoder(
            CODE,
            assignment=MemoryAssignment(6, GR_MEMORY_CHOICE),
            completion_rows=GR_COMPLETION_ROWS,
        )
        circuit, m = result.circuit, result.memory
    if fmt == "json":
        ins, outs = wire_roles(CODE.n, CODE.k, m, "encoder")
        return circuit_to_json(circuit, ins, outs)
    return circuit_to_text(circuit)


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the code file, the encoder (if the workload reads one) and a
    manifest.  The seed picks the circuit file format, text or JSON."""
    spec = WORKLOADS[workload]
    fmt = "json" if random.Random(seed).random() < 0.5 else "text"
    ext = ".json" if fmt == "json" else ".circ"
    out.mkdir(parents=True, exist_ok=True)
    (out / "code.qcc").write_text(_code_text(spec["code"]))
    manifest = {"code": "code.qcc", "circuit_ext": ext}
    if spec["kind"] in ("simulate", "check"):
        (out / f"encoder{ext}").write_text(_encoder_text(spec["code"], fmt))
        manifest["encoder"] = f"encoder{ext}"
    (out / "manifest.json").write_text(json.dumps(manifest))
