"""Spans around the public functions of each qconvenc module, recorded from
outside the program, and the per-layer metrics derived from them.

`Tracer.install` replaces every binding of a traced function in every
loaded qconvenc module (so `from .x import f` copies are covered too) with
a wrapper that records (span id, parent span id, pid, op id, name, start,
end, counters).  Spans stay in memory.  Pool workers inherit the patched
modules when forked; each worker writes its spans to a file after every
chunk of trials, and `collect` merges those files into the parent's list.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union


class Span(NamedTuple):
    sid: int
    parent: int
    pid: int
    op: int
    name: str
    t0: float
    t1: float
    info: Optional[dict]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _trellis_info(args, kwargs, result):
    buckets = getattr(args[0], "_buckets", None)
    if buckets is None:  # the build raised
        return None
    return {
        "states": args[0].nstates,
        "branches": sum(len(b.src) for b in buckets.values()),
        "bytes_computed": sum(a.nbytes for b in buckets.values() for a in b),
    }


def _budget_info(fn):
    default = inspect.signature(fn).parameters["max_candidates"].default
    return lambda args, kwargs, result: {"budget": kwargs.get("max_candidates", default)}


def _gates_info(args, kwargs, result):
    from qconvenc.synthesis import gate_count_bound

    if result is None:
        return None
    return {"gates": len(result), "bound": gate_count_bound(result.width)}


# (module, attribute path, counter extractor or None; "budget" asks for the
# traced function's own max_candidates default).  `Simulator.__init__` is the
# trellis build; `_run_trial` and `_worker_count` are the per-trial and
# per-chunk units of the Monte Carlo loop.
TARGETS: List[Tuple[str, str, Union[Callable, str, None]]] = [
    ("cli", "main", None),
    ("code", "parse_code", None),
    ("circuit", "parse_circuit", None),
    ("circuit", "circuit_from_json", None),
    ("circuit", "circuit_to_symplectic", None),
    ("skeleton", "build_skeleton", None),
    ("skeleton", "skeleton_commutation_matrix", None),
    ("skeleton", "assign_memory", None),
    ("skeleton", "minimal_memory", None),
    ("pipeline", "synthesize_encoder", None),
    ("pipeline", "verify_encoder", None),
    ("synthesis", "complete_to_symplectic", None),
    ("synthesis", "synthesize_circuit", _gates_info),
    ("catastrophic", "is_noncatastrophic", None),
    ("catastrophic", "is_noncatastrophic_decoder", None),
    ("catastrophic", "zero_weight_graph",
     lambda a, kw, r: {"states": 1 << (2 * r.m)} if r is not None else None),
    ("catastrophic", "complete_noncatastrophic", "budget"),
    ("catastrophic", "subgroup_elements",
     lambda a, kw, r: {"states": len(r)} if r is not None else None),
    ("decoder", "derive_online_decoder", None),
    ("simulate", "estimate_wer",
     lambda a, kw, r: {"workers": max(1, kw.get("workers") or 1)}),
    ("simulate", "sample_error", None),
    ("simulate", "Simulator.__init__", _trellis_info),
    ("simulate", "Simulator.syndrome", None),
    ("simulate", "Simulator.decode", None),
    ("simulate", "Simulator.carries_logical_error", None),
    ("simulate", "_run_trial", None),
    ("simulate", "_worker_count", None),
]

_WORKER_ENTRY = "simulate._worker_count"


class Tracer:
    def __init__(self, spill_dir: Path) -> None:
        self.parent_pid = os.getpid()
        self.owner_pid = os.getpid()
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = 0
        self.active = False
        self.spill_dir = spill_dir
        self._ids = itertools.count(1)

    def _wrap(self, name: str, fn: Callable, info: Optional[Callable]) -> Callable:
        tracer = self
        worker_entry = name == _WORKER_ENTRY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pid = os.getpid()
            if worker_entry and pid != tracer.owner_pid:
                tracer.owner_pid = pid  # forked worker: drop the parent's spans
                tracer.spans = []
            sid = (pid << 32) | next(tracer._ids)
            parent = tracer.stack[-1] if tracer.stack else 0
            tracer.stack.append(sid)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                counters = info(args, kwargs, result) if info else None
                tracer.spans.append((sid, parent, pid, tracer.op, name, t0, t1, counters))
                if worker_entry and pid != tracer.parent_pid:
                    tracer._spill(pid)

        return traced

    def _spill(self, pid: int) -> None:
        path = self.spill_dir / f"spans-{pid}-{next(self._ids)}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "qconvenc" or name.startswith("qconvenc.")
        }
        for modname, path, info in TARGETS:
            owner = mods[f"qconvenc.{modname}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if info == "budget":
                info = _budget_info(original)
            wrapper = self._wrap(f"{modname}.{path}", original, info)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def collect(self) -> None:
        """Merge the span files pool workers wrote since the last call."""
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            self.spans.extend(tuple(s) for s in json.loads(path.read_text()))
            path.unlink()

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(Span(*s)._asdict()) + "\n")


# name -> (unit, better); every traced run reports all of these, whatever
# the workload (a layer the workload never enters reads 0)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "simulate.sample_error.us_per_trial": ("us/trial", "lower"),
    "simulate.syndrome.us_per_trial": ("us/trial", "lower"),
    "simulate.decode.us_per_trial": ("us/trial", "lower"),
    "simulate.failure_test.us_per_trial": ("us/trial", "lower"),
    "simulate.trial.us_per_trial": ("us/trial", "lower"),
    "simulate.trials_traced": ("trials", "higher"),
    "simulate.trellis_build_s": ("s/build", "lower"),
    "simulate.trellis_builds": ("builds/call", "lower"),
    "simulate.trellis.states": ("states", "lower"),
    "simulate.trellis.branches": ("branches", "lower"),
    "simulate.trellis.bytes_computed": ("bytes", "lower"),
    "simulate.estimate_wer_s": ("s/call", "lower"),
    "simulate.pool_overhead_s": ("s/call", "lower"),
    "catastrophic.is_noncatastrophic_ms": ("ms/call", "lower"),
    "catastrophic.states_probed": ("states/call", "lower"),
    "catastrophic.complete_noncatastrophic_s": ("s/call", "lower"),
    "catastrophic.leaf_checks": ("checks/call", "lower"),
    "catastrophic.candidate_budget": ("candidates/call", "lower"),
    "catastrophic.leaf_states_probed": ("states/leaf", "lower"),
    "synthesis.complete_to_symplectic_ms_per_call": ("ms/call", "lower"),
    "synthesis.complete_to_symplectic_ms_per_op": ("ms/op", "lower"),
    "synthesis.synthesize_circuit_ms": ("ms/call", "lower"),
    "synthesis.gates": ("gates/circuit", "lower"),
    "synthesis.gate_bound": ("gates/circuit", "lower"),
    "skeleton.build_ms": ("ms/op", "lower"),
    "code.parse_code_ms": ("ms/op", "lower"),
    "pipeline.verify_encoder_ms": ("ms/op", "lower"),
    "decoder.derive_online_decoder_ms": ("ms/call", "lower"),
    "circuit.circuit_to_symplectic_calls_per_op": ("calls/op", "lower"),
    "circuit.circuit_to_symplectic_ms": ("ms/op", "lower"),
    "cli.self_ms": ("ms/op", "lower"),
    "trace.ops_traced": ("ops", "higher"),
    "trace.op_ms_traced": ("ms", "lower"),
    "trace.op_cal_untraced": ("cal", "lower"),
    "trace.op_cal_traced": ("cal", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(raw: List[tuple], ops: int) -> Dict[str, float]:
    """Per-layer values from the spans of `ops` traced workload ops."""
    spans = [Span(*s) for s in raw]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    name_of = {s.sid: s.name for s in spans}
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    def total(*names: str) -> float:
        # outermost spans only, so a layer calling itself is not counted twice
        return sum(
            s.dur for n in names for s in by_name[n] if name_of.get(s.parent) not in names
        )

    def calls(name: str) -> int:
        return len(by_name[name])

    def mean_info(name: str, key: str) -> float:
        vals = [s.info[key] for s in by_name[name] if s.info]
        return _div(sum(vals), len(vals))

    trials = calls("simulate._run_trial")
    builds = by_name["simulate.Simulator.__init__"]
    overheads = []
    for e in by_name["simulate.estimate_wer"]:
        kids = children[e.sid]
        build = sum(k.dur for k in kids if k.name == "simulate.Simulator.__init__")
        chunks = [k.dur for k in kids if k.name == _WORKER_ENTRY]
        serial = [k.dur for k in kids if k.name == "simulate._run_trial"]
        work = sum(chunks) / e.info["workers"] if chunks else sum(serial)
        overheads.append(e.dur - build - work)
    leaf_parents = {s.sid for s in by_name["catastrophic.complete_noncatastrophic"]}
    leaves = sum(1 for s in by_name["synthesis.complete_to_symplectic"] if s.parent in leaf_parents)
    cli_self = sum(
        m.dur - sum(k.dur for k in children[m.sid]) for m in by_name["cli.main"]
    )
    return {
        "simulate.sample_error.us_per_trial": _div(total("simulate.sample_error"), trials) * 1e6,
        "simulate.syndrome.us_per_trial": _div(total("simulate.Simulator.syndrome"), trials) * 1e6,
        "simulate.decode.us_per_trial": _div(total("simulate.Simulator.decode"), trials) * 1e6,
        "simulate.failure_test.us_per_trial":
            _div(total("simulate.Simulator.carries_logical_error"), trials) * 1e6,
        "simulate.trial.us_per_trial": _div(total("simulate._run_trial"), trials) * 1e6,
        "simulate.trials_traced": trials,
        "simulate.trellis_build_s": _div(sum(b.dur for b in builds), len(builds)),
        "simulate.trellis_builds": _div(len(builds), calls("cli.main")),
        "simulate.trellis.states": mean_info("simulate.Simulator.__init__", "states"),
        "simulate.trellis.branches": mean_info("simulate.Simulator.__init__", "branches"),
        "simulate.trellis.bytes_computed":
            mean_info("simulate.Simulator.__init__", "bytes_computed"),
        "simulate.estimate_wer_s":
            _div(total("simulate.estimate_wer"), calls("simulate.estimate_wer")),
        "simulate.pool_overhead_s": _div(sum(overheads), len(overheads)),
        "catastrophic.is_noncatastrophic_ms":
            _div(total("catastrophic.is_noncatastrophic"),
                 calls("catastrophic.is_noncatastrophic")) * 1e3,
        "catastrophic.states_probed": mean_info("catastrophic.zero_weight_graph", "states"),
        "catastrophic.complete_noncatastrophic_s":
            _div(total("catastrophic.complete_noncatastrophic"),
                 calls("catastrophic.complete_noncatastrophic")),
        "catastrophic.leaf_checks": _div(leaves, len(leaf_parents)),
        "catastrophic.candidate_budget":
            mean_info("catastrophic.complete_noncatastrophic", "budget"),
        "catastrophic.leaf_states_probed": mean_info("catastrophic.subgroup_elements", "states"),
        "synthesis.complete_to_symplectic_ms_per_call":
            _div(total("synthesis.complete_to_symplectic"),
                 calls("synthesis.complete_to_symplectic")) * 1e3,
        "synthesis.complete_to_symplectic_ms_per_op":
            _div(total("synthesis.complete_to_symplectic"), ops) * 1e3,
        "synthesis.synthesize_circuit_ms":
            _div(total("synthesis.synthesize_circuit"),
                 calls("synthesis.synthesize_circuit")) * 1e3,
        "synthesis.gates": mean_info("synthesis.synthesize_circuit", "gates"),
        "synthesis.gate_bound": mean_info("synthesis.synthesize_circuit", "bound"),
        "skeleton.build_ms": _div(total(
            "skeleton.build_skeleton", "skeleton.skeleton_commutation_matrix",
            "skeleton.assign_memory", "skeleton.minimal_memory"), ops) * 1e3,
        "code.parse_code_ms": _div(total("code.parse_code"), ops) * 1e3,
        "pipeline.verify_encoder_ms": _div(total("pipeline.verify_encoder"), ops) * 1e3,
        "decoder.derive_online_decoder_ms":
            _div(total("decoder.derive_online_decoder"),
                 calls("decoder.derive_online_decoder")) * 1e3,
        "circuit.circuit_to_symplectic_calls_per_op":
            _div(calls("circuit.circuit_to_symplectic"), ops),
        "circuit.circuit_to_symplectic_ms":
            _div(total("circuit.circuit_to_symplectic"), ops) * 1e3,
        "cli.self_ms": _div(cli_self, ops) * 1e3,
    }
