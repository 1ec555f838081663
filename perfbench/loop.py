"""One measured run of one workload, in a process of its own.

Checks the program's outputs, drives `qconvenc.cli.main(argv)` in a closed
loop (one client, the next call when the previous one returned) for the
given number of seconds, and prints one JSON report as the last line of
standard output.  After each op it runs the workload's calibration loop
(calibration.py) for a fifth of the op's time; the bounded metrics are op
times divided by that loop's median.  With trace 1 it runs the loop
untraced for the first 30% of the time and traced for the rest, and
reports the per-layer split and the tracing overhead instead of the
end-to-end metrics.

Usage: python3 perfbench/loop.py WORKLOAD SEED SECONDS TRACE INPUTS OUTDIR
"""

from __future__ import annotations

import io
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import qconvenc.cli  # noqa: E402
from qconvenc.circuit import circuit_from_json, parse_circuit  # noqa: E402
from qconvenc.code import parse_code  # noqa: E402
from qconvenc.errors import QconvError  # noqa: E402
from qconvenc.pipeline import verify_encoder  # noqa: E402
from qconvenc.simulate import (  # noqa: E402
    DepolarizingChannel,
    Simulator,
    sample_error,
    syndrome_by_products,
)
from qconvenc.synthesis import gate_count_bound  # noqa: E402

import tracing  # noqa: E402
from calibration import NumpyLoop, python_loop  # noqa: E402
from workloads import EXPECTED, WORKLOADS  # noqa: E402

TRACED_SHARE = 0.7
ORACLE_TRIALS = 5
Z_LIMIT = 5.0
NONCAT = "non-catastrophic"
CAL_SHARE = 0.2  # calibration time after each op, as a share of the op's time


class Call(NamedTuple):
    rc: Optional[int]  # None when main raised
    seconds: float
    out: str
    err: str


class OpResult(NamedTuple):
    seconds: float
    work: int  # trials for simulate, 1 for every other op
    error: Optional[str]


class Phase(NamedTuple):
    results: List[OpResult]
    cal: List[float]  # calibration loop seconds, interleaved with the ops

    def metrics(self) -> dict:
        cal = statistics.median(self.cal)
        seconds = [r.seconds for r in self.results]
        op_s = statistics.median(seconds)
        rate = sum(r.work for r in self.results) / sum(seconds)
        return {"op_ms": op_s * 1e3, "op_cal": op_s / cal, "work_per_s": rate, "cal_ms": cal * 1e3}


def _failed(c: Call) -> str:
    tail = c.err.strip().splitlines()[-1:] or ["(no stderr)"]
    return f"exit {c.rc}: {tail[0]}"


def _report(c: Call) -> dict:
    try:
        return json.loads(c.out)
    except ValueError:
        return {}


def read_circuit(path: Path):
    text = path.read_text()
    return circuit_from_json(text) if text.lstrip().startswith("{") else parse_circuit(text)


class Workload:
    def __init__(self, name: str, seed: int, inputs: Path, work: Path) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.rng = random.Random(seed)
        manifest = json.loads((inputs / "manifest.json").read_text())
        self.code_path = inputs / manifest["code"]
        self.code = parse_code(self.code_path.read_text())
        self.encoder = inputs / manifest["encoder"] if "encoder" in manifest else None
        self.ext = manifest["circuit_ext"]
        self.work = work
        self.expected = EXPECTED[self.spec["code"]]
        self.tracer: Optional[tracing.Tracer] = None
        self.calibrate = NumpyLoop() if self.spec.get("calibration") == "numpy" else python_loop
        self.trials = defaultdict(int)  # p -> trials, over successful simulate ops
        self.failures = defaultdict(int)

    # -- driving the CLI ------------------------------------------------------

    def call(self, argv: List[object]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        if self.tracer:
            self.tracer.active = True
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = qconvenc.cli.main([str(a) for a in argv])
            except Exception:
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        if self.tracer:
            self.tracer.active = False
            self.tracer.collect()
        return Call(rc, seconds, out.getvalue(), err.getvalue())

    def op(self) -> OpResult:
        if self.tracer:
            self.tracer.op += 1
        return getattr(self, f"_op_{self.spec['kind']}")()

    def run_for(self, seconds: float) -> Phase:
        phase = Phase([], [])
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            phase.results.append(self.op())
            budget = CAL_SHARE * phase.results[-1].seconds
            while True:
                phase.cal.append(self.calibrate())
                budget -= phase.cal[-1]
                if budget <= 0:
                    break
        return phase

    # -- output checks ----------------------------------------------------------

    def _check_circuit(self, path: Path, direction: str, memory: int) -> Optional[str]:
        try:
            circuit = read_circuit(path)
            if direction == "encoder" and verify_encoder(self.code, circuit).m != memory:
                return f"{path.name}: verify_encoder found another memory size"
        except (QconvError, OSError, ValueError, KeyError) as exc:
            return f"{path.name}: {type(exc).__name__}: {exc}"
        bound = gate_count_bound(circuit.width)
        if len(circuit) > bound:
            return f"{path.name}: {len(circuit)} gates exceed the 10*w^2 bound {bound}"
        if circuit.width != memory + self.code.n:
            return f"{path.name}: width {circuit.width} != memory {memory} + n {self.code.n}"
        return None

    def _check_report(self, rep: dict, **want) -> Optional[str]:
        for key, value in want.items():
            if rep.get(key) != value:
                return f"{key} = {rep.get(key)!r}, expected {value!r}"
        return None

    def _check_check(self, c: Call) -> Optional[str]:
        if c.rc != 0:
            return _failed(c)
        m = self.expected["memory"]
        return self._check_report(
            _report(c), rows_verified=True, memory=m, minimal_memory=m, verdict=NONCAT
        )

    def _check_synthesized(self, c: Call, out: Path) -> Optional[str]:
        if c.rc != 0:
            return _failed(c)
        m = self.expected["memory"]
        return (self._check_report(_report(c), memory=m, verdict=NONCAT)
                or self._check_circuit(out, "encoder", m))

    def _sim_argv(self, p, trials: int, seed: int, workers: int) -> List[object]:
        return [
            "simulate", "--code", self.code_path, "--encoder", self.encoder,
            "--p", ",".join(str(x) for x in p), "--frames", self.spec["frames"],
            "--trials", trials, "--seed", seed, "--workers", workers, "--json",
        ]

    def _sim_rows(self, c: Call, p, trials: int, seed: int) -> Tuple[list, Optional[str]]:
        if c.rc != 0:
            return [], _failed(c)
        try:
            rows = json.loads(c.out)
            if [r["p"] for r in rows] != list(p):
                return [], f"simulate reported p = {[r['p'] for r in rows]}"
            for r in rows:
                if (r["trials"], r["frames"], r["seed"]) != (trials, self.spec["frames"], seed):
                    return [], f"simulate echoed {r}"
                if not 0 <= r["failures"] <= trials:
                    return [], f"failure count {r['failures']} out of range"
        except (ValueError, KeyError, TypeError) as exc:
            return [], f"simulate printed an unreadable report: {exc!r}"
        return rows, None

    # -- ops ------------------------------------------------------------------

    def _op_simulate(self) -> OpResult:
        s = self.spec
        seed = self.rng.randrange(1 << 31)
        c = self.call(self._sim_argv(s["p"], s["trials"], seed, s["workers"]))
        rows, error = self._sim_rows(c, s["p"], s["trials"], seed)
        for r in rows:
            self.trials[r["p"]] += r["trials"]
            self.failures[r["p"]] += r["failures"]
        return OpResult(c.seconds, s["trials"] * len(s["p"]), error)

    def _op_design(self) -> OpResult:
        enc, dec = self.work / f"enc{self.ext}", self.work / f"dec{self.ext}"
        for path in (enc, dec):
            path.unlink(missing_ok=True)
        code = self.code_path
        argvs = [
            ["synthesize", "--code", code, "--out", enc, "--json"],
            ["check", "--code", code, "--encoder", enc, "--json"],
            ["derive-decoder", "--code", code, "--encoder", enc, "--out", dec, "--json"],
        ]
        calls = []
        for argv in argvs:
            calls.append(self.call(argv))
            if calls[-1].rc != 0:
                break
        seconds = sum(c.seconds for c in calls)
        if calls[-1].rc != 0:
            return OpResult(seconds, 1, f"{argvs[len(calls) - 1][0]}: {_failed(calls[-1])}")
        dm = self.expected["decoder_memory"]
        error = (
            self._check_synthesized(calls[0], enc)
            or self._check_check(calls[1])
            or self._check_report(_report(calls[2]), decoder_memory=dm, verdict=NONCAT)
            or self._check_circuit(dec, "decoder", dm)
        )
        return OpResult(seconds, 1, error)

    def _op_check(self) -> OpResult:
        c = self.call(["check", "--code", self.code_path, "--encoder", self.encoder, "--json"])
        return OpResult(c.seconds, 1, self._check_check(c))

    def _op_search(self) -> OpResult:
        budget = self.spec["budget"]
        out = self.work / f"enc{self.ext}"
        out.unlink(missing_ok=True)
        c = self.call([
            "synthesize", "--code", self.code_path, "--max-candidates", budget,
            "--out", out, "--json",
        ])
        if c.rc == 2:  # the documented outcome today: budget exhausted
            ok = f"within {budget} candidates" in c.err
            return OpResult(c.seconds, 1, None if ok else f"exit 2 for another reason: {c.err!r}")
        return OpResult(c.seconds, 1, self._check_synthesized(c, out))

    # -- checks outside the timed loop -----------------------------------------

    def prechecks(self) -> List[str]:
        errors = []
        if self.encoder is not None:
            error = self._check_circuit(self.encoder, "encoder", self.expected["memory"])
            if error:
                errors.append(f"input encoder: {error}")
        if self.spec["kind"] == "simulate":
            errors += self._oracle_check() + self._workers_check()
        return errors

    def _oracle_check(self) -> List[str]:
        """Decoded estimates reproduce the syndrome under the product oracle
        and weigh no more than the sampled error."""
        sim = Simulator(self.code, read_circuit(self.encoder))
        nframes, p = self.spec["frames"], max(self.spec["p"])
        rng = np.random.default_rng([self.seed, 1])
        errors = []
        for t in range(ORACLE_TRIALS):
            error = sample_error(DepolarizingChannel(p), self.code.n * nframes, rng)
            syndrome = syndrome_by_products(self.code, error, nframes)
            if sim.syndrome(error, nframes) != syndrome:
                errors.append(f"oracle trial {t}: Simulator.syndrome differs from the products")
            estimate = sim.decode(syndrome)
            if syndrome_by_products(self.code, estimate, nframes) != syndrome:
                errors.append(f"oracle trial {t}: estimate has another syndrome")
            if estimate.weight() > error.weight():
                errors.append(f"oracle trial {t}: estimate heavier than the error")
        return errors

    def _workers_check(self) -> List[str]:
        """A short seeded run gives the same failure counts with 1 and 2 workers."""
        seed = self.rng.randrange(1 << 31)
        p, trials = self.spec["check_p"], self.spec["check_trials"]
        counts = []
        for workers in (1, 2):
            c = self.call(self._sim_argv(p, trials, seed, workers))
            rows, error = self._sim_rows(c, p, trials, seed)
            if error:
                return [f"workers={workers} check run: {error}"]
            counts.append([r["failures"] for r in rows])
        if counts[0] != counts[1]:
            return [f"failure counts differ by worker count: {counts[0]} vs {counts[1]}"]
        return []

    def wer_check(self) -> List[str]:
        """Pooled WER per p within Z_LIMIT standard errors of the reference."""
        if self.spec["kind"] != "simulate":
            return []
        ref = json.loads((HERE / "reference.json").read_text())[self.name]
        errors = []
        for p in self.spec["p"]:
            point = ref["points"][str(p)]
            n, f = self.trials[p], self.failures[p]
            if n == 0:
                errors.append(f"p={p}: no trials completed")
                continue
            q = point["failures"] / point["trials"]
            sigma = math.sqrt(q * (1 - q) * (1 / n + 1 / point["trials"]))
            if abs(f / n - q) > Z_LIMIT * sigma + 1 / n:
                errors.append(f"p={p}: WER {f}/{n} = {f / n:.4f} vs reference {q:.4f}")
        return errors


def timing_summary(values: List[float]) -> dict:
    """Median and the highest of p75..p99.9 with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else 0.0}
    for q in (99.9, 99, 95, 90, 75):
        if n * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = statistics.quantiles(values, n=1000)[round(q * 10) - 1]
            break
    return out


def main(argv: List[str]) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    inputs, outdir = Path(argv[4]), Path(argv[5])
    wl = Workload(name, seed, inputs, outdir)
    errors = wl.prechecks()
    if trace:
        untraced = wl.run_for(seconds * (1 - TRACED_SHARE))
        wl.tracer = tracing.Tracer(outdir)
        wl.tracer.install()
        traced = wl.run_for(seconds * TRACED_SHARE)
        wl.tracer.dump(outdir / "spans.jsonl")
        phases = {"untraced": untraced, "traced": traced}
        values = tracing.layer_metrics(wl.tracer.spans, len(traced.results))
        u, t = untraced.metrics(), traced.metrics()
        values.update({
            "trace.ops_traced": len(traced.results),
            "trace.op_ms_traced": t["op_ms"],
            "trace.op_cal_untraced": u["op_cal"],
            "trace.op_cal_traced": t["op_cal"],
            "trace.overhead_pct": (t["op_cal"] / u["op_cal"] - 1) * 100,
        })
        units = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        phases = {"untraced": wl.run_for(seconds)}
        m = phases["untraced"].metrics()
        peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {"op_cal": m["op_cal"], "peak_rss_mb": peak_kb / 1024}
        units = {"op_cal": "cal", "peak_rss_mb": "MB"}
    results = [r for phase in phases.values() for r in phase.results]
    errors += wl.wer_check()
    op_errors = [r.error for r in results if r.error]
    report = {
        "correct": not errors and not op_errors,
        "attempted": len(results),
        "failed": len(op_errors),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "phases": {
            name: {**phase.metrics(),
                   "op_ms_tail": timing_summary([r.seconds * 1e3 for r in phase.results]),
                   "op_s": [r.seconds for r in phase.results], "cal_s": phase.cal}
            for name, phase in phases.items()
        },
        "errors": errors + op_errors[:5],
        "wer": {str(p): [wl.failures[p], wl.trials[p]] for p in wl.trials},
    }
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
