"""qconvenc benchmark: one run of one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Set-up is timed as `setup_s`: a fresh interpreter imports qconvenc.cli and
writes the workload's input files (gen_inputs.py).  It runs SETUP_REPS times
before the measured loop and SETUP_REPS_AFTER times after it, and the median
is reported; consecutive set-ups on a shared machine read alike, so spreading
them over the run samples more of its speed drift.  The measured loop then runs in a process of its own
(loop.py), so that `peak_rss_mb` covers that process and its pool workers
only.  A human-readable summary and the run record precede the result,
which is the last line of standard output:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exits 1 when an output check fails, and 2, without a result line, when the
package source (src/qconvenc) is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_REPS = 3
SETUP_REPS_AFTER = 4
SETUP_TIMEOUT_S = 30
LOOP_GRACE_S = 100

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "pytest_benchmark": _version("pytest-benchmark"),
        "start_method": multiprocessing.get_start_method(),
    }


def _run_child(cmd, timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own session; on timeout kill the whole group (pool
    workers included) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def setup(workload: str, seed: int, inputs: Path, reps: int) -> list:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        done = _run_child(
            [sys.executable, str(HERE / "gen_inputs.py"), workload, str(seed), str(inputs)],
            SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"input generation exited {done.returncode}")
    return times


def _declared(trace: int) -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _summary(args, result: dict, phases: dict, setup_times: list) -> list:
    lines = [f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
             f"{result['attempted']} ops, {result['failed']} failed"]
    for name, ph in phases.items():
        t = ph["op_ms_tail"]
        tails = [f"{k} {v:.3f} ms (10+ samples beyond)" for k, v in t.items() if k[0] == "p"]
        lines.append(
            f"  {name}: op median {t['median']:.3f} ms over {t['n']} ops, "
            + (tails[0] if tails else "too few ops for a tail percentile")
            + f"; {ph['work_per_s']:.6g} work/s; calibration loop {ph['cal_ms']:.4f} ms"
        )
    if not args.trace:
        lines.append(f"  setup: {len(setup_times)} set-ups, "
                     f"{min(setup_times):.3f} to {max(setup_times):.3f} s")
    width = max(len(k) for k in result["metrics"])
    for key, m in result["metrics"].items():
        lines.append(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    return lines


def run_one(args) -> int:
    record = run_record(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = setup(args.workload, args.seed, work / "inputs", SETUP_REPS)
        done = _run_child(
            [sys.executable, str(HERE / "loop.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(work / "inputs"), str(work)],
            args.seconds + LOOP_GRACE_S,
        )
        setup_times += setup(args.workload, args.seed, work / "again", SETUP_REPS_AFTER)
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"error: the measured loop exited {done.returncode} without a report",
                  file=sys.stderr)
            return 1
        report = json.loads(lines[-1])
        spans = work / "spans.jsonl"
        if spans.exists():
            shutil.move(str(spans), str(STATE / f"{tag}-spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = report["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    declared = _declared(args.trace)
    emitted = {k: m["unit"] for k, m in metrics.items()}
    if emitted != declared:
        print(f"error: metrics {emitted} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 1
    result = {k: report[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {k: metrics[k] for k in declared}
    for line in _summary(args, result, report["phases"], setup_times):
        print(line)
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")
    full = {"record": record, "setup_s": setup_times, **report, **result}
    (STATE / f"{tag}.json").write_text(json.dumps(full, indent=1))
    print("run_record: " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] and done.returncode == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qconvenc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qconvenc'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOADS:
        status |= run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    return status


if __name__ == "__main__":
    sys.exit(main())
