"""Set-up step, run in a fresh interpreter: import the CLI, write one
workload's input files.  The caller times the whole process.

Usage: python3 perfbench/gen_inputs.py WORKLOAD SEED OUTDIR
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qconvenc.cli  # noqa: E402,F401  (the import is part of set-up time)

from workloads import write_inputs  # noqa: E402

if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    write_inputs(workload, seed, out)
