"""Byte-identity corpus: CLI runs replayed in-process against stored outputs.

`golden/manifest.json` lists each run's name, argv (paths relative to the
run's directory, which holds a copy of `golden/inputs/`), exit code and the
files it writes.  `golden/expected/` holds each run's stdout and stderr
(`<name>.stdout`, `<name>.stderr`) and every file it writes, under that
file's own name.  A deliberate change to an output is recorded by running

    PYTHONPATH=src python tests/test_golden.py

which rewrites the expected exit codes and files from the current code.
"""

import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qconvenc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"
MANIFEST = GOLDEN / "manifest.json"


def _runs():
    return json.loads(MANIFEST.read_text())


def replay(run: dict, cwd: Path) -> dict:
    """Run one manifest entry through `cli.main` in `cwd`, an empty directory
    given a copy of the inputs; its exit code, stdout, stderr and the files
    it wrote."""
    for src in INPUTS.iterdir():
        shutil.copy(src, cwd / src.name)
    before = set(os.listdir(cwd))
    out, err = StringIO(), StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(run["argv"])
    finally:
        os.chdir(old)
    written = {name: (cwd / name).read_text() for name in sorted(set(os.listdir(cwd)) - before)}
    return {"exit": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": written}


def test_manifest_covers_every_command_and_exit():
    runs = _runs()
    assert {r["argv"][0] for r in runs} == {"info", "synthesize", "check", "derive-decoder", "simulate"}
    assert {r["exit"] for r in runs} == {0, 1, 2, 64, 65, 70}
    assert len({r["name"] for r in runs}) == len(runs)
    # expected/ is flat: each written file keeps its own name beside the runs' streams
    written = [name for r in runs for name in r["writes"]]
    assert len(set(written)) == len(written)
    streams = {f"{r['name']}.{s}" for r in runs for s in ("stdout", "stderr")}
    assert not streams & set(written)


@pytest.mark.parametrize("run", _runs(), ids=lambda r: r["name"])
def test_cli_output_is_byte_identical(run, tmp_path):
    got = replay(run, tmp_path)
    assert got["exit"] == run["exit"]
    assert got["stdout"] == (EXPECTED / f"{run['name']}.stdout").read_text()
    assert got["stderr"] == (EXPECTED / f"{run['name']}.stderr").read_text()
    assert sorted(got["files"]) == run["writes"]
    for name, text in got["files"].items():
        assert text == (EXPECTED / name).read_text(), name


def regenerate() -> None:
    runs = _runs()
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for run in runs:
        with tempfile.TemporaryDirectory() as tmp:
            got = replay(run, Path(tmp))
        run["exit"], run["writes"] = got["exit"], sorted(got["files"])
        (EXPECTED / f"{run['name']}.stdout").write_text(got["stdout"])
        (EXPECTED / f"{run['name']}.stderr").write_text(got["stderr"])
        for name, text in got["files"].items():
            (EXPECTED / name).write_text(text)
    MANIFEST.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
