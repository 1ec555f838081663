"""End-to-end command line checks, mostly in process through main().

Exit codes under test: 0 ok, 1 catastrophic, 2 completion search
exhausted, 64 usage, 65 bad input data (including a circuit that does not
realize its code), 70 internal consistency violation.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qconvenc

from conftest import CATASTROPHIC_CODE_TEXT
from oracles import render_code
from qconvenc import CliffordCircuit, CliffordGate, parse_circuit
from qconvenc.circuit import circuit_to_text
from qconvenc.cli import main
from qconvenc.library import FGG_CODE, FGG_CODE_TEXT, FGG_ENCODER, FGG_ENCODER_TEXT, GR_CODE
from qconvenc.simulate import estimate_wer
from qconvenc.synthesis import synthesize_circuit


@pytest.fixture(scope="module")
def files(tmp_path_factory, catastrophic_encoder_map):
    d = tmp_path_factory.mktemp("cli")
    (d / "fgg.qcc").write_text(FGG_CODE_TEXT)
    (d / "fgg_enc.circ").write_text(FGG_ENCODER_TEXT)
    (d / "gr.qcc").write_text(render_code(GR_CODE))
    (d / "cat.qcc").write_text(CATASTROPHIC_CODE_TEXT)
    cat_circ = synthesize_circuit(catastrophic_encoder_map)
    (d / "cat_enc.circ").write_text("\n".join(
        f"{g.kind} {' '.join(str(q) for q in g.qubits)}" for g in cat_circ.gates
    ) + "\n")
    (d / "broken.qcc").write_text("n=3\nXX|XX\n")  # width 2 rows under n=3
    return d


def padded_fgg(extra: int) -> str:
    """The published FGG encoder with `extra` >= 3 idle memory qubits: its
    gates act on wires 1 and extra+2..extra+4, then three swaps bring the
    emitted frame to wires 1-3 and the memory to wire 4, leaving the idle
    memory on wires 5 onwards."""
    wire = {1: 1, 2: extra + 2, 3: extra + 3, 4: extra + 4}
    gates = [CliffordGate(g.kind, tuple(wire[q] for q in g.qubits)) for g in FGG_ENCODER.gates]
    gates += [CliffordGate("SWAP", (q, extra + q)) for q in (2, 3, 4)]
    return circuit_to_text(CliffordCircuit(extra + 4, tuple(gates)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_reports_parameters(files, capsys):
    code, out, _ = run_cli(capsys, "info", "--code", str(files / "fgg.qcc"))
    assert code == 0
    assert "n: 3" in out and "k: 1" in out and "nu: 2" in out


def test_info_json(files, capsys):
    code, out, _ = run_cli(capsys, "info", "--json", "--code", str(files / "fgg.qcc"))
    assert code == 0
    report = json.loads(out)
    assert report["valid"] is True
    assert report["generators"] == [g.to_string() for g in FGG_CODE.generators]


@pytest.mark.parametrize("command", ["info", "synthesize", "check", "derive-decoder", "simulate"])
def test_command_validates_the_code_once(files, capsys, monkeypatch, command):
    import qconvenc.code

    calls = []
    real = qconvenc.code.validate

    def counting(code):
        calls.append(code)
        real(code)

    # patch every package namespace that holds the function, so that a call
    # made through a `from .code import validate` copy is counted too
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qconvenc" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    extra = [] if command in ("info", "synthesize") else ["--encoder", str(files / "fgg_enc.circ")]
    if command == "simulate":
        extra += ["--p", "0.05", "--frames", "3", "--trials", "10"]
    code, _, _ = run_cli(capsys, command, "--code", str(files / "fgg.qcc"), *extra)
    assert code == 0
    assert len(calls) == 1


def test_main_builds_the_parser_once_per_environment(files, capsys, monkeypatch):
    import qconvenc.cli

    built = []
    real = qconvenc.cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(qconvenc.cli, "build_parser", counting)
    monkeypatch.setattr(qconvenc.cli, "_PARSERS", {})
    monkeypatch.delenv("QCONVENC_WORKERS", raising=False)
    for _ in range(2):
        assert run_cli(capsys, "info", "--code", str(files / "fgg.qcc"))[0] == 0
    assert len(built) == 1
    # the variable sets the --workers default, so a new value needs its own parser
    monkeypatch.setenv("QCONVENC_WORKERS", "2")
    assert run_cli(capsys, "info", "--code", str(files / "fgg.qcc"))[0] == 0
    assert len(built) == 2


def test_missing_file_is_data_error(files, capsys):
    code, _, err = run_cli(capsys, "info", "--code", str(files / "nope.qcc"))
    assert code == 65
    assert "error:" in err


def test_malformed_code_is_data_error(files, capsys):
    code, _, err = run_cli(capsys, "info", "--code", str(files / "broken.qcc"))
    assert code == 65
    assert "error:" in err


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 64
    assert "usage error" in err


def test_unknown_flag_is_usage_error(files, capsys):
    code, _, err = run_cli(capsys, "info", "--code", str(files / "fgg.qcc"), "--bogus")
    assert code == 64


def test_synthesize_fgg(files, capsys):
    out_path = files / "fgg_synth.circ"
    code, out, _ = run_cli(
        capsys, "synthesize", "--code", str(files / "fgg.qcc"), "--out", str(out_path)
    )
    assert code == 0
    assert "memory: 1" in out
    assert "verdict: non-catastrophic" in out
    assert out_path.exists()


def test_synthesized_circuit_passes_check(files, capsys):
    out_path = files / "fgg_synth2.circ"
    assert run_cli(
        capsys, "synthesize", "--code", str(files / "fgg.qcc"), "--out", str(out_path)
    )[0] == 0
    code, out, _ = run_cli(
        capsys, "check", "--code", str(files / "fgg.qcc"), "--encoder", str(out_path)
    )
    assert code == 0
    assert "rows_verified: True" in out
    assert "memory: 1" in out and "minimal_memory: 1" in out
    assert "verdict: non-catastrophic" in out


def test_synthesize_skeleton_rendering(files, capsys):
    code, out, _ = run_cli(
        capsys, "synthesize", "--code", str(files / "fgg.qcc"), "--skeleton"
    )
    assert code == 0
    assert "generator 1 frame 1: (I , ZII) -> (XXX , m[1,1])" in out
    assert "generator 1 frame 2: (m[1,1] , III) -> (XZY , I)" in out
    assert "generator 2 frame 2: (m[2,1] , III) -> (ZYX , I)" in out


@pytest.mark.parametrize("code_file", ["fgg.qcc", "gr.qcc"])
@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_synthesize_rejects_bad_max_candidates(files, capsys, code_file, value):
    code, out, err = run_cli(
        capsys, "synthesize", "--code", str(files / code_file), "--max-candidates", value
    )
    assert code == 64
    assert out == ""
    assert "--max-candidates" in err and len(err.splitlines()) == 1


def test_synthesize_json_report(files, capsys):
    code, out, _ = run_cli(
        capsys, "synthesize", "--json", "--code", str(files / "fgg.qcc"), "--skeleton"
    )
    assert code == 0
    report = json.loads(out)
    assert report["memory"] == 1
    assert report["verdict"] == "non-catastrophic"
    assert isinstance(report["skeleton"], list) and len(report["skeleton"]) == 4


def test_synthesize_search_budget_exhaustion(files, capsys):
    code, out, err = run_cli(
        capsys, "synthesize", "--code", str(files / "gr.qcc"), "--max-candidates", "5"
    )
    assert code == 2 and out == ""
    assert "inconclusive" in err and "within 5 candidates" in err


def test_synthesize_json_reports_an_exhausted_search(files, capsys, tmp_path):
    out_file = tmp_path / "enc.circ"
    code, out, err = run_cli(
        capsys, "synthesize", "--json", "--code", str(files / "gr.qcc"),
        "--max-candidates", "5", "--out", str(out_file),
    )
    assert code == 2
    assert err == "inconclusive: no non-catastrophic completion within 5 candidates\n"
    assert json.loads(out) == {
        "verdict": "inconclusive",
        "tried": 5,
        "budget": 5,
        "reason": "no non-catastrophic completion within 5 candidates",
    }
    assert not out_file.exists()


def test_check_reference_encoder(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
    )
    assert code == 0
    assert "verdict: non-catastrophic" in out


def test_check_broken_circuit_is_data_error(files, capsys):
    lines = FGG_ENCODER_TEXT.strip().splitlines()
    bad = files / "fgg_bad.circ"
    bad.write_text("\n".join(lines[:-1]) + "\n")  # drop the final gate
    code, _, err = run_cli(
        capsys,
        "check", "--code", str(files / "fgg.qcc"), "--encoder", str(bad),
    )
    assert code == 65
    assert "error: input circuit does not realize the code: generator" in err


@pytest.mark.parametrize("command", ["check", "derive-decoder", "simulate"])
def test_circuit_not_realizing_code_is_data_error(files, capsys, tmp_path, command):
    ident = tmp_path / "ident.circ"
    ident.write_text("# width: 14\n")
    extra = ["--p", "0.05", "--frames", "3", "--trials", "5"] if command == "simulate" else []
    code, _, err = run_cli(
        capsys, command, "--code", str(files / "fgg.qcc"), "--encoder", str(ident), *extra
    )
    assert code == 65
    assert err.strip().splitlines() == [
        "error: input circuit does not realize the code: generator 1, frame 1: "
        "circuit emits III but the code requires XXX"
    ]


def test_check_settles_memory_above_old_enumeration_cap(capsys, files, tmp_path):
    # eleven memory qubits used to exceed the state-graph cap and exit 2
    enc = tmp_path / "fgg_m11.circ"
    enc.write_text(padded_fgg(10))
    code, out, _ = run_cli(
        capsys, "check", "--json", "--code", str(files / "fgg.qcc"), "--encoder", str(enc)
    )
    assert code == 0
    report = json.loads(out)
    assert report["memory"] == 11 and report["minimal_memory"] == 1
    assert report["verdict"] == "non-catastrophic"
    assert "note" not in report


def test_simulate_above_trellis_cap_is_data_error(capsys, files, tmp_path):
    enc = tmp_path / "fgg_w13.circ"
    enc.write_text(padded_fgg(9))  # m + n = 10 + 3
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"), "--encoder", str(enc),
        "--p", "0.05", "--frames", "3", "--trials", "5",
    )
    assert code == 65
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "m + n = 13" in lines[0] and "cap of 12" in lines[0]


def test_check_catastrophic_with_witness(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--code", str(files / "cat.qcc"),
        "--encoder", str(files / "cat_enc.circ"), "--witness",
    )
    assert code == 1
    assert "verdict: catastrophic" in out
    assert "zero-weight cycle with positive logical weight:" in out
    assert "logical weight" in out


def test_check_catastrophic_json_witness(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "check", "--json", "--code", str(files / "cat.qcc"),
        "--encoder", str(files / "cat_enc.circ"), "--witness",
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "catastrophic"
    assert report["witness"][0].startswith("zero-weight cycle")


def test_derive_decoder(files, capsys):
    out_path = files / "fgg_dec.circ"
    code, out, _ = run_cli(
        capsys,
        "derive-decoder", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--out", str(out_path), "--skeleton",
    )
    assert code == 0
    assert "decoder_memory: 2" in out
    assert "verdict: non-catastrophic" in out
    assert "logical X 1 frame 1:" in out
    assert "stabilizer 1 frame 1:" in out
    assert out_path.exists()


def test_json_circuit_files_round_trip(files, capsys):
    enc_json = files / "enc.json"
    assert run_cli(
        capsys, "synthesize", "--code", str(files / "fgg.qcc"), "--out", str(enc_json)
    )[0] == 0
    payload = json.loads(enc_json.read_text())
    assert payload["input_roles"] == ["mem", "anc", "anc", "info"]
    # autodetected as JSON on the way back in
    code, out, _ = run_cli(
        capsys, "check", "--code", str(files / "fgg.qcc"), "--encoder", str(enc_json)
    )
    assert code == 0 and "non-catastrophic" in out


def test_simulate_matches_library(files, capsys, tmp_path):
    out_csv = tmp_path / "results.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "4", "--trials", "100",
        "--seed", "3", "--out", str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["p", "frames", "trials", "failures", "wer", "ci95", "seed"]
    assert len(rows) == 1
    ref = estimate_wer(FGG_CODE, parse_circuit(FGG_ENCODER_TEXT), 0.05, 4, 100, seed=3)
    assert int(rows[0]["failures"]) == ref.failures
    assert float(rows[0]["wer"]) == ref.word_error_rate
    assert float(rows[0]["ci95"]) == ref.confidence_halfwidth
    assert "wer" in out.splitlines()[0]


def test_simulate_multiple_points(files, capsys):
    code, out, _ = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.01,0.05", "--frames", "3", "--trials", "50", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert [row["p"] for row in report] == [0.01, 0.05]
    assert all(row["trials"] == 50 for row in report)


def test_simulate_gnuplot_writes_script(files, capsys, tmp_path):
    out_csv = tmp_path / "wer.csv"
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "20",
        "--out", str(out_csv), "--gnuplot",
    )
    assert code == 0
    script = out_csv.with_suffix(".csv.gp")
    assert script.exists()
    text = script.read_text()
    assert "yerrorlines" in text and out_csv.name in text
    assert "gnuplot script" in err


def test_simulate_gnuplot_requires_out(files, capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "20", "--gnuplot",
    )
    assert code == 64
    assert "--gnuplot needs --out" in err
    # refused before the Monte Carlo runs, so no CSV reaches stdout
    assert out == ""


def test_simulate_rejects_p_outside_ml_range(files, capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.9", "--frames", "3", "--trials", "20",
    )
    assert code == 64
    assert "outside" in err


def test_simulate_rejects_nonpositive_trials(files, capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "0",
    )
    assert code == 64


def test_simulate_workers_env_matches_serial(files, capsys, tmp_path, monkeypatch):
    args = [
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "4", "--trials", "100", "--seed", "7",
    ]
    serial_csv = tmp_path / "serial.csv"
    assert run_cli(capsys, *args, "--out", str(serial_csv))[0] == 0
    monkeypatch.setenv("QCONVENC_WORKERS", "3")
    par_csv = tmp_path / "par.csv"
    assert run_cli(capsys, *args, "--out", str(par_csv))[0] == 0
    assert serial_csv.read_text() == par_csv.read_text()


@pytest.mark.parametrize(
    "text", ['{"width": 4, "gates": [["H", 1]', '{"width": 4}', '{"width": 4, "gates": [["H"]]}']
)
def test_malformed_json_circuit_is_data_error(files, capsys, tmp_path, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run_cli(
        capsys, "check", "--code", str(files / "fgg.qcc"), "--encoder", str(bad)
    )
    assert code == 65
    assert "error:" in err


@pytest.mark.parametrize(
    "text", ["n=3\n", "n=3\nIII\n", "n=3\nXXX|XZY\nIII|III\n", "n=1\nZ\nZ|Z\n"]
)
@pytest.mark.parametrize("command", ["info", "synthesize"])
def test_empty_or_identity_code_is_data_error(capsys, tmp_path, text, command):
    path = tmp_path / "empty.qcc"
    path.write_text(text)
    code, _, err = run_cli(capsys, command, "--code", str(path))
    assert code == 65
    assert "error:" in err


# valid codes no encoder skeleton realizes, because the generators' last
# frames are dependent: a short generator whose only frame equals the
# other's last, two equal generators, and two generators that end in the
# same frame
@pytest.mark.parametrize("text", ["n=2\nZY|YX\nYX\n", "n=2\nXX\nXX\n", "n=3\nZZZ|ZYY\nZXX|ZYY\n"])
def test_unencodable_generators_are_data_error(capsys, tmp_path, text):
    path = tmp_path / "code.qcc"
    path.write_text(text)
    assert run_cli(capsys, "info", "--code", str(path))[0] == 0
    code, _, err = run_cli(capsys, "synthesize", "--code", str(path))
    assert code == 65
    assert err.startswith("error: ") and "nu = " in err


# a code with a generator shorter than the other, and a valid one-memory
# encoder for it; its skeleton runs each generator over its own span
SHORT_CODE_TEXT = "n=2\nIX|IX\nXI\n"
SHORT_ENCODER_TEXT = "# width: 3\n" + "\n".join(
    ["H 3", "H 3", "H 3", "H 2", "H 2", "SWAP 3 2", "H 3", "H 1", "CZ 1 3", "H 1", "SWAP 2 1"]
) + "\n"


@pytest.fixture
def short_files(tmp_path):
    (tmp_path / "short.qcc").write_text(SHORT_CODE_TEXT)
    (tmp_path / "short.circ").write_text(SHORT_ENCODER_TEXT)
    return tmp_path


@pytest.mark.parametrize("command", ["check", "derive-decoder", "simulate"])
def test_short_generator_encoder_is_accepted(capsys, short_files, command):
    extra = ["--p", "0.05", "--frames", "4", "--trials", "20", "--workers", "1"] if command == "simulate" else []
    code, _, err = run_cli(
        capsys, command, "--code", str(short_files / "short.qcc"),
        "--encoder", str(short_files / "short.circ"), *extra,
    )
    assert code == 0, err


def test_short_generator_check_reports_minimal_memory(capsys, short_files):
    code, out, _ = run_cli(
        capsys, "check", "--json", "--code", str(short_files / "short.qcc"),
        "--encoder", str(short_files / "short.circ"),
    )
    assert code == 0
    report = json.loads(out)
    assert report["memory"] == 1 and report["minimal_memory"] == 1


def test_short_generator_code_synthesizes(capsys, short_files):
    out_path = short_files / "enc.circ"
    code, out, err = run_cli(
        capsys, "synthesize", "--code", str(short_files / "short.qcc"), "--out", str(out_path)
    )
    assert code == 0, err
    assert "memory: 1" in out
    code, out, _ = run_cli(
        capsys, "check", "--code", str(short_files / "short.qcc"), "--encoder", str(out_path)
    )
    assert code == 0 and "verdict: non-catastrophic" in out


def test_derive_decoder_on_non_closing_logical_is_data_error(files, capsys):
    # the catastrophic encoder's logical Z leaves the memory at X for good
    code, _, err = run_cli(
        capsys, "derive-decoder", "--code", str(files / "cat.qcc"),
        "--encoder", str(files / "cat_enc.circ"),
    )
    assert code == 65
    assert err.strip().splitlines() == ["error: memory orbit of IZ never closes; stuck at X"]


@pytest.mark.parametrize("flag, value", [("--frames", "0"), ("--trials", "-2"), ("--frames", "x")])
def test_simulate_rejects_bad_counts(files, capsys, flag, value):
    counts = {"--frames": "3", "--trials": "20", flag: value}
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"), "--p", "0.05",
        *(item for pair in counts.items() for item in pair),
    )
    assert code == 64
    assert flag in err


@pytest.mark.parametrize("value", ["two", "0"])
def test_bad_workers_env_fails_simulate_only(files, capsys, monkeypatch, value):
    monkeypatch.setenv("QCONVENC_WORKERS", value)
    assert run_cli(capsys, "info", "--code", str(files / "fgg.qcc"))[0] == 0
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "20",
    )
    assert code == 64
    assert "--workers" in err
    # an explicit flag overrides the environment
    assert run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "20", "--workers", "1",
    )[0] == 0


def test_module_entry_point(files):
    # the child finds the package where this process imported it from
    src = str(Path(qconvenc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qconvenc.cli", "info", "--code", str(files / "fgg.qcc")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "n: 3" in proc.stdout


@pytest.mark.parametrize(
    "name, text",
    [
        ("huge.circ", "# width: 1000000000\nH 1\n"),
        ("huge.json", '{"width": 1000000000, "gates": [["H", 1]]}'),
    ],
)
def test_huge_declared_width_is_data_error(files, capsys, tmp_path, name, text):
    enc = tmp_path / name
    enc.write_text(text)
    code, _, err = run_cli(capsys, "check", "--code", str(files / "fgg.qcc"), "--encoder", str(enc))
    assert code == 65
    assert err.strip().splitlines() == ["error: circuit width 1000000000 exceeds the cap of 1024 qubits"]


def test_check_walks_the_witness_only_when_asked(files, capsys, monkeypatch):
    import qconvenc.catastrophic as cat

    edges = []
    real = cat._encoder_edge
    monkeypatch.setattr(cat, "_encoder_edge", lambda *args: edges.append(args) or real(*args))
    args = ["check", "--code", str(files / "cat.qcc"), "--encoder", str(files / "cat_enc.circ")]
    assert run_cli(capsys, *args)[0] == 1
    assert edges == []
    assert run_cli(capsys, *args, "--witness")[0] == 1
    assert edges


def test_check_builds_the_skeleton_once(files, capsys, monkeypatch):
    import qconvenc.cli as cli
    import qconvenc.pipeline as pipeline

    built = []
    real = cli.build_skeleton

    def counting(code):
        built.append(code)
        return real(code)

    monkeypatch.setattr(cli, "build_skeleton", counting)
    monkeypatch.setattr(pipeline, "build_skeleton", counting)
    args = ["check", "--code", str(files / "fgg.qcc"), "--encoder", str(files / "fgg_enc.circ")]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and "minimal_memory: 1" in out
    assert len(built) == 1


def test_simulate_builds_one_trellis_per_call(files, capsys, monkeypatch):
    import qconvenc.cli as cli

    built = []

    class CountingSimulator(cli.Simulator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cli, "Simulator", CountingSimulator)
    code, out, _ = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.01,0.05,0.1", "--frames", "3", "--trials", "20",
    )
    assert code == 0 and len(out.strip().splitlines()) == 4
    assert len(built) == 1


def test_simulate_runs_every_point_through_one_pool(files, capsys, monkeypatch):
    import qconvenc.simulate as simulate

    pools = []

    class CountingPool(simulate.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(simulate, "ProcessPoolExecutor", CountingPool)
    args = [
        "simulate", "--code", str(files / "fgg.qcc"), "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.01,0.05,0.1", "--frames", "4", "--trials", "60", "--seed", "4",
    ]
    code, serial, _ = run_cli(capsys, *args, "--workers", "1")
    assert code == 0 and pools == []
    code, parallel, _ = run_cli(capsys, *args, "--workers", "2")
    assert code == 0 and len(pools) == 1
    assert parallel == serial and len(serial.strip().splitlines()) == 4


@pytest.mark.parametrize("seed", ["-1", str(2**128), "x"])
def test_simulate_rejects_seeds_outside_the_key_range(files, capsys, seed):
    code, _, err = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"), "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "5", "--seed", seed,
    )
    assert code == 64
    assert len(err.strip().splitlines()) == 1 and "--seed" in err


def test_simulate_accepts_both_ends_of_the_key_range(files, capsys):
    for seed in ("0", str(2**128 - 1)):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--code", str(files / "fgg.qcc"), "--encoder", str(files / "fgg_enc.circ"),
            "--p", "0.05", "--frames", "3", "--trials", "5", "--seed", seed,
        )
        assert code == 0 and out.strip().splitlines()[1].endswith("," + seed)
