"""End-to-end command line checks, mostly in process through main().

Exit codes under test: 0 ok, 1 catastrophic, 2 completion search
exhausted, 64 usage, 65 bad input data (including a circuit that does not
realize its code), 70 internal consistency violation.
"""

import csv
import dataclasses
import json
import multiprocessing
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qconvenc

from conftest import CATASTROPHIC_CODE_TEXT, random_realized
from oracles import render_code
from qconvenc import CliffordCircuit, CliffordGate, parse_circuit, synthesize_encoder, verify_encoder
from qconvenc.catastrophic import is_noncatastrophic
from qconvenc.circuit import circuit_to_text, gram
from qconvenc.cli import main
from qconvenc.code import from_classical_polynomial
from qconvenc.library import FGG_CODE, FGG_CODE_TEXT, FGG_ENCODER, FGG_ENCODER_TEXT, GR_CODE
from qconvenc.simulate import estimate_wer
from qconvenc.skeleton import build_skeleton, minimal_memory, skeleton_commutation_matrix
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


def test_main_builds_the_parser_once(files, capsys, monkeypatch):
    import qconvenc.cli

    built = []
    real = qconvenc.cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(qconvenc.cli, "build_parser", counting)
    monkeypatch.setattr(qconvenc.cli, "_PARSER", None)
    for _ in range(2):
        assert run_cli(capsys, "info", "--code", str(files / "fgg.qcc"))[0] == 0
    assert len(built) == 1


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
        capsys, "synthesize", "--json", "--code", str(files / "fgg.qcc"), "--skeleton",
        "--out", str(files / "fgg_synth.json"),
    )
    assert code == 0
    report = json.loads(out)
    assert list(report) == [
        "n", "k", "nu", "memory", "gates", "verdict", "circuit_file", "skeleton"
    ]
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
        "dynamics": 3,
        "reason": "no non-catastrophic completion within 5 candidates",
    }
    assert not out_file.exists()


def test_synthesize_json_counts_the_search_dynamics(files, capsys):
    # the benchmark's budgeted GR search: 400 leaves over 64 distinct (T, A)
    code, out, err = run_cli(
        capsys, "synthesize", "--json", "--code", str(files / "gr.qcc"), "--max-candidates", "400"
    )
    assert code == 2
    assert err == "inconclusive: no non-catastrophic completion within 400 candidates\n"
    report = json.loads(out)
    assert list(report) == ["verdict", "tried", "budget", "dynamics", "reason"]
    assert (report["tried"], report["budget"], report["dynamics"]) == (400, 400, 64)


def test_synthesize_searches_a_wide_candidate_space(capsys, tmp_path):
    # the first free direction of this m = 13 code has 2^18 candidate outputs
    (tmp_path / "wide.qcc").write_text("n=4\npoly: D^2+D^5+D^7, D^4, D^2+D^5+D^7, D^3\n")
    code, out, err = run_cli(
        capsys, "synthesize", "--json", "--code", str(tmp_path / "wide.qcc"), "--max-candidates", "50"
    )
    assert code == 2
    assert err == "inconclusive: no non-catastrophic completion within 50 candidates\n"
    assert json.loads(out) == {
        "verdict": "inconclusive",
        "tried": 50,
        "budget": 50,
        "dynamics": 26,
        "reason": "no non-catastrophic completion within 50 candidates",
    }


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
    # ten idle memory qubits leave the syndrome trellis as it is
    enc = tmp_path / "fgg_w14.circ"
    enc.write_text(padded_fgg(9))  # m = 10
    argv = ["simulate", "--json", "--code", str(files / "fgg.qcc"), "--p", "0.05,0.2",
            "--frames", "6", "--trials", "300", "--seed", "5"]
    outs = [run_cli(capsys, *argv, "--encoder", str(path)) for path in (enc, files / "fgg_enc.circ")]
    assert outs[0] == outs[1] and outs[0][0] == 0 and "failures" in outs[0][1]
    # the cap counts merged branches: 16 frames share each chunk vector
    # (II, XX, YY or ZZ on wires 1 and 2, anything on wire 3), so a span of
    # 9 frames has 2^16 syndrome states of 1 branch, not 16, and fits; a
    # span of 11 has 2^20 states and does not
    for polys, want in (([257, 257, 0], 0), ([1025, 1025, 0], 65)):
        code = from_classical_polynomial(polys)
        (tmp_path / "long.qcc").write_text(render_code(code))
        (tmp_path / "long.circ").write_text(circuit_to_text(synthesize_encoder(code).circuit))
        code, _, err = run_cli(
            capsys,
            "simulate", "--code", str(tmp_path / "long.qcc"), "--encoder", str(tmp_path / "long.circ"),
            "--p", "0.05", "--frames", "3", "--trials", "5",
        )
        assert code == want
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "1,048,576 states x 1 branches = 1,048,576 cells" in lines[0]
    assert "cap is 262,144" in lines[0]


def test_simulate_runs_a_code_past_the_old_memory_cap(capsys, tmp_path):
    # m = 10 and n = 3; its syndrome responses lead by one frame and span
    # six more, so its trellis has 2^10 states
    code = from_classical_polynomial([26, 114, 70])
    encoder = synthesize_encoder(code).circuit
    assert encoder.width == 13
    (tmp_path / "c.qcc").write_text(render_code(code))
    (tmp_path / "c.circ").write_text(circuit_to_text(encoder))
    rc, out, _ = run_cli(
        capsys,
        "simulate", "--json", "--code", str(tmp_path / "c.qcc"), "--encoder", str(tmp_path / "c.circ"),
        "--p", "0.05", "--frames", "12", "--trials", "40", "--seed", "3",
    )
    assert rc == 0
    (row,) = json.loads(out)
    assert row["trials"] == 40 and row["failures"] == estimate_wer(code, encoder, 0.05, 12, 40, seed=3).failures


# failure counts of `simulate --json`, as the decoder over the encoder's
# memory-state trellis gave them: (code, p list, frames, trials) -> seed ->
# counts
PINNED_RUNS = {
    ("fgg", "0.02,0.05,0.1", "10", "300"): {
        1: [21, 75, 166], 7: [15, 75, 168], (1 << 128) - 1: [23, 79, 171],
    },
    ("gr", "0.01,0.02,0.1", "10", "30"): {
        1: [2, 2, 20], 7: [1, 6, 26], (1 << 128) - 1: [3, 6, 22],
    },
}


@pytest.mark.parametrize("run", list(PINNED_RUNS), ids=lambda run: run[0])
def test_simulate_json_failure_counts_are_pinned(files, capsys, gr_synthesis, tmp_path, run):
    # --workers is accepted and changes nothing
    name, ps, frames, trials = run
    encoder = files / "fgg_enc.circ"
    if name == "gr":
        encoder = tmp_path / "gr.circ"
        encoder.write_text(circuit_to_text(gr_synthesis.circuit))
    for seed, counts in PINNED_RUNS[run].items():
        for workers in (1, 2, 3):
            rc, out, _ = run_cli(
                capsys,
                "simulate", "--json", "--code", str(files / f"{name}.qcc"), "--encoder", str(encoder),
                "--p", ps, "--frames", frames, "--trials", trials,
                "--seed", str(seed), "--workers", str(workers),
            )
            assert rc == 0
            assert [row["failures"] for row in json.loads(out)] == counts


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
    keys = [line.split(":")[0] for line in out.splitlines()[:5]]
    assert keys == ["decoder_memory", "gates", "verdict", "circuit_file", "skeleton"]
    assert "decoder_memory: 2" in out
    assert "verdict: non-catastrophic" in out
    assert "logical X 1 frame 1:" in out
    assert "stabilizer 1 frame 1:" in out
    assert out_path.exists()


@pytest.mark.parametrize("as_json", [False, True])
def test_catastrophic_decoder_exits_70_and_writes_nothing(files, capsys, monkeypatch,
                                                          catastrophic_encoder_map, as_json):
    # the search returns only non-catastrophic decoders, so force the verdict on
    # FGG's: a built circuit with any other verdict is an internal inconsistency
    verdict = is_noncatastrophic(catastrophic_encoder_map, 2, 1)
    assert not verdict.non_catastrophic
    real = qconvenc.cli.derive_online_decoder
    monkeypatch.setattr(qconvenc.cli, "derive_online_decoder",
                        lambda *args: dataclasses.replace(real(*args), verdict=verdict))
    out_path = files / "cat_dec.circ"
    code, out, err = run_cli(
        capsys, "derive-decoder", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"), "--out", str(out_path), *["--json"] * as_json,
    )
    assert code == 70 and out == ""
    assert err == "internal consistency violation: the completion search returned a catastrophic circuit\n"
    assert not out_path.exists()


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


def test_workers_environment_variable_is_ignored(files, capsys, monkeypatch):
    args = [
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.05", "--frames", "3", "--trials", "20",
    ]
    serial = run_cli(capsys, *args)
    assert serial[0] == 0
    # no environment variable changes a run
    monkeypatch.setenv("QCONVENC_WORKERS", "two")
    assert run_cli(capsys, *args) == serial


def _src_env():
    """The environment of a child that finds the package where this
    process imported it from."""
    src = str(Path(qconvenc.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_multiprocessing_out():
    # every command runs in one process
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, qconvenc.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_DESIGN_WITHOUT_NUMPY = """
import sys
import qconvenc
from qconvenc import synthesize_encoder
from qconvenc.cli import main
from qconvenc.library import FGG_CODE_TEXT, FGG_ENCODER_TEXT

code, enc = sys.argv[1], sys.argv[2]
with open(code, "w") as fh:
    fh.write(FGG_CODE_TEXT)
with open(enc, "w") as fh:
    fh.write(FGG_ENCODER_TEXT)
for argv in (["info"], ["synthesize"], ["check", "--encoder", enc], ["derive-decoder", "--encoder", enc]):
    assert main(argv + ["--code", code]) == 0, argv
print("numpy loaded:", "numpy" in sys.modules)
if sys.argv[3] == "simulate":
    assert main(["simulate", "--code", code, "--encoder", enc, "--p", "0.05", "--frames", "2",
                 "--trials", "3"]) == 0
else:
    qconvenc.Simulator
print("numpy loaded:", "numpy" in sys.modules, qconvenc.estimate_wers is qconvenc.simulate.estimate_wers)
"""


@pytest.mark.parametrize("then", ["simulate", "Simulator"])
def test_design_commands_leave_numpy_out(tmp_path, then):
    # only the Monte Carlo needs numpy: the `simulate` command, or a
    # package name that resolves into `qconvenc.simulate`, brings it in
    proc = subprocess.run(
        [sys.executable, "-c", _DESIGN_WITHOUT_NUMPY, str(tmp_path / "fgg.qcc"),
         str(tmp_path / "fgg_enc.circ"), then],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    flags = [line for line in proc.stdout.splitlines() if line.startswith("numpy loaded:")]
    assert flags == ["numpy loaded: False", "numpy loaded: True True"]


def test_simulate_window_too_large_for_memory_exits_65(files):
    # 10^8 frames of FGG's 3 qubits under a 1.5 GB address space, with one
    # BLAS thread so that the interpreter starts well inside it on any core
    # count
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    proc = subprocess.run(
        [sys.executable, "-m", "qconvenc.cli", "simulate", "--code", str(files / "fgg.qcc"),
         "--encoder", str(files / "fgg_enc.circ"), "--p", "0.01", "--frames", "100000000",
         "--trials", "1"],
        capture_output=True, text=True, env={**_src_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit, timeout=120,
    )
    assert proc.returncode == 65, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "qconvenc.cli", "info", "--code", str(files / "fgg.qcc")],
        capture_output=True, text=True, env=_src_env(),
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


def test_check_builds_no_skeleton_and_no_requirement(files, capsys, monkeypatch):
    # check reads the requirement off the operators it verified
    from qconvenc import skeleton

    def refuse(*args):
        raise AssertionError("check derived the skeleton requirement")

    for name in ("build_skeleton", "skeleton_commutation_matrix"):
        original = getattr(skeleton, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("qconvenc")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
    for code_file, encoder in [("fgg.qcc", "fgg_enc.circ"), ("cat.qcc", "cat_enc.circ")]:
        status, out, _ = run_cli(capsys, "check", "--code", str(files / code_file),
                                 "--encoder", str(files / encoder))
        assert status in (0, 1) and "minimal_memory: 1" in out


def test_check_minimal_memory_matches_the_skeleton_requirement(capsys, tmp_path):
    # a symplectic map preserves products, so on every encoder that
    # verifies, the realized memory operators' Gram matrix is the
    # requirement telescoped from the code's skeleton
    shapes = [(n, k, m) for n in range(1, 4) for k in range(n) for m in range(1, 4)]
    for seed in range(300):
        code, smap = random_realized(*shapes[seed % len(shapes)], seed)
        matrix = skeleton_commutation_matrix(build_skeleton(code))
        realized = verify_encoder(code, smap)
        assert tuple(gram([op.vec() for op in realized.operators], realized.m)) == matrix
        (tmp_path / "code.qcc").write_text(render_code(code))
        (tmp_path / "enc.circ").write_text(circuit_to_text(synthesize_circuit(smap)))
        status, out, _ = run_cli(capsys, "check", "--json", "--code", str(tmp_path / "code.qcc"),
                                 "--encoder", str(tmp_path / "enc.circ"))
        assert status in (0, 1)
        assert json.loads(out)["minimal_memory"] == minimal_memory(matrix)


def test_simulate_builds_one_trellis_per_call(files, capsys, monkeypatch):
    import qconvenc.simulate as simulate

    built = []

    class CountingSimulator(simulate.Simulator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(simulate, "Simulator", CountingSimulator)
    code, out, _ = run_cli(
        capsys,
        "simulate", "--code", str(files / "fgg.qcc"),
        "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.01,0.05,0.1", "--frames", "3", "--trials", "20",
    )
    assert code == 0 and len(out.strip().splitlines()) == 4
    assert len(built) == 1


def test_simulate_builds_each_code_once_per_process(files, capsys, gr_synthesis, tmp_path, monkeypatch):
    # FGG, GR, then FGG again in one process: the second FGG run takes the
    # tables of the first, and prints the same bytes
    import qconvenc.simulate as simulate

    built = []
    build = simulate._build_trellis

    def counting(synd, *args):
        built.append(synd.shape[1])  # 4^n frame keys: 64 on FGG, 256 on GR
        return build(synd, *args)

    simulate._code_tables.cache_clear()
    monkeypatch.setattr(simulate, "_build_trellis", counting)
    (tmp_path / "gr_enc.circ").write_text(circuit_to_text(gr_synthesis.circuit))
    fgg = ("fgg.qcc", files / "fgg_enc.circ")
    runs = [fgg, ("gr.qcc", tmp_path / "gr_enc.circ"), fgg]
    outs = []
    for code, encoder in runs:
        status, out, _ = run_cli(
            capsys, "simulate", "--code", str(files / code), "--encoder", str(encoder),
            "--p", "0.05,0.1", "--frames", "4", "--trials", "40", "--seed", "7", "--json",
        )
        assert status == 0
        outs.append(out)
    assert built == [64, 256]
    assert outs[2] == outs[0] and outs[1] != outs[0]


def test_simulate_ignores_workers_and_forks_no_child(files, capsys):
    args = [
        "simulate", "--code", str(files / "fgg.qcc"), "--encoder", str(files / "fgg_enc.circ"),
        "--p", "0.01,0.05,0.1", "--frames", "4", "--trials", "60", "--seed", "4",
    ]
    default = run_cli(capsys, *args)
    assert default[0] == 0 and len(default[1].strip().splitlines()) == 4
    for workers in ("1", "3"):
        assert run_cli(capsys, *args, "--workers", workers) == default
    assert multiprocessing.active_children() == []


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
