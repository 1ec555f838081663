"""Command-line front end.

Subcommands: `info` summarizes a code file, `synthesize` builds a
minimal-memory encoder, `check` verifies a circuit against a code and
settles catastrophicity, `derive-decoder` produces the matching online
decoder, and `simulate` runs the depolarizing-channel Monte Carlo.

Exit codes: 0 success; 1 catastrophic verdict (check, which always
settles the verdict); 2 completion search exhausted (synthesize, which
with --json also reports tried, budget and reason on stdout); 64 bad
usage; 65 unreadable/invalid input data, including a circuit that does
not realize its code, a circuit wider than `circuit.MAX_WIDTH`, an
encoder too wide for the simulate trellis, an encoder whose encoded
logical never returns its memory to the identity (derive-decoder) and a
code whose skeleton rows no encoder satisfies (synthesize); 70 internal
consistency violation (a skeleton or synthesis that contradicts itself).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .catastrophic import MAX_CANDIDATES, is_noncatastrophic
from .circuit import (
    CliffordCircuit,
    SymplecticMap,
    as_symplectic,
    circuit_from_json,
    circuit_to_json,
    circuit_to_text,
    parse_circuit,
    wire_roles,
)
from .code import ConvolutionalCode, parse_code
from .decoder import derive_online_decoder
from .errors import (
    CodeValidationError,
    CompletionSearchExhausted,
    InputDataError,
    MapConsistencyError,
    OrbitError,
    ParseError,
    SkeletonInconsistencyError,
    SynthesisError,
    TrellisError,
)
from .pipeline import synthesize_encoder, verify_encoder
from .simulate import SEED_LIMIT, Simulator, estimate_wers
from .skeleton import (
    MemoryAssignment,
    TransformationSkeleton,
    build_skeleton,
    minimal_memory,
    skeleton_commutation_matrix,
)

EX_OK = 0
EX_CATASTROPHIC = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70

_WORKERS_ENV = "QCONVENC_WORKERS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 64
        raise _UsageError(message)


def _read_code(path: str) -> ConvolutionalCode:
    with open(path) as fh:
        return parse_code(fh.read())


def _read_circuit(path: str) -> CliffordCircuit:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return circuit_from_json(text)
    return parse_circuit(text)


def _read_encoder(
    args: argparse.Namespace,
) -> Tuple[ConvolutionalCode, SymplecticMap, MemoryAssignment, TransformationSkeleton]:
    """The code, the map of the encoder circuit checked against it, the
    memory assignment the circuit realizes and the code's skeleton."""
    code = _read_code(args.code)
    smap = as_symplectic(_read_circuit(args.encoder))
    skeleton = build_skeleton(code)
    try:
        assignment = verify_encoder(code, smap, skeleton)
    except MapConsistencyError as exc:  # a fault of the input, not of the package
        raise InputDataError(f"input circuit does not realize the code: {exc}") from exc
    return code, smap, assignment, skeleton


def _write_circuit(path: str, circuit: CliffordCircuit, n: int, k: int, m: int, direction: str) -> None:
    if path.endswith(".json"):
        ins, outs = wire_roles(n, k, m, direction)
        payload = circuit_to_json(circuit, ins, outs)
    else:
        payload = circuit_to_text(circuit)
    with open(path, "w") as fh:
        fh.write(payload)


def _verdict_word(flag: bool) -> str:
    return "non-catastrophic" if flag else "catastrophic"


def _emit(report: dict, args: argparse.Namespace) -> None:
    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


def _text_block(lines: List[str], args: argparse.Namespace) -> List[str] | str:
    """A multi-line report value: the list itself in JSON, else one block
    of lines starting below its key."""
    return lines if args.as_json else "\n" + "\n".join(lines)


def _render_skeleton(skel: TransformationSkeleton) -> List[str]:
    lines = []
    for i, chain in enumerate(skel.chains, 1):
        slots_in = ["I"] + [f"m[{i},{t}]" for t in range(1, chain.span)]
        slots_out = slots_in[1:] + ["I"]
        for t in range(chain.span):
            lines.append(
                f"{chain.label} frame {t + 1}: "
                f"({slots_in[t]} , {chain.inputs[t].to_string()}) -> "
                f"({chain.outputs[t].to_string()} , {slots_out[t]})"
            )
    return lines


def _render_witness(witness) -> List[str]:
    lines = ["zero-weight cycle with positive logical weight:"]
    for e in witness:
        lines.append(
            f"  {e.before.to_string()} -> {e.after.to_string()}"
            f"  ancilla={e.ancilla.to_string()} info={e.logical.to_string()}"
            f" (logical weight {e.logical_weight})"
        )
    return lines


def _cmd_info(args: argparse.Namespace) -> int:
    code = _read_code(args.code)
    report = {
        "n": code.n,
        "k": code.k,
        "nu": code.nu,
        "generators": [g.to_string() for g in code.generators],
        "valid": True,
    }
    _emit(report, args)
    return EX_OK


def _cmd_synthesize(args: argparse.Namespace) -> int:
    code = _read_code(args.code)
    result = synthesize_encoder(code, max_candidates=args.max_candidates)
    report = {
        "n": code.n,
        "k": code.k,
        "nu": code.nu,
        "memory": result.memory,
        "gates": len(result.circuit),
        "verdict": _verdict_word(result.verdict.non_catastrophic),
    }
    if args.out:
        _write_circuit(args.out, result.circuit, code.n, code.k, result.memory, "encoder")
        report["circuit_file"] = args.out
    if args.skeleton:
        report["skeleton"] = _text_block(_render_skeleton(result.skeleton), args)
    _emit(report, args)
    return EX_OK


def _cmd_check(args: argparse.Namespace) -> int:
    code, smap, assignment, skeleton = _read_encoder(args)
    matrix = skeleton_commutation_matrix(skeleton)
    verdict = is_noncatastrophic(smap, code.n, code.k, assignment.m)
    report = {
        "rows_verified": True,
        "memory": assignment.m,
        "minimal_memory": minimal_memory(matrix),
        "verdict": _verdict_word(verdict.non_catastrophic),
    }
    if args.witness and verdict.witness is not None:
        report["witness"] = _text_block(_render_witness(verdict.witness), args)
    _emit(report, args)
    return EX_OK if verdict.non_catastrophic else EX_CATASTROPHIC


def _cmd_derive_decoder(args: argparse.Namespace) -> int:
    code, smap, _, _ = _read_encoder(args)
    result = derive_online_decoder(code, smap)
    report = {
        "decoder_memory": result.memory,
        "gates": len(result.circuit),
        "verdict": _verdict_word(result.verdict.non_catastrophic),
    }
    if args.out:
        _write_circuit(args.out, result.circuit, code.n, code.k, result.memory, "decoder")
        report["circuit_file"] = args.out
    if args.skeleton:
        report["skeleton"] = _text_block(_render_skeleton(result.skeleton), args)
    _emit(report, args)
    return EX_OK


_GNUPLOT_TEMPLATE = """\
set datafile separator ","
set logscale y
set xlabel "depolarizing probability p"
set ylabel "word error rate"
set key left top
plot "{csv}" skip 1 using 1:5:6 with yerrorlines title "WER (95% CI)"
"""


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.gnuplot and not args.out:
        raise _UsageError("--gnuplot needs --out (the script references the CSV)")
    code, smap, _, _ = _read_encoder(args)
    sim = Simulator(code, smap)
    rows = estimate_wers(
        code, sim, args.p, args.frames, args.trials, seed=args.seed, workers=args.workers
    )
    header = ["p", "frames", "trials", "failures", "wer", "ci95", "seed"]
    table = [
        [r.p, r.frames, r.trials, r.failures, r.word_error_rate, r.confidence_halfwidth, r.seed]
        for r in rows
    ]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(table)
    if args.as_json:
        print(json.dumps([dict(zip(header, row)) for row in table], indent=2))
    else:
        print(",".join(header))
        for row in table:
            print(",".join(str(v) for v in row))
    if args.gnuplot:
        script = args.out + ".gp"
        with open(script, "w") as fh:
            fh.write(_GNUPLOT_TEMPLATE.format(csv=args.out))
        print(f"gnuplot script: {script}", file=sys.stderr)
    return EX_OK


_COMMANDS = {
    "info": _cmd_info,
    "synthesize": _cmd_synthesize,
    "check": _cmd_check,
    "derive-decoder": _cmd_derive_decoder,
    "simulate": _cmd_simulate,
}


def run(args: argparse.Namespace) -> int:
    """Execute one job; maps domain errors onto the documented exit codes."""
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (ParseError, CodeValidationError, InputDataError, OrbitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATA
    except CompletionSearchExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        if args.as_json:
            _emit({"verdict": "inconclusive", "tried": exc.tried,
                   "budget": exc.budget, "reason": str(exc)}, args)
        return EX_INCONCLUSIVE
    except (MapConsistencyError, SkeletonInconsistencyError, SynthesisError,
            TrellisError) as exc:
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EX_INTERNAL


def _float_list(text: str) -> List[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise _UsageError(f"bad probability list: {text!r}")
    if not values:
        raise _UsageError("empty probability list")
    for v in values:
        if not 0.0 <= v < 0.75:
            raise _UsageError(f"p={v} outside [0, 3/4) where weight decoding is ML")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"want a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"want an integer in [0, 2^128), got {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="qconvenc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, encoder=False):
        p.add_argument("--code", required=True, help="code file")
        if encoder:
            p.add_argument("--encoder", required=True, help="encoder circuit file")
        p.add_argument("--json", dest="as_json", action="store_true",
                       help="machine-readable report")

    p = sub.add_parser("info", help="summarize and validate a code file")
    common(p)

    p = sub.add_parser("synthesize", help="build a minimal-memory encoder")
    common(p)
    p.add_argument("--out", help="write the encoder circuit here (.json for JSON)")
    p.add_argument("--skeleton", action="store_true",
                   help="also print the transformation rows with memory slots")
    p.add_argument("--max-candidates", type=_positive_int, default=MAX_CANDIDATES,
                   help="completion search budget (default %(default)s)")

    p = sub.add_parser("check", help="verify a circuit against a code")
    common(p, encoder=True)
    p.add_argument("--witness", action="store_true",
                   help="print the offending zero-weight cycle if catastrophic")

    p = sub.add_parser("derive-decoder", help="derive the matching online decoder")
    common(p, encoder=True)
    p.add_argument("--out", help="write the decoder circuit here (.json for JSON)")
    p.add_argument("--skeleton", action="store_true",
                   help="also print the decoder transformation rows")

    p = sub.add_parser("simulate", help="depolarizing-channel Monte Carlo")
    common(p, encoder=True)
    p.add_argument("--p", required=True, type=_float_list,
                   help="comma-separated depolarizing probabilities")
    p.add_argument("--frames", required=True, type=_positive_int, help="window length N")
    p.add_argument("--trials", required=True, type=_positive_int, help="trials per point")
    p.add_argument("--seed", type=_seed, default=0, help="master seed in [0, 2^128) (default 0)")
    # argparse runs a string default through type= only when the flag is
    # absent, so a bad environment value is a usage error of `simulate` alone
    p.add_argument("--workers", type=_positive_int,
                   default=os.environ.get(_WORKERS_ENV) or None,
                   help=f"worker processes (default ${_WORKERS_ENV} or serial)")
    p.add_argument("--out", help="write results CSV here")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write a gnuplot script next to the CSV")

    return parser


# one parser per value of the variable that sets the --workers default,
# built by the first `main` call that sees that value
_PARSERS: Dict[Optional[str], _Parser] = {}


def main(argv: Optional[Sequence[str]] = None) -> int:
    workers = os.environ.get(_WORKERS_ENV) or None
    parser = _PARSERS.get(workers)
    if parser is None:
        parser = _PARSERS[workers] = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
