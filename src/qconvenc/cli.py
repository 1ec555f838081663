"""Command-line front end.

Subcommands: `info` summarizes a code file, `synthesize` builds a
minimal-memory encoder, `check` verifies a circuit against a code and
settles catastrophicity, `derive-decoder` produces the matching online
decoder, and `simulate` runs the depolarizing-channel Monte Carlo.

Exit codes: 0 success; 1 catastrophic verdict (check, which always
settles the verdict); 2 completion search exhausted (synthesize and
derive-decoder, which with --json also report tried, budget, dynamics
and reason on stdout; dynamics counts the distinct memory dynamics
(T, A) the search met); 64 bad usage; 65 unreadable/invalid input data,
including a circuit that does not realize its code, a circuit wider than
`circuit.MAX_WIDTH`, a code whose syndrome trellis needs more cells per
step (states x branches) than simulate's cap of 2^18, an encoder whose
encoded logical never returns its memory to the identity
(derive-decoder), a code whose skeleton rows no encoder satisfies
(synthesize) and a job whose arrays do not fit in memory (such as a
simulate window of 10^8 frames); 70 internal consistency violation (a
skeleton, synthesis or completion search that contradicts itself).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional, Sequence

from .catastrophic import MAX_CANDIDATES, is_noncatastrophic
from .circuit import (
    CliffordCircuit,
    as_symplectic,
    circuit_from_json,
    circuit_to_json,
    circuit_to_text,
    gram,
    parse_circuit,
    wire_roles,
)
from .code import ConvolutionalCode, parse_code
from .decoder import derive_online_decoder
from .errors import (
    SEED_LIMIT,
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
from .pipeline import Realization, synthesize_encoder, verify_encoder
from .skeleton import TransformationSkeleton, minimal_memory

EX_OK = 0
EX_CATASTROPHIC = 1
EX_INCONCLUSIVE = 2
EX_USAGE = 64
EX_DATA = 65
EX_INTERNAL = 70


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
        slots_in = ["I"] * (chain.lead + 1) + [f"m[{i},{t}]" for t in range(chain.lead + 1, chain.span)]
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


def _emit_circuit_report(report: dict, result: Realization, args: argparse.Namespace) -> int:
    """Complete and emit the report of a built encoder or decoder: its gate
    count and verdict, the `--out` file (JSON if it ends in .json) and the
    `--skeleton` rows.  The completion search returns only non-catastrophic
    circuits: any other verdict is an internal inconsistency."""
    if not result.verdict.non_catastrophic:
        raise SynthesisError(f"the completion search returned a {_verdict_word(False)} circuit")
    report["gates"] = len(result.circuit)
    report["verdict"] = _verdict_word(True)
    if args.out:
        if args.out.endswith(".json"):
            roles = wire_roles(result.code.n, result.code.k, result.memory, result.skeleton.direction)
            payload = circuit_to_json(result.circuit, *roles)
        else:
            payload = circuit_to_text(result.circuit)
        with open(args.out, "w") as fh:
            fh.write(payload)
        report["circuit_file"] = args.out
    if args.skeleton:
        report["skeleton"] = _text_block(_render_skeleton(result.skeleton), args)
    _emit(report, args)
    return EX_OK


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
    report = {"n": code.n, "k": code.k, "nu": code.nu, "memory": result.memory}
    return _emit_circuit_report(report, result, args)


def _cmd_check(args: argparse.Namespace) -> int:
    code = _read_code(args.code)
    smap = as_symplectic(_read_circuit(args.encoder))
    realized = verify_encoder(code, smap)
    m = realized.m
    verdict = is_noncatastrophic(smap, code.n, code.k)
    report = {
        "rows_verified": True,
        "memory": m,
        # a symplectic map preserves products, so the Gram rows of the
        # verified memory operators are the code's commutation requirement
        "minimal_memory": minimal_memory(gram([op.vec() for op in realized.operators], m)),
        "verdict": _verdict_word(verdict.non_catastrophic),
    }
    if args.witness and verdict.witness is not None:
        report["witness"] = _text_block(_render_witness(verdict.witness), args)
    _emit(report, args)
    return EX_OK if verdict.non_catastrophic else EX_CATASTROPHIC


def _cmd_derive_decoder(args: argparse.Namespace) -> int:
    code = _read_code(args.code)
    result = derive_online_decoder(code, _read_circuit(args.encoder))
    return _emit_circuit_report({"decoder_memory": result.memory}, result, args)


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
    from .simulate import estimate_wers  # the one command that needs numpy

    code = _read_code(args.code)
    rows = estimate_wers(code, _read_circuit(args.encoder), args.p, args.frames, args.trials, seed=args.seed)
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
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EX_DATA
    except CompletionSearchExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        if args.as_json:
            _emit({"verdict": "inconclusive", "tried": exc.tried, "budget": exc.budget,
                   "dynamics": exc.dynamics, "reason": str(exc)}, args)
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
    p.add_argument("--workers", type=_positive_int,
                   help="accepted and ignored: every run is serial")
    p.add_argument("--out", help="write results CSV here")
    p.add_argument("--gnuplot", action="store_true",
                   help="also write a gnuplot script next to the CSV")

    return parser


# built by the first `main` call
_PARSER: Optional[_Parser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
