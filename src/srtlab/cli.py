"""Command-line front end.

Verbs: run, specialize, fixpoint, demo, futamura, experiment.  Programs
live in ``.sexp`` files (flowchart concrete syntax) or ``.1#`` files
(raw {1,#} text, whitespace ignored).  Exit codes: 0 success, 1 program
error, 2 usage error.
"""

import argparse
import os
import sys

from .flowchart import DecodeError, decode, encode, run
from .selfint import futamura
from .sexpr import ParseError, parse, sexpr_print
from .specializer import eliminate_dead_code, specialize
from .srt import DEMO_NAMES, demo_program, kleene_fixpoint, moss_fixpoint
from .experiments import DEFAULT_FUEL, EXPERIMENTS
from . import trm as t

__all__ = ["main"]


class CliError(Exception):
    pass


def _load(path, parse_text, errors):
    """``parse_text`` of the file at ``path``; failures become CliErrors."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}") from None
    try:
        return parse_text(text)
    except errors as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_flow(path):
    return _load(path, lambda text: decode(parse(text), allow_reserved=True),
                 (ParseError, DecodeError))


def _load_trm(path):
    return _load(path, lambda text: t.trm_parse("".join(text.split())),
                 t.TrmParseError)


def _parse_value(text):
    try:
        return parse(text)
    except ParseError as exc:
        raise CliError(f"bad value {text!r}: {exc}") from None


def _cmd_run(args):
    if args.lang == "flow":
        program = _load_flow(args.file)
        values = [_parse_value(a) for a in args.args]
        result = run(program, values, args.fuel, args.mode)
        if not result.halted:
            detail = f": {result.detail}" if result.detail else ""
            print(f"{result.status} after {result.steps} steps{detail}",
                  file=sys.stderr)
            return 1
        print(sexpr_print(result.value))
        if args.steps:
            print(f"steps {result.steps}")
        return 0
    program = _load_trm(args.file)
    for a in args.args:
        if any(ch not in "1#" for ch in a):
            raise CliError(f"1# arguments must be over {{1,#}}: {a!r}")
    variant = "fast_assign" if args.variant == "fast-assign" else "standard"
    result = t.trm_run(program, args.args, args.fuel, variant)
    if result.status != t.TrmResult.HALTED:
        print(f"{result.status} after {result.steps} steps", file=sys.stderr)
        return 1
    print(result.output)
    if args.steps:
        print(f"steps {result.steps}")
    return 0


def _cmd_specialize(args):
    program = _load_flow(args.prog)
    value = _parse_value(args.value)
    specialized = specialize(program, value)
    if args.eliminate_dead_code:
        specialized = eliminate_dead_code(specialized)
    print(sexpr_print(encode(specialized)))
    return 0


def _cmd_fixpoint(args):
    if args.lang == "flow":
        program = _load_flow(args.prog)
        fixed = (kleene_fixpoint(program) if args.method == "kleene"
                 else moss_fixpoint(program))
        print(sexpr_print(encode(fixed)))
        return 0
    program = _load_trm(args.prog)
    fix = (t.trm_kleene_fixpoint if args.method == "kleene"
           else t.trm_moss_fixpoint)
    print(fix(program).raw)
    return 0


def _cmd_demo(args):
    name = args.name.replace("-", "_")
    if name not in DEMO_NAMES:
        names = ", ".join(n.replace("_", "-") for n in DEMO_NAMES)
        raise CliError(f"unknown demo {args.name!r}; try one of {names}")
    print(sexpr_print(encode(demo_program(name))))
    return 0


def _cmd_futamura(args):
    source = _load_flow(args.source) if args.source else None
    print(sexpr_print(encode(futamura(args.stage, source))))
    return 0


def _cmd_experiment(args):
    fn = EXPERIMENTS[args.name]
    kwargs = {"fuel": args.fuel, "seed": args.seed}
    if args.name == "factorial-curve" and args.n_max is not None:
        kwargs["n_max"] = args.n_max
    report = fn(**kwargs)
    text = report.to_json()
    if args.json and args.json != "-":
        try:
            with open(args.json, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.json}: {exc}") from None
        failed = report.failed_claims()
        summary = "all claims pass" if not failed else f"FAILED: {failed}"
        print(f"wrote {args.json}; {summary}")
    else:
        sys.stdout.write(text)
    return 0


def _positive(text):
    """A ``--fuel`` or ``--n-max`` value: a positive integer, else a usage
    error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, not {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="srtlab",
        description="specialise, self-interpret, and build fixpoint programs "
                    "over the flowchart and 1# machines")
    fueled = argparse.ArgumentParser(add_help=False)
    fueled.add_argument("--fuel", type=_positive, default=DEFAULT_FUEL,
                        help="step budget for every run")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", parents=[fueled],
                       help="run a program file on arguments")
    p.add_argument("file")
    p.add_argument("args", nargs="*")
    p.add_argument("--lang", choices=("flow", "trm"), default="flow")
    p.add_argument("--mode", choices=("plain", "reflective"), default="plain",
                   help="reflective allows * and native univ; nested univ "
                        "calls use up to about 120 bytes per step of fuel "
                        "(about 1.2 GB at the default fuel)")
    p.add_argument("--variant", choices=("standard", "fast-assign"),
                   default="standard")
    p.add_argument("--steps", action="store_true",
                   help="also print the step count")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("specialize",
                       help="freeze a program's first input to a value")
    p.add_argument("prog")
    p.add_argument("value")
    p.add_argument("--eliminate-dead-code", action="store_true")
    p.set_defaults(fn=_cmd_specialize)

    p = sub.add_parser("fixpoint",
                       help="build a program that can use its own text")
    p.add_argument("prog")
    p.add_argument("--method", choices=("kleene", "moss"), default="kleene")
    p.add_argument("--lang", choices=("flow", "trm"), default="flow")
    p.set_defaults(fn=_cmd_fixpoint)

    p = sub.add_parser("demo", help="print a library demo program")
    p.add_argument("name")
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("futamura",
                       help="compile by specialising the interpreter")
    p.add_argument("stage", choices=("target", "compiler", "cogen"))
    p.add_argument("source", nargs="?")
    p.set_defaults(fn=_cmd_futamura)

    p = sub.add_parser("experiment", parents=[fueled],
                       help="run a measurement and emit JSON")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomised experiments")
    p.add_argument("--json", default="-", metavar="OUT",
                   help="output file ('-' for stdout)")
    p.add_argument("--n-max", type=_positive, default=None,
                   help="curve length for factorial-curve")
    p.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left: keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
