"""Batch command-line front-end: parse, translate, eval, check.

Results go to standard output, diagnostics to standard error.  Exit codes:
0 success (including a false answer from eval), 1 input error, 2 expected
translation mismatch under --check-alpha, 3 equivalence-campaign
disagreement.
"""
from __future__ import annotations

import argparse
import sys

from . import bot, top
from .core import EvalError, FunctorCollision, Period, derive_bot_model, fields
from .equiv import GenParams, run_campaign
from .lexer import ParseError
from .modelfile import ModelFileError, load_model
from .translate import MUTATIONS, EtaCollision, alpha_equivalent, translate

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ALPHA_MISMATCH = 2
EXIT_DISAGREEMENT = 3


def _fmt_value(v) -> str:
    return str(v) if isinstance(v, Period) else v


def _cmd_parse(args) -> int:
    if args.lang == "top":
        print(top.print_top(top.parse_top(args.formula)))
    else:
        print(bot.print_bot(bot.parse_bot(args.formula)))
    return EXIT_OK


def _cmd_translate(args) -> int:
    source = top.parse_top(args.formula)
    result = translate(source)
    print(bot.print_bot(result))
    if args.check_alpha is not None:
        with open(args.check_alpha, encoding="utf-8") as fh:
            expected = bot.parse_bot(fh.read())
        fixed = frozenset(top.free_vars(source))
        if not alpha_equivalent(result, expected, fixed):
            print(
                "translation does not match the expected formula"
                " (up to fresh-variable renaming)",
                file=sys.stderr,
            )
            return EXIT_ALPHA_MISMATCH
    return EXIT_OK


def _cmd_eval(args) -> int:
    compiled = load_model(args.model)
    m, st = compiled.model, compiled.speech
    if args.lang == "top":
        f = top.parse_top(args.formula)
        witness = top.denot_top_witness(m, st, f)
        value = witness is not None
    else:
        f = bot.parse_bot(args.formula)
        derived = derive_bot_model(m)
        g = bot.denot_bot_witness(derived, st, f)
        witness = (g, None) if g is not None else None
        value = witness is not None
    print("true" if value else "false")
    if value and args.trace:
        g, et = witness
        parts = [f"?{name}={_fmt_value(val)}" for name, val in sorted(g.items())]
        if et is not None:
            parts.append(f"et={et}")
        print("witness " + " ".join(parts))
    return EXIT_OK


def _cmd_check(args) -> int:
    params = GenParams(**{name: getattr(args, name) for name in fields(GenParams)})
    report = run_campaign(params, args.cases, mutation=args.mutate)
    sys.stdout.write(report.text())
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronos",
        description="TOP and BOT temporal formulas: parse, translate, "
        "evaluate against model files, and cross-check the translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and reprint it")
    p.add_argument("lang", choices=["top", "bot"])
    p.add_argument("formula")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("translate", help="translate a TOP formula to BOT")
    p.add_argument("formula")
    p.add_argument(
        "--check-alpha",
        metavar="FILE",
        help="compare against the BOT formula in FILE up to renaming of "
        "fresh variables (exit 2 on mismatch)",
    )
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("eval", help="evaluate a formula against a model file")
    p.add_argument("model")
    p.add_argument("lang", choices=["top", "bot"])
    p.add_argument("formula")
    p.add_argument(
        "--trace", action="store_true",
        help="print the witness assignment when the answer is true",
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "check", help="run the random TOP/BOT equivalence campaign"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=1000)
    p.add_argument("--mutate", choices=list(MUTATIONS))
    defaults = GenParams()
    for name in fields(GenParams):  # --seed comes first, above
        if name != "seed":
            p.add_argument("--" + name.replace("_", "-"), type=int,
                           default=getattr(defaults, name))
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelFileError, EvalError, FunctorCollision,
            EtaCollision, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:  # a safety net: no formula within the caps gets here
        print("error: formula nests too deeply to evaluate", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
