"""Command-line interface.

Subcommands cover the whole package: exact evaluation of closed terms
(``eval``, ``equal``, ``sign``), the rewriting simplifier (``simplify``),
law checking against exact and finite models (``check``, ``propagation``),
the sum-of-squares prime scans (``scan-lagrange``), the mod-3 separation
demo (``f3-demo``), and reproducible random term generation (``gen``).

Every subcommand accepts ``--json`` for machine-readable output.  Exit codes:
0 for success (all laws pass / terms equal), 1 for a substantive negative
result (failures found / terms differ), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .axioms import SUITE_NAMES, check_propagation, run_suite, verify_f3_argument
from .exact import Session
from .finite import NotPrimeError, scan_lagrange
from .simplify import decide_closed_eq, rewrite_simplify, sign_of_closed, value_to_term
from .terms import (
    SIGMA_M,
    SIGMA_MS,
    SIGMA_MSS,
    EvalError,
    ParseError,
    UnsupportedSymbolError,
    eval_exact,
    gen_random_term,
    parse,
    render,
)

_SIGNATURES = {"m": SIGMA_M, "ms": SIGMA_MS, "mss": SIGMA_MSS}


def _emit(data: dict, as_json: bool, text_lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(args) -> int:
    session = Session()
    value = eval_exact(parse(args.term), {}, session)
    canonical = render(value_to_term(value))
    decimal = value.approx_decimal(args.digits)
    data = {
        "schema": "meadows.eval/1",
        "input": args.term,
        "canonical": canonical,
        "decimal": decimal,
        "digits": args.digits,
        "sign": value.sign(),
    }
    _emit(data, args.json, [f"canonical: {canonical}", f"decimal:   {decimal}"])
    return 0


def _cmd_simplify(args) -> int:
    result = rewrite_simplify(parse(args.term), max_steps=args.steps)
    data = result.as_dict()
    data["input"] = args.term
    lines = [render(result.term)]
    if result.truncated:
        lines.append(f"(stopped after {result.steps} steps)")
    _emit(data, args.json, lines)
    return 0


def _cmd_equal(args) -> int:
    equal = decide_closed_eq(args.left, args.right)
    data = {
        "schema": "meadows.equal/1",
        "left": args.left,
        "right": args.right,
        "equal": equal,
    }
    _emit(data, args.json, ["equal" if equal else "different"])
    return 0 if equal else 1


def _cmd_sign(args) -> int:
    sign = sign_of_closed(args.term)
    data = {"schema": "meadows.sign/1", "input": args.term, "sign": sign}
    _emit(data, args.json, [str(sign)])
    return 0


def _cmd_check(args) -> int:
    reports = run_suite(
        args.suite,
        args.model,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed,
    )
    failures = sum(r.failure_count for r in reports)
    data = {
        "schema": "meadows.suite/1",
        "suite": args.suite,
        "reports": [r.to_dict() for r in reports],
        "failure_count": failures,
    }
    lines = [str(r) for r in reports]
    lines.append(f"{len(reports)} laws checked, {failures} failing valuations")
    _emit(data, args.json, lines)
    return 0 if failures == 0 else 1


def _cmd_propagation(args) -> int:
    report = check_propagation(args.kind, trials=args.trials, seed=args.seed)
    _emit(report.to_dict(), args.json, [str(report)])
    return 0 if report.verdict == "pass" else 1


def _cmd_scan_lagrange(args) -> int:
    result = scan_lagrange(args.n, args.limit)
    lines = [
        f"n={result.n} limit={result.limit}: identity holds at "
        f"{len(result.holds)} primes"
    ]
    if result.holds:
        shown = ", ".join(str(p) for p in result.holds[:25])
        more = " ..." if len(result.holds) > 25 else ""
        lines.append(f"holds: {shown}{more}")
    for p, witness in result.counterexample_sample.items():
        lines.append(f"fails at p={p}: 1 + {' + '.join(f'{x}^2' for x in witness)} == 0")
    _emit(result.as_dict(), args.json, lines)
    return 0


def _cmd_f3_demo(args) -> int:
    report = verify_f3_argument()
    lines = [
        f"squares mod 3: {list(report.squares_mod_3)}",
        f"ring and one-square laws hold exhaustively: {report.md_and_l1_pass}",
        f"term: {report.display_term}",
        f"  value mod 3: {report.finite_value}",
        f"  exact value: {report.exact_value}",
        f"no identity-preserving map onto the 3-element model: "
        f"{report.homomorphism_impossible}",
    ]
    _emit(report.as_dict(), args.json, lines)
    return 0


def _cmd_gen(args) -> int:
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not variables:
        raise ValueError("--vars needs at least one name")
    term = gen_random_term(args.seed, args.size, _SIGNATURES[args.signature], variables)
    data = {
        "schema": "meadows.gen/1",
        "seed": args.seed,
        "size": args.size,
        "signature": args.signature,
        "term": render(term),
    }
    _emit(data, args.json, [render(term)])
    return 0


@functools.cache  # argparse parsers are reusable; build one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meadows",
        description="Exact totalized arithmetic with signs and square roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(fn=fn)
        return p

    p = command("eval", _cmd_eval, "evaluate a closed term exactly")
    p.add_argument("term")
    p.add_argument("--digits", type=int, default=10, help="decimal digits (default 10)")

    p = command("simplify", _cmd_simplify, "rewrite a term to its simplified form")
    p.add_argument("term")
    p.add_argument("--steps", type=int, default=1000, help="step budget (default 1000)")

    p = command("equal", _cmd_equal, "decide whether two closed terms are equal")
    p.add_argument("left")
    p.add_argument("right")

    p = command("sign", _cmd_sign, "sign of a closed term (-1, 0, or 1)")
    p.add_argument("term")

    suites = ", ".join(sorted(SUITE_NAMES))
    p = command("check", _cmd_check, f"check a law suite; suites: {suites}")
    p.add_argument("suite")
    p.add_argument("--model", default="exact", help="'exact' or 'fp:<prime>'")
    p.add_argument("--mode", choices=("exhaustive", "randomized"), default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = command(
        "propagation",
        _cmd_propagation,
        "check pseudo-unit/zero propagation through random contexts",
    )
    p.add_argument("--kind", choices=("unit", "zero"), required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = command(
        "scan-lagrange",
        _cmd_scan_lagrange,
        "scan primes for the sum-of-squares inverse identity",
    )
    p.add_argument("--n", type=int, required=True, help="number of squares (1-4)")
    p.add_argument("--limit", type=int, required=True, help="scan primes <= limit")

    command("f3-demo", _cmd_f3_demo, "show the mod-3 separation argument")

    p = command("gen", _cmd_gen, "generate a reproducible random term")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=12, help="max node count (default 12)")
    p.add_argument("--vars", default="x,y", help="comma-separated variable names")
    p.add_argument(
        "--signature",
        choices=sorted(_SIGNATURES),
        default="mss",
        help="m: ring ops; ms: with sign; mss: with sign and sqrt (default)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (EvalError, UnsupportedSymbolError, NotPrimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
