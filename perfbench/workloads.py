"""The benchmark's workloads: seeded request streams with their expected answers.

A workload hands out rounds of requests, one after another.  Every round has
the same mix of requests; the seed picks only the numbers inside them (trial
seeds, prime subsets, coefficients, scan limits, random terms), so runs with
different seeds do the same kind and amount of work.  Each request is one closed-loop call into the
public API of meadows, paired with a check that uses only :mod:`oracles`.
Requests look meadows functions up on the package at call time, which is
what lets the tracer see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import meadows
from meadows import cli

import oracles as O
from oracles import check

GOLDEN_PATH = Path(__file__).resolve().with_name("rewrite_golden.json")


class Item:
    """One request: ``call()`` runs it, ``verify(output)`` raises on a wrong answer."""

    __slots__ = ("label", "call", "verify")

    def __init__(self, label: str, call: Callable[[], Any], verify: Callable[[Any], None]):
        self.label = label
        self.call = call
        self.verify = verify


class Workload:
    name = ""
    #: Statements a fresh interpreter runs after ``import meadows`` before the
    #: workload can start; ``setup_s`` times them together with the import.
    setup = "meadows.catalog()"
    #: Rounds run before timing starts, and rounds in a traced or memory pass.
    warmup_rounds = 1
    pass_rounds = 1

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def round(self) -> list[Item]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# laws-exact
# ---------------------------------------------------------------------------

EXACT_SUITES = (
    "Md", "MdDerived", "PseudoLaws", "Signs", "SignsDerived", "ILCancellation",
    "SquareRoots", "SqrtDerived", "Showcase", "Complex", "ComplexRestricted",
)


class LawsExact(Workload):
    name = "laws-exact"
    warmup_rounds = 2
    pass_rounds = 6
    TRIALS = 12
    PROPAGATION_TRIALS = 6
    # Known-false laws hold on a trial with probability well under 1/2, so
    # this many trials leave no chance of a false law slipping through.
    FALSE_TRIALS = 40

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sets = meadows.catalog().sets()
        self.laws = [law for suite in EXACT_SUITES for law in sets[suite]]
        parse = meadows.parse
        self.false_equation = meadows.Equation(
            "false-sqrt-of-sum", parse("sqrt(x + y)"), parse("sqrt(x) + sqrt(y)")
        )
        self.false_conditional = meadows.ConditionalEquation(
            "false-same-sign-means-equal",
            ((parse("s(x)"), parse("s(y)"), "eq"),),
            parse("x"),
            parse("y"),
            "match-signs",
        )

    def _law_item(self, law, seed: int) -> Item:
        if isinstance(law, meadows.ConditionalEquation):
            call = lambda: meadows.check_conditional(law, trials=self.TRIALS, seed=seed)
        elif isinstance(law, meadows.Equation):
            call = lambda: meadows.check_equation(law, trials=self.TRIALS, seed=seed)
        else:
            call = lambda: meadows.check_complex_law(law, trials=self.TRIALS, seed=seed)
        return Item(law.name, call, lambda r: _expect_pass(r, self.TRIALS))

    def round(self) -> list[Item]:
        rng = self.rng
        items = [self._law_item(law, rng.getrandbits(32)) for law in self.laws]
        for kind in ("unit", "zero"):
            seed = rng.getrandbits(32)
            items.append(
                Item(
                    f"propagation-{kind}",
                    lambda kind=kind, seed=seed: meadows.check_propagation(
                        kind, trials=self.PROPAGATION_TRIALS, seed=seed
                    ),
                    lambda r: _expect_pass(r, self.PROPAGATION_TRIALS),
                )
            )
        seed = rng.getrandbits(32)
        items.append(
            Item(
                "false-equation",
                lambda seed=seed: meadows.check_equation(
                    self.false_equation, trials=self.FALSE_TRIALS, seed=seed
                ),
                _expect_false_sqrt_of_sum,
            )
        )
        seed = rng.getrandbits(32)
        items.append(
            Item(
                "false-conditional",
                lambda seed=seed: meadows.check_conditional(
                    self.false_conditional, trials=self.FALSE_TRIALS, seed=seed
                ),
                _expect_false_same_sign,
            )
        )
        rng.shuffle(items)
        return items


def _expect_pass(report, trials: int) -> None:
    check(report.trials == trials, f"{report.name}: {report.trials} trials, asked {trials}")
    check(report.failure_count == 0 and report.verdict == "pass", f"true law refuted: {report}")


def _expect_refuted(report) -> list:
    check(report.failure_count > 0 and report.verdict == "fail", f"false law passed: {report}")
    check(len(report.failures) > 0, f"no witness reported: {report}")
    sides = []
    for f in report.failures:
        lhs, rhs = O.value(O.read(f.lhs)), O.value(O.read(f.rhs))
        check(not O.close(lhs, rhs, 30), f"reported witness is not one: {f}")
        sides.append({k: O.value(O.read(v)) for k, v in f.valuation.items()})
    return sides


def _expect_false_sqrt_of_sum(report) -> None:
    for env in _expect_refuted(report):
        want = O.value(O.read("sqrt(x + y) - sqrt(x) - sqrt(y)"), env)
        check(O.sign(want) != 0, f"witness {env} satisfies the law")


def _expect_false_same_sign(report) -> None:
    for env in _expect_refuted(report):
        check(O.sign(env["x"]) == O.sign(env["y"]), f"witness {env} breaks the premise")


# ---------------------------------------------------------------------------
# towers-deep
# ---------------------------------------------------------------------------

# The tower primes are fixed, so the size of the numbers, and with it the
# cost, is alike across seeds; the seed picks subsets and coefficients.
TOWER_PRIMES = (2, 3, 5, 7, 11, 13, 17)

# One cycle of (family, tower depth).  Depth and density are chosen so that
# no single request is more than a few percent of a run.
TOWER_CYCLE = (
    ("normalize", 3), ("equal-inverse", 4), ("sign", 5), ("approx", 6), ("cli", 4),
    ("unequal", 7), ("difference-of-squares", 5), ("normalize", 6), ("sign", 3),
    ("approx", 4), ("equal-inverse", 5), ("cli", 5), ("nested", 4), ("normalize", 7),
    ("sign", 6), ("approx", 7), ("unequal", 3), ("difference-of-squares", 6),
    ("nested", 6), ("cli", 3), ("unequal", 5), ("nested", 5), ("normalize", 4),
    ("equal-inverse", 3),
)


class TowersDeep(Workload):
    name = "towers-deep"
    setup = "meadows.catalog()\nfrom meadows import cli\ncli._build_parser()"
    warmup_rounds = 1
    pass_rounds = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # A long-lived session whose tower holds the roots in order, so that a
        # depth-d query over the first d primes has depth exactly d.
        self.session = meadows.Session()
        for p in TOWER_PRIMES:
            self.session.value(p).ssqrt()

    def _lin(self, primes) -> str:
        rng = self.rng
        parts = [str(rng.randint(1, 9))]
        for p in primes:
            c = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
            parts.append(f"{'-' if c < 0 else '+'} {abs(c)} * sqrt({p})")
        return " ".join(parts)

    def _query(self, family: str, depth: int) -> Item:
        rng = self.rng
        primes = rng.sample(TOWER_PRIMES, depth)
        if family == "normalize":
            a, b = self._lin(primes), self._lin(primes)
            src = f"({a}) * inv({b})" if depth <= 5 else f"({a}) * ({b})"
            want = O.value(O.read(src))
            return Item(family, lambda: meadows.normalize_closed(src), lambda out: _expect_value(out, want))
        if family == "nested":
            p, q = primes[0], primes[1]
            u, v = rng.randint(1, 6), rng.randint(1, 4)
            rest = self._lin(primes[2 : depth - 1])
            src = f"sqrt({u * u + p * v * v} + {2 * u * v} * sqrt({p})) + sqrt(1 + sqrt({q})) * ({rest})"
            want = O.value(O.read(src))
            return Item(family, lambda: meadows.normalize_closed(src), lambda out: _expect_value(out, want))
        if family == "equal-inverse":
            x = self._lin(primes)
            left, right = f"({x}) * inv({x})", "1"
            return Item(family, lambda: meadows.decide_closed_eq(left, right), _expect_is(True))
        if family == "difference-of-squares":
            a, b = self._lin(primes[: depth // 2 + 1]), self._lin(primes[depth // 2 :])
            left, right = f"(({a}) + ({b})) * (({a}) - ({b}))", f"({a})^2 - ({b})^2"
            return Item(family, lambda: meadows.decide_closed_eq(left, right), _expect_is(True))
        if family == "unequal":
            x = self._lin(primes)
            left, right = x, f"{x} + 1/{10 ** rng.randint(3, 30)}"
            return Item(family, lambda: meadows.decide_closed_eq(left, right), _expect_is(False))
        if family == "sign":
            x = self._lin(primes)
            if depth <= 5:
                x = f"({x}) * ({self._lin(primes)})"
            digits = rng.randint(12, 20)
            scale = 10**digits
            approx = Fraction(math.floor(Fraction(O.value(O.read(x))) * scale) + rng.choice((-1, 0, 1)), scale)
            src = f"{x} - {approx.numerator}/{approx.denominator}" if approx >= 0 else (
                f"{x} + {-approx.numerator}/{approx.denominator}"
            )
            want = O.sign(O.value(O.read(src)))
            return Item(family, lambda: meadows.sign_of_closed(src), _expect_is(want))
        if family == "approx":
            ordered = TOWER_PRIMES[:depth]
            op = "inv" if depth <= 4 else ""
            src = f"({self._lin(ordered)}) * {op}({self._lin(ordered)})"
            want = O.truncations(O.value(O.read(src)), 40)
            session = self.session
            call = lambda: meadows.eval_exact(meadows.parse(src), {}, session).approx_decimal(40)
            return Item(family, call, lambda out: check(out in want, f"{src}: {out} not in {want}"))
        if family == "cli":
            src = f"({self._lin(primes)}) * ({self._lin(primes)})"
            return Item(family, lambda: _run_cli(["eval", "--json", src]), _expect_cli_eval(src))
        raise ValueError(family)

    def round(self) -> list[Item]:
        return [self._query(family, depth) for family, depth in TOWER_CYCLE]


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _expect_value(out: str, want) -> None:
    got = O.value(O.read(out))
    check(O.close(got, want), f"canonical form {out[:80]}... is {got}, want {want}")


def _expect_is(want):
    def verify(out) -> None:
        check(out == want, f"answer {out!r}, want {want!r}")

    return verify


def _expect_cli_eval(src: str):
    want = O.value(O.read(src))
    decimals = O.truncations(want, 10)

    def verify(out) -> None:
        code, text = out
        check(code == 0, f"exit code {code}")
        data = json.loads(text)
        check(data["schema"] == "meadows.eval/1", f"schema {data['schema']}")
        _expect_value(data["canonical"], want)
        check(data["decimal"] in decimals, f"decimal {data['decimal']} not in {decimals}")
        check(data["sign"] == O.sign(want), f"sign {data['sign']}")

    return verify


# ---------------------------------------------------------------------------
# finite-symbolic
# ---------------------------------------------------------------------------

FIELD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
FIELD_SUITES = ("Md", "MdDerived", "PseudoLaws", "ILCancellation", "Lagrange1", "Lagrange2")
SCAN_STEPS = 8
SCAN_STEP = 250
NEW_TERMS = 150
TERM_BUDGET = 14
GOLDEN_SEED = 0
GOLDEN_TERMS = 40


def golden_corpus() -> list[str]:
    """The fixed open terms whose rewrite results are pinned in the golden file."""
    rng = random.Random(GOLDEN_SEED)
    return [O.write(O.random_term(rng, TERM_BUDGET)) for _ in range(GOLDEN_TERMS)]


class FiniteSymbolic(Workload):
    name = "finite-symbolic"
    warmup_rounds = 1
    pass_rounds = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        sets = meadows.catalog().sets()
        parse = meadows.parse
        laws = [law for suite in FIELD_SUITES for law in sets[suite]]
        laws.append(meadows.Equation("unrestricted-inverse", parse("x * inv(x)"), parse("1")))
        # Field checks take no seeded input, so one set of requests serves every round.
        self.field_items = [_field_item(meadows.PrimeField(p), law) for p in FIELD_PRIMES for law in laws]
        self.scan_primes = O.primes_upto(SCAN_STEPS * SCAN_STEP + SCAN_STEP)
        golden = json.loads(GOLDEN_PATH.read_text())
        self.golden = [(meadows.parse(src), out, steps) for src, out, steps in golden]

    def round(self) -> list[Item]:
        rng = self.rng
        items = list(self.field_items)
        for n in (1, 2):
            for k in range(1, SCAN_STEPS + 1):
                limit = SCAN_STEP * k + rng.randint(-SCAN_STEP // 10, SCAN_STEP // 10)
                items.append(self._scan_item(n, limit))
        for term, out, steps in self.golden:
            items.append(Item("rewrite-golden", lambda term=term: meadows.rewrite_simplify(term), _expect_golden(out, steps)))
        for _ in range(NEW_TERMS):
            t = O.random_term(rng, TERM_BUDGET)
            src = O.write(t)
            term = meadows.parse(src)
            envs = [O.random_env(rng) for _ in range(2)]
            items.append(Item("rewrite", lambda term=term: meadows.rewrite_simplify(term), _expect_sound(t, envs)))
            u = O.random_term(rng, TERM_BUDGET)
            usrc = O.write(u)
            items.append(
                Item("round-trip", lambda usrc=usrc: meadows.render(meadows.parse(usrc)), _expect_reads_as(u))
            )
        rng.shuffle(items)
        return items

    def _scan_item(self, n: int, limit: int) -> Item:
        primes = [p for p in self.scan_primes if p <= limit]
        holds = tuple(p for p in primes if n == 1 and p % 4 == 3)
        failing = [p for p in primes if p not in holds]

        def verify(result) -> None:
            check(result.holds == holds, f"scan n={n} limit={limit}: holds {result.holds[:8]}...")
            check(list(result.counterexample_sample) == failing[:5], "counterexample sample")
            for p, w in result.counterexample_sample.items():
                check(len(w) == n and (1 + sum(x * x for x in w)) % p == 0, f"witness {w} at p={p}")

        return Item(f"scan-{n}", lambda: meadows.scan_lagrange(n, limit), verify)


def _field_item(field, law) -> Item:
    p = field.p
    nvars = len(law.variables)
    if law.name.startswith("lagrange-"):
        holds = not O.minus_one_is_sum_of_squares(p, nvars)
    else:
        holds = law.name != "unrestricted-inverse"
    if isinstance(law, meadows.ConditionalEquation):
        call = lambda: meadows.check_conditional(law, field)
    else:
        call = lambda: meadows.check_equation(law, field)

    def verify(report) -> None:
        check(report.mode == "exhaustive" and report.trials == p**nvars, f"{report}")
        if holds:
            check(report.failure_count == 0, f"true law refuted: {report}")
        elif law.name == "unrestricted-inverse":
            check(report.failure_count == 1, f"x * inv(x) == 1 over F_{p}: {report}")
            check(report.failures[0].valuation == {"x": "0"}, f"{report.failures[0]}")
        else:
            check(report.failure_count > 0, f"false law passed: {report}")
            for f in report.failures:
                xs = [int(v) for v in f.valuation.values()]
                check((1 + sum(x * x for x in xs)) % p == 0, f"witness {xs} over F_{p}")

    return Item(f"{law.name}@F{p}", call, verify)


def pinned_form(result) -> tuple[str, int]:
    """What the golden file pins for a rewrite: the result term and the step count."""
    return O.write(O.from_meadows(result.term)), result.steps


def _expect_golden(out: str, steps: int):
    def verify(result) -> None:
        got = pinned_form(result)
        check(got == (out, steps), f"rewrite gave {got}, pinned {(out, steps)}")

    return verify


def _expect_sound(t, envs):
    def verify(result) -> None:
        check(not result.truncated, "rewriting hit its step cap")
        got = O.from_meadows(result.term)
        for env in envs:
            a, b = O.value(t, env), O.value(got, env)
            check(O.close(a, b, 30), f"{O.write(t)} -> {O.write(got)} changes value at {env}")

    return verify


def _expect_reads_as(t):
    def verify(out: str) -> None:
        check(O.read(out) == t, f"round trip gave {out}")

    return verify


WORKLOADS = {w.name: w for w in (LawsExact, TowersDeep, FiniteSymbolic)}
