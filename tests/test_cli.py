"""Tests for the command-line interface (driven through ``main``)."""

import json
import os
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest

import meadows
from meadows.cli import main
from meadows.exact import Real
from meadows.finite import MAX_SIEVE_LIMIT
from meadows.simplify import SimplifyResult
from meadows.terms import SIGMA_M, free_vars, parse, term_size


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_text(self, capsys):
        code, out, err = run(capsys, "eval", "sqrt(8)")
        assert code == 0
        assert "canonical: 2 * sqrt(2)" in out
        assert "2.8284271247" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--json", "1 / sqrt(2)", "--digits", "14")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "meadows.eval/1"
        assert data["canonical"] == "1/2 * sqrt(2)"
        assert data["decimal"] == "0.70710678118654"
        assert data["sign"] == 1

    def test_text_computes_no_sign(self, capsys, monkeypatch):
        def no_sign(value):
            raise AssertionError("only the JSON document has a sign")

        monkeypatch.setattr(Real, "sign", no_sign)
        code, out, _ = run(capsys, "eval", "3/4")
        assert code == 0
        assert out == "canonical: 3/4\ndecimal:   0.7500000000\n"

    def test_digits_over_the_cap_are_bad_input(self, capsys):
        code, out, err = run(capsys, "eval", "--digits", "3000000", "1/3")
        assert (code, out) == (2, "")
        assert err == "error: digits must be at most 315652\n"

    def test_a_value_beyond_the_precision_budget_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr(meadows.approx, "_MAX_BITS", 128)
        code, out, err = run(capsys, "eval", "--digits", "30", "10^40 * sqrt(2)")
        assert (code, out) == (2, "")
        assert err == "error: the value needs more than the precision budget of 128 bits\n"

    def test_canonical_form_longer_than_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "eval", "--json", "*".join(["(10^900)"] * 5))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["canonical"] == "1" + "0" * 4500
        assert data["decimal"] == "1" + "0" * 4500 + "." + "0" * 10

    def test_exponent_over_the_cap_is_bad_input(self, capsys):
        code, out, err = run(capsys, "eval", "2^100000")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: exponent is over the cap of")

    def test_division_by_zero_is_total(self, capsys):
        code, out, _ = run(capsys, "eval", "--json", "1/0")
        assert code == 0
        assert json.loads(out)["canonical"] == "0"


class TestSimplify:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "simplify", "sqrt(x * x * s(x)) + 0 * y")
        assert code == 0
        assert out.strip() == "x"

    def test_truncation_notice(self, capsys):
        code, out, _ = run(capsys, "simplify", "inv(inv(inv(inv(x))))", "--steps", "1")
        assert code == 0
        assert "stopped after 1 steps" in out

    def test_text_builds_no_trace(self, capsys, monkeypatch):
        def no_trace(result):
            raise AssertionError("only the JSON document has a trace")

        monkeypatch.setattr(SimplifyResult, "as_dict", no_trace)
        code, out, _ = run(capsys, "simplify", "inv(inv(x))")
        assert (code, out) == (0, "x\n")

    def test_a_term_that_begins_with_two_minus_signs(self, capsys):
        # argparse reads "--x" as an option; "--" ends the options.
        assert run(capsys, "simplify", "--", "--x") == (0, "x\n", "")

    def test_json_trace(self, capsys):
        code, out, _ = run(capsys, "simplify", "--json", "s(s(x * y))")
        data = json.loads(out)
        assert data["schema"] == "meadows.simplify/1"
        assert data["term"] == "s(x) * s(y)"
        assert [entry["rule"] for entry in data["trace"]][:2] == [
            "sign-of-product",
            "sign-of-product",
        ]


class TestEqualAndSign:
    def test_equal_true(self, capsys):
        code, out, _ = run(capsys, "equal", "sqrt(2) + sqrt(3)", "sqrt(5 + 2 * sqrt(6))")
        assert code == 0
        assert out.strip() == "equal"

    def test_equal_false(self, capsys):
        code, out, _ = run(capsys, "equal", "sqrt(2)", "3/2")
        assert code == 1
        assert out.strip() == "different"

    def test_equal_json(self, capsys):
        code, out, _ = run(capsys, "equal", "--json", "1/0", "0")
        assert code == 0
        assert json.loads(out)["equal"] is True

    def test_sign(self, capsys):
        for term, expected in (("1 - sqrt(2)", "-1"), ("0 * 5", "0"), ("1/3", "1")):
            code, out, _ = run(capsys, "sign", term)
            assert code == 0
            assert out.strip() == expected


class TestCheck:
    def test_finite_pass(self, capsys):
        code, out, _ = run(capsys, "check", "Md", "--model", "fp:7")
        assert code == 0
        assert "10 laws checked, 0 failing valuations" in out
        assert out.count("[PASS]") == 10

    def test_finite_fail_exit_code(self, capsys):
        code, out, _ = run(capsys, "check", "Lagrange1", "--model", "fp:5")
        assert code == 1
        assert "[FAIL]" in out

    def test_exact_randomized(self, capsys):
        code, out, _ = run(
            capsys, "check", "Showcase", "--trials", "150", "--seed", "9"
        )
        assert code == 0
        assert "showcase-quotient" in out

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "check", "--json", "PseudoLaws", "--model", "fp:5")
        data = json.loads(out)
        assert data["schema"] == "meadows.suite/1"
        assert data["failure_count"] == 0
        assert len(data["reports"]) == 3
        assert all(r["verdict"] == "pass" for r in data["reports"])

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "check", "Nope")
        assert code == 2
        assert "unknown suite" in err

    def test_composite_modulus(self, capsys):
        code, _, err = run(capsys, "check", "Md", "--model", "fp:6")
        assert code == 2
        assert "not a prime" in err

    def test_malformed_modulus(self, capsys):
        for model in ("fp:", "fp:x", "fp:2x"):
            code, _, err = run(capsys, "check", "Md", "--model", model)
            assert code == 2
            assert err == (
                f"error: unknown model {model!r}; use 'exact', 'fp:<p>', or a prime\n"
            )

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (("check", "X" * 5000), f"suite {'X' * 40!r}… (5000 characters); known suites: "),
            (
                ("check", "Md", "--model", "fp:" + "x" * 5000),
                f"model {'fp:' + 'x' * 37!r}… (5003 characters); use 'exact'",
            ),
        ],
        ids=["suite", "model"],
    )
    def test_a_long_unknown_name_is_echoed_within_a_bound(self, capsys, argv, shown):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: unknown " + shown)
        assert len(err.encode()) < 400

    def test_a_modulus_longer_than_the_digit_limit_is_read(self, capsys):
        # 4400 digits: more than CPython's default int-to-str limit of 4300
        code, _, err = run(capsys, "check", "Md", "--model", "fp:" + "7" * 4400)
        assert code == 2
        assert err == "error: a 14617-bit number is not a prime: divisible by 7\n"
        code, out, _ = run(
            capsys, "check", "Md", "--model", "fp:" + "0" * 4400 + "7", "--trials", "5"
        )
        assert code == 0
        assert out.endswith("10 laws checked, 0 failing valuations\n")
        assert "over fp:7 (exhaustive" in out

    def test_large_prime_modulus(self, capsys):
        # Trial division alone took seconds to accept this modulus.
        code, out, _ = run(
            capsys, "check", "Md", "--model", "fp:10000000000000061", "--trials", "5"
        )
        assert code == 0
        names = [
            "add-associative", "add-commutative", "add-zero-identity", "add-negation",
            "mul-associative", "mul-commutative", "mul-one-identity",
            "mul-distributes-over-add", "inv-involution", "restricted-inverse-law",
        ]
        assert out == "".join(
            f"[PASS] {name} over fp:10000000000000061 (randomized, 5 trials, 0 failures)\n"
            for name in names
        ) + "10 laws checked, 0 failing valuations\n"

    def test_modulus_too_large_to_decide(self, capsys):
        code, _, err = run(
            capsys, "check", "Md", "--model", "fp:3317044064679887385961981"
        )
        assert code == 2
        assert "cannot decide whether 3317044064679887385961981 is prime" in err


def test_building_the_parser_leaves_the_catalog_unbuilt():
    script = (
        "from meadows import axioms, cli\n"
        "cli._build_parser()\n"
        "print(axioms.catalog.cache_info().currsize == 0)\n"
    )
    src = os.path.dirname(os.path.dirname(meadows.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "True\n"


def test_check_and_eval_leave_the_rule_matchers_uncompiled():
    script = (
        "import contextlib, io\n"
        "from meadows import cli, simplify\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['check', 'Md', '--model', 'fp:7'])\n"
        "    cli.main(['eval', 'sqrt(2) + inv(0)'])\n"
        "before = simplify._matchers.cache_info().currsize\n"
        "simplify.rewrite_simplify(simplify.parse('inv(inv(x))'))\n"
        "print(before, simplify._matchers.cache_info().currsize)\n"
    )
    src = os.path.dirname(os.path.dirname(meadows.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "0 1\n"


def test_a_reused_parser_answers_like_a_fresh_one(capsys):
    from meadows import cli

    calls = [
        ("eval", "--json", "sqrt(2) + 1/3"),
        ("eval", "--digits", "x", "2"),
        ("--help",),
        ("eval", "--digits", "20", "sqrt(3)"),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert reused == fresh


class TestPropagation:
    def test_both_kinds(self, capsys):
        for kind in ("unit", "zero"):
            code, out, _ = run(
                capsys, "propagation", "--kind", kind, "--trials", "60"
            )
            assert code == 0
            assert f"propagation-{kind}" in out

    def test_kind_required(self, capsys):
        code, _, _ = run(capsys, "propagation")
        assert code == 2


class TestScanAndDemo:
    def test_scan_text(self, capsys):
        code, out, _ = run(capsys, "scan-lagrange", "--n", "1", "--limit", "30")
        assert code == 0
        assert "holds: 3, 7, 11, 19, 23" in out

    def test_scan_json(self, capsys):
        code, out, _ = run(capsys, "scan-lagrange", "--json", "--n", "2", "--limit", "10")
        data = json.loads(out)
        assert data["schema"] == "meadows.scan/1"
        assert data["holds"] == []
        assert data["counterexample_sample"]["3"] == [1, 1]

    def test_scan_bad_square_count_is_bad_input_even_without_primes(self, capsys):
        code, out, err = run(capsys, "scan-lagrange", "--n", "7", "--limit", "1")
        assert (code, out) == (2, "")
        assert err == "error: n must be between 1 and 4\n"

    def test_scan_limit_over_the_cap_is_bad_input(self, capsys):
        limit = str(MAX_SIEVE_LIMIT + 1)
        code, out, err = run(capsys, "scan-lagrange", "--n", "1", "--limit", limit)
        assert (code, out) == (2, "")
        assert err == f"error: limit is over the cap of {MAX_SIEVE_LIMIT}\n"

    def test_f3_demo(self, capsys):
        code, out, _ = run(capsys, "f3-demo")
        assert code == 0
        assert "value mod 3: 0" in out
        assert "exact value: 1" in out
        code, out, _ = run(capsys, "f3-demo", "--json")
        assert json.loads(out)["homomorphism_impossible"] is True


class TestGen:
    def test_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "gen", "--seed", "7", "--size", "15")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_seeds_vary(self, capsys):
        seen = set()
        for seed in range(6):
            _, out, _ = run(capsys, "gen", "--seed", str(seed), "--size", "15")
            seen.add(out.strip())
        assert len(seen) > 1

    def test_output_parses_within_budget(self, capsys):
        for seed in range(8):
            _, out, _ = run(capsys, "gen", "--seed", str(seed), "--size", "9")
            term = parse(out.strip())
            assert term_size(term) <= 9

    def test_signature_and_vars(self, capsys):
        for seed in range(10):
            _, out, _ = run(
                capsys,
                "gen", "--seed", str(seed), "--size", "14",
                "--signature", "m", "--vars", "a,b",
            )
            term = parse(out.strip())
            assert "s(" not in out and "sqrt(" not in out
            assert free_vars(term) <= {"a", "b"}
        assert SIGMA_M == frozenset({"add", "mul", "neg", "inv"})

    @pytest.mark.parametrize("names", ["x-y", "s,x", "x,inv"])
    def test_vars_that_do_not_parse_back_rejected(self, capsys, names):
        code, out, err = run(capsys, "gen", "--seed", "3", "--size", "7", "--vars", names)
        assert (code, out) == (2, "")
        assert "cannot be a variable name" in err

    def test_empty_vars_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "--seed", "1", "--vars", " , ")
        assert code == 2
        assert "at least one" in err


class TestErrors:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "eval", "sqrt(2")
        assert code == 2
        assert "parse error" in err

    def test_open_term(self, capsys):
        code, _, err = run(capsys, "eval", "x + 1")
        assert code == 2
        assert "unbound variable" in err

    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (("eval", "-sqrt(2)"), "canonical: -sqrt(2)\ndecimal:   -1.4142135623\n"),
            (("eval", "-sqrt(2)", "--digits", "3"), "canonical: -sqrt(2)\ndecimal:   -1.414\n"),
            (("simplify", "-(-x)"), "x\n"),
            (("equal", "-sqrt(2)", "-1 * sqrt(2)"), "equal\n"),
            (("equal", "-1", "-inv(1)"), "equal\n"),
            (("sign", "-sqrt(2)"), "-1\n"),
        ],
        ids=["eval", "eval-digits", "simplify", "equal", "equal-number", "sign"],
    )
    def test_terms_that_start_with_a_minus_are_terms(self, capsys, argv, shown):
        assert run(capsys, *argv) == (0, shown, "")

    def test_unknown_options_are_still_bad_input(self, capsys):
        code, out, err = run(capsys, "eval", "--bogus", "1")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --bogus" in err

    @pytest.mark.parametrize(
        "argv, option, shown",
        [
            (("eval", "1", "--digits", "x"), "--digits", "'x'"),
            # 5000 digits: more than CPython's int-to-str limit, so int() refuses them
            (
                ("scan-lagrange", "--n", "1", "--limit", "7" * 5000),
                "--limit",
                f"{'7' * 40!r}… (5000 characters)",
            ),
            (
                ("simplify", "--steps", "7" * 5000, "x"),
                "--steps",
                f"{'7' * 40!r}… (5000 characters)",
            ),
        ],
        ids=["short", "long-limit", "long-steps"],
    )
    def test_a_bad_int_option_is_echoed_within_a_bound(self, capsys, argv, option, shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: invalid int value: {shown}\n")
        assert len(err.encode()) < 400

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [("check", "Md", "--trials", "0"), ("propagation", "--kind", "unit", "--trials", "-3")],
    )
    def test_trial_count_below_one_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: trials must be at least 1\n"

    def test_exhaustive_mode_over_the_cap_is_bad_input(self, capsys, monkeypatch):
        monkeypatch.setattr(meadows.axioms, "MAX_EXHAUSTIVE", 100)
        argv = ("check", "Lagrange2", "--model", "fp:11", "--mode", "exhaustive")
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            "error: exhaustive checking would enumerate 121 valuations, "
            "more than the cap of 100\n"
        )

    def test_a_term_may_start_with_h(self, capsys):
        # Subcommands have no short help option, so "-h" is a term.
        assert run(capsys, "equal", "-1", "-h") == (2, "", "error: unbound variable 'h'\n")
        assert run(capsys, "simplify", "-h*x") == (0, "-h * x\n", "")

    @pytest.mark.parametrize(
        "argv, usage",
        [(("-h",), "usage: meadows [-h]"), (("eval", "--help"), "usage: meadows eval [--help]")],
        ids=["meadows", "subcommand"],
    )
    def test_help(self, capsys, argv, usage):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(usage)


def _evaluated_power_of_two(n):
    """What ``eval 2^n`` prints, written without the int-to-str digit limit."""
    with localcontext() as context:
        context.prec = n
        digits = str(Decimal(2) ** n)
    return f"canonical: {digits}\ndecimal:   {digits}.0000000000\n"


@pytest.mark.parametrize(
    "argv, code, shown",
    [
        (("equal", "2^3000", "1"), 1, "different\n"),
        (("eval", "2^3000"), 0, _evaluated_power_of_two(3000)),
        (("simplify", "x^2000"), 0, " * ".join(["x"] * 2000) + "\n"),
        (("eval", "2^10000"), 0, _evaluated_power_of_two(10000)),
        (("simplify", "x^10000"), 0, " * ".join(["x"] * 10000) + "\n"),
    ],
    ids=["equal-2^3000", "eval-2^3000", "simplify-x^2000", "eval-2^10000", "simplify-x^10000"],
)
def test_deep_nesting_is_answered(capsys, argv, code, shown):
    # ``t^n`` unrolls into n - 1 nested products, up to the exponent cap.
    assert run(capsys, *argv) == (code, shown, "")
