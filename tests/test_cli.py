"""Tests for the command-line interface (driven through ``main``)."""

import json

import pytest

from meadows.cli import main
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

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [("equal", "2^3000", "1"), ("eval", "2^3000"), ("simplify", "x^2000")],
    )
    def test_deep_nesting_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: term nests too deeply\n"
