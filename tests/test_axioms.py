"""Tests for the law catalog and the model-checking engines."""

import ast
import dataclasses
import inspect
import pickle
import random

import pytest

from meadows import axioms, finite
from meadows.axioms import (
    SUITE_NAMES,
    CheckReport,
    ComplexLaw,
    ConditionalEquation,
    Equation,
    catalog,
    check_complex_law,
    check_conditional,
    check_equation,
    check_propagation,
    resolve_model,
    run_suite,
)
from meadows.exact import Real, Session
from meadows.finite import NotPrimeError, PrimeField
from meadows.terms import (
    HOLE,
    Add,
    EvalError,
    Sign,
    Sqrt,
    UnsupportedSymbolError,
    Var,
    eval_exact,
    parse,
    substitute,
)


def real_only_random_value(rng, session):
    """The draws of ``axioms.random_value`` made with ``Real`` operations
    alone, the value a ``Real`` from its first draw on: the oracle of the
    int draws, which must agree with it value for value and draw for draw."""
    choice = rng.choice
    value = session.rational(choice(axioms._NUMERATORS), choice(axioms._DENOMINATORS))
    for _ in range(choice(axioms._STEPS)):
        op = choice(axioms._OPS)
        if op == 0 and session.depth >= 8:
            op = 2
        if op == 0:
            value = value.ssqrt()
        elif op == 1:
            value = value.inv()
        elif op == 2:
            value = -value
        elif op == 3:
            value = value + session.rational(choice(axioms._SHIFTS))
        else:
            value = value * session.rational(choice(axioms._SHIFTS), choice(axioms._SCALES))
    return value


def test_axioms_imports_nothing_from_the_simplifier():
    tree = ast.parse(inspect.getsource(axioms))
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "simplify" not in imported and "meadows.simplify" not in imported


class TestCatalog:
    def test_suite_sizes(self):
        c = catalog()
        assert len(c.Md) == 10
        assert len(c.MdDerived) == 7
        assert len(c.PseudoLaws) == 3
        assert len(c.Signs) == 6
        assert len(c.SignsDerived) == 4
        assert len(c.ILCancellation) == 2
        assert len(c.SquareRoots) == 4
        assert len(c.SqrtDerived) == 5
        assert len(c.Showcase) == 1
        assert len(c.Complex) == 3
        assert len(c.ComplexRestricted) == 4

    def test_registry(self):
        suites = catalog().sets()
        assert len(suites) == 15
        assert {"Md", "Lagrange1", "Lagrange4", "ComplexRestricted"} <= set(suites)

    def test_suite_names_match_the_registry(self):
        assert tuple(catalog().sets()) == SUITE_NAMES

    def test_law_names_are_unique(self):
        names = [law.name for laws in catalog().sets().values() for law in laws]
        assert len(names) == len(set(names))

    def test_lagrange_family(self):
        (law,) = catalog().lagrange(2)
        assert law.name == "lagrange-2"
        assert law.variables == ("x1", "x2")
        with pytest.raises(ValueError):
            catalog().lagrange(0)
        with pytest.raises(ValueError):
            catalog().lagrange(5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lagrange_suites_are_catalog_fields(self, n):
        assert catalog().lagrange(n) is catalog().sets()[f"Lagrange{n}"]

    def test_statements_render(self):
        law = catalog().Md[9]
        assert str(law) == "restricted-inverse-law: x * (x * inv(x)) == x"
        cond = catalog().ILCancellation[0]
        assert "x != 0 ==> x * inv(x) == 1" in str(cond)

    @pytest.mark.parametrize(
        "law",
        [
            Equation("fresh-eq", parse("x * y"), parse("y * x")),
            ConditionalEquation(
                "fresh-cond", ((parse("z"), parse("0"), "ne"),), parse("x"), parse("y")
            ),
        ],
        ids=["equation", "conditional"],
    )
    def test_cached_variables_and_statement_leave_the_law_unchanged(self, law):
        twin = dataclasses.replace(law)
        before = law == twin, hash(law), check_equation(law, 5).to_dict()
        statement, variables = law.statement, law.variables
        assert law.statement is statement and law.variables is variables  # computed once
        assert (law == twin, hash(law), check_equation(law, 5).to_dict()) == before
        assert hash(law) == hash(twin) and law == twin
        changed = dataclasses.replace(law, rhs=Add(law.rhs, Var("w")))
        assert changed.variables == tuple(sorted({"w", *variables}))
        assert changed.statement == statement + " + w"


class TestResolveModel:
    def test_forms(self):
        assert resolve_model("exact") == "exact"
        assert resolve_model(7) == PrimeField(7)
        assert resolve_model("fp:11") == PrimeField(11)
        for model in ("fp: 7", "fp:+7", "fp:0_7", "fp:7\n"):  # whatever int() reads
            assert resolve_model(model) == PrimeField(7)
        fp = PrimeField(5)
        assert resolve_model(fp) is fp

    @pytest.mark.parametrize(
        "model",
        ["fp:7", "fp: 7", "fp:+7", "fp:0_7", "fp:\t+0007\n"]
        # an Arabic-Indic 7, a no-break space, a full-width 7
        + ["fp:\u0667", "fp:\xa07", "fp:\uff17"],
    )
    def test_every_form_int_reads_resolves(self, model):
        assert resolve_model(model) == PrimeField(7)

    @pytest.mark.parametrize(
        "model",
        ["fp:", "fp:x", "fp:2x", "fp:_7", "fp:7_", "fp:7__7", "fp:+-7", "fp:- 7", "fp:1e3"]
        + ["fp:\xb2", "fp:\x1c7", "fp:\x1d7", "fp:\x1e7", "fp:\x1f7"],
    )
    def test_every_form_int_refuses_is_an_unknown_model(self, model):
        with pytest.raises(ValueError, match="^unknown model "):
            resolve_model(model)

    def test_a_negative_modulus_is_not_a_prime(self):
        with pytest.raises(NotPrimeError, match=r"^-7 is not a prime \(need p >= 2\)$"):
            resolve_model("fp:-7")

    @pytest.mark.parametrize("prefix", ["fp:+", "fp: "])
    def test_a_signed_or_spaced_modulus_past_the_digit_limit_is_read(self, prefix):
        # 4400 digits: more than CPython's default int-to-str limit of 4300
        message = "^a 14617-bit number is not a prime: divisible by 7$"
        with pytest.raises(NotPrimeError, match=message):
            resolve_model(prefix + "7" * 4400)

    def test_rejects(self):
        with pytest.raises(ValueError):
            resolve_model("floating")
        with pytest.raises(NotPrimeError):
            resolve_model(6)
        with pytest.raises(NotPrimeError):
            resolve_model("fp:9")


class TestFiniteExhaustive:
    def test_meadow_suites_hold_on_small_fields(self):
        for p in (2, 3, 5, 7, 11, 13):
            for name in ("Md", "MdDerived", "PseudoLaws"):
                for report in run_suite(name, p):
                    assert report.verdict == "pass", str(report)
                    assert report.mode == "exhaustive"

    def test_trials_count_assignments(self):
        report = check_equation(catalog().Md[0], 5)  # three variables
        assert report.trials == 125

    def test_unrestricted_inverse_fails_exactly_at_zero(self):
        law = Equation("unrestricted-inverse", parse("x * inv(x)"), parse("1"))
        report = check_equation(law, 5)
        assert report.verdict == "fail"
        assert report.failure_count == 1
        assert report.failures[0].valuation == {"x": "0"}
        assert (report.failures[0].lhs, report.failures[0].rhs) == ("0", "1")

    def test_conditional_inverse_law(self):
        report = check_conditional(catalog().ILCancellation[0], 7)
        assert report.verdict == "pass"
        assert (report.satisfied, report.skipped) == (6, 1)
        assert report.trials == 7

    def test_either_checker_honours_the_premises_whichever_compiles_first(self):
        law = catalog().ILCancellation[0]
        first = check_equation(law, 7)
        second = check_conditional(law, 7)
        for report in (first, second):
            assert str(report) == (
                "[PASS] inverse-law-nonzero over fp:7 "
                "(exhaustive, 7 trials satisfied=6 skipped=1, 0 failures)"
            )
        copy = dataclasses.replace(law)  # a law object no checker has compiled
        assert check_conditional(copy, 7).to_dict() == first.to_dict()
        assert check_equation(copy, 7).to_dict() == first.to_dict()
        exact = check_conditional(copy, trials=40, seed=2)
        assert check_equation(copy, trials=40, seed=2).to_dict() == exact.to_dict()

    def test_conditional_cancellation(self):
        report = check_conditional(catalog().ILCancellation[1], 7)
        assert report.verdict == "pass"
        # x nonzero forces z == y: 6 * 7 satisfying triples out of 7^3.
        assert (report.satisfied, report.skipped) == (42, 301)

    def test_lagrange_one_splits_by_residue_class(self):
        report = check_equation(catalog().lagrange(1)[0], 5)
        assert report.verdict == "fail"
        assert [f.valuation for f in report.failures] == [{"x1": "2"}, {"x1": "3"}]
        report = check_equation(catalog().lagrange(1)[0], 7)
        assert report.verdict == "pass"

    def test_lagrange_two_always_fails(self):
        for p in (2, 3, 5, 13):
            report = check_equation(catalog().lagrange(2)[0], p)
            assert report.verdict == "fail"

    def test_failure_list_is_capped(self):
        law = Equation("always-wrong", parse("x"), parse("x + 1"))
        report = check_equation(law, 101)
        assert report.failure_count == 101
        assert len(report.failures) == 20

    def test_randomized_mode_on_finite(self):
        report = check_equation(catalog().Md[0], 13, mode="randomized", trials=50)
        assert report.mode == "randomized"
        assert report.trials == 50
        assert report.verdict == "pass"

    def test_large_variable_count_falls_back_to_randomized(self):
        report = check_equation(catalog().lagrange(4)[0], 101, trials=64)
        assert report.mode == "randomized"

    def test_run_suite_builds_the_field_once(self, monkeypatch):
        calls = []
        trial_division = finite._smallest_factor
        monkeypatch.setattr(
            finite, "_smallest_factor", lambda n: calls.append(n) or trial_division(n)
        )
        reports = run_suite("Md", "fp:7")
        assert calls == [7]
        assert [r.model for r in reports] == ["fp:7"] * 10

    @pytest.mark.parametrize(
        "lhs, error, message",
        [
            ("s(sqrt(x))", UnsupportedSymbolError, "'s' has no finite-field interpretation"),
            ("sqrt(s(x))", UnsupportedSymbolError, "'sqrt' has no finite-field interpretation"),
            ("s([])", UnsupportedSymbolError, "'s' has no finite-field interpretation"),
            ("[] + s(x)", EvalError, "cannot evaluate a context hole"),
        ],
    )
    def test_unsupported_symbols_raise_at_the_outermost_leftmost_node(
        self, lhs, error, message
    ):
        with pytest.raises(error) as info:
            check_equation(Equation("no-field-meaning", parse(lhs), parse("x")), "fp:5")
        assert type(info.value) is error and str(info.value) == message

    def test_premise_that_never_holds_skips_an_unsupported_conclusion(self):
        never = ((parse("x"), parse("x + 1"), "eq"),)
        law = ConditionalEquation("vacuous", never, parse("sqrt(x)"), parse("x"))
        report = check_conditional(law, "fp:7")
        assert report.verdict == "pass"
        assert (report.satisfied, report.skipped) == (0, 7)

    def test_explicit_exhaustive_mode_over_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(axioms, "MAX_EXHAUSTIVE", 100)
        law = catalog().lagrange(2)[0]
        with pytest.raises(ValueError, match=r"\b121 valuations.* cap of 100\b"):
            check_equation(law, "fp:11", mode="exhaustive")
        assert check_equation(law, "fp:11").mode == "randomized"
        assert check_equation(law, "fp:7", mode="exhaustive").trials == 49


class TestRandomizedExact:
    def test_equational_suites_pass(self):
        for name in (
            "Md",
            "MdDerived",
            "PseudoLaws",
            "Signs",
            "SignsDerived",
            "SquareRoots",
            "SqrtDerived",
            "Showcase",
            "ILCancellation",
            "Lagrange1",
            "Lagrange3",
        ):
            for report in run_suite(name, "exact", trials=300, seed=0):
                assert report.verdict == "pass", str(report)
                assert report.mode == "randomized"

    def test_showcase_pinned_edge_values(self):
        (law,) = catalog().Showcase
        expectations = {0: 1, 1: 0, -1: 0}
        from fractions import Fraction

        for b in (0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-1, 2)):
            session = Session()
            valuation = {"b": session.value(b)}
            lhs = eval_exact(law.lhs, valuation, session)
            rhs = eval_exact(law.rhs, valuation, session)
            assert lhs == rhs, f"showcase mismatch at b={b}"
            if b in expectations:
                assert lhs == session.rational(expectations[b])

    def test_detects_false_laws(self):
        bogus = Equation("sqrt-of-square-unsigned", parse("sqrt(x * x)"), parse("x"))
        assert check_equation(bogus, "exact", trials=200).verdict == "fail"
        bogus = Equation("guardless", parse("x"), parse("(t * inv(t)) * x"))
        assert check_equation(bogus, "exact", trials=200).verdict == "fail"

    def test_deterministic_under_seed(self):
        runs = [
            [r.to_dict() for r in run_suite("Signs", "exact", trials=50, seed=3)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        changed = [r.to_dict() for r in run_suite("Signs", "exact", trials=50, seed=4)]
        assert changed != runs[0]

    def test_strategies_reach_the_conclusion(self):
        cond = next(
            law for law in catalog().SignsDerived if isinstance(law, ConditionalEquation)
        )
        report = check_conditional(cond, "exact", trials=200, seed=1)
        assert report.verdict == "pass"
        assert report.satisfied >= 80  # forced trials actually satisfy the premise
        report = check_conditional(
            catalog().ILCancellation[1], "exact", trials=200, seed=1
        )
        assert report.verdict == "pass"
        assert report.satisfied >= 80

    def test_random_values_adjoin_no_root_past_depth_8(self):
        s = Session()
        for p in (2, 3, 5, 7, 11, 13, 17, 19):
            s.rational(p).ssqrt()
        rng = random.Random(5)
        for _ in range(300):
            axioms.random_value(rng, s)
        assert s.depth == 8

    @staticmethod
    def _draws(session, rng, count, draw):
        values = [draw(rng, session) for _ in range(count)]
        session.check_invariants()
        return (
            [(v._num, v._den) for v in values],
            session._radicands,
            session._products,
            list(session._roots.items()),
            rng.getstate(),
        )

    def _assert_draws_match_the_real_only_draws(self, seed, count):
        ours = self._draws(Session(), random.Random(seed), count, axioms.random_value)
        oracle = self._draws(Session(), random.Random(seed), count, real_only_random_value)
        assert ours == oracle
        return len(ours[1])

    def test_random_values_match_real_only_draws(self):
        # values, tower, root memo and RNG state, in fresh sessions
        for seed in range(300):
            self._assert_draws_match_the_real_only_draws(seed, 4)

    def test_random_values_match_real_only_draws_up_to_the_depth_cap(self):
        assert self._assert_draws_match_the_real_only_draws(7, 80) == 8

    def test_a_zero_first_factor_falls_back_to_one(self, monkeypatch):
        # "match-products" needs x != 0; after 20 zero draws it takes x = 1
        monkeypatch.setattr(axioms, "random_value", lambda rng, session: session.zero)
        session, x, y, z = axioms._random_valuation(
            random.Random(0), 3, "match-products", trial=1
        )
        assert x == session.one and y.is_zero() and z is y

    def test_exhaustive_on_exact_rejected(self):
        with pytest.raises(ValueError):
            check_equation(catalog().Md[0], "exact", mode="exhaustive")

    def test_unknown_strategy_rejected(self):
        # Rejected when the law is built, before any check could pass it.
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            ConditionalEquation("odd", (), parse("x"), parse("x"), strategy="bogus")
        with pytest.raises(ValueError, match="unknown premise kind 'neq'"):
            ConditionalEquation(
                "odd", ((parse("x"), parse("0"), "neq"),), parse("x"), parse("x")
            )
        # The strategies steer the first two or three variables.
        with pytest.raises(ValueError, match="'match-signs' needs at least 2 variables"):
            ConditionalEquation("odd", (), parse("x"), parse("x"), strategy="match-signs")
        with pytest.raises(ValueError, match="'match-products' needs at least 3 variables"):
            ConditionalEquation("odd", (), parse("x + y"), parse("x + y"), strategy="match-products")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trial_counts_below_one_rejected(self, trials):
        checks = (
            lambda: check_equation(catalog().Md[0], "exact", trials=trials),
            lambda: check_equation(catalog().Md[0], 5, trials=trials),
            lambda: check_conditional(catalog().ILCancellation[0], 7, trials=trials),
            lambda: check_propagation("unit", trials=trials),
            lambda: check_complex_law(catalog().Complex[0], trials=trials),
            lambda: run_suite("Md", "fp:5", mode="exhaustive", trials=trials),
            lambda: run_suite("Complex", trials=trials),
        )
        for check in checks:
            with pytest.raises(ValueError, match="trials must be at least 1"):
                check()

    def test_unknown_suite_and_mode(self):
        with pytest.raises(ValueError):
            run_suite("Nonsense")
        with pytest.raises(ValueError):
            check_equation(catalog().Md[0], 5, mode="sideways")


class TestPropagation:
    def test_random_contexts(self):
        for kind in ("unit", "zero"):
            report = check_propagation(kind, trials=150, seed=2)
            assert report.verdict == "pass", str(report)
            assert report.name == f"propagation-{kind}"

    def test_forced_root_and_sign_contexts(self):
        for context in (Sqrt(HOLE), Sign(HOLE), parse("1 - []"), parse("inv([])")):
            for kind in ("unit", "zero"):
                report = check_propagation(
                    kind, trials=80, seed=5, fixed_context=context
                )
                assert report.verdict == "pass", str(report)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            check_propagation("both")

    def test_a_context_without_a_hole_is_refused(self):
        # u * C == u * C holds for any C, so such a check would prove nothing.
        with pytest.raises(ValueError, match="no hole"):
            check_propagation("unit", trials=5, fixed_context=parse("x + 1"))

    def test_failures_name_the_context_and_plug(self, monkeypatch):
        # Every trial refutes: the two sides of every trial compare unequal.
        monkeypatch.setattr(Real, "__ne__", lambda a, b: True)
        context = parse("sqrt([] + x)")
        report = check_propagation("zero", trials=25, seed=1, fixed_context=context)
        assert report.failure_count == 25
        assert len(report.failures) == axioms.MAX_FAILURES
        for failure in report.failures:
            names = list(failure.valuation)
            assert names[-2:] == ["[context]", "[plug]"]
            assert names[:-2] == sorted(names[:-2])
            assert failure.valuation["[context]"] == "sqrt([] + x)"
            assert parse(failure.valuation["[plug]"]) is not None

    def test_the_guard_variable_avoids_the_context_names(self, monkeypatch):
        # The guard u is taken of a fresh variable, "t" unless a trial's
        # terms use it; this context uses "t" and "t1", so it is "t2".
        guarded = []
        pseudo_unit = Real.pseudo_unit

        def recording(value):
            guarded.append(str(value))
            return pseudo_unit(value)

        monkeypatch.setattr(Real, "pseudo_unit", recording)
        monkeypatch.setattr(Real, "__ne__", lambda a, b: True)  # every trial refutes
        context = parse("t * [] + t1")
        report = check_propagation("unit", trials=5, seed=1, fixed_context=context)
        assert report.failure_count == len(report.failures) == len(guarded) == 5
        for failure, guard in zip(report.failures, guarded):
            assert {"t", "t1", "t2"} <= set(failure.valuation)
            assert failure.valuation["t2"] == guard

    def test_a_guard_that_is_not_idempotent_is_refuted(self, monkeypatch):
        # With u = 2, u * (r + x) and u * (u * r + x) differ whenever r != 0,
        # so the check must bind the hole to r on one side and u * r on the other.
        def two(value):
            return value._session.rational(2)

        monkeypatch.setattr(Real, "pseudo_unit", two)
        monkeypatch.setattr(Real, "pseudo_zero", two)
        context = parse("[] + x")
        for kind in ("unit", "zero"):
            report = check_propagation(kind, trials=25, seed=1, fixed_context=context)
            assert report.verdict == "fail"
            assert report.failure_count > 0

    def test_trials_parse_nothing(self, monkeypatch):
        # The guard comes from the kernel, not from text parsed per trial.
        def no_parse(source):
            raise AssertionError(f"parsed {source!r}")

        monkeypatch.setattr(axioms, "parse", no_parse)
        for kind in ("unit", "zero"):
            assert check_propagation(kind, trials=60, seed=3).verdict == "pass"


class TestComplexSuites:
    def test_pass_on_exact(self):
        for name in ("Complex", "ComplexRestricted"):
            for report in run_suite(name, trials=200, seed=0):
                assert report.verdict == "pass", str(report)
                assert report.model == "complex"

    def test_rejected_on_finite_models(self):
        with pytest.raises(ValueError):
            run_suite("Complex", 7)

    @pytest.mark.parametrize("name", ["Complex", "ComplexRestricted"])
    def test_the_mode_is_checked_as_for_an_exact_equation(self, name):
        with pytest.raises(ValueError, match="^exhaustive checking needs a finite model$"):
            run_suite(name, mode="exhaustive", trials=5)
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            run_suite(name, mode="bogus", trials=5)
        reports = run_suite(name, mode="randomized", trials=5)
        assert {r.mode for r in reports} == {"randomized"}

    def test_single_law(self):
        report = check_complex_law(catalog().Complex[0], trials=50, seed=9)
        assert report.verdict == "pass"
        assert report.trials == 50

    def test_a_variable_outside_the_five_is_rejected(self):
        for source in ("y", "z3", "re"):
            with pytest.raises(ValueError, match="a complex law reads only z1, z2, x1, x2 and c1: "):
                ComplexLaw("odd", parse(source), parse("z1"))

    def test_a_law_false_off_the_real_line_is_refuted_on_its_own_variables(self):
        law = ComplexLaw("re-is-z", parse("x1"), parse("z1"))
        assert (law.nvars, law.statement) == (1, "re(z) == z")
        report = check_complex_law(law, trials=40, seed=2)
        assert report.verdict == "fail" and report.failures
        for failure in report.failures:
            assert set(failure.valuation) == {"x1", "z1"}
            assert (failure.lhs, failure.rhs) == (failure.valuation["x1"], failure.valuation["z1"])

    def test_a_checked_law_pickles_and_its_copy_compiles_its_own_loop(self):
        law = ComplexLaw("fresh-complex", parse("z1 * z2 + c1"), parse("c1 + z2 * z1"))
        report = check_complex_law(law, trials=5, seed=1)
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law and hash(copy) == hash(law)
        assert "complex" not in vars(copy).get("_loops", {})
        assert check_complex_law(copy, trials=5, seed=1) == report
        assert copy._loops["complex"] is not law._loops["complex"]

    def test_the_restricted_laws_are_the_square_root_laws_on_real_parts(self):
        def on_real_parts(t):
            return substitute(substitute(t, "x", Var("x1")), "y", Var("x2"))

        c = catalog()
        assert len(c.ComplexRestricted) == len(c.SquareRoots)
        for restricted, law in zip(c.ComplexRestricted, c.SquareRoots):
            assert restricted.name == f"restricted-{law.name}"
            assert restricted.lhs == on_real_parts(law.lhs)
            assert restricted.rhs == on_real_parts(law.rhs)

    def test_closed_laws_read_no_value(self):
        law = ComplexLaw("one", parse("1"), parse("1"))
        assert (law.variables, law.nvars) == ((), 0)
        assert check_complex_law(law, trials=3).verdict == "pass"
        # a closed subterm is an exact value, whose sign is still a value
        signs = ComplexLaw("closed-sign", parse("inv(s(-2)) * z1 + s(3)"), parse("1 - z1"))
        assert signs.nvars == 1
        assert check_complex_law(signs, trials=20).verdict == "pass"


class TestReports:
    def test_to_dict_shape(self):
        report = check_equation(catalog().Md[2], 5)
        data = report.to_dict()
        assert data["schema"] == "meadows.check/1"
        assert data["name"] == "add-zero-identity"
        assert data["statement"] == "x + 0 == x"
        assert data["model"] == "fp:5"
        assert data["verdict"] == "pass"
        assert data["failures"] == []
        assert data["seed"] is None

    def test_str_summary(self):
        report = check_equation(catalog().Md[2], 5)
        assert "[PASS]" in str(report)
        assert "add-zero-identity" in str(report)
        bad = Equation("always-wrong", parse("x"), parse("x + 1"))
        assert "[FAIL]" in str(check_equation(bad, 5))

    def test_failure_reports_render_exact_values(self):
        bogus = Equation("sqrt-of-square-unsigned", parse("sqrt(x * x)"), parse("x"))
        report = check_equation(bogus, "exact", trials=100, seed=0)
        assert report.failure_count > 0
        failure = report.failures[0]
        assert set(failure.valuation) == {"x"}
        assert failure.lhs != failure.rhs
