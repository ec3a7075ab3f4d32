"""Acceptance gate: the eight package-level criteria, one test per criterion.

Each test prints one ``[PASS]``/``[FAIL]`` line (run ``pytest -s`` to see the
lines as they happen; without ``-s`` pytest shows them for failing tests).
Criteria with a runtime budget assert it with a wall-clock check.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from meadows.axioms import (
    Equation,
    check_equation,
    check_propagation,
    random_value,
    run_suite,
    verify_f3_argument,
)
from meadows.exact import Session
from meadows.finite import lagrange_holds, primes_upto, scan_lagrange
from meadows.simplify import decide_closed_eq, normalize_closed, rewrite_simplify
from meadows.terms import (
    HOLE,
    Sign,
    Sqrt,
    const,
    eval_exact,
    free_vars,
    gen_random_term,
    parse,
    render,
    substitute,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_finite_model_soundness():
    with criterion(1, "meadow laws exhaustive over F_p, p in {2,3,5,7,11,13}"):
        start = time.monotonic()
        unconditional = Equation(
            "unrestricted-inverse", parse("x * inv(x)"), parse("1")
        )
        for p in (2, 3, 5, 7, 11, 13):
            for suite in ("Md", "MdDerived", "PseudoLaws", "ILCancellation"):
                for report in run_suite(suite, p):
                    assert report.mode == "exhaustive"
                    assert report.verdict == "pass", str(report)
            # The *unconditional* inverse law must fail, and only at zero.
            report = check_equation(unconditional, p)
            assert report.failure_count == 1, str(report)
            assert report.failures[0].valuation == {"x": "0"}
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s (budget 5s)"


def test_criterion_2_exact_model_soundness():
    with criterion(2, "sign/root law suites, 1000 seeded exact trials per law"):
        start = time.monotonic()
        for suite in (
            "Md",
            "Signs",
            "SquareRoots",
            "SignsDerived",
            "SqrtDerived",
            "Showcase",
        ):
            for report in run_suite(suite, "exact", trials=1000, seed=2024):
                assert report.verdict == "pass", str(report)
                assert report.trials == 1000
                if report.satisfied is not None:
                    # The conditional law must actually be exercised.
                    assert report.satisfied >= 400, str(report)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s (budget 60s)"


def test_criterion_3_propagation_properties():
    with criterion(3, "pseudo-unit/zero propagation through contexts, 1000 trials"):
        for kind in ("unit", "zero"):
            report = check_propagation(kind, trials=1000, seed=31)
            assert report.verdict == "pass", str(report)
            assert report.trials == 1000
            # The root context (and its sign analogue) must hold specifically.
            for context in (Sqrt(HOLE), Sign(HOLE)):
                forced = check_propagation(
                    kind, trials=200, seed=32, fixed_context=context
                )
                assert forced.verdict == "pass", str(forced)


def test_criterion_4_three_element_model_separation():
    with criterion(4, "F_3 satisfies the one-square law yet separates from exact"):
        assert lagrange_holds(3, 1).holds
        report = verify_f3_argument()
        assert report.squares_mod_3 == (0, 1)
        assert report.md_and_l1_pass
        assert report.display_term == "(1 + 1 + 1) * inv(1 + 1 + 1)"
        assert report.finite_value == 0
        assert report.exact_value == "1"
        assert report.homomorphism_impossible


def test_criterion_5_lagrange_scans():
    with criterion(5, "sum-of-squares scans to 10000 match the congruence oracle"):
        start = time.monotonic()
        scan1 = scan_lagrange(1, 10_000)
        congruence = [p for p in primes_upto(10_000) if p % 4 == 3]
        assert list(scan1.holds) == congruence
        scan2 = scan_lagrange(2, 10_000)
        assert scan2.holds == ()
        for p, witness in scan2.counterexample_sample.items():
            assert (1 + sum(x * x for x in witness)) % p == 0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s (budget 10s)"


def test_criterion_6_numeric_cross_check():
    with criterion(6, "12-digit decimals never contradict exact sign/equality"):
        rng = random.Random(606)
        bound = Fraction(1, 10**12)
        checked = 0
        while checked < 200:
            session = Session()
            group = [random_value(rng, session) for _ in range(10)]
            decimals = [value.approx_decimal(12) for value in group]
            for value, decimal in zip(group, decimals):
                approx = session.value(Fraction(decimal))
                offset = value - approx
                # Certified enclosure: |decimal - value| < 10^-12 ...
                assert (offset - bound).sign() < 0
                assert (offset + bound).sign() > 0
                # ... truncated toward zero, so it never overshoots the sign.
                assert offset.sign() in (0, value.sign())
            for i, a in enumerate(group):
                for b, decimal_b in zip(group[:i], decimals[:i]):
                    comparison = (a - b).sign()
                    if comparison == 0:
                        assert decimals[i] == decimal_b  # equal values, equal text
                    elif comparison < 0:
                        assert Fraction(decimals[i]) <= Fraction(decimal_b)
                    else:
                        assert Fraction(decimals[i]) >= Fraction(decimal_b)
            checked += len(group)

        session = Session()
        root2 = session.value(2).ssqrt()
        assert root2 * root2 == 2
        assert session.value(8).ssqrt() == 2 * root2
        assert 2 * 408**2 == 332928 and 577**2 == 332929  # integer oracle
        assert (root2 - session.rational(577, 408)).sign() == -1


def test_criterion_7_complex_extension():
    with criterion(7, "complex-extension law suites, 500 trials per law"):
        for suite in ("Complex", "ComplexRestricted"):
            for report in run_suite(suite, trials=500, seed=77):
                assert report.verdict == "pass", str(report)
                assert report.trials == 500


def _closed_corpus(rng, size):
    corpus = []
    while len(corpus) < size:
        term = gen_random_term(None, 12, rng=rng)
        for name in sorted(free_vars(term)):
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            term = substitute(term, name, const(value))
        corpus.append(term)
    return corpus


def test_criterion_8_simplifier_soundness():
    with criterion(8, "normalization/decision/rewriting agree with the kernel"):
        rng = random.Random(808)
        corpus = _closed_corpus(rng, 500)

        # Canonical forms: idempotent, and equal to the input in the kernel.
        for term in corpus:
            source = render(term)
            canonical = normalize_closed(source)
            assert normalize_closed(canonical) == canonical
            session = Session()
            assert eval_exact(parse(source), {}, session) == eval_exact(
                parse(canonical), {}, session
            )

        # Closed equality decisions agree with kernel equality on 1000 pairs.
        equal_seen = 0
        for k in range(1000):
            a = corpus[rng.randrange(len(corpus))]
            if k % 2:
                b = parse(normalize_closed(render(a)))
            else:
                b = corpus[rng.randrange(len(corpus))]
            session = Session()
            kernel_equal = eval_exact(a, {}, session) == eval_exact(b, {}, session)
            assert decide_closed_eq(render(a), render(b)) == kernel_equal
            equal_seen += kernel_equal
        assert equal_seen >= 500

        # Every rewrite step preserves closed values ...
        for term in corpus[:200]:
            session = Session()
            simplified = rewrite_simplify(term).term
            assert eval_exact(term, {}, session) == eval_exact(
                simplified, {}, session
            )

        # ... and preserves open-term semantics step by step, under 20
        # random valuations per term.
        for _ in range(200):
            term = gen_random_term(None, 12, rng=rng)
            names = sorted(free_vars(term))
            total = rewrite_simplify(term).steps
            stages = [rewrite_simplify(term, max_steps=k).term for k in range(total + 1)]
            environments = []
            for _ in range(20):
                session = Session()
                valuation = {name: random_value(rng, session) for name in names}
                environments.append((session, valuation))
            previous = None
            for stage in stages:
                current = [
                    eval_exact(stage, valuation, session)
                    for session, valuation in environments
                ]
                if previous is not None:
                    assert current == previous
                previous = current
