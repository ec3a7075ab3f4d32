"""Differential tests: compiled laws against the recursive walks.

The checker runs each equation or conditional equation through code that
``terms._compile`` generates once per law and model kind.  The public walks
``eval_exact`` and ``eval_mod_p`` stay the reference: for random laws built
from ``gen_random_term`` (two sides and up to two premises), every trial must
give the same outcome, ``None`` when a premise fails or else both sides,
or the same error.  On the exact model, the trial's session must also end with
the same tower, so the compiled code adjoins the same roots in the same order.
"""

import gc
import pickle
import random
import sys
import weakref
from collections.abc import Mapping, Sequence, Set
from fractions import Fraction
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.axioms import Equation, check_equation, random_value
from meadows.exact import Session
from meadows.finite import PrimeField, primes_upto
from meadows.terms import (
    SIGMA_M,
    SIGMA_MSS,
    Const,
    _compile,
    eval_exact,
    eval_mod_p,
    gen_random_context,
    gen_random_term,
    parse,
    substitute,
)

VARIABLES = ("x", "y", "z")
PRIMES = primes_upto(60)


def walk_outcome(premises, lhs, rhs, evaluate, valuation, domain):
    """The checker's trial before compilation: premises in order, then both sides."""
    for left, right, kind in premises:
        equal = evaluate(left, valuation, domain) == evaluate(right, valuation, domain)
        if equal != (kind == "eq"):
            return None
    return evaluate(lhs, valuation, domain), evaluate(rhs, valuation, domain)


@st.composite
def laws(draw, signature, max_size, holes=False):
    # "c" becomes one rational constant; its denominator is a multiple of
    # every prime up to 60 a fifth of the time.
    denominator = draw(st.sampled_from((1, 3, 7, 12, prod(PRIMES))))
    constant = Const(Fraction(draw(st.integers(0, 50)), denominator))

    def term():
        seed, size = draw(st.integers(0, 2**32)), draw(st.integers(1, max_size))
        if holes and draw(st.integers(0, 4)) == 0:
            t = gen_random_context(seed, max(size, 2), signature, (*VARIABLES, "c"))
        else:
            t = gen_random_term(seed, size, signature, (*VARIABLES, "c"))
        return substitute(t, "c", constant)

    premises = tuple(
        (term(), term(), draw(st.sampled_from(("eq", "ne"))))
        for _ in range(draw(st.integers(0, 2)))
    )
    return premises, term(), term()


def _draws(seed, session):
    rng = random.Random(seed)
    return {v: random_value(rng, session) for v in VARIABLES}


def _shown(outcome):
    """An exact outcome as plain data: coordinates are Fractions, sessions drop out."""
    return None if outcome is None else tuple(side.coords for side in outcome)


@settings(max_examples=150, deadline=None)
@given(laws(SIGMA_MSS, 9), st.integers(0, 2**32))
def test_exact_compiled_law_matches_the_walk(law, seed):
    premises, lhs, rhs = law
    compiled = _compile(premises, lhs, rhs, exact=True)
    for trial in range(4):
        # The same draws in two sessions: one for the walk, one for the code.
        walked, ran = Session(), Session()
        valuation = _draws(seed + trial, walked)
        expected = walk_outcome(premises, lhs, rhs, eval_exact, valuation, walked)
        assert _shown(compiled(_draws(seed + trial, ran), ran)) == _shown(expected)
        assert ran.radicands == walked.radicands


def _outcome_or_error(run):
    try:
        return run()
    except ValueError as exc:  # EvalError and UnsupportedSymbolError
        return type(exc), str(exc)


@st.composite
def field_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    value = st.integers(-3 * p, 3 * p)
    valuations = [{v: draw(value) for v in VARIABLES} for _ in range(4)]
    return p, valuations


@settings(max_examples=300, deadline=None)
@given(laws(SIGMA_M, 20), field_cases())
def test_field_compiled_law_matches_the_walk(law, case):
    premises, lhs, rhs = law
    p, valuations = case
    field = PrimeField(p)
    compiled = _compile(premises, lhs, rhs, exact=False)
    for valuation in valuations:
        expected = walk_outcome(premises, lhs, rhs, eval_mod_p, valuation, field)
        assert compiled(valuation, field) == expected


@settings(max_examples=200, deadline=None)
@given(laws(SIGMA_MSS, 8, holes=True), field_cases())
def test_field_compiled_law_raises_what_the_walk_raises(law, case):
    # s, sqrt and holes raise at the node the walk enters first.
    premises, lhs, rhs = law
    p, valuations = case
    field = PrimeField(p)
    compiled = _compile(premises, lhs, rhs, exact=False)
    for valuation in valuations:
        expected = _outcome_or_error(
            lambda: walk_outcome(premises, lhs, rhs, eval_mod_p, valuation, field)
        )
        assert _outcome_or_error(lambda: compiled(valuation, field)) == expected


def test_shared_subterms_are_computed_once():
    seen = []

    class Counting(PrimeField):
        __slots__ = ()

        def inv(self, a):
            seen.append(a)
            return super().inv(a)

    law = parse("inv(x + y) * inv(x + y)"), parse("inv(x + y)")
    compiled = _compile((), *law, exact=False)
    assert compiled({"x": 2, "y": 4}, Counting(7)) == (1, 6)
    assert seen == [6]


# --------------------------------------------------------------------------
# The checker's cache of compiled laws
# --------------------------------------------------------------------------


def _module_containers():
    """Length of every container held at module level by a meadows module."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name == "meadows" or name.startswith("meadows."):
            for attr, value in vars(module).items():
                container = isinstance(value, (Mapping, Sequence, Set))
                if container and not attr.startswith("__") and not isinstance(value, str):
                    sizes[name, attr] = len(value)
    return sizes


def _fresh_law(i):
    return Equation(f"fresh-{i}", parse(f"x * {i} + y"), parse(f"y + {i} * x"))


def test_compiled_code_dies_with_its_law():
    law = _fresh_law(0)
    check_equation(law, "exact", trials=3)
    check_equation(law, 5)
    dead = weakref.ref(law)
    del law
    gc.collect()
    assert dead() is None


def test_checked_law_still_pickles_and_compares_equal():
    law = _fresh_law(1)
    check_equation(law, 5)
    check_equation(law, "exact", trials=3)
    copy = pickle.loads(pickle.dumps(law))
    assert copy == law and hash(copy) == hash(law)
    assert check_equation(copy, 5).to_dict() == check_equation(law, 5).to_dict()


def test_checking_fresh_laws_grows_no_module_container():
    check_equation(_fresh_law(-1), 3)  # warm every lazy table first
    gc.collect()
    before = _module_containers()
    for i in range(1000):
        check_equation(_fresh_law(i), 3)
    gc.collect()
    assert ("meadows.axioms", "_COMPILED") in before
    assert _module_containers() == before


def test_literals_beyond_the_digit_limit_compile_for_both_models():
    big = "1" + "0" * 4400
    holds = Equation("big", parse(f"x * {big}"), parse(f"{big} * x + 0 * inv({big})"))
    fails = Equation("big-false", parse(f"x * {big}"), parse(f"x * {big}1"))
    for model in ("exact", "fp:5"):
        assert check_equation(holds, model, trials=3).verdict == "pass"
        assert check_equation(fails, model, trials=3).verdict == "fail"
    for law in (holds, fails):
        for exact, domain, valuation in (
            (True, Session(), {"x": 3}),
            (False, PrimeField(7), {"x": 3}),
        ):
            evaluate = eval_exact if exact else eval_mod_p
            expected = walk_outcome((), law.lhs, law.rhs, evaluate, valuation, domain)
            assert _compile((), law.lhs, law.rhs, exact)(valuation, domain) == expected
