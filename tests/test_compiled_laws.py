"""Differential tests: compiled law loops against the recursive walks.

The checker runs each equation or conditional equation through one loop over
all its trials, which ``terms._compile`` generates once per law and model
kind.  The public walks ``eval_exact`` and ``eval_mod_p`` stay the
reference: ``walk_loop`` is the same loop built from them.  For random laws
built from ``gen_random_term`` (two sides and up to two premises), the two
loops must report the same over every prefix of the trials, so each trial
gets the same verdict (skipped, equal, or refuted with both sides), the
counts agree, and an error has the same class and message and ends the same
trial.  On the exact model, each trial's session must also end with the same
tower, so the compiled code adjoins the same roots in the same order.  Last,
every field law of the catalog gives the same report as one built with
``eval_mod_p``, which walks each side once over columns that hold every
valuation.
"""

import gc
import operator
import pickle
import random
import sys
import weakref
from collections.abc import Mapping, Sequence, Set
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.axioms import (
    MAX_FAILURES,
    ComplexLaw,
    ConditionalEquation,
    Equation,
    catalog,
    check_equation,
    random_value,
)
from meadows.exact import Session
from meadows.finite import PrimeField, primes_upto
from meadows.terms import (
    SIGMA_M,
    SIGMA_MSS,
    Const,
    Sign,
    Sqrt,
    _compile,
    _subterms,
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


def walk_loop(variables, premises, lhs, rhs, exact):
    """What ``_compile`` returns, built from the walks: the same trials,
    domain, ``refute`` calls and counts."""
    evaluate = eval_exact if exact else eval_mod_p

    def law(trials, domain, refute):
        satisfied = skipped = 0
        for trial in trials:
            if exact:
                domain, *trial = trial
            valuation = dict(zip(variables, trial))
            outcome = walk_outcome(premises, lhs, rhs, evaluate, valuation, domain)
            if outcome is None:
                skipped += 1
                continue
            satisfied += 1
            if outcome[0] != outcome[1]:
                refute(valuation, *outcome)
        return satisfied, skipped

    return law


def tally(loop, trials, domain):
    """What a law loop reports: its counts, or the class and message of the
    error it raised and the index of the trial that raised it, and then each
    refutation with the index of its trial."""
    refuted, index = [], -1

    def numbered():
        nonlocal index
        for index, trial in enumerate(trials):
            yield trial

    def refute(valuation, lhs, rhs):
        refuted.append((index, valuation, lhs, rhs))

    try:
        ending = loop(numbered(), domain, refute)
    except ValueError as exc:  # EvalError and UnsupportedSymbolError
        ending = type(exc), str(exc), index
    return ending, refuted


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


def _exact_trials(seed, count):
    """``count`` trials of random draws, each led by its fresh session."""
    trials = []
    for trial in range(count):
        session = Session()
        rng = random.Random(seed + trial)
        trials.append([session, *(random_value(rng, session) for _ in VARIABLES)])
    return trials


def _shown(reported):
    """An exact tally as plain data: values become their coordinates, so
    sessions drop out."""
    ending, refuted = reported
    return ending, [
        (i, {v: x.coords for v, x in valuation.items()}, lhs.coords, rhs.coords)
        for i, valuation, lhs, rhs in refuted
    ]


def _assert_exact_loops_agree(law, seed, count=4):
    premises, lhs, rhs = law
    compiled = _compile(VARIABLES, premises, lhs, rhs, exact=True)
    walked = walk_loop(VARIABLES, premises, lhs, rhs, exact=True)
    for k in range(1, count + 1):
        # The same draws in two sets of sessions: one for the walk, one for the code.
        walks, runs = _exact_trials(seed, k), _exact_trials(seed, k)
        assert _shown(tally(compiled, runs, None)) == _shown(tally(walked, walks, None))
        assert [s.radicands for s, *_ in runs] == [s.radicands for s, *_ in walks]


@settings(max_examples=150, deadline=None)
@given(laws(SIGMA_MSS, 9), st.integers(0, 2**32))
def test_exact_compiled_law_matches_the_walk(law, seed):
    _assert_exact_loops_agree(law, seed)


@settings(max_examples=60, deadline=None)
@given(laws(SIGMA_MSS, 8, holes=True), st.integers(0, 2**32))
def test_exact_compiled_law_raises_what_the_walk_raises(law, seed):
    # a hole raises at the node the walk enters first, in the same trial
    _assert_exact_loops_agree(law, seed)


@st.composite
def field_cases(draw):
    p = draw(st.sampled_from(PRIMES))
    value = st.integers(-3 * p, 3 * p)
    trials = [tuple(draw(value) for _ in VARIABLES) for _ in range(4)]
    return p, trials


def _assert_field_loops_agree(law, case):
    premises, lhs, rhs = law
    p, trials = case
    field = PrimeField(p)
    compiled = _compile(VARIABLES, premises, lhs, rhs, exact=False)
    walked = walk_loop(VARIABLES, premises, lhs, rhs, exact=False)
    for k in range(1, len(trials) + 1):
        assert tally(compiled, trials[:k], field) == tally(walked, trials[:k], field)


@settings(max_examples=300, deadline=None)
@given(laws(SIGMA_M, 20), field_cases())
def test_field_compiled_law_matches_the_walk(law, case):
    _assert_field_loops_agree(law, case)


@settings(max_examples=200, deadline=None)
@given(laws(SIGMA_MSS, 8, holes=True), field_cases())
def test_field_compiled_law_raises_what_the_walk_raises(law, case):
    # s, sqrt and holes raise at the node the walk enters first, in the same trial
    _assert_field_loops_agree(law, case)


def test_shared_subterms_are_computed_once():
    seen = []

    class Counting(PrimeField):
        __slots__ = ()

        def inv(self, a):
            seen.append(a)
            return super().inv(a)

    law = parse("inv(x + y) * inv(x + y)"), parse("inv(x + y)")
    compiled = _compile(("x", "y"), (), *law, exact=False)
    assert tally(compiled, [(2, 4), (1, 0)], Counting(7)) == (
        (2, 0),
        [(0, {"x": 2, "y": 4}, 1, 6)],
    )
    assert seen == [6, 1]


# --------------------------------------------------------------------------
# Every field law of the catalog against a report built with the walk
# --------------------------------------------------------------------------


class Column(tuple):
    """One value per valuation, with elementwise ``+``, ``*``, ``-`` and ``%``;
    an int operand stands for a column of that int."""

    def _map(self, op, other):
        if isinstance(other, Column):
            return Column(map(op, self, other))
        return Column(op(a, other) for a in self)

    def __add__(self, other):
        return self._map(operator.add, other)

    def __mul__(self, other):
        return self._map(operator.mul, other)

    def __mod__(self, other):
        return self._map(operator.mod, other)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Column(-a for a in self)


class ColumnField:
    """What ``eval_mod_p`` reads of a field, for columns: ``p`` and an
    ``inv`` that maps ``PrimeField(p).inv`` over a column."""

    def __init__(self, p):
        self.p, self._inv = p, PrimeField(p).inv

    def inv(self, a):
        return Column(map(self._inv, a)) if isinstance(a, Column) else self._inv(a)


def reference_report(law, p, mode, trials=None, seed=None):
    """``check_equation(law, p, ...).to_dict()`` built with ``eval_mod_p``:
    exhaustive in ``product`` order, or ``trials`` seeded draws.  Each premise
    side and law side is walked once, over columns that hold every
    valuation; the valuations are then tallied one by one."""
    variables = law.variables
    if mode == "exhaustive":
        assignments = list(product(range(p), repeat=len(variables)))
    else:
        rng = random.Random(seed)
        assignments = [tuple(rng.randrange(p) for _ in variables) for _ in range(trials)]
    columns = dict(zip(variables, map(Column, zip(*assignments))))

    def side(term):  # a side's value at each valuation, even where it is closed
        value = eval_mod_p(term, columns, ColumnField(p))
        return value if isinstance(value, Column) else [value] * len(assignments)

    premises = [(side(l), side(r), kind) for l, r, kind in law.premises]
    lhs_column, rhs_column = side(law.lhs), side(law.rhs)
    failures, count, satisfied, skipped = [], 0, 0, 0
    for i, assignment in enumerate(assignments):
        if any((l[i] == r[i]) != (kind == "eq") for l, r, kind in premises):
            skipped += 1
            continue
        satisfied += 1
        lhs, rhs = lhs_column[i], rhs_column[i]
        if lhs != rhs:
            count += 1
            if len(failures) < MAX_FAILURES:
                shown = {name: str(value) for name, value in zip(variables, assignment)}
                failures.append({"valuation": shown, "lhs": str(lhs), "rhs": str(rhs)})
    conditional = isinstance(law, ConditionalEquation)
    return {
        "schema": "meadows.check/1",
        "name": law.name,
        "statement": law.statement,
        "model": f"fp:{p}",
        "mode": mode,
        "trials": satisfied + skipped,
        "verdict": "pass" if count == 0 else "fail",
        "failure_count": count,
        "failures": failures,
        "satisfied": satisfied if conditional else None,
        "skipped": skipped if conditional else None,
        "seed": seed,
    }


def _uses_s_or_sqrt(law):
    sides = [law.lhs, law.rhs, *(t for l, r, _ in law.premises for t in (l, r))]
    return any(isinstance(n, (Sign, Sqrt)) for t in sides for n in _subterms(t))


FIELD_LAWS = [
    law
    for suite in catalog().sets().values()
    for law in suite
    if not isinstance(law, ComplexLaw) and not _uses_s_or_sqrt(law)
]


@pytest.mark.parametrize("law", FIELD_LAWS, ids=lambda law: law.name)
def test_field_reports_match_the_walk(law):
    for p in primes_upto(23):
        report = check_equation(law, p, mode="exhaustive")
        assert report.to_dict() == reference_report(law, p, "exhaustive")
    report = check_equation(law, "fp:101", mode="randomized", trials=200, seed=0)
    assert report.to_dict() == reference_report(law, 101, "randomized", 200, 0)


# --------------------------------------------------------------------------
# Compiled loops held by the law
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
    cond = ConditionalEquation(
        "fresh-cond", ((parse("x"), parse("0"), "ne"),), parse("x * inv(x)"), parse("1")
    )
    for law in (_fresh_law(1), cond):
        check_equation(law, 5)
        check_equation(law, "exact", trials=3)
        copy = pickle.loads(pickle.dumps(law))
        assert copy == law and hash(copy) == hash(law)
        assert check_equation(copy, 5).to_dict() == check_equation(law, 5).to_dict()


def test_checking_fresh_laws_grows_no_module_container():
    warm = _fresh_law(-1)  # warm every lazy table first
    check_equation(warm, 3)
    check_equation(warm, "exact", trials=3)
    gc.collect()
    before = _module_containers()
    for i in range(1000):
        check_equation(_fresh_law(i), 3)
    gc.collect()
    assert set(warm._loops) == {True, False}  # the law holds its loops
    assert _module_containers() == before


def test_literals_beyond_the_digit_limit_compile_for_both_models():
    big = "1" + "0" * 4400
    holds = Equation("big", parse(f"x * {big}"), parse(f"{big} * x + 0 * inv({big})"))
    fails = Equation("big-false", parse(f"x * {big}"), parse(f"x * {big}1"))
    for model in ("exact", "fp:5"):
        assert check_equation(holds, model, trials=3).verdict == "pass"
        assert check_equation(fails, model, trials=3).verdict == "fail"
    for law in (holds, fails):
        session = Session()
        for exact, domain, trial in (
            (True, None, [session, session.rational(3)]),
            (False, PrimeField(7), (3,)),
        ):
            compiled = _compile(("x",), (), law.lhs, law.rhs, exact)
            walked = walk_loop(("x",), (), law.lhs, law.rhs, exact)
            assert tally(compiled, [trial], domain) == tally(walked, [trial], domain)
