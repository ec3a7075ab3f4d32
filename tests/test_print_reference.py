"""Differential tests: a value's printed form against the term-building printer.

``str(value)`` writes the canonical closed form straight from the value's
coordinates, and ``value_to_term`` reads that text back.  The printer they
replaced built the form as a ``Const``/``Mul``/``Neg``/``Add`` tree and
rendered it; it is kept below as the oracle, with its radicals built afresh
on every call instead of taken from the session's memo.  ``str`` must equal
the oracle's tree rendered, and ``value_to_term`` must equal the tree, with
the session's radical memo warm and cleared, over random values,
towers-deep-style products of linear forms up to depth 7, nested radicals,
and values in a tower that has levels they do not use.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.axioms import random_value
from meadows.exact import Real, Session, value_to_term
from meadows.simplify import normalize_closed
from meadows.terms import ZERO, Add, Const, Mul, Neg, Sqrt, Term, eval_exact, parse, render

PRIMES = (2, 3, 5, 7, 11, 13, 17)


# --------------------------------------------------------------------------
# The reference: the canonical form as a term tree
# --------------------------------------------------------------------------


def reference_value_to_term(value: Real) -> Term:
    """The canonical closed term ``q0 + q1 * sqrt(r1) + ...`` denoting ``value``.

    Each nonzero coordinate contributes one summand: its rational coefficient
    times one ``sqrt`` factor per tower level involved, each radicand built
    recursively.  Factors are sorted by radicand depth and then display
    string, the rational summand first.
    """
    if value.is_zero():
        return ZERO
    session, depth, den = value.session, value.depth, value._den
    radicals = [_reference_radical(session, level) for level in range(1, depth + 1)]
    order = sorted(range(depth), key=lambda level: radicals[level][0])
    parts = []
    for index, c in enumerate(value._num):
        if c == 0:
            continue
        factors = [radicals[level] for level in order if index >> level & 1]
        part_key = tuple(key for key, _ in factors)
        items = [t for _, t in factors]
        if abs(c) != den or not items:
            items.insert(0, Const(Fraction(abs(c), den)))
        term = reduce(Mul, items)
        parts.append((part_key, Neg(term) if c < 0 else term))
    parts.sort(key=itemgetter(0))
    return reduce(Add, (part for _, part in parts))


def _reference_radical(session: Session, level: int) -> tuple[tuple[int, str], Term]:
    """The sort key and ``Sqrt`` term of the root adjoined at ``level``."""
    radicand = session.radicand_value(level)
    arg = reference_value_to_term(radicand)
    return (radicand.depth, render(arg)), Sqrt(arg)


def assert_prints_as_reference(session: Session, values: list) -> None:
    """Check ``str`` and ``value_to_term`` against the reference, memo warm and cleared."""
    want = [reference_value_to_term(v) for v in values]
    texts = [render(t) for t in want]
    session._radicals.clear()
    assert [str(v) for v in values] == texts  # fills the memo
    assert [value_to_term(v) for v in values] == want
    assert [str(v) for v in values] == texts  # from the warm memo
    session._radicals.clear()
    assert [value_to_term(v) for v in reversed(values)] == want[::-1]
    session.check_invariants()


# --------------------------------------------------------------------------
# Values
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_random_values_print_as_the_reference(seed):
    rng = random.Random(seed)
    s = Session()
    values = [random_value(rng, s) for _ in range(8)]
    values += [values[0] * values[1] + values[2], values[3] / (values[4] + values[5]) - values[6]]
    assert_prints_as_reference(s, values)


def _linear(rng: random.Random, s: Session, primes) -> Real:
    """``a0 + a1 * sqrt(p1) + ...`` with small nonzero coefficients."""
    value = s.rational(rng.randint(1, 9))
    for p in primes:
        c = s.rational(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)), rng.randint(1, 4))
        value += c * s.value(p).ssqrt()
    return value


@settings(max_examples=12, deadline=None)
@given(st.integers(3, 7), st.integers(0, 2**32))
def test_products_of_linear_forms_print_as_the_reference(depth, seed):
    rng = random.Random(seed)
    s = Session()
    primes = rng.sample(PRIMES, depth)
    a, b = _linear(rng, s, primes), _linear(rng, s, primes)
    values = [a, b, a * b, -(a * b), a - b]
    if depth <= 5:
        values += [a * b.inv(), (a - b).inv()]
    assert s.depth == depth
    assert_prints_as_reference(s, values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_nested_radicals_print_as_the_reference(seed):
    rng = random.Random(seed)
    s = Session()
    p, q, r = rng.sample(PRIMES, 3)
    u, v = rng.randint(1, 6), rng.randint(1, 4)
    denested = (s.rational(u * u + p * v * v) + 2 * u * v * s.value(p).ssqrt()).ssqrt()
    nested = (1 + s.value(q).ssqrt()).ssqrt()
    deeper = (s.rational(rng.randint(1, 5)) + nested * s.rational(rng.randint(1, 3), 4)).ssqrt()
    mixed = (nested + s.value(r).ssqrt()).ssqrt()
    values = [
        denested,
        nested,
        deeper,
        mixed,
        nested * s.rational(-3, 4) * s.value(p).ssqrt() + nested,
        denested - nested * deeper,
        (deeper + mixed).inv(),
    ]
    assert_prints_as_reference(s, values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32))
def test_values_skipping_tower_levels_print_as_the_reference(seed):
    rng = random.Random(seed)
    s = Session()
    roots = [s.value(p).ssqrt() for p in rng.sample(PRIMES, 5)]
    nested = (1 + roots[0]).ssqrt()  # 1 - p is no square, so it never denests
    values = [
        roots[4],
        roots[1] * roots[3],
        s.rational(rng.randint(-9, 9), rng.randint(1, 9)) + roots[2] * s.rational(rng.randint(-9, 9), 6),
        roots[0] - roots[2] * roots[4] * s.rational(-5, 2),
        nested * roots[3] - 1,
        s.rational(7, 3),
        s.zero,
    ]
    assert s.depth == 6 and values[0].depth == 5 and values[1].depth == 4
    assert_prints_as_reference(s, values)


def test_coefficients_are_reduced_and_negative_products_parenthesized():
    cases = {
        "3 - sqrt(10)/2": "3 - 1/2 * sqrt(10)",
        "sqrt(1 + sqrt(2)) - 3/4*sqrt(2)*sqrt(1 + sqrt(2))": (
            "-(3/4 * sqrt(2) * sqrt(1 + sqrt(2))) + sqrt(1 + sqrt(2))"
        ),
        "-sqrt(2)": "-sqrt(2)",
        "-2*sqrt(3)*sqrt(5) + 6/4": "3/2 - 2 * sqrt(3) * sqrt(5)",
    }
    for src, want in cases.items():
        assert normalize_closed(src) == want
        s = Session()
        value = eval_exact(parse(src), {}, s)
        assert_prints_as_reference(s, [value])
