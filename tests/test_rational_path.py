"""Differential tests for the rational short paths through the exact layer.

Values of depth 0 are built, combined and printed without the vector kernel:
``Session.rational`` reduces int arguments by one ``gcd``, the ring
operations, ``inv`` and ``sign`` have a branch for two rationals that makes
results already in canonical form, and ``str`` renders a rational from its
numerator and denominator.  ``Fraction`` arithmetic is the oracle, and the
validating ``Real`` constructor must find every result already canonical.
A value of a tower combined with one rational takes a scalar lane of ``*``,
``+`` and ``-``, checked the same way against ``Fraction`` coordinates, over
multiquadratic towers to depth 5 and a nested one.
``Real.ssqrt`` takes the root of a rational in a multiquadratic tower from
the scan of radicand products or, for a new level, from the rational's
square-free split, without the sign kernel or the tower search; it must
leave the root memo and the tower that the general path through
``Real._root`` leaves.  The root of an irrational value whose new level is
nested, which ``Real._root`` builds by the same rule, must be canonical too.
Each session also keeps the rendered radical of every tower level, so
``str`` must agree with ``value_to_term`` run with that memo cleared.
"""

import random
from fractions import Fraction
from math import gcd
from operator import add, eq, mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.axioms import random_value
from meadows.exact import Real, Session, SessionMismatch, TowerInvariantError, _square_free_split
from meadows.simplify import value_to_term
from meadows.terms import render

# Integers above CPython's default limit of 4300 digits for int <-> str.
huge_ints = st.builds(
    lambda sign, k, m: sign * (10**k + m),
    st.sampled_from((-1, 1)),
    st.integers(4300, 4400),
    st.integers(0, 10**6),
)
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    huge_ints.map(Fraction),
    st.builds(Fraction, huge_ints, st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-9, 9), huge_ints.map(abs)),
)


def exact(session, q):
    """``q`` in ``session`` through the int path, checked against the Fraction path."""
    x = session.rational(q.numerator, q.denominator)
    y = session.rational(q)
    assert (x._num, x._den) == (y._num, y._den)
    return x


def canonical(x):
    """The value of ``x`` as a Fraction, after checking its form is canonical."""
    again = Real(x.session, x._num, x._den)  # the validating constructor
    assert (again._num, again._den) == (x._num, x._den) and x._den > 0
    return x.as_rational()


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_field_operations_agree_with_fractions(a, b):
    s = Session()
    x, y = exact(s, a), exact(s, b)
    assert canonical(x) == a and hash(x) == hash(a)
    assert canonical(x + y) == a + b
    assert canonical(x - y) == a - b
    assert canonical(x * y) == a * b
    assert canonical(-x) == -a
    assert canonical(x.inv()) == (1 / a if a else 0)
    assert canonical(x / y) == (a / b if b else 0)
    assert x.sign() == (a > 0) - (a < 0)
    assert (x == y) == (a == b)
    # Fraction and int peers take the same path as values of the session.
    assert canonical(x + b) == canonical(b + x) == a + b
    assert canonical(x * b.numerator) == a * b.numerator
    assert (x == b) == (a == b) and x.compare(b) == (a > b) - (a < b)


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_zero_denominators_and_negative_denominators(q):
    s = Session()
    assert s.rational(q.numerator, 0) == 0
    assert canonical(s.rational(q.numerator, -q.denominator)) == -q
    assert canonical(s.rational(-q.numerator, -q.denominator)) == q


@settings(max_examples=100, deadline=None)
@given(rationals, st.integers(0, 2**32))
def test_str_is_the_canonical_form_rendered_afresh(q, seed):
    s = Session()
    rng = random.Random(seed)
    values = [exact(s, q), -exact(s, q)] + [random_value(rng, s) for _ in range(4)]
    values.append(values[2] * values[3] + values[4] * values[5])
    shown = [str(v) for v in values]  # fills the session's radical memo
    s._radicals.clear()
    assert shown == [render(value_to_term(v)) for v in values]
    s._radicals.clear()
    assert [render(value_to_term(v)) for v in reversed(values)] == shown[::-1]
    s.check_invariants()


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_mixing_sessions_on_the_rational_path_raises(a, b):
    x, y = exact(Session(), a), exact(Session(), b)
    for op in (add, sub, mul, truediv, eq, Real.compare):
        with pytest.raises(SessionMismatch):
            op(x, y)


def test_each_radical_renders_once_per_session(monkeypatch):
    asked = []
    radicand_value = Session.radicand_value

    def counting(session, level):
        asked.append(level)
        return radicand_value(session, level)

    monkeypatch.setattr(Session, "radicand_value", counting)
    s = Session()
    rng = random.Random(3)
    values = [random_value(rng, s) for _ in range(40)]
    for _ in range(4):  # as often as a failure's valuation and sides print
        [str(v) for v in values]
    assert len(set(asked)) >= 3 and len(asked) == len(set(asked))


def test_check_invariants_re_renders_each_memoized_radical():
    s = Session()
    x = (1 + s.rational(2).ssqrt()).ssqrt() + s.rational(3).ssqrt()
    assert str(x) == "sqrt(3) + sqrt(1 + sqrt(2))"
    assert sorted(s._radicals) == [1, 2, 3]
    memo = dict(s._radicals)
    s.check_invariants()
    assert s._radicals == memo
    key, _ = memo[2]
    s._radicals[2] = (key, "sqrt(7)")
    with pytest.raises(TowerInvariantError, match="radical 2"):
        s.check_invariants()
    s._radicals[2] = memo[2]
    s.check_invariants()


def _tower(kind):
    """A fresh session over the roots of the first ``kind`` primes, or the
    nested tower over ``sqrt(1 + sqrt(2))``."""
    s = Session()
    if kind == "nested":
        (1 + s.rational(2).ssqrt()).ssqrt()
        assert s._products is None
    else:
        for p in (2, 3, 5, 7, 11)[:kind]:
            s.rational(p).ssqrt()
    return s


def canonical_root(x):
    """``x.ssqrt()``, after checking its form is canonical, that it squares to
    ``|x|`` and that it carries the sign of ``x``."""
    root = x.ssqrt()
    again = Real(x.session, root._num, root._den)  # the validating constructor
    assert (again._num, again._den) == (root._num, root._den) and root._den > 0
    assert root * root == (x if x.sign() > 0 else -x) and root.sign() == x.sign()
    return root


@pytest.mark.parametrize("kind", [0, 1, 2, 3, 4, 5, "nested"])
def test_roots_of_rationals_are_canonical_and_adjoin_the_square_free_part(kind):
    quotients = {Fraction(a, b) for a in range(1, 31) for b in range(1, 31)}
    for q in sorted(quotients):
        for signed in (q, -q):
            s = _tower(kind)
            depth = s.depth
            canonical_root(s.rational(signed.numerator, signed.denominator))
            if s.depth > depth:
                assert s.depth == depth + 1
                f = _square_free_split(q.numerator * q.denominator)[1]
                assert s._radicands[depth] == (f,) + (0,) * ((1 << depth) - 1)
            s.check_invariants()


@pytest.mark.parametrize("kind", [0, 1, 2, 3, "nested"])
def test_roots_of_irrationals_are_canonical_and_adjoin_a_primitive_radicand(kind):
    """Arguments whose new levels are mostly nested: sums of prime roots plus
    a rational, and ``random_value`` draws.  A new
    radicand is the argument's numerator vector over its content ``g``, times
    the square-free part ``f`` of ``g * den``, so its own content is ``f``."""
    rng = random.Random(str(kind))
    nested = 0
    for trial in range(120):
        s = _tower(kind)
        if trial % 2:
            x = random_value(rng, s)
        else:
            roots = [s.rational(p).ssqrt() for p in (2, 3, 5, 7)[: trial % 3 + 1]]
            x = sum(roots, s.rational(rng.randint(-9, 9), rng.randint(1, 6)))
        depth = s.depth
        canonical_root(x)
        if s.depth > depth:
            assert s.depth == depth + 1
            rad = s._radicands[depth]
            nested += any(rad[1:])
            content = gcd(*rad)
            assert _square_free_split(content) == (1, content)
        s.check_invariants()
    assert nested >= 30


def value_of(session, coords):
    """The value with Fraction coordinates ``coords``, made by the validating constructor."""
    den = 1
    for c in coords:
        den = den // gcd(den, c.denominator) * c.denominator
    return Real(session, tuple(int(c * den) for c in coords), den)


def canonical_coords(x):
    """The Fraction coordinates of ``x``, after checking its form is canonical."""
    again = Real(x.session, x._num, x._den)  # the validating constructor
    assert (again._num, again._den) == (x._num, x._den) and x._den > 0
    return x.coords


def trimmed(coords):
    """``coords`` with its zero top halves cut off, as a tuple."""
    n = len(coords)
    while n > 1 and not any(coords[n // 2 : n]):
        n //= 2
    return tuple(coords[:n])


# Each lane with its oracle over Fraction coordinates ``c`` and a Fraction ``q``.
LANES = {
    "x*q": (lambda x, q: x * q, lambda c, q: [a * q for a in c]),
    "q*x": (lambda x, q: q * x, lambda c, q: [q * a for a in c]),
    "x+q": (lambda x, q: x + q, lambda c, q: [c[0] + q, *c[1:]]),
    "q+x": (lambda x, q: q + x, lambda c, q: [q + c[0], *c[1:]]),
    "x-q": (lambda x, q: x - q, lambda c, q: [c[0] - q, *c[1:]]),
    "q-x": (lambda x, q: q - x, lambda c, q: [q - c[0], *(-a for a in c[1:])]),
}
TOWERS = [1, 2, 3, 4, 5, "nested"]
small = st.fractions(min_value=-50, max_value=50, max_denominator=30)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(TOWERS), st.data(), rationals)
def test_one_rational_operand_agrees_with_fraction_coordinates(kind, data, q):
    """A value of the tower combined with a rational, as a value of the
    session and as a Fraction, on either side: the scalar lanes of ``*``,
    ``+`` and ``-``, which leave the vector kernel out."""
    s = _tower(kind)
    width = 1 << s.depth
    # a common factor in the coordinates meets the denominator of q
    content = data.draw(st.integers(1, 60))
    coords = [c * content for c in data.draw(st.lists(small, min_size=width, max_size=width))]
    x = value_of(s, coords)
    for name, (op, oracle) in LANES.items():
        expected = trimmed(oracle(coords, q))
        for peer in (exact(s, q), q):
            assert canonical_coords(op(x, peer)) == expected, name


def general_ssqrt(x):
    """``x.ssqrt()`` by the general path: the kernel's sign, the memo keyed
    by ``|x|``, and ``Real._root``, whose tower search also finds the root of
    a rational in a multiquadratic tower, and whose new level is the one of
    the rational lane."""
    s = x.session
    sg = x.sign()
    if sg == 0:
        return x
    y = x if sg > 0 else -x
    key = (y._num, y._den)
    found = s._roots.get(key)
    if found is not None:
        root = Real(s, *found)
    else:
        root = y._root()
        if not root.is_rational():
            s._roots[key] = (root._num, root._den)
    return root if sg > 0 else -root


def state(s):
    return list(s._roots.items()), s._radicands, s._products


def assert_rational_roots_match_the_general_path(kind, quotients):
    """Take the signed root of each of ``quotients`` in turn in twin sessions,
    by ``ssqrt`` and by :func:`general_ssqrt`; return how each root was found."""
    ours, theirs = _tower(kind), _tower(kind)
    found = []
    for q in quotients:
        hit = ((abs(q.numerator),), q.denominator) in ours._roots
        depth = ours.depth
        root = canonical_root(exact(ours, q))
        other = general_ssqrt(exact(theirs, q))
        assert (root._num, root._den) == (other._num, other._den)
        assert state(ours) == state(theirs)
        if hit:
            found.append("hit")
        elif q:
            grew, rational = ours.depth > depth, root.is_rational()
            found.append("level" if grew else "rational" if rational else "mask")
    ours.check_invariants()
    return found


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, *TOWERS]), st.lists(small, min_size=1, max_size=6))
def test_rational_roots_leave_the_memo_and_tower_of_the_general_path(kind, quotients):
    assert_rational_roots_match_the_general_path(kind, quotients)


def test_rational_roots_take_each_way_to_a_root():
    # over sqrt(2) and sqrt(3): sqrt(6) at mask 3, 2 at mask 0, the memo for
    # -6, and a new level for 5/4; then 125/9 lies at the new level's mask
    quotients = [Fraction(6), Fraction(4), Fraction(-6), Fraction(5, 4), Fraction(125, 9)]
    found = assert_rational_roots_match_the_general_path(2, quotients)
    assert found == ["mask", "rational", "hit", "level", "mask"]
