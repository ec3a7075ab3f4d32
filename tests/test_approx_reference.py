"""Differential tests: integer interval refinement against a Fraction reference.

The reference below is the earlier refinement, which enclosed every root and
every basis product in an interval of ``Fraction`` endpoints.  It is kept
here only as an oracle.  Random towers with rational and nested radicands,
and sparse values at depth 12, must give identical ``enclose`` endpoints and
identical ``approx_decimal`` strings.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.approx import approx_decimal, enclose
from meadows.exact import Session

# ---------------------------------------------------------------------------
# Reference refinement over Fraction intervals.
# ---------------------------------------------------------------------------


class _NeedMorePrecision(Exception):
    pass


def _floor(q):
    return q.numerator // q.denominator


def _ceil(q):
    return -((-q.numerator) // q.denominator)


def _sqrt_lower(q, bits):
    s = 1 << bits
    return Fraction(math.isqrt(_floor(q * s * s)), s)


def _sqrt_upper(q, bits):
    s = 1 << bits
    t = _ceil(q * s * s)
    r = math.isqrt(t)
    if r * r < t:
        r += 1
    return Fraction(r, s)


def _iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _iv_scale(a, q):
    if q >= 0:
        return (q * a[0], q * a[1])
    return (q * a[1], q * a[0])


def _enclose_vec(coords, roots):
    lo = hi = Fraction(0)
    for i, c in enumerate(coords):
        if c == 0:
            continue
        basis = (Fraction(1), Fraction(1))
        bit = 0
        idx = i
        while idx:
            if idx & 1:
                basis = _iv_mul(basis, roots[bit])
            idx >>= 1
            bit += 1
        a, b = _iv_scale(basis, c)
        lo, hi = lo + a, hi + b
    return lo, hi


def _root_intervals(rads, depth, bits):
    roots = []
    for k in range(depth):
        lo, hi = _enclose_vec(rads[k], roots)
        if lo <= 0:
            raise _NeedMorePrecision
        roots.append((_sqrt_lower(lo, bits), _sqrt_upper(hi, bits)))
    return roots


def _refinements(value):
    rads = value.session.radicands
    coords = value.coords
    bits = 32
    while True:
        try:
            yield _enclose_vec(coords, _root_intervals(rads, value.depth, bits))
        except _NeedMorePrecision:
            pass
        bits *= 2


def ref_enclose(value, width):
    for lo, hi in _refinements(value):
        if hi - lo < width:
            return (lo, hi)


def _format_magnitude(lo, hi, digits):
    p = 10**digits
    t_lo = _floor(lo * p)
    t_hi = _floor(hi * p)
    if t_lo != t_hi:
        return None
    return f"{t_lo // p}.{t_lo % p:0{digits}d}"


def ref_approx_decimal(value, digits):
    for lo, hi in _refinements(value):
        if lo >= 0:
            s = _format_magnitude(lo, hi, digits)
            if s is not None:
                return s
        elif hi <= 0:
            s = _format_magnitude(-hi, -lo, digits)
            if s is not None:
                return s if set(s) <= {"0", "."} else "-" + s


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

_SMALL = st.integers(-9, 9)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def tower_values(draw):
    """A value over a tower of rational and nested radicands."""
    s = Session()
    roots = []
    for _ in range(draw(st.integers(0, 4))):
        radicand = s.rational(draw(st.integers(-60, 60)), draw(st.integers(1, 9)))
        if roots and draw(st.booleans()):  # nested: a + b * (earlier roots)
            factors = draw(st.lists(st.sampled_from(roots), min_size=1, max_size=3))
            radicand = radicand + draw(_SMALL) * math.prod(factors)
        roots.append(radicand.ssqrt())
    x = s.rational(draw(st.integers(-99, 99)), draw(st.integers(1, 99)))
    for root in roots:
        x = x + draw(_SMALL) * root
    if len(roots) > 1 and draw(st.booleans()):
        x = x * (draw(st.sampled_from(roots)) + draw(_SMALL))
    if draw(st.booleans()):
        x = x.inv()
    if draw(st.booleans()):
        x = -x
    return x


@st.composite
def sparse_depth_12_values(draw):
    """A few products of two prime roots plus the twelfth root: depth 12."""
    s = Session()
    roots = [s.rational(p).ssqrt() for p in _PRIMES]
    x = s.rational(draw(st.integers(-40, 40))) + draw(st.integers(1, 9)) * roots[11]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, 11)), draw(st.integers(0, 11))
        x = x + draw(_SMALL) * roots[i] * roots[j]
    assert x.depth == 12
    return x


_WIDTHS = (Fraction(1, 10**3), Fraction(1, 10**10), Fraction(1, 10**30))
_DIGITS = (1, 12, 40)


def _assert_matches_reference(x):
    for width in _WIDTHS:
        assert enclose(x, width) == ref_enclose(x, width)
    for digits in _DIGITS:
        assert approx_decimal(x, digits) == ref_approx_decimal(x, digits)


@given(tower_values())
@settings(max_examples=100, deadline=None)
def test_towers_match_reference(x):
    _assert_matches_reference(x)


@given(sparse_depth_12_values())
@settings(max_examples=10, deadline=None)
def test_sparse_depth_12_matches_reference(x):
    _assert_matches_reference(x)


def test_a_radicand_too_near_zero_for_the_first_precision():
    # 665857 - 470832 * sqrt(2) == 1 / (665857 + 470832 * sqrt(2)), under
    # 10**-6: at 32 bits the root's radicand has a lower bound that is not
    # positive, so its bounds wait for 64 bits.
    s = Session()
    x = (3 * (665857 - 470832 * s.rational(2).ssqrt())).ssqrt()
    assert approx_decimal(x, 5) == "0.00150"
    _assert_matches_reference(x)


def test_rationals_and_zero_match_reference():
    s = Session()
    for x in (s.zero, s.rational(-7, 4), s.rational(-1, 10**8), s.rational(10**45, 7)):
        _assert_matches_reference(x)
