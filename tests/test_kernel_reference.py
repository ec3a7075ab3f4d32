"""Differential tests: the integer kernel against a Fraction-vector reference.

The reference below is the earlier kernel, which stored every coordinate as a
``Fraction``.  It is kept here only as an oracle.  Random towers of integer
radicands (depth up to 5) are checked to be valid with the reference, and
then the integer kernel's products, inverses, signs and in-tower roots must
give the same coordinates (after conversion to ``Fraction``) and signs.  The
towers are drawn half with nested radicands and half multiquadratic (every
radicand a square-free product of small primes), so both of the kernel's
product paths are covered.  The roots of rationals that a multiquadratic
session finds by its product table are checked against the tower search.
"""

from fractions import Fraction
from math import isqrt, prod

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from meadows.exact import (
    Real,
    Session,
    _normalize_radicand,
    _vinv,
    _vmul,
    _vsign,
    _vsqrt_in_tower,
)

# ---------------------------------------------------------------------------
# Reference kernel over Fraction vectors.
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def _zeros(n):
    return (_ZERO,) * n


def _is_zero(a):
    return all(c == 0 for c in a)


def _vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _vneg(a):
    return tuple(-x for x in a)


def _vscale(a, q):
    return tuple(q * x for x in a)


def _radicand_for(rads, n):
    return rads[n.bit_length() - 2]


def ref_mul(rads, a, b):
    n = len(a)
    if n == 1:
        return (a[0] * b[0],)
    if _is_zero(a) or _is_zero(b):
        return _zeros(n)
    h = n // 2
    u1, v1 = a[:h], a[h:]
    u2, v2 = b[:h], b[h:]
    z1, z2 = _is_zero(v1), _is_zero(v2)
    if z1 and z2:
        return ref_mul(rads, u1, u2) + _zeros(h)
    if z2:
        return ref_mul(rads, u1, u2) + ref_mul(rads, v1, u2)
    if z1:
        return ref_mul(rads, u1, u2) + ref_mul(rads, u1, v2)
    r = _radicand_for(rads, n)
    lo = _vadd(ref_mul(rads, u1, u2), ref_mul(rads, ref_mul(rads, v1, v2), r))
    hi = _vadd(ref_mul(rads, u1, v2), ref_mul(rads, v1, u2))
    return lo + hi


def ref_inv(rads, a):
    n = len(a)
    if n == 1:
        c = a[0]
        return (_ONE / c if c else _ZERO,)
    h = n // 2
    u, v = a[:h], a[h:]
    if _is_zero(v):
        return ref_inv(rads, u) + _zeros(h)
    r = _radicand_for(rads, n)
    den = _vsub(ref_mul(rads, u, u), ref_mul(rads, ref_mul(rads, v, v), r))
    assert not _is_zero(den)
    di = ref_inv(rads, den)
    return ref_mul(rads, u, di) + _vneg(ref_mul(rads, v, di))


def ref_sign(rads, a):
    n = len(a)
    if n == 1:
        c = a[0]
        return (c > 0) - (c < 0)
    h = n // 2
    u, v = a[:h], a[h:]
    if _is_zero(v):
        return ref_sign(rads, u)
    if _is_zero(u):
        return ref_sign(rads, v)
    su = ref_sign(rads, u)
    sv = ref_sign(rads, v)
    if su == sv:
        return su
    r = _radicand_for(rads, n)
    t = _vsub(ref_mul(rads, u, u), ref_mul(rads, ref_mul(rads, v, v), r))
    st_ = ref_sign(rads, t)
    assert st_ != 0
    return su if st_ > 0 else sv


def _rational_sqrt(q):
    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def ref_sqrt(rads, y):
    n = len(y)
    if n == 1:
        w = _rational_sqrt(y[0])
        return None if w is None else (w,)
    h = n // 2
    u, v = y[:h], y[h:]
    r = _radicand_for(rads, n)
    if _is_zero(v):
        w = ref_sqrt(rads, u)
        if w is not None:
            return w + _zeros(h)
        q = ref_mul(rads, u, ref_inv(rads, r))
        c = ref_sqrt(rads, q)
        if c is not None:
            return _zeros(h) + c
        return None
    m = _vsub(ref_mul(rads, u, u), ref_mul(rads, ref_mul(rads, v, v), r))
    sm = ref_sign(rads, m)
    assert sm != 0
    if sm < 0:
        return None
    s = ref_sqrt(rads, m)
    if s is None:
        return None
    if ref_sign(rads, s) < 0:
        s = _vneg(s)
    for cand in (_vscale(_vadd(u, s), _HALF), _vscale(_vsub(u, s), _HALF)):
        if _is_zero(cand) or ref_sign(rads, cand) < 0:
            continue
        c = ref_sqrt(rads, cand)
        if c is None or _is_zero(c):
            continue
        b = ref_mul(rads, v, ref_inv(rads, _vscale(c, Fraction(2))))
        root = c + b
        if ref_mul(rads, root, root) == tuple(y):
            return root
    return None


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


def _fracs(v):
    return tuple(Fraction(c) for c in v)


def _over(num, den):
    return tuple(Fraction(c, den) for c in num)


def _trim(coords):
    n = len(coords)
    while n > 1 and _is_zero(coords[n // 2 : n]):
        n //= 2
    return coords[:n]


def _valid_radicand(frads, cand):
    return ref_sign(frads, _fracs(cand)) > 0 and ref_sqrt(frads, _fracs(cand)) is None


_FALLBACK_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _first_valid(rads, options):
    frads = tuple(_fracs(r) for r in rads)
    n = 1 << len(rads)
    options += [(p,) + (0,) * (n - 1) for p in _FALLBACK_PRIMES]
    return next(c for c in options if _valid_radicand(frads, c))


@st.composite
def towers(draw, max_depth=5):
    """Integer radicand tuples whose validity the reference kernel confirms."""
    depth = draw(st.integers(0, max_depth))
    rads: list = []
    for k in range(depth):
        n = 1 << k
        cand = (draw(st.integers(1, 40)),) + tuple(
            draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        )
        rads.append(_first_valid(rads, [cand, tuple(-c for c in cand)]))
    return tuple(rads)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def square_free():
    """Products of distinct small primes, 1 included."""
    return st.sets(st.sampled_from(_SMALL_PRIMES)).map(prod)


@st.composite
def multiquadratic_towers(draw, max_depth=5):
    """Towers whose radicands are all rational: square-free products of small
    primes whose square classes the reference confirms independent."""
    depth = draw(st.integers(0, max_depth))
    rads: list = []
    for k in range(depth):
        f = draw(square_free())
        rads.append(_first_valid(rads, [(f,) + (0,) * ((1 << k) - 1)]))
    return tuple(rads)


def vectors(depth):
    n = 1 << depth
    return st.lists(st.integers(-12, 12), min_size=n, max_size=n).map(tuple)


@st.composite
def tower_and_vectors(draw, count):
    rads = draw(st.one_of(towers(), multiquadratic_towers()))
    return (rads,) + tuple(draw(vectors(len(rads))) for _ in range(count))


_SETTINGS = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------------
# Raw kernel against the reference.
# ---------------------------------------------------------------------------


@given(tower_and_vectors(2))
@_SETTINGS
def test_mul_matches_reference(case):
    rads, a, b = case
    frads = tuple(_fracs(r) for r in rads)
    assert _fracs(_vmul(_session(rads), a, b)) == ref_mul(frads, _fracs(a), _fracs(b))


@given(tower_and_vectors(1))
@_SETTINGS
def test_inv_matches_reference(case):
    rads, a = case
    frads = tuple(_fracs(r) for r in rads)
    num, den = _vinv(_session(rads), a)
    assert den > 0
    assert _over(num, den) == ref_inv(frads, _fracs(a))


@given(tower_and_vectors(2))
@_SETTINGS
def test_sign_matches_reference(case):
    rads, a, b = case
    frads = tuple(_fracs(r) for r in rads)
    tower = _session(rads)
    assert _vsign(tower, a) == ref_sign(frads, _fracs(a))
    # a difference of two vectors often has parts of opposite sign
    diff = tuple(x - y for x, y in zip(a, b))
    assert _vsign(tower, diff) == ref_sign(frads, _fracs(diff))


@given(tower_and_vectors(1), st.booleans())
@_SETTINGS
def test_root_search_matches_reference(case, square):
    rads, a = case
    frads = tuple(_fracs(r) for r in rads)
    tower = _session(rads)
    y = _vmul(tower, a, a) if square else a
    if _vsign(tower, y) <= 0:
        y = tuple(-c for c in y)
    if not any(y):
        return
    got = _vsqrt_in_tower(tower, y)
    want = ref_sqrt(frads, _fracs(y))
    assert (got is None) == (want is None)
    if square:
        assert got is not None
    if got is not None:
        num, den = got
        root = _over(num, den)
        if ref_sign(frads, root) < 0:
            root = _vneg(root)
        if ref_sign(frads, want) < 0:
            want = _vneg(want)
        assert root == want
        assert ref_mul(frads, root, root) == _fracs(y)


# ---------------------------------------------------------------------------
# Values and the root memo.
# ---------------------------------------------------------------------------


def _session(rads):
    s = Session()
    for rad in rads:
        s._adjoin(rad)
    return s


@given(tower_and_vectors(2), st.integers(1, 30), st.integers(1, 30))
@_SETTINGS
def test_value_ops_match_reference(case, da, db):
    rads, a, b = case
    frads = tuple(_fracs(r) for r in rads)
    s = _session(rads)
    x, y = Real(s, a, da), Real(s, b, db)
    fa, fb = _over(a, da), _over(b, db)
    assert (x * y).coords == _trim(ref_mul(frads, fa, fb))
    assert (x + y).coords == _trim(_vadd(fa, fb))
    assert (x - y).coords == _trim(_vsub(fa, fb))
    assert x.inv().coords == _trim(ref_inv(frads, fa))
    assert (x - y).sign() == ref_sign(frads, _vsub(fa, fb))


@given(tower_and_vectors(2), st.integers(1, 30))
@_SETTINGS
def test_memoized_ssqrt_equals_fresh_search(case, den):
    rads, a, b = case
    s = _session(rads)
    x = Real(s, a, den)
    values = [x, x * x, Real(s, b), x * x * Real(s, b) * Real(s, b)]
    first = [v.ssqrt() for v in values]
    memo = [v.ssqrt() for v in values]  # answered from the memo
    assert memo == first
    # a fresh session on a copy of the (possibly grown) tower searches anew
    fresh = _session(s._radicands)
    for v, w in zip(values, memo):
        root = Real(fresh, v._num, v._den).ssqrt()
        assert root.coords == w.coords
        assert root * root == Real(fresh, v._num, v._den) * Real(fresh, (v.sign(),))
    assert fresh.depth == s.depth
    s.check_invariants()


# ---------------------------------------------------------------------------
# Rational roots: the product-table scan against the tower search.
# ---------------------------------------------------------------------------


def _searched_root(session, num, den):
    """The positive root of ``num/den > 0`` by the tower search alone, adjoining
    the normalized radicand when the tower has none (the path every session
    took before it kept a product table)."""
    half = 1 << session.depth
    y = (num,) + (0,) * (half - 1)
    w = _vsqrt_in_tower(session, tuple(den * c for c in y))
    if w is not None:
        root, root_den = w
        if _vsign(session, root) < 0:
            root = tuple(-c for c in root)
        return Real(session, root, root_den * den)
    m, rad = _normalize_radicand(y, den)
    session._adjoin(rad)
    return Real(session, (0,) * half + (m,) + (0,) * (half - 1), den)


@st.composite
def mixed_towers(draw):
    """A multiquadratic tower topped by a nested radicand ``c * x * x``, whose
    root ``sqrt(c) * x`` puts ``sqrt(c)`` in the tower without adjoining it."""
    rads = list(draw(multiquadratic_towers(max_depth=3)))
    x = draw(vectors(len(rads)))
    c = draw(square_free())
    rad = tuple(c * v for v in _vmul(_session(rads), x, x))
    assume(any(rad[1:]) and _valid_radicand(tuple(map(_fracs, rads)), rad))
    return tuple(rads + [rad])


_ROOTS_SETTINGS = settings(max_examples=80, deadline=None)


@given(
    st.one_of(multiquadratic_towers(), mixed_towers()),
    square_free(),
    st.integers(1, 12),
    st.integers(1, 40),
)
@example(((6,), (5, 2)), 3, 2, 9)  # sqrt(5 + 2*sqrt(6)) == sqrt(2) + sqrt(3)
@_ROOTS_SETTINGS
def test_rational_root_matches_tower_search(rads, f, m, den):
    num = f * m * m
    scanned, searched = _session(rads), _session(rads)
    root = scanned.rational(num, den).ssqrt()
    want = _searched_root(searched, num, den)
    assert root.coords == want.coords
    assert scanned._radicands == searched._radicands
    assert scanned.depth == searched.depth
    assert root * root == scanned.rational(num, den)
    scanned.check_invariants()


def test_a_nested_tower_holds_a_rational_root_it_never_adjoined():
    s = _session(((6,), (5, 2)))  # sqrt(5 + 2*sqrt(6)) == sqrt(2) + sqrt(3)
    assert s._products is None
    root = s.rational(2).ssqrt()
    assert s.depth == 2
    assert root.coords == (0, 0, -2, 1)  # (sqrt(6) - 2) * sqrt(5 + 2*sqrt(6))
