"""Differential tests: the integer kernel against a Fraction-vector reference.

The reference below is the earlier kernel, which stored every coordinate as a
``Fraction``.  It is kept here only as an oracle.  Random towers of integer
radicands (depth up to 5) are checked to be valid with the reference, and
then the integer kernel's products, inverses, signs and in-tower roots must
give the same coordinates (after conversion to ``Fraction``) and signs.
"""

from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.exact import Real, Session, _vinv, _vmul, _vsign, _vsqrt_in_tower

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
        frads = tuple(_fracs(r) for r in rads)
        options = [cand, tuple(-c for c in cand)]
        options += [(p,) + (0,) * (n - 1) for p in _FALLBACK_PRIMES]
        rads.append(next(c for c in options if _valid_radicand(frads, c)))
    return tuple(rads)


def vectors(depth):
    n = 1 << depth
    return st.lists(st.integers(-12, 12), min_size=n, max_size=n).map(tuple)


@st.composite
def tower_and_vectors(draw, count):
    rads = draw(towers())
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
    assert _fracs(_vmul(rads, a, b)) == ref_mul(frads, _fracs(a), _fracs(b))


@given(tower_and_vectors(1))
@_SETTINGS
def test_inv_matches_reference(case):
    rads, a = case
    frads = tuple(_fracs(r) for r in rads)
    num, den = _vinv(rads, a)
    assert den > 0
    assert _over(num, den) == ref_inv(frads, _fracs(a))


@given(tower_and_vectors(2))
@_SETTINGS
def test_sign_matches_reference(case):
    rads, a, b = case
    frads = tuple(_fracs(r) for r in rads)
    assert _vsign(rads, a) == ref_sign(frads, _fracs(a))
    # a difference of two vectors often has parts of opposite sign
    diff = tuple(x - y for x, y in zip(a, b))
    assert _vsign(rads, diff) == ref_sign(frads, _fracs(diff))


@given(tower_and_vectors(1), st.booleans())
@_SETTINGS
def test_root_search_matches_reference(case, square):
    rads, a = case
    frads = tuple(_fracs(r) for r in rads)
    y = _vmul(rads, a, a) if square else a
    if _vsign(rads, y) <= 0:
        y = tuple(-c for c in y)
    if not any(y):
        return
    got = _vsqrt_in_tower(rads, y)
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
