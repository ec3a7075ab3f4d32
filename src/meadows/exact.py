"""Exact arithmetic in the square-root closure of the rationals.

Values are *constructible reals*: rationals closed under field operations and
real square roots, with every partial operation totalized the meadow way:

* ``inv(0) == 0`` (and therefore ``x / 0 == 0``),
* ``sign(0) == 0``,
* ``ssqrt`` is the *signed* square root: ``ssqrt(x) == -ssqrt(-x)`` for
  negative ``x`` and ``ssqrt(0) == 0``.

A :class:`Session` owns a tower of real quadratic extensions
``Q = F_0 < F_1 < ... < F_d`` where ``F_k = F_{k-1}(sqrt(r_k))`` for a
radicand ``r_k`` that is strictly positive and not a square in ``F_{k-1}``.
Every radicand is stored as a vector of ``2**(k-1)`` Python ints.

A value of depth ``k`` is stored as a numerator vector of ``2**k`` ints over
one common positive ``int`` denominator (the layout of FLINT's
``fmpq_poly``).  Coordinate ``i`` multiplies the product of ``sqrt(r_{j+1})``
over the set bits ``j`` of ``i``.  Because every radicand is a non-square one
level down, the basis is linearly independent over Q, so representations are
unique.  Values are kept in canonical form -- zero top halves trimmed,
``gcd(den, *num) == 1`` and ``den > 0`` -- so equality is tuple equality.
Integer vectors are closed under the kernel's products because the radicands
are integer vectors, so the kernel never touches a fraction: an inverse or a
root comes back as a ``(numerators, denominator)`` pair.

Towers come in two kinds.  In a *multiquadratic* tower every radicand is a
rational ``f_k`` (the vector ``(f_k, 0, ..., 0)``), and the session keeps the
table ``P[S]``, the product of ``f_k`` over the levels ``k`` in the mask
``S``.  Basis products then follow one rule, ``e_i * e_j == P[i & j] *
e_(i ^ j)``, so a product is one loop over the nonzero coordinates of both
operands, and every norm, inverse, sign and root search runs through it.
Because each ``f_k`` is a non-square over the levels below it, their square
classes are independent, and a rational ``q`` has its root in the tower
exactly when ``q * P[S]`` is a rational square for some mask ``S``, which is
then unique (Kummer theory; Besicovitch 1940).  So the root of a rational is
decided by one scan of the table instead of a search of the tower, and built
without the vector kernel: it is ``sqrt(num*den*P[S]) / (den*P[S]) * e_S``.
Once a *nested* radicand is adjoined, the table is dropped for good, and
products and root searches recurse over the levels: such a tower can hold
the root of a rational it never adjoined, e.g. ``sqrt(5 + 2*sqrt(6)) ==
sqrt(2) + sqrt(3)`` puts ``sqrt(2)`` in the tower over ``sqrt(6)``.  A root
neither finds makes a new level by one rule, of which a rational is the
one-coordinate case: for the content ``g`` of ``num`` and ``g*den == m*m*f``
(``f`` square-free) the radicand is ``num/g * f``, ``(f, 0, ..., 0)`` for a
rational, and the root ``m/den`` times its root, canonical after one ``gcd``.

Each session also memoizes the positive root of every argument of ``ssqrt``
whose root is irrational, since finding such a root again means a fresh
search down the whole tower.  The tower only grows and the positive root is
unique, so a cached root stays correct for the life of the session.  The memo
grows with the number of distinct such arguments and is never evicted.  A
value prints as its canonical closed form ``q0 + q1 * sqrt(r1) + ...``,
written as text straight from its coordinates (:func:`_text`); the session
likewise keeps the text of each level's radical, so each radicand is
rendered once per session.

Sessions are mutable (``ssqrt`` may adjoin a new level) and are meant to be
confined to one thread; values from different sessions must never be mixed,
and attempting to do so raises :class:`SessionMismatch`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, prod
from operator import add, itemgetter, sub
from typing import Optional, Union

from .approx import approx_decimal
from .terms import _literal

__all__ = ["Session", "Real", "SessionMismatch", "SignValue", "TowerInvariantError"]

Scalar = Union[int, Fraction]

#: A sign is one of -1, 0, +1.
SignValue = int


class SessionMismatch(ValueError):
    """Raised when values from different sessions are combined."""


class TowerInvariantError(AssertionError):
    """Internal invariant breach: a session radicand is a square one level down.

    This is unreachable when the tower is grown exclusively through
    :meth:`Real.ssqrt`; it exists so that corruption fails loudly instead of
    producing wrong signs.
    """


# ---------------------------------------------------------------------------
# Raw integer-vector arithmetic.
#
# Vectors always have length 2**k for the level k they live at; the level is
# recovered from the length, so no explicit depth bookkeeping is threaded
# through.  ``tower`` is the session: ``tower._radicands`` holds the radicand
# for level k+1 at index k (an int vector of length 2**k, stored untrimmed),
# and ``tower._products`` is its table of radicand products while the tower is
# multiquadratic, else None.  Inverses and roots are returned as
# ``(numerators, denominator)`` with a positive denominator.
# ---------------------------------------------------------------------------


def _zeros(n: int) -> tuple:
    return (0,) * n


def _vneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _vscale(a: tuple, q: int) -> tuple:
    return tuple(q * x for x in a)


def _reduced(num: tuple, den: int) -> tuple[tuple, int]:
    """``num/den`` with the common content divided out (``den > 0``)."""
    g = gcd(den, *num)
    if g == 1:
        return num, den
    return tuple(x // g for x in num), den // g


def _radicand_for(tower: Session, n: int) -> tuple:
    # vector length n == 2**k lives at level k; its top split uses level k
    return tower._radicands[n.bit_length() - 2]


def _vmul(tower: Session, a: tuple, b: tuple) -> tuple:
    n = len(a)
    if n <= 2:  # the level-1 radicand is always a rational
        if n == 1:
            return (a[0] * b[0],)
        (u1, v1), (u2, v2) = a, b
        return (u1 * u2 + v1 * v2 * tower._radicands[0][0], u1 * v2 + v1 * u2)
    products = tower._products
    if products is not None:
        # e_i * e_j == P[i & j] * e_(i ^ j): a root in both squares to its
        # radicand, a root in one stays
        out = [0] * n
        bs = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in bs:
                    out[i ^ j] += x * y * products[i & j]
        return tuple(out)
    if not any(a) or not any(b):
        return _zeros(n)
    h = n // 2
    u1, v1 = a[:h], a[h:]
    u2, v2 = b[:h], b[h:]
    z1, z2 = not any(v1), not any(v2)
    if z1 and z2:
        return _vmul(tower, u1, u2) + _zeros(h)
    if z2:  # b has no top component
        return _vmul(tower, u1, u2) + _vmul(tower, v1, u2)
    if z1:
        return _vmul(tower, u1, u2) + _vmul(tower, u1, v2)
    r = _radicand_for(tower, n)
    lo = map(add, _vmul(tower, u1, u2), _vmul(tower, _vmul(tower, v1, v2), r))
    hi = map(add, _vmul(tower, u1, v2), _vmul(tower, v1, u2))
    return (*lo, *hi)


def _vnorm(tower: Session, u: tuple, v: tuple) -> tuple:
    """``u*u - v*v*r``: the norm of ``u + v*sqrt(r)`` one level down."""
    r = _radicand_for(tower, 2 * len(u))
    return tuple(map(sub, _vmul(tower, u, u), _vmul(tower, _vmul(tower, v, v), r)))


def _vinv(tower: Session, a: tuple) -> tuple[tuple, int]:
    """Totalized inverse as ``(numerators, denominator)``: zero maps to zero."""
    n = len(a)
    if n == 1:
        c = a[0]
        return ((1,), c) if c > 0 else ((-1,), -c) if c else ((0,), 1)
    h = n // 2
    u, v = a[:h], a[h:]
    if not any(v):
        num, den = _vinv(tower, u)
        return num + _zeros(h), den
    # 1/(u + v*sqrt(r)) = (u - v*sqrt(r)) / (u^2 - v^2*r); the norm is
    # nonzero for nonzero input, else r would be a square one level down.
    norm = _vnorm(tower, u, v)
    if not any(norm):
        raise TowerInvariantError("conjugate norm vanished on a nonzero value")
    num, den = _vinv(tower, norm)
    return _reduced(_vmul(tower, u, num) + _vneg(_vmul(tower, v, num)), den)


def _vsign(tower: Session, a: tuple) -> SignValue:
    n = len(a)
    if n == 1:
        c = a[0]
        return (c > 0) - (c < 0)
    h = n // 2
    u, v = a[:h], a[h:]
    if not any(v):
        return _vsign(tower, u)
    if not any(u):
        return _vsign(tower, v)  # sqrt(r) > 0, so v*sqrt(r) has v's sign
    su = _vsign(tower, u)
    sv = _vsign(tower, v)
    if su == sv:
        return su
    # Signs differ and both parts are nonzero: compare |u| against
    # |v|*sqrt(r) by comparing u^2 against v^2*r one level down.
    st = _vsign(tower, _vnorm(tower, u, v))
    if st == 0:
        raise TowerInvariantError("u^2 == v^2 * r with opposite-sign parts")
    return su if st > 0 else sv


def _vsqrt_in_tower(tower: Session, y: tuple) -> Optional[tuple[tuple, int]]:
    """A root ``w`` with ``w*w == y`` inside the existing tower, or None.

    ``y`` must be strictly positive.  The root comes back as
    ``(numerators, denominator)`` and is some root (not necessarily the
    positive one); callers normalize the sign.  Scaling an argument by a
    positive square never changes whether a root exists, which keeps every
    recursive argument an integer vector.  Since ``y > 0``, every argument
    of a recursive search is positive too, so the only signs taken are
    those of the conjugate norm and of its root.  A root the search builds
    squares to ``y`` by construction, so no product checks it.
    """
    n = len(y)
    if n == 1:
        w = isqrt(y[0])
        return ((w,), 1) if w * w == y[0] else None
    h = n // 2
    u, v = y[:h], y[h:]
    r = _radicand_for(tower, n)
    if not any(v):
        w = _vsqrt_in_tower(tower, u)
        if w is not None:
            return w[0] + _zeros(h), w[1]
        # y == c^2 * r for some lower-tower c iff y*r == (c*r)^2 is a lower
        # square; then c == sqrt(y*r) / r.
        w = _vsqrt_in_tower(tower, _vmul(tower, u, r))
        if w is None:
            return None
        rn, rd = _vinv(tower, r)
        return _reduced(_zeros(h) + _vmul(tower, w[0], rn), w[1] * rd)
    # A root a + b*sqrt(r) with v == 2ab != 0 forces a, b != 0 and
    # (a^2 - b^2*r)^2 == u^2 - v^2*r, so u^2 - v^2*r must be a lower square.
    m = _vnorm(tower, u, v)
    sm = _vsign(tower, m)
    if sm == 0:
        raise TowerInvariantError("u^2 == v^2 * r while testing for a root")
    if sm < 0:
        return None
    s = _vsqrt_in_tower(tower, m)
    if s is None:
        return None
    sn, sd = s
    if _vsign(tower, sn) < 0:
        sn = _vneg(sn)
    # One of (u+s)/2, (u-s)/2 equals a^2 (the other is b^2*r, never a lower
    # square since r is not).  With k == 2*sd, (u±s)/2 == p/k for the int
    # vector p == u*sd ± sn, and a == sqrt(p*k)/k.  b is recovered from
    # v == 2ab.  Both p are positive, and so is any root of p*k: y > 0 and
    # u^2 > v^2*r give u > 0 and 0 < s < u, so neither needs a sign test.
    k = 2 * sd
    us = _vscale(u, sd)
    for p in (tuple(map(add, us, sn)), tuple(map(sub, us, sn))):
        c = _vsqrt_in_tower(tower, _vscale(p, k))
        if c is None:
            continue
        cn, cd = c[0], c[1] * k  # a == cn/cd
        # b == v/(2a) == v*cd*inv(cn)/2, so root/den == a + (v/2a)*sqrt(r).
        # It squares to y with no check: (v/2a)^2*r == v^2*r / (2(u ± s))
        # == (u^2 - s^2) / (2(u ± s)) == (u ∓ s)/2, so the square is
        # a^2 + (u ∓ s)/2 + v*sqrt(r) == u + v*sqrt(r), for either sign.
        inv_n, inv_d = _vinv(tower, cn)
        den = 2 * cd * inv_d
        root = _vscale(cn, 2 * inv_d) + _vscale(_vmul(tower, v, inv_n), cd * cd)
        return _reduced(root, den)
    return None


def _square_free_split(n: int) -> tuple[int, int]:
    """Write ``n == m*m*f`` with ``f`` square-free (best effort) and return ``(m, f)``.

    Trial division is capped, so for adversarially large inputs ``f`` may keep
    a hidden square factor; that only costs normalization, never correctness,
    because root deduplication is decided by the scan of the radicand-product
    table in multiquadratic towers and by the in-tower search in others.
    """
    m, f = 1, 1
    d = 2
    while d * d * d <= n and d <= 1_000_000:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            m *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    # The leftover has at most two prime factors (within the cap): it is
    # either 1, p, p*q (square-free) or p^2 (a perfect square).
    r = isqrt(n)
    if r * r == n:
        m *= r
    else:
        f *= n
    return m, f


# ---------------------------------------------------------------------------
# Public classes.
# ---------------------------------------------------------------------------


class Session:
    """A growable tower of real quadratic extensions of the rationals.

    All values produced through one session share its tower, which is what
    makes equality decidable by coordinate comparison: every adjoined
    radicand is checked to be positive and not already a square, so the root
    of equal radicands is reused instead of duplicated.  While every radicand
    is a rational the session also keeps their products, one per set of
    levels, which the kernel multiplies and finds rational roots by.

    Sessions are not thread-safe; confine each one to a single thread.
    """

    __slots__ = ("_radicands", "_products", "_roots", "_radicals")

    def __init__(self) -> None:
        self._radicands: tuple = ()
        # mask S -> product of the radicands of the levels in S, while all of
        # them are rational; None for good once a nested radicand is adjoined
        self._products: Optional[tuple] = (1,)
        # positive radicand (num, den) -> its positive root (num, den)
        self._roots: dict[tuple, tuple] = {}
        # level -> (sort key, "sqrt(<radicand text>)") of its root in
        # canonical closed forms, filled by _radical, so each radicand is
        # rendered once; a radicand never changes, so an entry stays right
        # for the life of the session
        self._radicals: dict[int, tuple] = {}

    @property
    def depth(self) -> int:
        """Number of adjoined square roots."""
        return len(self._radicands)

    @property
    def radicands(self) -> tuple:
        """Radicand coordinate vectors as Fractions, level k+1 at index k."""
        return tuple(tuple(Fraction(c) for c in rad) for rad in self._radicands)

    def rational(self, p: Scalar = 0, q: int = 1) -> Real:
        """The value ``p/q``. ``q == 0`` yields 0, matching ``x * inv(0)``."""
        if q == 0:
            return _canonical(self, (0,), 1)
        if type(p) is int and type(q) is int:
            g = gcd(p, q) if q > 0 else -gcd(p, q)
            return _canonical(self, (p // g,), q // g)
        value = Fraction(p, q)
        return _canonical(self, (value.numerator,), value.denominator)

    def value(self, x: Union[Real, Scalar]) -> Real:
        """Coerce an int or Fraction into this session; pass Reals through."""
        if isinstance(x, Real):
            if x._session is not self:
                raise SessionMismatch("value belongs to a different session")
            return x
        return self.rational(x)

    @property
    def zero(self) -> Real:
        return self.rational(0)

    @property
    def one(self) -> Real:
        return self.rational(1)

    def radicand_value(self, level: int) -> Real:
        """The radicand adjoined at ``level`` (1-based) as a value."""
        if not 1 <= level <= self.depth:
            raise ValueError(f"no radicand at level {level}")
        return Real(self, self._radicands[level - 1])

    def check_invariants(self) -> None:
        """Re-verify the tower and the root memo.

        The product table must exist exactly when every radicand is
        rational and hold their products, every radicand must be positive and
        not a lower square, every memoized root must be positive and square
        to its radicand, and every memoized radical's key and text must be
        what they are written as with the memo cleared.
        """
        rads = self._radicands
        for k, rad in enumerate(rads, start=1):
            if len(rad) != 1 << (k - 1):
                raise TowerInvariantError(f"level {k} radicand has wrong arity")
        products = None
        if not any(any(rad[1:]) for rad in rads):
            levels = range(len(rads))
            products = tuple(
                prod(rads[k][0] for k in levels if mask >> k & 1) for mask in range(1 << len(rads))
            )
        if products != self._products:
            raise TowerInvariantError("radicand product table is wrong")
        for k, rad in enumerate(rads, start=1):
            if _vsign(self, rad) <= 0:
                raise TowerInvariantError(f"level {k} radicand is not positive")
            if _vsqrt_in_tower(self, rad) is not None:
                raise TowerInvariantError(f"level {k} radicand is a lower square")
        for radicand, root in self._roots.items():
            y, w = Real(self, *radicand), Real(self, *root)
            if w.sign() <= 0 or w * w != y:
                raise TowerInvariantError(f"memoized root of {y!r} is wrong")
        memo, self._radicals = self._radicals, {}
        try:
            for level, entry in memo.items():
                if _radical(self, level) != entry:
                    raise TowerInvariantError(f"memoized radical {level} is wrong")
        finally:
            self._radicals = memo

    def _adjoin(self, rad: tuple) -> None:
        if len(rad) != 1 << self.depth:
            raise TowerInvariantError("adjoined radicand has wrong arity")
        self._radicands += (rad,)
        products = self._products
        if products is not None:
            if any(rad[1:]):
                self._products = None
            else:
                self._products = products + tuple(p * rad[0] for p in products)

    def __repr__(self) -> str:
        return f"Session(depth={self.depth})"


class Real:
    """An exact constructible real tied to a :class:`Session`.

    Supports the ring operators, zero-totalized division, and the totalized
    extras :meth:`inv`, :meth:`sign` and :meth:`ssqrt`.  Comparisons are
    exact.  Instances are immutable and hashable; a rational value hashes
    like the equal ``int`` or ``Fraction``.

    ``Real(session, num, den)`` is the value ``num/den`` for an int vector
    ``num`` of power-of-two length and a positive int ``den``; it is brought
    to canonical form.  A length that is not a power of two or, once zero
    top halves are trimmed, exceeds the session's tower, or a nonpositive
    ``den``, raises ``ValueError``; a non-int coordinate ``TypeError``.
    Values are normally made through the session.
    """

    __slots__ = ("_session", "_num", "_den")

    def __init__(self, session: Session, num: tuple, den: int = 1) -> None:
        n = len(num)
        if n & (n - 1) or not n:
            raise ValueError("coordinate vector length must be a power of two")
        if den <= 0:
            raise ValueError("denominator must be positive")
        # Trim zero top halves so depth is minimal and equal values share
        # identical coordinates.
        while n > 1 and not any(num[n // 2 :]):
            n //= 2
            num = num[:n]
        if n > 1 << len(session._radicands):
            raise ValueError("coordinate vector is longer than the session's tower")
        try:
            g = gcd(den, *num)
        except TypeError:
            msg = "Real(session, num, den) takes int numerators and an int denominator"
            raise TypeError(msg) from None
        if g != 1:
            num = tuple(c // g for c in num)
            den //= g
        self._session = session
        self._num = tuple(num)
        self._den = den

    # -- structure ---------------------------------------------------------

    @property
    def session(self) -> Session:
        return self._session

    @property
    def depth(self) -> int:
        return len(self._num).bit_length() - 1

    @property
    def coords(self) -> tuple:
        """Fraction coordinates over the root-product basis, trimmed to minimal depth."""
        return tuple(Fraction(c, self._den) for c in self._num)

    def is_zero(self) -> bool:
        return self._num == (0,)

    def is_rational(self) -> bool:
        return len(self._num) == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is irrational")
        return Fraction(self._num[0], self._den)

    def _lifted(self, n: int) -> tuple:
        """The numerator vector padded with zeros to length ``n``."""
        return self._num + _zeros(n - len(self._num))

    def _peer(self, other: object) -> Optional[Real]:
        if isinstance(other, Real):
            if other._session is not self._session:
                raise SessionMismatch("cannot mix values from different sessions")
            return other
        if isinstance(other, (int, Fraction)):
            return self._session.rational(other)
        return None

    # -- ring operations ----------------------------------------------------

    def _combine(self, peer: Real, op) -> Real:
        a, b = self._num, peer._num
        da, db = self._den, peer._den
        if len(a) == 1 == len(b):
            return self._session.rational(op(a[0] * db, b[0] * da), da * db)
        n = max(len(a), len(b))
        a, b = self._lifted(n), peer._lifted(n)
        if da != db:
            g = gcd(da, db)
            a, b = _vscale(a, db // g), _vscale(b, da // g)
            da = da // g * db
        return Real(self._session, tuple(map(op, a, b)), da)

    def __add__(self, other: object) -> Real:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return self._combine(peer, add)

    __radd__ = __add__

    def __neg__(self) -> Real:
        num = self._num
        neg = (-num[0],) if len(num) == 1 else _vneg(num)
        return _canonical(self._session, neg, self._den)

    def __pos__(self) -> Real:
        return self

    def __sub__(self, other: object) -> Real:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return self._combine(peer, sub)

    def __rsub__(self, other: object) -> Real:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return peer - self

    def __mul__(self, other: object) -> Real:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        a, b = self._num, peer._num
        if len(a) == 1 == len(b):
            return self._session.rational(a[0] * b[0], self._den * peer._den)
        n = max(len(a), len(b))
        num = _vmul(self._session, self._lifted(n), peer._lifted(n))
        return Real(self._session, num, self._den * peer._den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> Real:
        """Totalized division: ``x / 0 == 0``."""
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return self * peer.inv()

    def __rtruediv__(self, other: object) -> Real:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return peer * self.inv()

    def __pow__(self, n: int) -> Real:
        """Square-and-multiply power; a negative ``n`` inverts the result."""
        if not isinstance(n, int):
            return NotImplemented
        out, base, e = self._session.one, self, abs(n)
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out.inv() if n < 0 else out

    def inv(self) -> Real:
        """Totalized multiplicative inverse: ``inv(0) == 0``."""
        if len(self._num) == 1:
            return self._session.rational(self._den, self._num[0])
        num, den = _vinv(self._session, self._num)
        return Real(self._session, _vscale(num, self._den), den)

    # -- order and equality --------------------------------------------------

    def sign(self) -> SignValue:
        """Exact sign in {-1, 0, +1}; 0 only for the zero value."""
        return _vsign(self._session, self._num)

    def compare(self, other: Union[Real, Scalar]) -> SignValue:
        peer = self._peer(other)
        if peer is None:
            raise TypeError(f"cannot compare Real with {type(other).__name__}")
        return (self - peer).sign()

    def __eq__(self, other: object) -> bool:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return self._num == peer._num and self._den == peer._den

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self._num[0], self._den))
        return hash((id(self._session), self._num, self._den))

    def __lt__(self, other: object) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: object) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: object) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: object) -> bool:
        return self.compare(other) >= 0

    # -- roots and meadow extras ---------------------------------------------

    def ssqrt(self) -> Real:
        """Signed square root: the positive root of ``|x|`` carrying ``sign(x)``.

        Answers from the session's root memo when it can; otherwise reuses a
        root already expressible in the session tower when one exists, and
        failing that adjoins a new level whose radicand is positive and
        reduced by its square rational content.
        """
        sg = self.sign()
        if sg == 0:
            return self
        y = self if sg > 0 else -self
        session = self._session
        key = (y._num, y._den)
        found = session._roots.get(key)
        if found is None:
            root = y._root()
            if not root.is_rational():  # a rational root is cheap to find again
                session._roots[key] = (root._num, root._den)
        else:
            root = _canonical(session, *found)
        return root if sg > 0 else -root

    def _root(self) -> Real:
        """The positive root of this positive value, adjoining one if needed.

        Every new level follows one rule, of which a rational is the
        one-coordinate case: ``sqrt(num/den) == m/den * sqrt(num/g * f)``
        for ``g == gcd(*num)`` and ``g*den == m*m*f``, so ``sqrt(8)`` is ``2 *
        sqrt(2)``."""
        session = self._session
        num, den = self._num, self._den
        half = 1 << session.depth
        products = session._products
        if products is not None and len(num) == 1:
            # Kummer: sqrt(q) lies in a multiquadratic tower iff q * P[S] is
            # a rational square for some mask S, and then for that S alone;
            # sqrt(num/den) == sqrt(num*den*P[S]) / (den*P[S]) * e_S, whose
            # vector ends at coordinate S, so it is already trimmed
            nd = num[0] * den
            for mask, p in enumerate(products):
                t = nd * p
                w = isqrt(t)
                if w * w == t:
                    d = den * p
                    g = gcd(w, d)
                    root = _zeros(mask) + (w // g,) + _zeros((1 << mask.bit_length()) - mask - 1)
                    return _canonical(session, root, d // g)
        else:
            # sqrt(num/den) == sqrt(num*den) / den
            w = _vsqrt_in_tower(session, _vscale(self._lifted(half), den))
            if w is not None:
                root, root_den = w
                if _vsign(session, root) < 0:
                    root = _vneg(root)
                return Real(session, root, root_den * den)
        g = gcd(*num)  # positive: the value is positive, so some coord != 0
        m, f = _square_free_split(g * den)
        session._adjoin(tuple([c // g * f for c in num]) + _zeros(half - len(num)))
        g = gcd(m, den)
        return _canonical(session, _zeros(half) + (m // g,) + _zeros(half - 1), den // g)

    def pseudo_unit(self) -> Real:
        """``x * inv(x)``: exactly 1 for nonzero values, 0 at zero."""
        return self * self.inv()

    def pseudo_zero(self) -> Real:
        """``1 - x * inv(x)``: exactly 0 for nonzero values, 1 at zero."""
        return self._session.one - self.pseudo_unit()

    # -- presentation ----------------------------------------------------------

    def approx_decimal(self, digits: int = 10) -> str:
        """Certified decimal string within 10**-digits of the exact value.

        Computed by interval refinement in integers, whose enclosures equal
        the rational ones of endpoint-by-endpoint interval arithmetic
        exactly; see :mod:`meadows.approx`.  The kernel's own sign decisions
        are never consulted, which makes this an independent cross-check
        channel.
        """
        return approx_decimal(self, digits)

    def __repr__(self) -> str:
        return f"Real({self})"

    def __str__(self) -> str:
        """Canonical closed-term string, ``q0 + q1 * sqrt(r1) + ...``; see :func:`_text`."""
        return _text(self)


def _canonical(session: Session, num: tuple, den: int) -> Real:
    """A value from a result already in canonical form, without re-checking it.

    ``num`` must be trimmed and share no factor with ``den``, and ``den``
    must be positive; :class:`Real` itself checks and normalizes instead.
    """
    value = object.__new__(Real)
    value._session, value._num, value._den = session, num, den
    return value


def _text(value: Real) -> str:
    """The canonical closed form of ``value``, written from its coordinates.

    Each nonzero coordinate contributes one summand: its reduced rational
    coefficient, left out when it is 1 and the summand has a root, then one
    ``sqrt`` factor per tower level involved, joined by ``" * "``.  Factors
    are sorted by radicand depth and then radicand text, and the summands by
    their factors' keys, the rational summand first.  A later negative
    summand is written after ``" - "``; a negative first one as ``-body``, or
    ``-(body)`` when it has more than one factor.  This is the text
    :func:`~meadows.terms.render` writes for the sum of these summands, and
    the form is canonical for the session's order of adjoined roots.
    """
    num, den = value._num, value._den
    if len(num) == 1:
        c = num[0]
        body = _literal(abs(c), den)
        return f"-{body}" if c < 0 else body

    session = value._session
    depth = len(num).bit_length() - 1
    radicals = [_radical(session, level) for level in range(1, depth + 1)]
    # the levels in the order of their keys, which are distinct (a radicand
    # is never a lower square), so a summand's ranks in this order sort it
    order = sorted(range(depth), key=lambda level: radicals[level][0])
    bits = [1 << level for level in order]
    roots = [radicals[level][1] for level in order]
    parts = []
    for index, c in enumerate(num):
        if c:
            ranks = tuple(rank for rank, bit in enumerate(bits) if index & bit)
            items = [roots[rank] for rank in ranks]
            a = abs(c)
            if a != den or not items:
                g = gcd(a, den)
                items.insert(0, _literal(a // g, den // g))
            parts.append((ranks, c < 0, items))

    parts.sort(key=itemgetter(0))
    _, negative, items = parts[0]
    body = " * ".join(items)
    out = [(f"-({body})" if len(items) > 1 else f"-{body}") if negative else body]
    for _, negative, items in parts[1:]:
        out.append(" - " if negative else " + ")
        out.append(" * ".join(items))
    return "".join(out)


def _radical(session: Session, level: int) -> tuple[tuple[int, str], str]:
    """The sort key and text ``sqrt(<radicand>)`` of the root adjoined at ``level``.

    The key is the radicand's depth and text.  Kept in the session's radical
    memo: a radicand never changes, so neither does its canonical form.
    """
    entry = session._radicals.get(level)
    if entry is None:
        radicand = session.radicand_value(level)
        text = _text(radicand)
        entry = session._radicals[level] = ((radicand.depth, text), f"sqrt({text})")
    return entry
