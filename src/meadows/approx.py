"""Certified decimal approximation by interval refinement in integers.

This module never consults the exact kernel's sign, equality or root-search
machinery: every bound is produced with integer arithmetic plus integer
square roots, refined until the requested number of digits is certain.  That
independence is the point — it gives a second channel against which the
kernel's exact decisions can be cross-checked.

At working precision ``b`` each root ``sqrt(r_k)`` gets integer bounds over
``2**b`` (floor and ceiling ``isqrt`` of its radicand's enclosure), and a
basis product gets the exact product of its roots' bounds.  A vector of depth
``d`` is then enclosed by integer numerators over ``den * 2**(b*d)``.  No
bound is ever rounded outward beyond the roots', so these enclosures equal
the rational ones of endpoint-by-endpoint interval arithmetic exactly.

Radicand positivity is a session invariant, so refinement of a radicand's
enclosure always eventually certifies a positive lower bound; a value whose
coordinates use no roots gets a degenerate (exact) interval.  One generator
yields the enclosures at doubling precision; :func:`enclose`,
:func:`approx_decimal` and :func:`approx_fraction` are stopping rules over it.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from itertools import compress
from math import isqrt
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .exact import Real

__all__ = ["approx_decimal", "approx_fraction", "enclose"]

# The precision budget: refinement stops past bounds over 2**_MAX_BITS.
_MAX_BITS = 1 << 20
# The cap on a request: 10**_MAX_DIGITS <= 2**_MAX_BITS.  A request under it
# may still run out of the budget, since certifying its digits also takes
# margin bits and bits for the value's magnitude.
_MAX_DIGITS = 315_652

# CPython refuses int<->str conversions above ``sys.get_int_max_str_digits()``
# digits, and 640 is the lowest limit it can be set to.
_CHUNK = 640
_CHUNK_BASE = 10**_CHUNK
# Exact decimal arithmetic at any size: a rounded result would raise Inexact.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
_LEAF_BITS = 1024  # ints this small go into Decimal directly


def _basis_bounds(i: int, roots: list, memo: dict) -> tuple:
    """Bounds of the product of the roots on the set bits of ``i``.

    The bounds are over ``2**(b * popcount(i))``.  Entries are memoised
    lazily, so only the products that a nonzero coefficient needs are built,
    along with the shorter products they are built from.
    """
    chain = []
    while i not in memo:
        low = i & -i
        chain.append((i, low.bit_length() - 1))
        i ^= low
    lo, hi = memo[i]
    for j, k in reversed(chain):
        root_lo, root_hi = roots[k]
        lo, hi = lo * root_lo, hi * root_hi
        memo[j] = (lo, hi)
    return lo, hi


def _dot(vec: tuple, roots: list, memo: dict, bits: int) -> tuple:
    """Integer bounds of ``vec`` over ``2**(bits * depth)``, ``len(vec) == 2**depth``."""
    depth = len(vec).bit_length() - 1
    lo = hi = 0
    for i in compress(range(len(vec)), vec):  # skips zeros in C; vectors are often sparse
        c = vec[i]
        basis_lo, basis_hi = _basis_bounds(i, roots, memo)
        shift = bits * (depth - i.bit_count())
        if c > 0:
            lo += (c * basis_lo) << shift
            hi += (c * basis_hi) << shift
        else:
            lo += (c * basis_hi) << shift
            hi += (c * basis_lo) << shift
    return lo, hi


def _root_bounds(rads: tuple, depth: int, bits: int, memo: dict) -> Optional[list]:
    """Bounds over ``2**bits`` for sqrt(r_1) .. sqrt(r_depth), level by level.

    None if the precision cannot yet separate a radicand's lower bound from 0.
    """
    roots: list = []
    for k in range(depth):
        lo, hi = _dot(rads[k], roots, memo, bits)
        if lo <= 0:
            return None  # radicand is positive; refine further
        # the radicand lies in [lo, hi] / 2**(bits*k); scale by 2**(2*bits)
        t_lo = (lo << 2 * bits) >> bits * k
        t_hi = -((-hi << 2 * bits) >> bits * k)
        r_hi = isqrt(t_hi)
        if r_hi * r_hi < t_hi:
            r_hi += 1
        roots.append((isqrt(t_lo), r_hi))
    return roots


def _refinements(value: Real, bits: int):
    """Enclosures ``(lo, hi, shift)`` of ``value`` as ``[lo, hi] / (den << shift)``.

    The working precision starts at ``bits`` and doubles on every step; past
    the budget of ``_MAX_BITS``, a ``ValueError`` ends the refinement.
    """
    rads = value.session._radicands
    num = value._num
    depth = value.depth
    while bits <= _MAX_BITS:
        memo = {0: (1, 1)}
        roots = _root_bounds(rads, depth, bits, memo)
        if roots is not None:
            lo, hi = _dot(num, roots, memo, bits)
            yield lo, hi, bits * depth
        bits *= 2
    raise ValueError(f"the value needs more than the precision budget of {_MAX_BITS} bits")


def enclose(value: Real, width: Fraction):
    """An interval around ``value`` of width strictly below ``width``."""
    if width <= 0:
        raise ValueError("width must be positive")
    den = value._den
    for lo, hi, shift in _refinements(value, 32):
        scale = den << shift
        if Fraction(hi - lo, scale) < width:
            return (Fraction(lo, scale), Fraction(hi, scale))


def _truncation(value: Real, digits: int) -> int:
    """``value * 10**digits`` truncated toward zero, certified."""
    if digits < 1:
        raise ValueError("digits must be at least 1")
    if digits > _MAX_DIGITS:
        raise ValueError(f"digits must be at most {_MAX_DIGITS}")
    p = 10**digits
    # start where a root's bound is fine enough to decide the last digit
    bits = 32
    while 1 << bits < p:
        bits *= 2
    den = value._den
    for lo, hi, shift in _refinements(value, bits):
        # floor(n / (den << shift)), as two floor divisions: the shift is cheap
        if lo >= 0:
            t = (lo * p // den) >> shift
            if t == (hi * p // den) >> shift:
                return t
        elif hi <= 0:
            t = (-hi * p // den) >> shift
            if t == (-lo * p // den) >> shift:
                return -t


def _decimal(n: int) -> str:
    """The decimal digits of ``n >= 0``, whatever the int-to-str digit limit.

    Up to one chunk this is ``str(n)``.  A larger ``n`` is split into binary
    halves, converted recursively, and joined as ``hi * 2**k + lo`` in exact
    :mod:`decimal` arithmetic, whose large products are subquadratic.  Every
    way of splitting off decimal digits divides, and CPython 3.11 divides
    in quadratic time.
    """
    if n < _CHUNK_BASE:
        return str(n)
    powers: dict[int, Decimal] = {}

    def convert(n: int, bits: int) -> Decimal:
        if bits <= _LEAF_BITS:
            return Decimal(n)
        k = bits >> 1
        hi = n >> k
        power = powers.get(k)
        if power is None:
            power = powers[k] = _EXACT.power(2, k)
        lo = convert(n - (hi << k), k)
        return _EXACT.add(_EXACT.multiply(convert(hi, bits - k), power), lo)

    return str(convert(n, n.bit_length()))


def _parse_decimal(digits: str) -> int:
    """The inverse of :func:`_decimal`, whatever the int-to-str digit limit.

    A string over one chunk is split so that its low part has ``640 * 2**j``
    digits, at least half; the parts are parsed recursively and joined as
    ``hi * 10**k + lo``, whose int products are subquadratic.
    """
    if len(digits) <= _CHUNK:
        return int(digits)
    powers: dict[int, int] = {}

    def convert(digits: str) -> int:
        if len(digits) <= _CHUNK:
            return int(digits)
        k = _CHUNK
        while 2 * k < len(digits):
            k *= 2
        if k not in powers:
            powers[k] = 10**k
        return convert(digits[:-k]) * powers[k] + convert(digits[-k:])

    return convert(digits)


def approx_decimal(value: Real, digits: int) -> str:
    """Decimal string ``d`` with ``|value - d| < 10**-digits``.

    The string always carries exactly ``digits`` fractional digits and is the
    truncation toward zero of a certified interval, so its magnitude never
    overshoots the exact value by a full unit in the last place.  A magnitude
    that truncates to zero is printed without a sign.
    """
    t = _truncation(value, digits)
    whole, frac = divmod(abs(t), 10**digits)
    sign = "-" if t < 0 else ""
    return f"{sign}{_decimal(whole)}.{_decimal(frac).zfill(digits)}"


def approx_fraction(value: Real, digits: int) -> Fraction:
    """The decimal approximation as an exact Fraction (handy for tests)."""
    return Fraction(_truncation(value, digits), 10**digits)
