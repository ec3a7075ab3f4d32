"""Certified decimal approximation by rational interval refinement.

This module never consults the exact kernel's sign, equality or root-search
machinery: every bound is produced with rational interval arithmetic plus
integer square roots, refined until the requested number of digits is
certain.  That independence is the point — it gives a second channel against
which the kernel's exact decisions can be cross-checked.

Radicand positivity is a session invariant, so refinement of a radicand's
enclosure always eventually certifies a positive lower bound; a value whose
coordinates use no roots gets a degenerate (exact) interval.  One generator
yields the enclosures at doubling precision; :func:`enclose` and
:func:`approx_decimal` are stopping rules over it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .exact import Real

Interval = "tuple[Fraction, Fraction]"

_MAX_BITS = 1 << 20


class _NeedMorePrecision(Exception):
    """Internal: the working precision cannot yet separate a bound from 0."""


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _sqrt_lower(q: Fraction, bits: int) -> Fraction:
    """A rational lower bound for sqrt(q), q >= 0."""
    s = 1 << bits
    return Fraction(isqrt(_floor(q * s * s)), s)


def _sqrt_upper(q: Fraction, bits: int) -> Fraction:
    """A rational upper bound for sqrt(q), q >= 0."""
    s = 1 << bits
    t = _ceil(q * s * s)
    r = isqrt(t)
    if r * r < t:
        r += 1
    return Fraction(r, s)


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def _iv_scale(a, q: Fraction):
    if q >= 0:
        return (q * a[0], q * a[1])
    return (q * a[1], q * a[0])


def _root_intervals(rads: tuple, depth: int, bits: int) -> list:
    """Enclosures for sqrt(r_1) .. sqrt(r_depth), built level by level."""
    roots: list = []
    for k in range(depth):
        lo, hi = _enclose_vec(rads[k], roots)
        if lo <= 0:
            raise _NeedMorePrecision  # radicand is positive; refine further
        roots.append((_sqrt_lower(lo, bits), _sqrt_upper(hi, bits)))
    return roots


def _enclose_vec(coords: tuple, roots: list):
    """Enclosure of a coordinate vector given enclosures of the roots."""
    total = (Fraction(0), Fraction(0))
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
        total = _iv_add(total, _iv_scale(basis, c))
    return total


def _refinements(value: Real):
    """Enclosures ``(lo, hi)`` of ``value`` at doubling working precision."""
    rads = value.session.radicands
    coords = value.coords
    depth = value.depth
    bits = 32
    while bits <= _MAX_BITS:
        try:
            yield _enclose_vec(coords, _root_intervals(rads, depth, bits))
        except _NeedMorePrecision:
            pass  # a radicand's enclosure still reaches 0; refine further
        bits *= 2
    raise RuntimeError("interval refinement failed to converge")  # pragma: no cover


def enclose(value: Real, width: Fraction):
    """An interval around ``value`` of width strictly below ``width``."""
    for lo, hi in _refinements(value):
        if hi - lo < width:
            return (lo, hi)


def _format_magnitude(lo: Fraction, hi: Fraction, digits: int):
    """Shared truncation of a nonnegative interval, or None if undecided."""
    p = 10**digits
    t_lo = _floor(lo * p)
    t_hi = _floor(hi * p)
    if t_lo != t_hi:
        return None
    return f"{t_lo // p}.{t_lo % p:0{digits}d}"


def approx_decimal(value: Real, digits: int) -> str:
    """Decimal string ``d`` with ``|value - d| < 10**-digits``.

    The string always carries exactly ``digits`` fractional digits and is the
    truncation toward zero of a certified interval, so its magnitude never
    overshoots the exact value by a full unit in the last place.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    for lo, hi in _refinements(value):
        if lo >= 0:
            s = _format_magnitude(lo, hi, digits)
            if s is not None:
                return s
        elif hi <= 0:
            s = _format_magnitude(-hi, -lo, digits)
            if s is not None:
                # avoid "-0.000" when the magnitude truncates to zero
                return s if set(s) <= {"0", "."} else "-" + s


def approx_fraction(value: Real, digits: int) -> Fraction:
    """The decimal approximation as an exact Fraction (handy for tests)."""
    return Fraction(approx_decimal(value, digits))
