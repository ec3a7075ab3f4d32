"""Complex numbers over the exact kernel, with totalized inverse.

A :class:`Complex` is a pair of :class:`~meadows.exact.Real` coordinates from
one session.  Ring operations are the usual ones; inversion is totalized by
``inv(0) == 0`` (conjugate over the squared modulus, which the kernel already
totalizes).  Sign and signed square root look only at the real part:

    sign(a + b*i) == (sign(a), 0)        ssqrt(a + b*i) == (ssqrt(a), 0)

so both collapse the imaginary axis.  On the real line (``b == 0``) they agree
with the kernel's operations, which is what the restricted law set in
:mod:`meadows.axioms` exercises: the ``SquareRoots`` laws, read on real parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .exact import Real, Session

__all__ = ["Complex"]


class Complex:
    """A complex number with exact constructible-real coordinates."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: Real, im: Union[Real, int, Fraction] = 0) -> None:
        if not isinstance(re, Real):
            raise TypeError("real part must be a Real (use Complex.from_parts)")
        self._re = re
        self._im = re.session.value(im)

    @classmethod
    def from_parts(
        cls,
        session: Session,
        re: Union[Real, int, Fraction],
        im: Union[Real, int, Fraction] = 0,
    ) -> "Complex":
        return cls(session.value(re), session.value(im))

    @classmethod
    def i(cls, session: Session) -> "Complex":
        """The imaginary unit."""
        return cls(session.zero, session.one)

    @property
    def re(self) -> Real:
        return self._re

    @property
    def im(self) -> Real:
        return self._im

    @property
    def session(self) -> Session:
        return self._re.session

    def is_zero(self) -> bool:
        return self._re.is_zero() and self._im.is_zero()

    def is_real(self) -> bool:
        return self._im.is_zero()

    def _peer(self, other: object) -> Optional["Complex"]:
        if isinstance(other, Complex):
            return other
        if isinstance(other, (Real, int, Fraction)):
            return Complex(self.session.value(other))
        return None

    def __add__(self, other: object) -> "Complex":
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return Complex(self._re + peer._re, self._im + peer._im)

    __radd__ = __add__

    def __neg__(self) -> "Complex":
        return Complex(-self._re, -self._im)

    def __sub__(self, other: object) -> "Complex":
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return Complex(self._re - peer._re, self._im - peer._im)

    def __rsub__(self, other: object) -> "Complex":
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return peer - self

    def __mul__(self, other: object) -> "Complex":
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        a, b, c, d = self._re, self._im, peer._re, peer._im
        return Complex(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inv(self) -> "Complex":
        """Totalized inverse: conjugate over squared modulus, 0 at 0."""
        scale = (self._re * self._re + self._im * self._im).inv()
        return Complex(self._re * scale, -self._im * scale)

    def __truediv__(self, other: object) -> "Complex":
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return self * peer.inv()

    def __rtruediv__(self, other: object) -> "Complex":
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return peer * self.inv()

    def conj(self) -> "Complex":
        return Complex(self._re, -self._im)

    def re_part(self) -> "Complex":
        """The real part as a complex value (imaginary part zeroed)."""
        return Complex(self._re)

    def sign(self) -> "Complex":
        """Sign of the real part, as a complex value on the real line."""
        return Complex(self.session.rational(self._re.sign()))

    def ssqrt(self) -> "Complex":
        """Signed square root of the real part (ignores the imaginary part)."""
        return Complex(self._re.ssqrt())

    def __eq__(self, other: object) -> bool:
        peer = self._peer(other)
        if peer is None:
            return NotImplemented
        return self._re == peer._re and self._im == peer._im

    def __hash__(self) -> int:
        # a value on the real line equals its real part, so it hashes the same
        if self._im.is_zero():
            return hash(self._re)
        return hash((self._re, self._im))

    def __str__(self) -> str:
        return f"complex({self._re}, {self._im})"

    def __repr__(self) -> str:
        return f"Complex({self})"
