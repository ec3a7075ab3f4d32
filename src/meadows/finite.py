"""Totalized prime fields and sum-of-squares (Lagrange) probes.

A :class:`PrimeField` is ``Z/pZ`` with inversion made total by ``inv(0) == 0``
— the finite counterpart of the exact kernel.  Residues are plain ints in
``range(p)``; the field object owns the modulus and one table, built on first
use, that maps each square to its least root.  The module imports nothing from the rest of the
package.

The *Lagrange probe* for exponent ``n`` asks whether the identity

    (1 + x_1^2 + ... + x_n^2) * inv(1 + x_1^2 + ... + x_n^2) == 1

holds for all residues, i.e. whether ``1 + sum of n squares`` can ever hit 0
(the totalized quotient then collapses to 0, refuting the identity).
:func:`lagrange_holds` decides this with an explicit witness and
:func:`scan_lagrange` sweeps all primes up to a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Optional


class NotPrimeError(ValueError):
    """Modulus rejected; carries the smallest witness factor when composite."""

    def __init__(self, n: int, smallest_factor: Optional[int]) -> None:
        if smallest_factor is None:
            super().__init__(f"{n} is not a prime (need p >= 2)")
        else:
            super().__init__(f"{n} is not a prime: divisible by {smallest_factor}")
        self.smallest_factor = smallest_factor


def _smallest_factor(n: int) -> Optional[int]:
    """Smallest nontrivial factor by trial division, or None for primes."""
    if n % 2 == 0:
        return 2 if n > 2 else None
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return None


class PrimeField:
    """``Z/pZ`` with totalized inversion. ``p`` is verified prime on build."""

    __slots__ = ("p", "_roots")

    def __init__(self, p: int) -> None:
        if p < 2:
            raise NotPrimeError(p, None)
        f = _smallest_factor(p)
        if f is not None:
            raise NotPrimeError(p, f)
        self.p = p
        self._roots: Optional[dict[int, int]] = None  # square -> least root

    def element(self, x: int) -> int:
        return x % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Totalized inverse: 0 for 0, else the field inverse ``a**(p-2)``."""
        a %= self.p
        return 0 if a == 0 else pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)

    def smallest_root(self, a: int) -> Optional[int]:
        """The least x with ``x*x == a`` mod p, or None if a is a non-square."""
        if self._roots is None:
            # Built on first use: law checks never read it.  x and p - x share
            # a square, so the least roots lie in 0..p // 2, and no two of
            # those share one.
            self._roots = {x * x % self.p: x for x in range(self.p // 2 + 1)}
        return self._roots.get(a % self.p)

    @property
    def squares(self) -> frozenset[int]:
        """The squares mod p, 0 included: the keys of the root table."""
        self.smallest_root(0)
        return frozenset(self._roots)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


@dataclass(frozen=True)
class LagrangeResult:
    """Outcome of a Lagrange probe at one prime."""

    p: int
    n: int
    holds: bool
    witness: Optional[tuple[int, ...]]

    def verify(self) -> bool:
        """Re-check the witness arithmetic (independent of the search)."""
        if self.witness is None:
            return self.holds
        return (1 + sum(x * x for x in self.witness)) % self.p == 0


def _lex_witness(fp: PrimeField, n: int, target: int) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest (x_1..x_n) with sum of squares == target."""
    if n == 1:
        x = fp.smallest_root(target)
        return None if x is None else (x,)
    for x in range(fp.p):
        rest = _lex_witness(fp, n - 1, fp.sub(target, x * x))
        if rest is not None:
            return (x, *rest)
    return None


def lagrange_holds(p, n: int) -> LagrangeResult:
    """Does ``1 + sum of n squares`` avoid 0 mod p?

    Returns the verdict together with the lexicographically smallest witness
    tuple when the identity fails.  ``p`` may be an int (verified prime) or a
    :class:`PrimeField`.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be between 1 and 4")
    fp = p if isinstance(p, PrimeField) else PrimeField(p)
    witness = _lex_witness(fp, n, fp.p - 1)  # target: -1 mod p
    return LagrangeResult(fp.p, n, witness is None, witness)


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(sieve[d * d :: d]))
    return [i for i, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class ScanResult:
    """All primes <= limit sorted by whether the n-th probe holds."""

    n: int
    limit: int
    holds: tuple[int, ...]
    counterexample_sample: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "schema": "meadows.scan/1",
            "n": self.n,
            "limit": self.limit,
            "holds": list(self.holds),
            "counterexample_sample": {
                str(p): list(w) for p, w in self.counterexample_sample.items()
            },
        }


def scan_lagrange(n: int, limit: int) -> ScanResult:
    """Probe every prime up to ``limit``; collect holders and the first five
    failures with their witnesses."""
    holds: list[int] = []
    sample: dict[int, tuple[int, ...]] = {}
    for p in primes_upto(limit):
        res = lagrange_holds(PrimeField(p), n)
        if res.holds:
            holds.append(p)
        elif len(sample) < 5:
            assert res.witness is not None and res.verify()
            sample[p] = res.witness
    return ScanResult(n, limit, tuple(holds), sample)
