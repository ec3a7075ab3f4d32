"""Totalized prime fields and sum-of-squares (Lagrange) probes.

A :class:`PrimeField` is ``Z/pZ`` with inversion made total by ``inv(0) == 0``
— the finite counterpart of the exact kernel.  Residues are plain ints in
``range(p)``; the field object holds only the modulus.  The modulus is proved
prime by trial division up to 1000 and deterministic Miller–Rabin above, and
square roots come from Euler's criterion and Tonelli–Shanks, so both cost
time polynomial in the bit length of ``p``.  The module imports nothing from
the rest of the package.

The *Lagrange probe* for exponent ``n`` asks whether the identity

    (1 + x_1^2 + ... + x_n^2) * inv(1 + x_1^2 + ... + x_n^2) == 1

holds for all residues, i.e. whether ``1 + sum of n squares`` can ever hit 0
(the totalized quotient then collapses to 0, refuting the identity).
:func:`lagrange_holds` decides this with an explicit witness and
:func:`scan_lagrange` sweeps all primes up to a bound, deciding each prime
without a search (Euler's criterion at n = 1; from n = 2 on every residue is
a sum of two squares) and building witnesses only for its sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import isqrt
from typing import Optional

__all__ = [
    "PrimeField", "NotPrimeError",
    "LagrangeResult", "lagrange_holds", "ScanResult", "scan_lagrange", "primes_upto",
]


class NotPrimeError(ValueError):
    """Modulus rejected; carries the smallest witness factor when one was
    found by trial division, else None (``n < 2`` or a Miller–Rabin witness)."""

    def __init__(
        self, n: int, smallest_factor: Optional[int], witness: Optional[int] = None
    ) -> None:
        n = _shown(n)
        if smallest_factor is not None:
            super().__init__(f"{n} is not a prime: divisible by {smallest_factor}")
        elif witness is not None:
            super().__init__(f"{n} is not a prime (Miller–Rabin witness {witness})")
        else:
            super().__init__(f"{n} is not a prime (need p >= 2)")
        self.smallest_factor = smallest_factor


def _shown(n: int) -> str:
    """``n`` for a message: its decimal digits, or ``a <k>-bit number`` from
    100 digits on, which keeps the message short and clear of CPython's
    int-to-str digit limit."""
    if -(10**99) < n < 10**99:
        return str(n)
    return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit number"


_TRIAL_BOUND = 1000
# Miller–Rabin with the first 13 prime bases decides primality of every
# n < _MILLER_RABIN_LIMIT (Sorenson and Webster 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def _odd_part(n: int) -> tuple[int, int]:
    """``(q, s)`` with ``n == q * 2**s`` and q odd, for n > 0."""
    s = (n & -n).bit_length() - 1
    return n >> s, s


def _smallest_factor(n: int) -> Optional[int]:
    """Smallest nontrivial factor up to ``min(isqrt(n), 1000)``, or None when
    n >= 2 is prime.

    Trial division settles every n below 1001**2; above that, deterministic
    Miller–Rabin raises :class:`NotPrimeError` for a composite with no small
    factor, and ``ValueError`` when n is too large for its bases to decide.
    """
    if n % 2 == 0:
        return 2 if n > 2 else None
    root = isqrt(n)
    for d in range(3, min(root, _TRIAL_BOUND) + 1, 2):
        if n % d == 0:
            return d
    if root <= _TRIAL_BOUND:
        return None
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(
            f"cannot decide whether {_shown(n)} is prime: it has no factor up to "
            f"{_TRIAL_BOUND} and is at least {_MILLER_RABIN_LIMIT}"
        )
    q, s = _odd_part(n - 1)
    for a in _MILLER_RABIN_BASES:
        x = pow(a, q, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            raise NotPrimeError(n, None, witness=a)
    return None


def _tonelli_shanks(a: int, p: int) -> int:
    """A square root of a nonzero square ``a`` mod an odd prime ``p``
    (Shanks 1973): O(log p) multiplications per loop, at most log p loops."""
    q, m = _odd_part(p - 1)
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # up to the least non-residue
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    # Invariants: r*r == a*t, t has order 2**i for some i < m, c has order 2**m.
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class PrimeField:
    """``Z/pZ`` with totalized inversion. ``p`` is verified prime on build."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if p < 2:
            raise NotPrimeError(p, None)
        f = _smallest_factor(p)
        if f is not None:
            raise NotPrimeError(p, f)
        self.p = p

    @classmethod
    def _of_prime(cls, p: int) -> PrimeField:
        """The field of ``p``, which the caller knows to be prime: not re-proved."""
        fp = cls.__new__(cls)
        fp.p = p
        return fp

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
        p = self.p
        a %= p
        if a == 0 or p == 2:
            return a
        if not _is_sum_of_squares(p, 1, a):
            return None
        r = pow(a, (p + 1) // 4, p) if p % 4 == 3 else _tonelli_shanks(a, p)
        # A nonzero square has exactly the two roots r and p - r.
        return min(r, p - r)

    @property
    def squares(self) -> frozenset[int]:
        """The squares mod p, 0 included.  x and p - x share a square, so
        0..p // 2 reach them all."""
        return frozenset(x * x % self.p for x in range(self.p // 2 + 1))

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
    return None  # not reached: from n = 2 on every residue is one (``_is_sum_of_squares``)


def _is_sum_of_squares(p: int, n: int, target: int) -> bool:
    """Is ``target`` (in ``range(p)``) a sum of n squares mod the prime p?

    At n = 1 this is Euler's criterion: a nonzero ``target`` is a square mod
    an odd p exactly when ``target**((p-1)/2) == 1``.  From n = 2 on every
    residue is one: mod an odd p the (p+1)/2 values ``x*x`` and the (p+1)/2
    values ``target - y*y`` must meet, and mod 2 every residue is a square."""
    return n > 1 or target == 0 or p == 2 or pow(target, (p - 1) >> 1, p) == 1


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


#: The largest limit :func:`primes_upto`, and so :func:`scan_lagrange`,
#: accepts.  The sieve holds a byte per number: to 10**7 it took 0.33–0.42 s,
#: and a scan for n = 1 took 1.1–1.3 s with a 53 MiB peak RSS (x86_64 shared
#: VM, CPython 3.11.7, fresh interpreter).
MAX_SIEVE_LIMIT = 10**7


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit by a plain sieve, for ``limit`` up to
    :data:`MAX_SIEVE_LIMIT`."""
    if limit > MAX_SIEVE_LIMIT:
        raise ValueError(f"limit is over the cap of {MAX_SIEVE_LIMIT}")
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for d in range(2, isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    return list(compress(range(limit + 1), sieve))


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
    failures with their witnesses.

    Each prime is decided by :func:`_is_sum_of_squares` on ``-1``, with no
    search (Euler's criterion at n = 1, true from n = 2 on);
    :func:`lagrange_holds` builds a witness only for the five primes of the
    sample."""
    if not 1 <= n <= 4:  # checked here too: no prime up to limit may check it
        raise ValueError("n must be between 1 and 4")
    holds: list[int] = []
    sample: dict[int, tuple[int, ...]] = {}
    for p in primes_upto(limit):
        if not _is_sum_of_squares(p, n, p - 1):
            holds.append(p)
        elif len(sample) < 5:
            res = lagrange_holds(PrimeField._of_prime(p), n)
            assert not res.holds and res.witness is not None and res.verify()
            sample[p] = res.witness
    return ScanResult(n, limit, tuple(holds), sample)
