"""Totalized prime fields and sum-of-squares (Lagrange) probes.

A :class:`PrimeField` is ``Z/pZ`` with inversion made total by ``inv(0) == 0``
— the finite counterpart of the exact kernel.  Residues are plain ints in
``range(p)``; the field object owns the modulus and the precomputed set of
squares.

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

    __slots__ = ("p", "squares", "_smallest_root")

    def __init__(self, p: int) -> None:
        if p < 2:
            raise NotPrimeError(p, None)
        f = _smallest_factor(p)
        if f is not None:
            raise NotPrimeError(p, f)
        self.p = p
        self.squares = frozenset((x * x) % p for x in range(p))
        self._smallest_root: Optional[dict[int, int]] = None

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
        if self._smallest_root is None:
            table: dict[int, int] = {}
            for x in range(self.p):
                table.setdefault((x * x) % self.p, x)
            self._smallest_root = table
        return self._smallest_root.get(a % self.p)

    def self_check(self, trials_cap: int = 10**6) -> None:
        """Exhaustively re-verify the defining laws on this field.

        Delegates to the axiom engine; intended for small p (the acceptance
        suite runs it for p <= 13).
        """
        from .axioms import run_suite

        for name in ("Md", "MdDerived", "PseudoLaws", "ILCancellation"):
            for report in run_suite(name, self, max_exhaustive=trials_cap):
                if report.verdict != "pass":
                    raise AssertionError(f"{report.name} fails over F_{self.p}")

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


def scan_lagrange(n: int, limit: int, sample_size: int = 5) -> ScanResult:
    """Probe every prime up to ``limit``; collect holders and a failure sample."""
    holds: list[int] = []
    sample: dict[int, tuple[int, ...]] = {}
    for p in primes_upto(limit):
        res = lagrange_holds(PrimeField(p), n)
        if res.holds:
            holds.append(p)
        elif len(sample) < sample_size:
            assert res.witness is not None and res.verify()
            sample[p] = res.witness
    return ScanResult(n, limit, tuple(holds), sample)


@dataclass(frozen=True)
class F3Report:
    """The mod-3 obstruction to mapping the exact world onto a finite one.

    ``F_3`` satisfies both the meadow laws and the one-variable Lagrange
    identity, yet evaluates ``(1+1+1) * inv(1+1+1)`` to 0 where the exact
    kernel gives 1 — so no identity-preserving homomorphism from the exact
    model onto ``F_3`` can exist.
    """

    squares_mod_3: tuple[int, ...]
    md_and_l1_pass: bool
    display_term: str
    finite_value: int
    exact_value: str
    homomorphism_impossible: bool

    def as_dict(self) -> dict:
        return {
            "schema": "meadows.f3/1",
            "squares_mod_3": list(self.squares_mod_3),
            "md_and_l1_pass": self.md_and_l1_pass,
            "display_term": self.display_term,
            "finite_value": self.finite_value,
            "exact_value": self.exact_value,
            "homomorphism_impossible": self.homomorphism_impossible,
        }


def verify_f3_argument() -> F3Report:
    """Recompute, from scratch, each step of the mod-3 separation argument."""
    from .axioms import catalog, check_equation
    from .exact import Session
    from .simplify import value_to_term
    from .terms import eval_mod_p, eval_exact, parse, render

    fp = PrimeField(3)
    squares = tuple(sorted(fp.squares))

    ok = True
    for eq in catalog().Md + catalog().lagrange(1):
        report = check_equation(eq, fp, mode="exhaustive")
        ok = ok and report.verdict == "pass"

    term = parse("(1 + 1 + 1) / (1 + 1 + 1)")
    finite_value = eval_mod_p(term, {}, fp)
    session = Session()
    exact_value = render(value_to_term(eval_exact(term, {}, session)))
    return F3Report(
        squares_mod_3=squares,
        md_and_l1_pass=ok,
        display_term=render(term),
        finite_value=finite_value,
        exact_value=exact_value,
        homomorphism_impossible=(finite_value == 0 and exact_value == "1"),
    )
