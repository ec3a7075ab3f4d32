"""Executable law catalog and the engines that check it against models.

The catalog groups the algebraic laws of the package into named suites:

* ``Md`` — the defining equations of a commutative ring with a totalized,
  involutive inverse satisfying the restricted inverse law ``x*(x*inv(x))==x``.
* ``MdDerived`` — consequences of ``Md`` (kept separate so the derived status
  stays visible in reports).
* ``PseudoLaws`` — facts about the pseudo-unit ``x*inv(x)`` and pseudo-zero
  ``1 - x*inv(x)``.
* ``Signs`` / ``SignsDerived`` — the sign operator, including its guarded
  additivity and a conditional form of it.
* ``ILCancellation`` — the two conditional laws that separate fields from the
  totalized setting: ``x != 0 ==> x*inv(x) == 1`` and multiplicative
  cancellation.
* ``SquareRoots`` / ``SqrtDerived`` — the signed square root.
* ``Showcase`` — one quotient identity whose two sides agree *everywhere*,
  including at the zeros of the denominators, thanks to totalization.
* ``Complex`` / ``ComplexRestricted`` — laws of the complex extension, where
  sign and root read only the real part; the restricted ones are the
  ``SquareRoots`` laws read on real parts.
* ``lagrange(n)`` — ``(1 + sum of n squares) * inv(same) == 1``, the probe
  family that distinguishes models by which sums of squares can vanish.

Every law is stated as terms over named variables, a :class:`ComplexLaw`
over five: two random complex values ``z1`` and ``z2``, their real parts
``x1`` and ``x2``, and the conjugate ``c1`` of ``z1``.  :func:`check_equation`
and :func:`check_conditional` evaluate the other laws either exhaustively
(finite models) or on randomized valuations (exact model).
:func:`check_propagation` tests that multiplying by a pseudo-unit or
pseudo-zero propagates through arbitrary one-hole contexts, and
:func:`check_complex_law` runs the complex suites.  :func:`run_suite`
dispatches a whole suite and returns one report per law.
:func:`verify_f3_argument` replays the mod-3 separation argument with them.

All four checkers share one tally.  Each runs its trials and calls
``refute(valuation, lhs, rhs)`` for every trial whose two sides differ, then
says how many trials had their premises hold and how many were skipped (an
equation has no premises); the tally counts the refutations, keeps the first
:data:`MAX_FAILURES` and builds the :class:`CheckReport`.  Each law is
compiled once per model kind (exact, field or complex) into one Python loop
over all its trials (``terms._compile``), which the law itself holds, so the
code lives exactly as long as the law.  Every kind takes a trial's values by
position, in ``law.variables`` order: prime-field tuples, enumerated or
sampled, or exact or complex values, each trial led by its fresh session,
``[session, v0, v1, ...]``.  The valuation dict is built only for a refuting
trial.  One function, ``_random_valuation``, draws every exact trial, for
laws, propagation and the complex suites alike.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields
from functools import cache, cached_property
from itertools import product
from typing import Callable, Optional, Union

from .approx import _parse_decimal
from .complexes import Complex
from .exact import Real, Session
from .finite import PrimeField
from .terms import (
    Term,
    Var,
    _compile,
    contains_hole,
    eval_exact,
    eval_mod_p,
    fill,
    free_vars,
    gen_random_context,
    gen_random_term,
    parse,
    render,
    substitute,
)

__all__ = [
    "Equation", "ConditionalEquation", "ComplexLaw", "Failure", "CheckReport",
    "Catalog", "catalog", "check_equation", "check_conditional", "check_complex_law",
    "check_propagation", "run_suite", "random_value", "F3Report", "verify_f3_argument",
]

MAX_FAILURES = 20  # refuting valuations kept in a report; all are counted
MAX_EXHAUSTIVE = 10**7  # finite checks enumerate at most this many valuations

Premise = tuple[Term, Term, str]  # (left, right, "eq" | "ne")


@dataclass(frozen=True)
class Equation:
    """An unconditional law: ``lhs == rhs`` for all values of the variables."""

    name: str
    lhs: Term
    rhs: Term
    premises = ()  # not fields: the checker reads both from any law
    strategy = None

    # A law is immutable, so each is computed once; ``cached_property`` keeps
    # it in the instance dict, which equality, hashing and ``replace`` ignore.
    @cached_property
    def variables(self) -> tuple[str, ...]:
        names = free_vars(self.lhs) | free_vars(self.rhs)
        for left, right, _ in self.premises:
            names |= free_vars(left) | free_vars(right)
        return tuple(sorted(names))

    @cached_property
    def statement(self) -> str:
        return f"{render(self.lhs)} == {render(self.rhs)}"

    @cached_property
    def _loops(self) -> dict[str, Callable]:
        return {}  # the compiled trial loop by model kind ("exact", "field", "complex")

    def __getstate__(self) -> dict:  # compiled code cannot be pickled; a copy compiles its own
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __str__(self) -> str:
        return f"{self.name}: {self.statement}"


# How many variables each strategy of a conditional law steers (see
# ``_random_valuation``); the law must have at least that many.
_STEERED_VARIABLES = {None: 0, "match-signs": 2, "match-products": 3}


@dataclass(frozen=True)
class ConditionalEquation:
    """A law of the form ``premises ==> lhs == rhs``.

    Each premise compares two terms with ``"eq"`` or ``"ne"``.  ``strategy``
    (``"match-signs"`` or ``"match-products"``) names a targeted way to build
    valuations that actually satisfy the premises (used for half of the
    randomized trials, so the conclusion is exercised instead of vacuously
    skipped); it steers the first two or three variables, so the law needs
    at least that many.  Any other premise kind or strategy, or a law with
    too few variables for its strategy, raises ``ValueError`` when the law
    is built.
    """

    name: str
    premises: tuple[Premise, ...]
    lhs: Term
    rhs: Term
    strategy: Optional[str] = None

    variables, _loops = Equation.variables, Equation._loops
    __getstate__, __str__ = Equation.__getstate__, Equation.__str__

    def __post_init__(self) -> None:
        if self.strategy not in _STEERED_VARIABLES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        needed, found = _STEERED_VARIABLES[self.strategy], len(self.variables)
        if found < needed:
            raise ValueError(
                f"strategy {self.strategy!r} needs at least {needed} variables, the law has {found}"
            )
        for _, _, kind in self.premises:
            if kind not in ("eq", "ne"):
                raise ValueError(f"unknown premise kind {kind!r}")

    @cached_property
    def statement(self) -> str:
        ops = {"eq": "==", "ne": "!="}
        guards = " and ".join(
            f"{render(l)} {ops[kind]} {render(r)}" for l, r, kind in self.premises
        )
        return f"{guards} ==> {render(self.lhs)} == {render(self.rhs)}"


# How a complex law's statement prints its variables, and how a trial builds
# each from its draw ``[session, re(z), im(z), re(w), im(w)]``.
_SHOWN = {"z1": "z", "z2": "w", "x1": "re(z)", "x2": "re(w)", "c1": "conj(z)"}
_BUILDS = {
    "z1": lambda draw: Complex(draw[1], draw[2]),
    "z2": lambda draw: Complex(draw[3], draw[4]),
    "x1": lambda draw: Complex(draw[1]),
    "x2": lambda draw: Complex(draw[3]),
    "c1": lambda draw: Complex(draw[1], -draw[2]),
}


@dataclass(frozen=True)
class ComplexLaw:
    """A law ``lhs == rhs`` of the complex extension, on random complex ``z``
    and ``w``: its variables are ``z1`` and ``z2`` for them, ``x1`` and ``x2``
    for their real parts and ``c1`` for the conjugate of ``z``.  Any other
    raises ``ValueError`` when the law is built."""

    name: str
    lhs: Term
    rhs: Term
    premises = ()

    variables, _loops = Equation.variables, Equation._loops
    __getstate__, __str__ = Equation.__getstate__, Equation.__str__

    def __post_init__(self) -> None:
        if not _SHOWN.keys() >= set(self.variables):
            raise ValueError(f"a complex law reads only z1, z2, x1, x2 and c1: {self.variables}")

    @cached_property
    def nvars(self) -> int:
        """How many drawn values the variables read: 0, 1 (``z``) or 2."""
        return max((int(name[1]) for name in self.variables), default=0)

    @cached_property
    def statement(self) -> str:  # an equation's, each name printed as ``_SHOWN`` says
        return re.sub(r"\w+", lambda m: _SHOWN.get(m[0], m[0]), Equation.statement.func(self))


Law = Union[Equation, ConditionalEquation, ComplexLaw]


@dataclass(frozen=True)
class Failure:
    """One refuting valuation, with both sides rendered for the report."""

    valuation: dict
    lhs: str
    rhs: str

    def as_dict(self) -> dict:
        return {"valuation": dict(self.valuation), "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class CheckReport:
    """Outcome of checking one law against one model."""

    name: str
    statement: str
    model: str
    mode: str
    trials: int
    failures: list[Failure]
    failure_count: int
    satisfied: Optional[int] = None
    skipped: Optional[int] = None
    seed: Optional[int] = None

    @property
    def verdict(self) -> str:
        return "pass" if self.failure_count == 0 else "fail"

    def to_dict(self) -> dict:
        return {
            "schema": "meadows.check/1",
            "name": self.name,
            "statement": self.statement,
            "model": self.model,
            "mode": self.mode,
            "trials": self.trials,
            "verdict": self.verdict,
            "failure_count": self.failure_count,
            "failures": [f.as_dict() for f in self.failures],
            "satisfied": self.satisfied,
            "skipped": self.skipped,
            "seed": self.seed,
        }

    def __str__(self) -> str:
        extra = ""
        if self.satisfied is not None:
            extra = f" satisfied={self.satisfied} skipped={self.skipped}"
        return (
            f"[{self.verdict.upper():4}] {self.name} over {self.model} "
            f"({self.mode}, {self.trials} trials{extra}, "
            f"{self.failure_count} failures)"
        )


# --------------------------------------------------------------------------
# Catalog
# --------------------------------------------------------------------------


def _pu(expr: str) -> str:
    """Pseudo-unit of an expression: 1 where it is invertible, 0 at 0."""
    return f"({expr}) * inv({expr})"


def _pz(expr: str) -> str:
    """Pseudo-zero of an expression: 0 where it is invertible, 1 at 0."""
    return f"(1 - ({expr}) * inv({expr}))"


def _eq(name: str, lhs: str, rhs: str, law=Equation):
    return law(name, parse(lhs), parse(rhs))


def _cond(
    name: str,
    premises: tuple[tuple[str, str, str], ...],
    lhs: str,
    rhs: str,
    strategy: Optional[str] = None,
) -> ConditionalEquation:
    parsed = tuple((parse(l), parse(r), kind) for l, r, kind in premises)
    return ConditionalEquation(name, parsed, parse(lhs), parse(rhs), strategy)


@dataclass(frozen=True)
class Catalog:
    """All law suites, grouped and immutable: one field per suite, the
    one-law :meth:`lagrange` suites last."""

    Md: tuple[Equation, ...]
    MdDerived: tuple[Equation, ...]
    PseudoLaws: tuple[Equation, ...]
    Signs: tuple[Equation, ...]
    SignsDerived: tuple[Law, ...]
    ILCancellation: tuple[ConditionalEquation, ...]
    SquareRoots: tuple[Equation, ...]
    SqrtDerived: tuple[Equation, ...]
    Showcase: tuple[Equation, ...]
    Complex: tuple[ComplexLaw, ...]
    ComplexRestricted: tuple[ComplexLaw, ...]
    Lagrange1: tuple[Equation, ...]
    Lagrange2: tuple[Equation, ...]
    Lagrange3: tuple[Equation, ...]
    Lagrange4: tuple[Equation, ...]

    def lagrange(self, n: int) -> tuple[Equation, ...]:
        """The n-variable sum-of-squares probe as a one-law suite."""
        if n not in (1, 2, 3, 4):
            raise ValueError("n must be between 1 and 4")
        return getattr(self, f"Lagrange{n}")

    def sets(self) -> dict[str, tuple[Law, ...]]:
        """Every runnable suite, by name (the registry the CLI exposes)."""
        return {name: getattr(self, name) for name in SUITE_NAMES}


# Known without building the catalog, so the CLI's help text parses no law.
SUITE_NAMES = tuple(f.name for f in fields(Catalog))


def _lagrange(n: int) -> tuple[Equation, ...]:
    body = "1 + " + " + ".join(f"x{i} * x{i}" for i in range(1, n + 1))
    return (_eq(f"lagrange-{n}", f"({body}) * inv({body})", "1"),)


def _restricted(laws: tuple[Equation, ...]) -> tuple[ComplexLaw, ...]:
    """``laws`` over ``x`` and ``y`` read on the real parts of ``z`` and ``w``."""
    renamed = lambda t: substitute(substitute(t, "x", Var("x1")), "y", Var("x2"))
    return tuple(
        ComplexLaw(f"restricted-{law.name}", renamed(law.lhs), renamed(law.rhs)) for law in laws
    )


@cache
def catalog() -> Catalog:
    """The (cached) law catalog."""
    square_roots = (
        _eq("sqrt-of-inverse", "sqrt(inv(x))", "inv(sqrt(x))"),
        _eq("sqrt-of-product", "sqrt(x * y)", "sqrt(x) * sqrt(y)"),
        _eq("sqrt-of-signed-square", "sqrt(x * x * s(x))", "x"),
        _eq("sqrt-preserves-order", "s(sqrt(x) - sqrt(y))", "s(x - y)"),
    )
    return Catalog(
        Md=(
            _eq("add-associative", "(x + y) + z", "x + (y + z)"),
            _eq("add-commutative", "x + y", "y + x"),
            _eq("add-zero-identity", "x + 0", "x"),
            _eq("add-negation", "x + (-x)", "0"),
            _eq("mul-associative", "(x * y) * z", "x * (y * z)"),
            _eq("mul-commutative", "x * y", "y * x"),
            _eq("mul-one-identity", "1 * x", "x"),
            _eq("mul-distributes-over-add", "x * (y + z)", "x * y + x * z"),
            _eq("inv-involution", "inv(inv(x))", "x"),
            _eq("restricted-inverse-law", "x * (x * inv(x))", "x"),
        ),
        MdDerived=(
            _eq("inv-one", "inv(1)", "1"),
            _eq("inv-zero", "inv(0)", "0"),
            _eq("inv-of-negation", "inv(-x)", "-inv(x)"),
            _eq("inv-of-product", "inv(x * y)", "inv(x) * inv(y)"),
            _eq("zero-absorbs", "0 * x", "0"),
            _eq("negation-shifts-over-product", "x * (-y)", "-(x * y)"),
            _eq("negation-involution", "-(-x)", "x"),
        ),
        PseudoLaws=(
            _eq("pseudo-partition", f"{_pz('t')} + {_pu('t')}", "1"),
            _eq("pseudo-unit-idempotent", f"({_pu('x')}) * ({_pu('x')})", _pu("x")),
            _eq("pseudo-zero-idempotent", f"({_pz('x')}) * ({_pz('x')})", _pz("x")),
        ),
        Signs=(
            _eq("sign-of-pseudo-unit", f"s({_pu('x')})", _pu("x")),
            _eq("sign-of-pseudo-zero", f"s({_pz('x')})", _pz("x")),
            _eq("sign-of-minus-one", "s(-1)", "-1"),
            _eq("sign-of-inverse", "s(inv(x))", "s(x)"),
            _eq("sign-of-product", "s(x * y)", "s(x) * s(y)"),
            _eq("sign-addition-guard", f"({_pz('s(x) - s(y)')}) * (s(x + y) - s(x))", "0"),
        ),
        SignsDerived=(
            _eq("sign-of-zero", "s(0)", "0"),
            _eq("sign-of-one", "s(1)", "1"),
            _eq("sign-idempotent", "s(s(x))", "s(x)"),
            _cond(
                "sign-addition-same-sign",
                (("s(x)", "s(y)", "eq"),),
                "s(x + y)",
                "s(x)",
                strategy="match-signs",
            ),
        ),
        ILCancellation=(
            _cond(
                "inverse-law-nonzero",
                (("x", "0", "ne"),),
                "x * inv(x)",
                "1",
            ),
            _cond(
                "cancellation-nonzero",
                (("x", "0", "ne"), ("x * y", "x * z", "eq")),
                "y",
                "z",
                strategy="match-products",
            ),
        ),
        SquareRoots=square_roots,
        SqrtDerived=(
            _eq("sqrt-of-sign", "sqrt(s(x))", "s(x)"),
            _eq("sqrt-of-pseudo-unit", f"sqrt({_pu('x')})", _pu("x")),
            _eq("sqrt-of-pseudo-zero", f"sqrt({_pz('x')})", _pz("x")),
            _eq("sqrt-of-negation", "sqrt(-x)", "-sqrt(x)"),
            _eq("sqrt-of-square", "sqrt(x * x)", "x * s(x)"),
        ),
        Showcase=(
            _eq(
                "showcase-quotient",
                "sqrt(1 + b) / sqrt(1 - b^2)",
                "s(1 + b)^2 / sqrt(1 - b)",
            ),
        ),
        Complex=(
            _eq("complex-sign-via-real-part", "s(z1)", "s(x1)", ComplexLaw),
            _eq("complex-sqrt-via-real-part", "sqrt(z1)", "sqrt(x1)", ComplexLaw),
            _eq("complex-real-part-decomposition", "x1", "1/2 * (z1 + c1)", ComplexLaw),
        ),
        ComplexRestricted=_restricted(square_roots),
        Lagrange1=_lagrange(1),
        Lagrange2=_lagrange(2),
        Lagrange3=_lagrange(3),
        Lagrange4=_lagrange(4),
    )


# --------------------------------------------------------------------------
# Model resolution and valuation generation
# --------------------------------------------------------------------------

Model = Union[str, int, PrimeField]


# The base-10 text ``int()`` reads: on a str pattern ``\d`` and ``\s`` are the
# digits and spaces ``int()`` maps, but for U+001C..U+001F, which it refuses.
# ``re`` compiles it at first use, so importing the package does not.
_FP_MODEL = r"fp:[^\S\x1c-\x1f]*([+-]?)(\d(?:_?\d)*)[^\S\x1c-\x1f]*"


def _shown(name) -> str:
    """``repr(name)``, or for a str of over 100 characters its first 40 and its length."""
    if isinstance(name, str) and len(name) > 100:
        return f"{name[:40]!r}… ({len(name)} characters)"
    return repr(name)


def resolve_model(model: Model):
    """``"exact"``, a prime, ``"fp:<p>"`` for any base-10 text ``<p>`` that
    ``int()`` reads (of any length), or a PrimeField instance."""
    if isinstance(model, PrimeField):
        return model
    if isinstance(model, int):
        return PrimeField(model)
    if model == "exact":
        return "exact"
    m = re.fullmatch(_FP_MODEL, model) if isinstance(model, str) else None
    if m is None:
        raise ValueError(f"unknown model {_shown(model)}; use 'exact', 'fp:<p>', or a prime")
    p = _parse_decimal(m[2].replace("_", ""))
    return PrimeField(-p if m[1] == "-" else p)


# What ``random_value`` draws from.  ``rng.choice(range(a, b + 1))`` draws
# exactly as ``rng.randint(a, b)`` does, with fewer frames.
_NUMERATORS, _DENOMINATORS = range(-9, 10), range(1, 10)
_STEPS, _OPS = range(4), range(5)
_SHIFTS, _SCALES = range(-3, 4), range(1, 4)


def random_value(rng: random.Random, session: Session) -> Real:
    """A random exact value: a small rational hit with a few random operations.

    The mix is tuned to produce zeros, negatives, non-squares, and nested
    radicals with useful frequency while keeping tower depth small enough for
    fast arithmetic.  Until its first root the value is a rational, an int
    pair ``p/q`` moved by int operations; :meth:`Session.rational` reduces
    it to a :class:`Real` at that root, or on return if no root is taken,
    and the steps after the root are ``Real`` operations.  The draws from
    ``rng``, the value and the session's tower and root memo are those of
    ``Real`` operations on every step.
    """
    choice = rng.choice
    p, q = choice(_NUMERATORS), choice(_DENOMINATORS)
    steps = choice(_STEPS)
    while steps:  # the value is p/q, reduced when it becomes a Real
        steps -= 1
        op = choice(_OPS)
        if op == 0 and session.depth < 8:
            value = session.rational(p, q).ssqrt()
            break
        if op == 1:
            if p:
                p, q = q, p
        elif op == 3:
            p += choice(_SHIFTS) * q
        elif op == 4:
            p, q = p * choice(_SHIFTS), q * choice(_SCALES)
        else:  # negation, also in place of a root past depth 8
            p = -p
    else:
        return session.rational(p, q)
    for _ in range(steps):
        op = choice(_OPS)
        if op == 0 and session.depth >= 8:
            op = 2
        if op == 0:
            value = value.ssqrt()
        elif op == 1:
            value = value.inv()
        elif op == 2:
            value = -value
        elif op == 3:
            value = value + session.rational(choice(_SHIFTS))
        else:
            value = value * session.rational(choice(_SHIFTS), choice(_SCALES))
    return value


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------


def _pick_mode(resolved, mode: Optional[str], nvars: int) -> str:
    if mode not in (None, "exhaustive", "randomized"):
        raise ValueError(f"unknown mode {mode!r}")
    if resolved == "exact":
        if mode == "exhaustive":
            raise ValueError("exhaustive checking needs a finite model")
        return "randomized"
    count = resolved.p**nvars
    if mode is None:
        return "exhaustive" if count <= MAX_EXHAUSTIVE else "randomized"
    if mode == "exhaustive" and count > MAX_EXHAUSTIVE:
        raise ValueError(
            f"exhaustive checking would enumerate {count} valuations, "
            f"more than the cap of {MAX_EXHAUSTIVE}"
        )
    return mode


def _check(
    run, name, statement, model, mode, trials, seed, conditional=False
) -> CheckReport:
    """The one tally of every checker.

    ``run(refute)`` runs a law's trials, calls ``refute(valuation, lhs,
    rhs)`` for each whose premises hold and whose sides differ, and returns
    how many trials had their premises hold and how many did not.  Only a
    ``conditional`` report carries those two counts.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    failures: list[Failure] = []
    count = 0

    def refute(valuation: dict, lhs, rhs) -> None:
        nonlocal count
        count += 1
        if len(failures) < MAX_FAILURES:
            shown = {var: str(value) for var, value in valuation.items()}
            failures.append(Failure(shown, str(lhs), str(rhs)))

    satisfied, skipped = run(refute)
    counts = (satisfied, skipped) if conditional else (None, None)
    return CheckReport(
        name, statement, model, mode, satisfied + skipped, failures, count, *counts, seed
    )


def _random_valuation(rng, nvars: int, strategy=None, trial: int = 0) -> list:
    """``[session, v0, v1, ...]``: ``nvars`` random exact values in a fresh
    session, the one draw of every exact trial; on odd trials ``strategy``
    steers them so a conditional's premises hold."""
    session = Session()
    values = [session, *(random_value(rng, session) for _ in range(nvars))]
    if strategy is None or trial % 2 == 0:
        return values
    if strategy == "match-signs":
        scale = session.rational(rng.randint(1, 9), rng.randint(1, 9))
        values[2] = values[1] * scale
    else:  # "match-products"
        for _ in range(20):
            if not values[1].is_zero():
                break
            values[1] = random_value(rng, session)
        else:
            values[1] = session.one
        values[3] = values[2]
    return values


def _loop(law, kind: str):
    """The law's trial loop for a model kind, compiled at its first check."""
    if kind not in law._loops:
        law._loops[kind] = _compile(law.variables, law.premises, law.lhs, law.rhs, kind)
    return law._loops[kind]


def _check_law(law, model, mode, trials, seed):
    """Run an equation or conditional equation's compiled loop over exact
    draws, each trial led by its fresh session, or over field tuples
    enumerated in ``product`` order or sampled."""
    resolved = resolve_model(model)
    nvars = len(law.variables)
    picked = _pick_mode(resolved, mode, nvars)
    exact = resolved == "exact"
    loop = _loop(law, "exact" if exact else "field")
    if picked == "exhaustive":
        valuations = product(resolved.elements(), repeat=nvars)
    elif exact:
        rng = random.Random(seed)
        valuations = (_random_valuation(rng, nvars, law.strategy, t) for t in range(trials))
    else:
        draw, p = random.Random(seed).randrange, resolved.p
        valuations = (tuple(draw(p) for _ in range(nvars)) for _ in range(trials))
    return _check(
        lambda refute: loop(valuations, resolved, refute),
        law.name,
        law.statement,
        "exact" if exact else f"fp:{resolved.p}",
        picked,
        trials,
        None if picked == "exhaustive" else seed,
        isinstance(law, ConditionalEquation),
    )


def check_equation(
    eq: Equation,
    model: Model = "exact",
    *,
    mode: Optional[str] = None,
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Check one law against a model; its premises and strategy come from the law."""
    return _check_law(eq, model, mode, trials, seed)


def check_conditional(
    cond: ConditionalEquation,
    model: Model = "exact",
    *,
    mode: Optional[str] = None,
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Check a law's conclusion on valuations where its premises hold; other
    valuations count as skipped.  Premises and strategy come from the law."""
    return _check_law(cond, model, mode, trials, seed)


def _propagation_trials(kind: str, fixed_context, trials: int, seed: int, refute):
    guard = Real.pseudo_zero if kind == "zero" else Real.pseudo_unit
    rng = random.Random(seed)
    for _ in range(trials):
        context = (
            fixed_context
            if fixed_context is not None
            else gen_random_context(None, 7, rng=rng)
        )
        plug = gen_random_term(None, 7, rng=rng)
        names = free_vars(context) | free_vars(plug)
        fresh, i = "t", 0
        while fresh in names:
            i += 1
            fresh = f"t{i}"
        names = sorted(names | {fresh})
        session, *values = _random_valuation(rng, len(names))
        valuation = dict(zip(names, values))
        u, r = guard(valuation[fresh]), eval_exact(plug, valuation, session)
        outer = fill(context, Var("[]"))  # the hole as a variable no parse can name
        lhs = u * eval_exact(outer, {**valuation, "[]": r}, session)
        rhs = u * eval_exact(outer, {**valuation, "[]": u * r}, session)
        if lhs != rhs:  # a failure names its context and plugged term
            valuation["[context]"] = render(context)
            valuation["[plug]"] = render(plug)
            refute(valuation, lhs, rhs)
    return trials, 0


def check_propagation(
    kind: str,
    *,
    trials: int = 1000,
    seed: int = 0,
    fixed_context: Optional[Term] = None,
) -> CheckReport:
    """Pseudo-unit/zero propagation through one-hole contexts (exact model).

    For ``u`` the pseudo-unit (``kind="unit"``) or pseudo-zero
    (``kind="zero"``) of a fresh variable, checks

        u * C[r]  ==  u * C[u * r]

    over random contexts ``C`` (or ``fixed_context``) and plugged terms ``r``
    of at most 7 nodes, and random valuations of all variables.  ``u`` comes
    from the kernel; a trial evaluates ``r`` once and ``C`` once per side.
    A ``fixed_context`` with no hole ``[]`` raises ``ValueError``.
    """
    if kind not in ("unit", "zero"):
        raise ValueError("kind must be 'unit' or 'zero'")
    if fixed_context is not None and not contains_hole(fixed_context):
        raise ValueError("fixed_context has no hole []")
    return _check(
        lambda refute: _propagation_trials(kind, fixed_context, trials, seed, refute),
        f"propagation-{kind}",
        f"u * C[r] == u * C[u * r] for the pseudo-{kind} u",
        "exact",
        "randomized",
        trials,
        seed,
    )


def check_complex_law(
    law: ComplexLaw, *, trials: int = 500, seed: int = 0
) -> CheckReport:
    """Check one complex-extension law on random complex values, each of its
    variables built straight from the parts drawn for its value."""
    rng, builds = random.Random(seed), [_BUILDS[name] for name in law.variables]
    draws = (_random_valuation(rng, 2 * law.nvars) for _ in range(trials))
    valuations = ([draw[0], *[build(draw) for build in builds]] for draw in draws)
    run = lambda refute: _loop(law, "complex")(valuations, None, refute)
    return _check(run, law.name, law.statement, "complex", "randomized", trials, seed)


def run_suite(
    name: str,
    model: Model = "exact",
    *,
    mode: Optional[str] = None,
    trials: int = 1000,
    seed: int = 0,
) -> list[CheckReport]:
    """Check every law in a named suite; one report per law."""
    suites = catalog().sets()
    if name not in suites:
        known = ", ".join(sorted(suites))
        raise ValueError(f"unknown suite {_shown(name)}; known suites: {known}")
    resolved = resolve_model(model)  # once: building a field tests p for primality
    reports = []
    for law in suites[name]:
        if isinstance(law, ComplexLaw):
            if resolved != "exact":
                raise ValueError("complex laws only run on the exact model")
            _pick_mode(resolved, mode, 0)  # refuses an unknown or exhaustive mode
            reports.append(check_complex_law(law, trials=trials, seed=seed))
        else:  # the law tells the checker whether it is conditional
            reports.append(check_equation(law, resolved, mode=mode, trials=trials, seed=seed))
    return reports


# --------------------------------------------------------------------------
# The mod-3 separation argument
# --------------------------------------------------------------------------


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
    fp = PrimeField(3)
    laws = catalog().Md + catalog().lagrange(1)
    ok = all(check_equation(eq, fp, mode="exhaustive").verdict == "pass" for eq in laws)
    term = parse("(1 + 1 + 1) / (1 + 1 + 1)")
    finite_value = eval_mod_p(term, {}, fp)
    exact_value = str(eval_exact(term, {}, Session()))
    return F3Report(
        squares_mod_3=tuple(sorted(fp.squares)),
        md_and_l1_pass=ok,
        display_term=render(term),
        finite_value=finite_value,
        exact_value=exact_value,
        homomorphism_impossible=(finite_value == 0 and exact_value == "1"),
    )
