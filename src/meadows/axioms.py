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
  sign and root read only the real part.
* ``lagrange(n)`` — ``(1 + sum of n squares) * inv(same) == 1``, the probe
  family that distinguishes models by which sums of squares can vanish.

Equations and conditional equations are stated as terms over named variables;
:func:`check_equation` and :func:`check_conditional` evaluate them either
exhaustively (finite models) or on randomized valuations (exact model).
:func:`check_propagation` tests that multiplying by a pseudo-unit or
pseudo-zero propagates through arbitrary one-hole contexts, and
:func:`check_complex_law` runs the complex suites.  :func:`run_suite`
dispatches a whole suite and returns one report per law.
:func:`verify_f3_argument` replays the mod-3 separation argument with them.

All four checkers run one checking loop.  Each supplies a generator with one
outcome per trial: ``(valuation, lhs, rhs)`` when the trial's premises hold
(an equation has none), or ``None`` when they fail.  The loop counts the
trials, keeps the first :data:`MAX_FAILURES` refutations and builds the
:class:`CheckReport`.  An equation or conditional equation is compiled once
per model kind into straight-line code (``terms._compile``), which every
trial runs; the compiled code lives as long as the law.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Union
from weakref import finalize

from .complexes import Complex
from .exact import Real, Session
from .finite import PrimeField
from .simplify import value_to_term
from .terms import (
    Mul,
    Term,
    _compile,
    eval_exact,
    eval_mod_p,
    fill,
    free_vars,
    gen_random_context,
    gen_random_term,
    parse,
    render,
)

MAX_FAILURES = 20  # refuting valuations kept in a report; all are counted
MAX_EXHAUSTIVE = 10**7  # finite checks enumerate at most this many valuations

Premise = tuple[Term, Term, str]  # (left, right, "eq" | "ne")


@dataclass(frozen=True)
class Equation:
    """An unconditional law: ``lhs == rhs`` for all values of the variables."""

    name: str
    lhs: Term
    rhs: Term

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(free_vars(self.lhs) | free_vars(self.rhs)))

    @property
    def statement(self) -> str:
        return f"{render(self.lhs)} == {render(self.rhs)}"

    def __str__(self) -> str:
        return f"{self.name}: {self.statement}"


@dataclass(frozen=True)
class ConditionalEquation:
    """A law of the form ``premises ==> lhs == rhs``.

    Each premise compares two terms with ``"eq"`` or ``"ne"``.  ``strategy``
    names a targeted way to build valuations that actually satisfy the
    premises (used for half of the randomized trials, so the conclusion is
    exercised instead of vacuously skipped).
    """

    name: str
    premises: tuple[Premise, ...]
    lhs: Term
    rhs: Term
    strategy: Optional[str] = None

    @property
    def variables(self) -> tuple[str, ...]:
        names = free_vars(self.lhs) | free_vars(self.rhs)
        for left, right, _ in self.premises:
            names |= free_vars(left) | free_vars(right)
        return tuple(sorted(names))

    @property
    def statement(self) -> str:
        ops = {"eq": "==", "ne": "!="}
        guards = " and ".join(
            f"{render(l)} {ops[kind]} {render(r)}" for l, r, kind in self.premises
        )
        return f"{guards} ==> {render(self.lhs)} == {render(self.rhs)}"

    def __str__(self) -> str:
        return f"{self.name}: {self.statement}"


@dataclass(frozen=True)
class ComplexLaw:
    """A law of the complex extension, stated directly on model values.

    ``fn(session, *values)`` returns the two sides to compare; ``nvars`` is
    how many complex values it takes.
    """

    name: str
    nvars: int
    statement: str
    fn: Callable[..., tuple[Complex, Complex]] = field(repr=False)

    def __str__(self) -> str:
        return f"{self.name}: {self.statement}"


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


def _eq(name: str, lhs: str, rhs: str) -> Equation:
    return Equation(name, parse(lhs), parse(rhs))


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
    """All law suites, grouped and immutable."""

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

    def lagrange(self, n: int) -> tuple[Equation, ...]:
        """The n-variable sum-of-squares probe as a one-law suite."""
        if n not in _LAGRANGE_SIZES:
            raise ValueError("n must be between 1 and 4")
        return self._suites[f"Lagrange{n}"]

    def sets(self) -> dict[str, tuple[Law, ...]]:
        """Every runnable suite, by name (the registry the CLI exposes)."""
        return dict(self._suites)

    @cached_property
    def _suites(self) -> dict[str, tuple[Law, ...]]:
        named = {f.name: getattr(self, f.name) for f in fields(self)}
        for n in _LAGRANGE_SIZES:
            body = "1 + " + " + ".join(f"x{i} * x{i}" for i in range(1, n + 1))
            law = _eq(f"lagrange-{n}", f"({body}) * inv({body})", "1")
            named[f"Lagrange{n}"] = (law,)
        return named


_LAGRANGE_SIZES = range(1, 5)
# Known without building the catalog, so the CLI's help text parses no law.
SUITE_NAMES = tuple(f.name for f in fields(Catalog)) + tuple(
    f"Lagrange{n}" for n in _LAGRANGE_SIZES
)


def _complex_laws() -> tuple[ComplexLaw, ...]:
    def sign_via_real(session: Session, z: Complex):
        return z.sign(), z.re_part().sign()

    def sqrt_via_real(session: Session, z: Complex):
        return z.ssqrt(), z.re_part().ssqrt()

    def real_part_decomposition(session: Session, z: Complex):
        half = Complex.from_parts(session, Fraction(1, 2))
        return z.re_part(), (z + z.conj()) * half

    return (
        ComplexLaw("complex-sign-via-real-part", 1, "s(z) == s(re(z))", sign_via_real),
        ComplexLaw(
            "complex-sqrt-via-real-part", 1, "sqrt(z) == sqrt(re(z))", sqrt_via_real
        ),
        ComplexLaw(
            "complex-real-part-decomposition",
            1,
            "re(z) == 1/2 * (z + conj(z))",
            real_part_decomposition,
        ),
    )


def _complex_restricted_laws() -> tuple[ComplexLaw, ...]:
    def sqrt_of_inverse(session: Session, z: Complex):
        x = z.re_part()
        return x.inv().ssqrt(), x.ssqrt().inv()

    def sqrt_of_product(session: Session, z: Complex, w: Complex):
        x, y = z.re_part(), w.re_part()
        return (x * y).ssqrt(), x.ssqrt() * y.ssqrt()

    def sqrt_of_signed_square(session: Session, z: Complex):
        x = z.re_part()
        return (x * x * x.sign()).ssqrt(), x

    def sqrt_preserves_order(session: Session, z: Complex, w: Complex):
        x, y = z.re_part(), w.re_part()
        return (x.ssqrt() - y.ssqrt()).sign(), (x - y).sign()

    return (
        ComplexLaw(
            "restricted-sqrt-of-inverse",
            1,
            "sqrt(inv(re(z))) == inv(sqrt(re(z)))",
            sqrt_of_inverse,
        ),
        ComplexLaw(
            "restricted-sqrt-of-product",
            2,
            "sqrt(re(z) * re(w)) == sqrt(re(z)) * sqrt(re(w))",
            sqrt_of_product,
        ),
        ComplexLaw(
            "restricted-sqrt-of-signed-square",
            1,
            "sqrt(re(z) * re(z) * s(re(z))) == re(z)",
            sqrt_of_signed_square,
        ),
        ComplexLaw(
            "restricted-sqrt-preserves-order",
            2,
            "s(sqrt(re(z)) - sqrt(re(w))) == s(re(z) - re(w))",
            sqrt_preserves_order,
        ),
    )


_CATALOG: Optional[Catalog] = None


def catalog() -> Catalog:
    """The (cached) law catalog."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = Catalog(
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
                _eq(
                    "sign-addition-guard",
                    f"({_pz('s(x) - s(y)')}) * (s(x + y) - s(x))",
                    "0",
                ),
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
            SquareRoots=(
                _eq("sqrt-of-inverse", "sqrt(inv(x))", "inv(sqrt(x))"),
                _eq("sqrt-of-product", "sqrt(x * y)", "sqrt(x) * sqrt(y)"),
                _eq("sqrt-of-signed-square", "sqrt(x * x * s(x))", "x"),
                _eq("sqrt-preserves-order", "s(sqrt(x) - sqrt(y))", "s(x - y)"),
            ),
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
            Complex=_complex_laws(),
            ComplexRestricted=_complex_restricted_laws(),
        )
    return _CATALOG


# --------------------------------------------------------------------------
# Model resolution and valuation generation
# --------------------------------------------------------------------------

Model = Union[str, int, PrimeField]


def resolve_model(model: Model):
    """``"exact"``, a prime, ``"fp:<p>"``, or a PrimeField instance."""
    if isinstance(model, PrimeField):
        return model
    if isinstance(model, int):
        return PrimeField(model)
    if model == "exact":
        return "exact"
    if isinstance(model, str) and model.startswith("fp:"):
        return PrimeField(int(model[3:]))
    raise ValueError(f"unknown model {model!r}; use 'exact', 'fp:<p>', or a prime")


def _model_name(resolved) -> str:
    return "exact" if resolved == "exact" else f"fp:{resolved.p}"


def random_value(rng: random.Random, session: Session) -> Real:
    """A random exact value: a small rational hit with a few random operations.

    The mix is tuned to produce zeros, negatives, non-squares, and nested
    radicals with useful frequency while keeping tower depth small enough for
    fast arithmetic.
    """
    value = session.rational(rng.randint(-9, 9), rng.randint(1, 9))
    for _ in range(rng.randint(0, 3)):
        op = rng.randrange(5)
        if op == 0 and session.depth >= 8:
            op = 2
        if op == 0:
            value = value.ssqrt()
        elif op == 1:
            value = value.inv()
        elif op == 2:
            value = -value
        elif op == 3:
            value = value + session.rational(rng.randint(-3, 3))
        else:
            value = value * session.rational(rng.randint(-3, 3), rng.randint(1, 3))
    return value


def _failure(valuation: dict, lhs, rhs) -> Failure:
    shown = {name: str(value) for name, value in valuation.items()}
    return Failure(shown, str(lhs), str(rhs))


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
    outcomes, name, statement, model, mode, trials, seed, conditional=False
) -> CheckReport:
    """The one checking loop: tally the outcomes of a law's trials.

    Each outcome is ``(valuation, lhs, rhs)`` for a trial whose premises hold,
    or ``None`` for one whose premises fail.  Only a ``conditional`` report
    carries the ``satisfied`` and ``skipped`` counts.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    failures: list[Failure] = []
    count = satisfied = skipped = 0
    for outcome in outcomes:
        if outcome is None:
            skipped += 1
            continue
        satisfied += 1
        valuation, lhs, rhs = outcome
        if lhs != rhs:
            count += 1
            if len(failures) < MAX_FAILURES:
                failures.append(_failure(valuation, lhs, rhs))
    report = CheckReport(
        name, statement, model, mode, satisfied + skipped, failures, count, seed=seed
    )
    if conditional:
        report.satisfied, report.skipped = satisfied, skipped
    return report


def _random_valuation(rng, variables, strategy, trial: int):
    """Random exact values in a fresh session; on odd trials ``strategy``
    steers them so a conditional's premises hold."""
    session = Session()
    valuation = {name: random_value(rng, session) for name in variables}
    if strategy is None or trial % 2 == 0:
        return valuation, session
    if strategy == "match-signs":
        a, b = variables[0], variables[1]
        scale = session.rational(rng.randint(1, 9), rng.randint(1, 9))
        valuation[b] = valuation[a] * scale
    elif strategy == "match-products":
        a, b, c = variables[0], variables[1], variables[2]
        for _ in range(20):
            if not valuation[a].is_zero():
                break
            valuation[a] = random_value(rng, session)
        else:
            valuation[a] = session.one
        valuation[c] = valuation[b]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return valuation, session


# Each law's compiled evaluators by model kind (exact or not), keyed by the
# law's id because hashing a law re-hashes every node of its terms.  A
# finalizer drops the entry when the law is collected, before its id can be
# reused, so an entry lives exactly as long as its law.
_COMPILED: dict[int, dict[bool, Callable]] = {}


def _compiled(law, premises, exact: bool):
    by_kind = _COMPILED.get(id(law))
    if by_kind is None:
        by_kind = _COMPILED[id(law)] = {}
        finalize(law, _COMPILED.pop, id(law), None)
    evaluate = by_kind.get(exact)
    if evaluate is None:
        evaluate = by_kind[exact] = _compile(premises, law.lhs, law.rhs, exact)
    return evaluate


def _law_outcomes(law, premises, strategy, variables, resolved, picked, trials, seed):
    """Trial outcomes of an equation or conditional equation: exact values in
    a fresh session per trial, or field elements enumerated or sampled, each
    run through the law's compiled code."""
    exact = resolved == "exact"
    evaluate, domain = _compiled(law, premises, exact), resolved
    if exact:
        rng = random.Random(seed)
        assignments = range(trials)
    elif picked == "exhaustive":
        assignments = product(resolved.elements(), repeat=len(variables))
    else:
        rng = random.Random(seed)
        assignments = (
            tuple(rng.randrange(resolved.p) for _ in variables) for _ in range(trials)
        )
    for assignment in assignments:
        if exact:
            valuation, domain = _random_valuation(rng, variables, strategy, assignment)
        else:
            valuation = dict(zip(variables, assignment))
        sides = evaluate(valuation, domain)
        yield None if sides is None else (valuation, *sides)


def _check_law(law, premises, strategy, model, mode, trials, seed, *, conditional):
    resolved = resolve_model(model)
    variables = law.variables
    picked = _pick_mode(resolved, mode, len(variables))
    return _check(
        _law_outcomes(
            law, premises, strategy, variables, resolved, picked, trials, seed
        ),
        law.name,
        law.statement,
        _model_name(resolved),
        picked,
        trials,
        None if picked == "exhaustive" else seed,
        conditional,
    )


def check_equation(
    eq: Equation,
    model: Model = "exact",
    *,
    mode: Optional[str] = None,
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Check one unconditional law against a model."""
    return _check_law(eq, (), None, model, mode, trials, seed, conditional=False)


def check_conditional(
    cond: ConditionalEquation,
    model: Model = "exact",
    *,
    mode: Optional[str] = None,
    trials: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Check a conditional law: the conclusion, on valuations where the
    premises hold; other valuations count as skipped."""
    return _check_law(
        cond, cond.premises, cond.strategy, model, mode, trials, seed, conditional=True
    )


def _propagation_outcomes(kind: str, fixed_context, trials: int, seed: int):
    rng = random.Random(seed)
    for _ in range(trials):
        session = Session()
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
        guard = parse(_pz(fresh) if kind == "zero" else _pu(fresh))
        lhs_term = Mul(guard, fill(context, plug))
        rhs_term = Mul(guard, fill(context, Mul(guard, plug)))
        valuation = {
            name: random_value(rng, session) for name in sorted(names | {fresh})
        }
        lhs = eval_exact(lhs_term, valuation, session)
        rhs = eval_exact(rhs_term, valuation, session)
        if lhs != rhs:  # a failure names its context and plugged term
            valuation["[context]"] = render(context)
            valuation["[plug]"] = render(plug)
        yield valuation, lhs, rhs


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
    of at most 7 nodes, and random valuations of all variables.
    """
    if kind not in ("unit", "zero"):
        raise ValueError("kind must be 'unit' or 'zero'")
    return _check(
        _propagation_outcomes(kind, fixed_context, trials, seed),
        f"propagation-{kind}",
        f"u * C[r] == u * C[u * r] for the pseudo-{kind} u",
        "exact",
        "randomized",
        trials,
        seed,
    )


def _complex_outcomes(law: ComplexLaw, trials: int, seed: int):
    rng = random.Random(seed)
    for _ in range(trials):
        session = Session()
        values = [
            Complex(random_value(rng, session), random_value(rng, session))
            for _ in range(law.nvars)
        ]
        lhs, rhs = law.fn(session, *values)
        yield {f"z{i + 1}": z for i, z in enumerate(values)}, lhs, rhs


def check_complex_law(
    law: ComplexLaw, *, trials: int = 500, seed: int = 0
) -> CheckReport:
    """Check one complex-extension law on random complex values."""
    return _check(
        _complex_outcomes(law, trials, seed),
        law.name,
        law.statement,
        "complex",
        "randomized",
        trials,
        seed,
    )


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
        raise ValueError(f"unknown suite {name!r}; known suites: {known}")
    resolved = resolve_model(model)  # once: building a field tests p for primality
    reports = []
    for law in suites[name]:
        if isinstance(law, ComplexLaw):
            if resolved != "exact":
                raise ValueError("complex laws only run on the exact model")
            reports.append(check_complex_law(law, trials=trials, seed=seed))
        else:
            conditional = isinstance(law, ConditionalEquation)
            check = check_conditional if conditional else check_equation
            reports.append(check(law, resolved, mode=mode, trials=trials, seed=seed))
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
    exact_value = render(value_to_term(eval_exact(term, {}, Session())))
    return F3Report(
        squares_mod_3=tuple(sorted(fp.squares)),
        md_and_l1_pass=ok,
        display_term=render(term),
        finite_value=finite_value,
        exact_value=exact_value,
        homomorphism_impossible=(finite_value == 0 and exact_value == "1"),
    )
