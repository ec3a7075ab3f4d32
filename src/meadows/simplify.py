"""Canonical closed forms and a terminating term-rewriting simplifier.

Two independent services live here:

* **Canonical forms.**  :func:`value_to_term` turns a kernel value into the
  canonical closed term ``q0 + q1 * sqrt(r1) + q2 * sqrt(r1) * sqrt(r2) + ...``
  (rational coefficients, radical factors sorted by radicand depth and then
  display string, rational summand first).  :func:`normalize_closed` composes
  parse → evaluate → canonicalise → render, so any two closed terms denoting
  the same number normalise to the same string.

* **Rewriting.**  :data:`REWRITE_RULES` is a list of oriented identities (all
  sound for the exact model); :func:`rewrite_simplify` applies them
  leftmost-innermost until no rule fires.  Every rule is strictly reducing
  under a fixed polynomial interpretation of the constructors (leaves 2,
  neg/inv a+1, add a+b+1, mul a*b+1, sign a**2, sqrt 2a), so rewriting
  terminates without the step cap; the cap is only a safety net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .exact import Real, Session
from .terms import (
    Add,
    Const,
    Mul,
    Neg,
    Sqrt,
    Term,
    Var,
    ZERO,
    _children,
    _rebuild,
    _replace,
    eval_exact,
    parse,
    render,
)


def value_to_term(value: Real) -> Term:
    """The canonical closed term denoting ``value``.

    Each nonzero coordinate of the value contributes one summand: its
    rational coefficient times one ``sqrt`` factor per tower level involved,
    where each radicand is rendered recursively through this same function,
    once per session.
    """
    session = value.session
    if value.is_zero():
        return ZERO

    parts = []
    for index, q in enumerate(value.coords):
        if q == 0:
            continue
        factors = sorted(
            (
                _radical(session, level + 1)
                for level in range(value.depth)
                if index >> level & 1
            ),
            key=lambda pair: pair[0],
        )
        part_key = tuple(key for key, _ in factors)
        magnitude = abs(q)
        items = [t for _, t in factors]
        if magnitude != 1 or not items:
            items.insert(0, Const(magnitude))
        term = items[0]
        for item in items[1:]:
            term = Mul(term, item)
        parts.append((part_key, Neg(term) if q < 0 else term))

    parts.sort(key=lambda pair: pair[0])
    total = parts[0][1]
    for _, part in parts[1:]:
        total = Add(total, part)
    return total


def _radical(session: Session, level: int) -> tuple[tuple[int, str], Term]:
    """The sort key and ``Sqrt`` term of the root adjoined at ``level``.

    Kept in the session's radical memo: a radicand never changes, so neither
    does its canonical form.
    """
    entry = session._radicals.get(level)
    if entry is None:
        radicand = session.radicand_value(level)
        arg = value_to_term(radicand)
        entry = session._radicals[level] = ((radicand.depth, render(arg)), Sqrt(arg))
    return entry


def normalize_closed(src: str) -> str:
    """Parse a closed term, evaluate it exactly, and render its canonical form."""
    return str(eval_exact(parse(src), {}, Session()))


def decide_closed_eq(left: str, right: str) -> bool:
    """Do two closed terms denote the same number?  Decided exactly."""
    session = Session()
    return eval_exact(parse(left), {}, session) == eval_exact(parse(right), {}, session)


def sign_of_closed(src: str) -> int:
    """The sign (-1, 0, or 1) of the number a closed term denotes."""
    return eval_exact(parse(src), {}, Session()).sign()


@dataclass(frozen=True)
class RewriteRule:
    """An oriented identity: any instance of ``pattern`` becomes ``replacement``."""

    name: str
    pattern: Term
    replacement: Term


def _rule(name: str, pattern: str, replacement: str) -> RewriteRule:
    return RewriteRule(name, parse(pattern), parse(replacement))


REWRITE_RULES: tuple[RewriteRule, ...] = (
    _rule("inv-of-zero", "inv(0)", "0"),
    _rule("inv-of-one", "inv(1)", "1"),
    _rule("sqrt-of-zero", "sqrt(0)", "0"),
    _rule("sqrt-of-one", "sqrt(1)", "1"),
    _rule("sign-of-zero", "s(0)", "0"),
    _rule("sign-of-one", "s(1)", "1"),
    _rule("neg-of-zero", "-0", "0"),
    _rule("inv-involution", "inv(inv(x))", "x"),
    _rule("negation-involution", "-(-x)", "x"),
    _rule("sign-idempotent", "s(s(x))", "s(x)"),
    _rule("sqrt-of-sign", "sqrt(s(x))", "s(x)"),
    _rule("sqrt-of-negation", "sqrt(-x)", "-sqrt(x)"),
    _rule("sqrt-of-signed-square", "sqrt(x * x * s(x))", "x"),
    _rule("sign-of-product", "s(x * y)", "s(x) * s(y)"),
    _rule("mul-by-zero-left", "0 * x", "0"),
    _rule("mul-by-zero-right", "x * 0", "0"),
    _rule("mul-by-one-left", "1 * x", "x"),
    _rule("mul-by-one-right", "x * 1", "x"),
    _rule("add-zero-left", "0 + x", "x"),
    _rule("add-zero-right", "x + 0", "x"),
)


def _match(pattern: Term, term: Term, bindings: dict[Var, Term]) -> bool:
    """First-order matching of ``term`` against ``pattern``.

    ``bindings`` maps each pattern variable (the ``Var`` node) to the subterm
    it matched; repeated pattern variables must bind equal subterms.
    """
    if isinstance(pattern, Var):
        if pattern in bindings:
            return bindings[pattern] == term
        bindings[pattern] = term
        return True
    if type(pattern) is not type(term):
        return False
    if isinstance(pattern, Const):
        return pattern.value == term.value
    return all(
        _match(p, t, bindings)
        for p, t in zip(_children(pattern), _children(term))
    )


def _rewrite_once(
    term: Term, path: tuple[int, ...]
) -> Optional[tuple[Term, str, tuple[int, ...]]]:
    """Leftmost-innermost: rewrite inside children before the node itself."""
    children = _children(term)
    for i, child in enumerate(children):
        hit = _rewrite_once(child, path + (i,))
        if hit is not None:
            new_child, rule_name, where = hit
            rebuilt = _rebuild(
                term, tuple(new_child if j == i else c for j, c in enumerate(children))
            )
            return rebuilt, rule_name, where
    for rule in REWRITE_RULES:
        bindings: dict[Var, Term] = {}
        if _match(rule.pattern, term, bindings):
            return _replace(rule.replacement, bindings.get), rule.name, path
    return None


@dataclass(frozen=True)
class SimplifyResult:
    """Outcome of :func:`rewrite_simplify`."""

    term: Term
    steps: int
    truncated: bool
    trace: tuple[tuple[str, tuple[int, ...]], ...]

    def as_dict(self) -> dict:
        return {
            "schema": "meadows.simplify/1",
            "term": render(self.term),
            "steps": self.steps,
            "truncated": self.truncated,
            "trace": [
                {"rule": name, "path": list(path)} for name, path in self.trace
            ],
        }


def rewrite_simplify(term: Term, max_steps: int = 1000) -> SimplifyResult:
    """Apply :data:`REWRITE_RULES` leftmost-innermost until none fires.

    The rule set terminates on its own (see the module docstring);
    ``max_steps`` is a safety net that sets ``truncated`` when hit.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    trace: list[tuple[str, tuple[int, ...]]] = []
    current = term
    for _ in range(max_steps):
        hit = _rewrite_once(current, ())
        if hit is None:
            return SimplifyResult(current, len(trace), False, tuple(trace))
        current, rule_name, path = hit
        trace.append((rule_name, path))
    truncated = _rewrite_once(current, ()) is not None
    return SimplifyResult(current, len(trace), truncated, tuple(trace))
