"""Closed-term decisions and a terminating term-rewriting simplifier.

Two independent services live here:

* **Closed terms.**  :func:`normalize_closed` reads the term straight to
  its exact value, then prints it, so a closed term prints as the canonical
  form of its value, which ``str`` writes straight from the value's
  coordinates; :func:`value_to_term` reads that text back as a term.  That
  form is canonical only for a fixed order of adjoined roots: ``sqrt(6)``
  and ``sqrt(2)*sqrt(3)`` denote the same number but normalise to
  ``sqrt(6)`` and ``sqrt(2) * sqrt(3)``.  :func:`decide_closed_eq` decides
  equality exactly, by reading both terms into one session.

* **Rewriting.**  :data:`REWRITE_RULES` is a list of oriented identities (all
  sound for the exact model); :func:`rewrite_simplify` applies them
  leftmost-innermost until no rule fires.  At each node it tries only the
  rules whose pattern root is the node's constructor, through one function
  per constructor, generated at the first rewrite, that tests the node
  against their patterns in catalog order and builds the first match's
  replacement.  Every rule is strictly reducing under a fixed polynomial
  interpretation of the constructors (leaves 2, neg/inv a+1, add a+b+1,
  mul a*b+1, sign a**2, sqrt 2a), so rewriting terminates without the step
  cap; the cap is only a safety net.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

from .exact import Real, Session
from .terms import (
    _NODE_TYPES, Const, Term, Var, _children, _closed_value, _fold, _rebuild, parse, render,
)

__all__ = [
    "value_to_term", "normalize_closed", "decide_closed_eq", "sign_of_closed",
    "RewriteRule", "REWRITE_RULES", "SimplifyResult", "rewrite_simplify",
]


def normalize_closed(src: str) -> str:
    """Evaluate a closed term exactly, and render its canonical form."""
    return str(_closed_value(src, Session()))


def decide_closed_eq(left: str, right: str) -> bool:
    """Do two closed terms denote the same number?  Decided exactly."""
    session = Session()
    return _closed_value(left, session) == _closed_value(right, session)


def sign_of_closed(src: str) -> int:
    """The sign (-1, 0, or 1) of the number a closed term denotes."""
    return _closed_value(src, Session()).sign()


def value_to_term(value: Real) -> Term:
    """The canonical closed term denoting ``value``: ``str(value)`` read back."""
    return parse(str(value))


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


# Each term constructor to the rules whose pattern root is that constructor,
# in catalog order.
_RULES_BY_ROOT = {
    kind: tuple(r for r in REWRITE_RULES if type(r.pattern) is kind) for kind in _NODE_TYPES
}


@cache
def _matchers() -> dict[type, Callable[[Term], Optional[tuple]]]:
    """Each term constructor to its compiled matcher, built at the first rewrite.

    A constructor's matcher takes a node of that constructor and tries the
    node's rules of :data:`_RULES_BY_ROOT` in catalog order.  For the first
    that matches it returns ``(rule name, replacement, bound subterms)``,
    where the replacement is built directly from the subterms bound to the
    rule's variables, and those are listed in the order the pattern first
    reaches them.  It returns None when no rule matches.

    Each pattern is walked in preorder on an explicit stack.  A compound or
    constant node below the root becomes an inline ``type(...) is`` test, a
    constant's value is compared with the pattern's ``Fraction``, and a
    repeated variable is compared by ``==`` with the subterm its first
    occurrence bound.  The replacement is written out by :func:`terms._fold`.
    Besides field and local names, only rule names (through ``repr``),
    constructor names and the names of namespace constants go into the source.
    """
    namespace: dict = {kind.__name__: kind for kind in _NODE_TYPES}
    bound: dict[str, str] = {}  # the current rule's variables -> their subterms

    def constant(value: object) -> str:
        name = f"k{len(namespace)}"
        namespace[name] = value
        return name

    def leave(r: Term, *kids: str) -> str:
        if type(r) is Var:
            return bound[r.name]
        if type(r) is Const:
            return constant(r)
        return f"{type(r).__name__}({', '.join(kids)})"

    lines: list[str] = []
    for kind, rules in _RULES_BY_ROOT.items():
        lines.append(f"def match_{kind.__name__}(t):")
        for rule in rules:
            bound.clear()
            tests: list[str] = []
            stack = [(rule.pattern, "t")]  # pattern nodes with the subterms they must match
            while stack:
                p, expr = stack.pop()
                node = type(p)
                if node is Var:
                    if p.name in bound:
                        tests.append(f"{bound[p.name]} == {expr}")
                    else:
                        bound[p.name] = expr
                    continue
                if p is not rule.pattern:  # the matcher's own node needs no test
                    local = f"n{len(tests)}"
                    tests.append(f"type({local} := {expr}) is {node.__name__}")
                    expr = local
                if node is Const:
                    tests.append(f"{expr}.value == {constant(p.value)}")
                fields = zip(_children(p), node.__match_args__)
                stack += [(c, f"{expr}.{field}") for c, field in fields][::-1]
            replacement = _fold(rule.replacement, leave)
            subterms = "".join(f"{e}, " for e in bound.values())
            lines.append(f"    if {' and '.join(tests) or 'True'}:")
            lines.append(f"        return {rule.name!r}, {replacement}, ({subterms})")
        lines.append("    return None")
    exec(compile("\n".join(lines) + "\n", "<compiled rules>", "exec"), namespace)
    return {kind: namespace[f"match_{kind.__name__}"] for kind in _RULES_BY_ROOT}


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

    One pass: a node's children are normalised first, then the rules whose
    pattern root is the node's constructor are tried at the node in catalog
    order, and a fired rule's replacement is normalised again at the same
    path, except for the subterms bound to the rule's variables, which are
    normal already.  The rule set terminates on its own
    (see the module docstring); ``max_steps`` is a safety net that sets
    ``truncated`` when a rule still matches after that many steps.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be nonnegative")
    match = _matchers()
    trace: list[tuple[str, tuple[int, ...]]] = []
    truncated = False
    # ``normal`` holds, by id, every subterm a fired rule bound: each lies in
    # a node whose children are normal, so it is normal wherever it appears,
    # and holding it keeps its id from naming another object.  Such a child,
    # and any child after truncation, goes to its parent with no frame.  A
    # frame is [term, len(trace) when it became due, children, their normal
    # forms so far].  A step always puts a new object in place of the node it
    # rewrites, so a node is rebuilt exactly when a step fired below it.  A
    # frame's path is the number of finished children of each frame below it.
    normal: dict[int, Term] = {}
    frames: list[list] = [[term, 0, _children(term), []]]
    while True:
        t, steps, kids, new = frames[-1]
        if len(new) < len(kids):
            kid = kids[len(new)]
            if truncated or id(kid) in normal:
                new.append(kid)
            else:
                frames.append([kid, len(trace), _children(kid), []])
            continue
        if len(trace) > steps:
            t = _rebuild(t, new)
        hit = None if truncated else match[type(t)](t)  # no step can fire now
        if hit is not None:
            truncated = len(trace) == max_steps
            if not truncated:
                name, t, bound = hit
                trace.append((name, tuple(len(f[3]) for f in frames[:-1])))
                normal.update((id(b), b) for b in bound)
                frames[-1] = [t, len(trace), () if id(t) in normal else _children(t), []]
                continue
        # The frame's term is normal: it becomes its parent's next child.
        frames.pop()
        if not frames:
            return SimplifyResult(t, len(trace), truncated, tuple(trace))
        frames[-1][3].append(t)
