"""Closed-term decisions and a terminating term-rewriting simplifier.

Two independent services live here:

* **Closed terms.**  :func:`normalize_closed` composes parse → evaluate →
  print, so a closed term prints as the canonical form of its value, which
  ``str`` writes straight from the value's coordinates;
  :func:`~meadows.exact.value_to_term` (re-exported here) reads that text
  back as a term.  That form is canonical only for a fixed order of
  adjoined roots: ``sqrt(6)`` and ``sqrt(2)*sqrt(3)`` denote the same
  number but normalise to ``sqrt(6)`` and ``sqrt(2) * sqrt(3)``.
  :func:`decide_closed_eq` decides equality exactly, by evaluating both
  terms in one session.

* **Rewriting.**  :data:`REWRITE_RULES` is a list of oriented identities (all
  sound for the exact model); :func:`rewrite_simplify` applies them
  leftmost-innermost until no rule fires.  At each node it tries only the
  rules whose pattern root is the node's constructor, looked up in an index
  built at import.  Every rule is strictly reducing under a fixed polynomial
  interpretation of the constructors (leaves 2, neg/inv a+1, add a+b+1,
  mul a*b+1, sign a**2, sqrt 2a), so rewriting terminates without the step
  cap; the cap is only a safety net.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import Session, value_to_term
from .terms import (
    _NODE_TYPES, Const, Term, Var, _children, _rebuild, _replace, eval_exact, parse, render,
)


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


def _index(rules: tuple[RewriteRule, ...]) -> dict[type, tuple[RewriteRule, ...]]:
    """Each term constructor to the rules whose pattern root is that
    constructor, in catalog order."""
    return {kind: tuple(r for r in rules if type(r.pattern) is kind) for kind in _NODE_TYPES}


_RULES_BY_ROOT = _index(REWRITE_RULES)


def _match(pattern: Term, term: Term, bindings: dict[Var, Term]) -> bool:
    """First-order matching of ``term`` against ``pattern``.

    ``bindings`` maps each pattern variable (the ``Var`` node) to the subterm
    it matched; repeated pattern variables must bind equal subterms.
    """
    kind = type(pattern)
    if kind is Var:
        if pattern in bindings:
            return bindings[pattern] == term
        bindings[pattern] = term
        return True
    if kind is not type(term):
        return False
    if kind is Const:
        return pattern.value == term.value
    for p, t in zip(_children(pattern), _children(term)):
        if not _match(p, t, bindings):
            return False
    return True


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
    trace: list[tuple[str, tuple[int, ...]]] = []
    truncated = False
    # One frame per node being normalised: [term, normal, children, normal
    # forms of its children so far].  ``normal`` holds, by id, subterms known
    # to be normal; holding them keeps each id bound to its term.  The
    # children are None until the frame's term is due for them.  A frame's
    # path is the number of finished children of each frame below it.
    frames: list[list] = [[term, {}, None, None]]
    while True:
        frame = frames[-1]
        t, normal, kids, new = frame
        if kids is None:
            if not truncated and id(t) not in normal:
                frame[2], frame[3] = _children(t), []
                continue
        elif len(new) < len(kids):
            frames.append([kids[len(new)], normal, None, None])
            continue
        else:
            if any(a is not b for a, b in zip(new, kids)):
                t = _rebuild(t, new)
            for rule in _RULES_BY_ROOT[type(t)]:
                bindings: dict[Var, Term] = {}
                if _match(rule.pattern, t, bindings):
                    truncated = len(trace) == max_steps
                    break
            else:
                rule = None
            if rule is not None and not truncated:
                trace.append((rule.name, tuple(len(f[3]) for f in frames[:-1])))
                normal = {id(b): b for b in bindings.values()}
                frames[-1] = [_replace(rule.replacement, bindings.get), normal, None, None]
                continue
        # The frame's term is normal: it becomes its parent's next child.
        frames.pop()
        if not frames:
            return SimplifyResult(t, len(trace), truncated, tuple(trace))
        frames[-1][3].append(t)
