"""Term language over the signature {0, 1, +, *, -, inv, s, sqrt} plus holes.

Concrete syntax (ASCII)::

    expr   :=  term (("+" | "-") term)*
    term   :=  factor (("*" | "/") factor)*
    factor :=  "-" factor | power
    power  :=  atom ("^" int)?
    atom   :=  rational | ident | "(" expr ")"
             | "s" "(" expr ")" | "sqrt" "(" expr ")" | "inv" "(" expr ")"
             | "[]"
    rational := int ("/" int)?      -- only when both are integer literals;
                                       otherwise "/" binds as division

``t - u`` and ``t / u`` are sugar for ``t + (-u)`` and ``t * inv(u)``;
``t ^ n`` is unrolled into repeated products (negative ``n`` through ``inv``,
``t ^ 0`` is ``1``).  Numerals are stored as exact nonnegative rational
constants; a leading minus parses as :class:`Neg`.  A literal with a zero
denominator such as ``1/0`` desugars to ``1 * inv(0)`` so that evaluation can
totalize it.  ``[]`` is the context hole.

Rendering is the inverse of parsing — ``parse(render(t)) == t`` for every
term — with minimal parentheses.  Division is *never* rendered with ``/``
(which would collide with rational literals); quotients print as
``... * inv(...)``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

from .exact import Real, Session
from .finite import PrimeField

__all__ = [
    "Term", "Const", "Var", "Add", "Mul", "Neg", "Inv", "Sign", "Sqrt",
    "HOLE", "Hole", "ZERO", "ONE", "const",
    "ParseError", "EvalError", "UnsupportedSymbolError",
    "parse", "render", "substitute", "fill",
    "free_vars", "contains_hole", "term_size",
    "eval_exact", "eval_mod_p",
    "SIGMA_M", "SIGMA_MS", "SIGMA_MSS",
    "gen_random_term", "gen_random_context",
]


class Term:
    """Base class for all term nodes. Nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Term):
    """A nonnegative rational literal (negatives are spelled ``Neg(Const(..))``)."""

    value: Fraction

    def __post_init__(self) -> None:
        v = self.value if isinstance(self.value, Fraction) else Fraction(self.value)
        if v < 0:
            raise ValueError("Const must be nonnegative; wrap a Neg around it")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Inv(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Sign(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Sqrt(Term):
    arg: Term


@dataclass(frozen=True, slots=True)
class Hole(Term):
    """The unique context hole, written ``[]``."""


HOLE = Hole()
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(q: Union[int, Fraction]) -> Term:
    """Rational constant as a term; negatives become ``Neg`` of a literal."""
    q = Fraction(q)
    return Neg(Const(-q)) if q < 0 else Const(q)


# ---------------------------------------------------------------------------
# Parsing.
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Syntax error with a position into the source string."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<hole>\[\])|(?P<op>[-+*/^()]))"
)

_RESERVED = {"s", "sqrt", "inv"}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        for kind in ("int", "ident", "hole", "op"):
            text = m.group(kind)
            if text is not None:
                out.append((kind if kind != "op" else text, text, m.start(kind)))
                break
        pos = m.end()
    out.append(("eof", "", len(src)))
    return out


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2])
        return tok

    def expr(self) -> Term:
        t = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            t = Add(t, rhs if op == "+" else Neg(rhs))
        return t

    def term(self) -> Term:
        t = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            t = Mul(t, rhs if op == "*" else Inv(rhs))
        return t

    def factor(self) -> Term:
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Term:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.next()
        neg = False
        if self.peek()[0] == "-":
            self.next()
            neg = True
        tok = self.peek()
        if tok[0] != "int":
            raise ParseError("exponent must be an integer literal", tok[2])
        self.next()
        n = int(tok[1])
        if n == 0:
            return Inv(ONE) if neg else ONE  # inv(1) keeps the sugar faithful
        out = base
        for _ in range(n - 1):
            out = Mul(out, base)
        return Inv(out) if neg else out

    def atom(self) -> Term:
        kind, text, pos = self.next()
        if kind == "int":
            # rational literal only when the next two tokens are "/" int
            if self.peek()[0] == "/" and self.tokens[self.i + 1][0] == "int":
                self.next()
                den = int(self.next()[1])
                if den == 0:
                    return Mul(Const(Fraction(int(text))), Inv(ZERO))
                return Const(Fraction(int(text), den))
            return Const(Fraction(int(text)))
        if kind == "ident":
            if text in _RESERVED:
                self.expect("(", f"'(' after {text!r}")
                inner = self.expr()
                self.expect(")", "')'")
                return {"s": Sign, "sqrt": Sqrt, "inv": Inv}[text](inner)
            return Var(text)
        if kind == "hole":
            return HOLE
        if kind == "(":
            inner = self.expr()
            self.expect(")", "')'")
            return inner
        raise ParseError("expected a value", pos)


def parse(src: str) -> Term:
    p = _Parser(src)
    t = p.expr()
    kind, _, pos = p.peek()
    if kind != "eof":
        raise ParseError("unexpected trailing input", pos)
    return t


# ---------------------------------------------------------------------------
# Rendering.  Precedence levels: Add 1 < Mul 2 < Neg 3 < atoms 4.
# ---------------------------------------------------------------------------


def render(t: Term) -> str:
    """Minimal-parentheses concrete syntax with ``parse(render(t)) == t``."""
    return _render(t, 1)


def _render(t: Term, min_prec: int) -> str:
    if isinstance(t, Add):
        if isinstance(t.right, Neg):
            body = f"{_render(t.left, 1)} - {_render(t.right.arg, 2)}"
        else:
            body = f"{_render(t.left, 1)} + {_render(t.right, 2)}"
        prec = 1
    elif isinstance(t, Mul):
        body = f"{_render(t.left, 2)} * {_render(t.right, 3)}"
        prec = 2
    elif isinstance(t, Neg):
        body = f"-{_render(t.arg, 3)}"
        prec = 3
    elif isinstance(t, Const):
        q = t.value
        body = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        prec = 4
    elif isinstance(t, Var):
        body, prec = t.name, 4
    elif isinstance(t, Inv):
        body, prec = f"inv({_render(t.arg, 1)})", 4
    elif isinstance(t, Sign):
        body, prec = f"s({_render(t.arg, 1)})", 4
    elif isinstance(t, Sqrt):
        body, prec = f"sqrt({_render(t.arg, 1)})", 4
    elif isinstance(t, Hole):
        body, prec = "[]", 4
    else:  # pragma: no cover
        raise TypeError(f"not a term: {t!r}")
    return f"({body})" if prec < min_prec else body


# ---------------------------------------------------------------------------
# Structural helpers.
# ---------------------------------------------------------------------------


def _children(t: Term) -> tuple[Term, ...]:
    if isinstance(t, (Add, Mul)):
        return (t.left, t.right)
    if isinstance(t, (Neg, Inv, Sign, Sqrt)):
        return (t.arg,)
    return ()


def _rebuild(t: Term, children: Sequence[Term]) -> Term:
    if isinstance(t, (Add, Mul)):
        return type(t)(children[0], children[1])
    if isinstance(t, (Neg, Inv, Sign, Sqrt)):
        return type(t)(children[0])
    return t


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: frozenset[str] = frozenset()
    for c in _children(t):
        out |= free_vars(c)
    return out


def contains_hole(t: Term) -> bool:
    if isinstance(t, Hole):
        return True
    return any(contains_hole(c) for c in _children(t))


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in _children(t))


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Replace every free occurrence of the variable ``name``."""
    if isinstance(t, Var):
        return replacement if t.name == name else t
    kids = _children(t)
    if not kids:
        return t
    return _rebuild(t, [substitute(c, name, replacement) for c in kids])


def fill(context: Term, plug: Term) -> Term:
    """Replace every hole ``[]`` in ``context`` with ``plug``."""
    if isinstance(context, Hole):
        return plug
    kids = _children(context)
    if not kids:
        return context
    return _rebuild(context, [fill(c, plug) for c in kids])


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


class EvalError(ValueError):
    """Unbound variable or a hole reached during evaluation."""


class UnsupportedSymbolError(ValueError):
    """The target model has no interpretation for a symbol in the term."""


def eval_exact(t: Term, valuation: Mapping[str, Real], session: Session) -> Real:
    """Evaluate in the exact kernel; homomorphic in every constructor."""
    if isinstance(t, Const):
        return session.rational(t.value)
    if isinstance(t, Var):
        try:
            return session.value(valuation[t.name])
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Add):
        return eval_exact(t.left, valuation, session) + eval_exact(t.right, valuation, session)
    if isinstance(t, Mul):
        return eval_exact(t.left, valuation, session) * eval_exact(t.right, valuation, session)
    if isinstance(t, Neg):
        return -eval_exact(t.arg, valuation, session)
    if isinstance(t, Inv):
        return eval_exact(t.arg, valuation, session).inv()
    if isinstance(t, Sign):
        return session.rational(eval_exact(t.arg, valuation, session).sign())
    if isinstance(t, Sqrt):
        return eval_exact(t.arg, valuation, session).ssqrt()
    if isinstance(t, Hole):
        raise EvalError("cannot evaluate a context hole")
    raise TypeError(f"not a term: {t!r}")  # pragma: no cover


def eval_mod_p(t: Term, valuation: Mapping[str, int], field) -> int:
    """Evaluate in a totalized prime field; rejects ``s`` and ``sqrt``.

    ``field`` is a :class:`meadows.finite.PrimeField` (or a prime int, which
    is promoted).  Inversion is total with ``inv(0) == 0``; a rational
    constant ``p/q`` evaluates to ``p * inv(q)``, which is 0 when ``q``
    vanishes modulo the characteristic.  Sums, products and negations are
    taken in the integers and reduced once, at the end (``inv`` reduces its
    own argument); reduction mod p is a ring map, so this is exact.
    """
    if isinstance(field, int):
        field = PrimeField(field)
    return _eval_mod(t, valuation, field) % field.p


def _eval_mod(t: Term, valuation: Mapping[str, int], field) -> int:
    if isinstance(t, Const):
        return t.value.numerator * field.inv(t.value.denominator)
    if isinstance(t, Var):
        try:
            return valuation[t.name]
        except KeyError:
            raise EvalError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Add):
        return _eval_mod(t.left, valuation, field) + _eval_mod(t.right, valuation, field)
    if isinstance(t, Mul):
        return _eval_mod(t.left, valuation, field) * _eval_mod(t.right, valuation, field)
    if isinstance(t, Neg):
        return -_eval_mod(t.arg, valuation, field)
    if isinstance(t, Inv):
        return field.inv(_eval_mod(t.arg, valuation, field))
    if isinstance(t, (Sign, Sqrt)):
        sym = "s" if isinstance(t, Sign) else "sqrt"
        raise UnsupportedSymbolError(f"{sym!r} has no finite-field interpretation")
    if isinstance(t, Hole):
        raise EvalError("cannot evaluate a context hole")
    raise TypeError(f"not a term: {t!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Random generation (deterministic in the seed).
# ---------------------------------------------------------------------------

#: Ring signature: addition, multiplication, negation, totalized inverse.
SIGMA_M = frozenset({"add", "mul", "neg", "inv"})
#: Ring plus the sign operation.
SIGMA_MS = SIGMA_M | {"sign"}
#: Ring plus sign and signed square root.
SIGMA_MSS = SIGMA_MS | {"sqrt"}

_UNARY = {"neg": Neg, "inv": Inv, "sign": Sign, "sqrt": Sqrt}
_BINARY = {"add": Add, "mul": Mul}
_LEAF_WEIGHT = 0.3  # chance of stopping early even when fuel remains


def gen_random_term(
    seed: Optional[int],
    max_size: int,
    signature: frozenset = SIGMA_MSS,
    variables: Sequence[str] = ("x", "y"),
    *,
    rng: Optional[random.Random] = None,
) -> Term:
    """A random term of at most ``max_size`` nodes, reproducible from ``seed``.

    Leaves are ``0``, ``1`` and the pool variables, picked uniformly; inner
    constructors are picked uniformly from ``signature`` among those whose
    arity still fits in the remaining fuel, except that with probability
    ``0.3`` a leaf is emitted anyway, so leaves get ever more likely as fuel
    runs out.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    unknown = signature - SIGMA_MSS
    if unknown:
        raise ValueError(f"unknown constructors: {sorted(unknown)}")
    r = rng if rng is not None else random.Random(seed)
    return _gen(r, max_size, signature, tuple(variables))


def _gen(r: random.Random, fuel: int, signature: frozenset, variables: tuple) -> Term:
    ops: list[str] = []
    if fuel >= 2:
        ops += sorted(op for op in signature if op in _UNARY)
    if fuel >= 3:
        ops += sorted(op for op in signature if op in _BINARY)
    if not ops or r.random() < _LEAF_WEIGHT:
        leaves: list[Term] = [ZERO, ONE, *(Var(v) for v in variables)]
        return r.choice(leaves)
    op = r.choice(ops)
    if op in _UNARY:
        return _UNARY[op](_gen(r, fuel - 1, signature, variables))
    left_fuel = r.randint(1, fuel - 2)
    left = _gen(r, left_fuel, signature, variables)
    right = _gen(r, fuel - 1 - left_fuel, signature, variables)
    return _BINARY[op](left, right)


def _positions(t: Term) -> Iterator[tuple[int, ...]]:
    yield ()
    for i, c in enumerate(_children(t)):
        for path in _positions(c):
            yield (i, *path)


def _replace_at(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    kids = list(_children(t))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return _rebuild(t, kids)


def gen_random_context(
    seed: Optional[int],
    max_size: int,
    signature: frozenset = SIGMA_MSS,
    variables: Sequence[str] = ("x", "y"),
    *,
    rng: Optional[random.Random] = None,
) -> Term:
    """A random one-hole context: a term with exactly one ``[]`` inside."""
    r = rng if rng is not None else random.Random(seed)
    t = gen_random_term(None, max_size, signature, variables, rng=r)
    spot = r.choice(list(_positions(t)))
    return _replace_at(t, spot, HOLE)
