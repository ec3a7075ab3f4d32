"""Answer checks for the benchmark that share no code with meadows.

Everything here works on the benchmark's own term representation, nested
tuples::

    ("c", Fraction)   ("v", name)
    ("+", a, b)  ("*", a, b)  ("neg", a)  ("inv", a)  ("s", a)  ("sqrt", a)

The reader desugars the concrete syntax exactly as the meadows parser is
documented to (``a - b`` is ``a + -b``, ``a / b`` is ``a * inv(b)``, ``int/int``
is one rational literal, ``t ^ n`` unrolls to repeated products), so a meadows
term and the benchmark's tuple for the same text compare equal node by node.
Values come from stdlib ``decimal`` at a working precision far above the
digits being checked, with the meadow totalizations ``inv(0) == 0``,
``s(0) == 0`` and the signed square root.
"""

from __future__ import annotations

import random
import re
from decimal import ROUND_DOWN, Decimal, localcontext
from fractions import Fraction

PREC = 90
#: Below this magnitude a decimal value is taken to be an exact zero.  Every
#: nonzero value the workloads build is a small algebraic number whose
#: magnitude is far above it, while rounding error stays far below it.
ZERO_EPS = Decimal("1e-45")

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")
_UNARY = ("s", "sqrt", "inv")


class OracleError(AssertionError):
    """An answer from meadows disagrees with the independent oracle."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# Reading and writing terms.
# ---------------------------------------------------------------------------


def _tokens(src: str) -> list[tuple[str, str]]:
    out = []
    pos = 0
    while True:
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            if src[pos:].strip():
                raise ValueError(f"cannot read {src[pos:pos + 20]!r}")
            break
        num, ident, op = m.groups()
        out.append(("int", num) if num else ("id", ident) if ident else (op, op))
        pos = m.end()
    out.append(("eof", ""))
    return out


class _Reader:
    def __init__(self, src: str) -> None:
        self.toks = _tokens(src)
        self.i = 0

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.i + ahead][0]

    def take(self, kind: str) -> str:
        tok_kind, text = self.toks[self.i]
        if tok_kind != kind:
            raise ValueError(f"expected {kind}, found {text!r}")
        self.i += 1
        return text

    def expr(self):
        t = self.term()
        while self.peek() in ("+", "-"):
            op = self.take(self.peek())
            rhs = self.term()
            t = ("+", t, rhs if op == "+" else ("neg", rhs))
        return t

    def term(self):
        t = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take(self.peek())
            rhs = self.factor()
            t = ("*", t, rhs if op == "*" else ("inv", rhs))
        return t

    def factor(self):
        if self.peek() == "-":
            self.take("-")
            return ("neg", self.factor())
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take("^")
        negative = self.peek() == "-"
        if negative:
            self.take("-")
        n = int(self.take("int"))
        if n == 0:
            return ("inv", ONE) if negative else ONE
        out = base
        for _ in range(n - 1):
            out = ("*", out, base)
        return ("inv", out) if negative else out

    def atom(self):
        kind = self.peek()
        if kind == "int":
            num = int(self.take("int"))
            if self.peek() == "/" and self.peek(1) == "int":
                self.take("/")
                den = int(self.take("int"))
                if den == 0:
                    return ("*", ("c", Fraction(num)), ("inv", ZERO))
                return ("c", Fraction(num, den))
            return ("c", Fraction(num))
        if kind == "id":
            name = self.take("id")
            if name in _UNARY:
                self.take("(")
                inner = self.expr()
                self.take(")")
                return (name, inner)
            return ("v", name)
        self.take("(")
        inner = self.expr()
        self.take(")")
        return inner


def read(src: str):
    """The tuple term for ``src``, desugared like the meadows parser."""
    r = _Reader(src)
    t = r.expr()
    r.take("eof")
    return t


ZERO = ("c", Fraction(0))
ONE = ("c", Fraction(1))


def write(t) -> str:
    """Fully parenthesized concrete syntax for a tuple term."""
    op = t[0]
    if op == "c":
        q = t[1]
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if op == "v":
        return t[1]
    if op in ("+", "*"):
        return f"({write(t[1])} {op} {write(t[2])})"
    if op == "neg":
        return f"-({write(t[1])})"
    return f"{op}({write(t[1])})"


_MEADOWS_NODES = {"Add": "+", "Mul": "*", "Neg": "neg", "Inv": "inv", "Sign": "s", "Sqrt": "sqrt"}


def from_meadows(term):
    """Convert a meadows term object to a tuple term by its node classes."""
    kind = type(term).__name__
    if kind == "Const":
        return ("c", Fraction(term.value))
    if kind == "Var":
        return ("v", term.name)
    op = _MEADOWS_NODES[kind]
    if op in ("+", "*"):
        return (op, from_meadows(term.left), from_meadows(term.right))
    return (op, from_meadows(term.arg))


def size(term) -> int:
    """Node count of a meadows term, without recursion."""
    count = 0
    stack = [term]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("left", "right", "arg"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


# ---------------------------------------------------------------------------
# Decimal evaluation.
# ---------------------------------------------------------------------------


def _is_zero(x: Decimal) -> bool:
    return abs(x) < ZERO_EPS


def _ev(t, env):
    op = t[0]
    if op == "c":
        return Decimal(t[1].numerator) / Decimal(t[1].denominator)
    if op == "v":
        return env[t[1]]
    if op == "+":
        return _ev(t[1], env) + _ev(t[2], env)
    if op == "*":
        return _ev(t[1], env) * _ev(t[2], env)
    x = _ev(t[1], env)
    if op == "neg":
        return -x
    if _is_zero(x):
        return Decimal(0)
    if op == "inv":
        return 1 / x
    if op == "s":
        return Decimal(1 if x > 0 else -1)
    return x.sqrt() if x > 0 else -(-x).sqrt()


def value(t, env=None) -> Decimal:
    """Decimal value of a tuple term (variables bound by ``env``)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        return +_ev(t, env or {})


def sign(x: Decimal) -> int:
    return 0 if _is_zero(x) else (1 if x > 0 else -1)


def close(a: Decimal, b: Decimal, digits: int = 40) -> bool:
    """Agreement to ``digits`` significant places (absolute near zero)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        return abs(a - b) <= Decimal(10) ** -digits * max(Decimal(1), abs(a), abs(b))


def truncations(x: Decimal, digits: int) -> set[str]:
    """Acceptable ``digits``-place truncations toward zero of ``x``.

    Both neighbours of a value lying within rounding error of a truncation
    boundary are accepted; a printed ``-0.000`` is spelled without its sign.
    """
    quantum = Decimal(1).scaleb(-digits)
    out = set()
    with localcontext() as ctx:
        ctx.prec = PREC
        for nudge in (Decimal(0), ZERO_EPS, -ZERO_EPS):
            s = format((x + nudge).quantize(quantum, rounding=ROUND_DOWN), "f")
            out.add(s[1:] if s.startswith("-") and set(s[1:]) <= {"0", "."} else s)
    return out


# ---------------------------------------------------------------------------
# Random open terms.
# ---------------------------------------------------------------------------

_LEAF_CONSTS = (Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 4))
_VARS = ("x", "y", "z")
_UNARY_OPS = ("neg", "inv", "s", "sqrt")
_OPS = ("+", "*", "+", "*") + _UNARY_OPS


def random_term(rng: random.Random, budget: int):
    """A random open term of at most ``budget`` nodes.

    A quarter of the inner nodes are shapes the meadows rewrite rules target
    (double inverse, double negation, sign of a sign, units and zeros), so
    simplification has work to do.
    """
    if budget <= 1 or (budget < 8 and rng.random() < 0.3):
        if rng.random() < 0.5:
            return ("v", rng.choice(_VARS))
        return ("c", rng.choice(_LEAF_CONSTS))
    if budget >= 3 and rng.random() < 0.25:
        inner = random_term(rng, budget - 2)
        shape = rng.randrange(6)
        if shape == 0:
            return ("inv", ("inv", inner))
        if shape == 1:
            return ("neg", ("neg", inner))
        if shape == 2:
            return ("s", ("s", inner))
        if shape == 3:
            return ("*", ONE, inner)
        if shape == 4:
            return ("+", inner, ZERO)
        return ("sqrt", ("s", inner))
    op = rng.choice(_OPS if budget >= 3 else _UNARY_OPS)
    if op in ("+", "*"):
        left = rng.randint(1, budget - 2)
        return (op, random_term(rng, left), random_term(rng, budget - 1 - left))
    return (op, random_term(rng, budget - 1))


def random_env(rng: random.Random) -> dict:
    """A valuation of the open-term variables by small rationals that decimals hold exactly."""
    return {v: Decimal(rng.randint(-7, 7)) / Decimal(rng.choice((1, 2, 4, 5))) for v in _VARS}


# ---------------------------------------------------------------------------
# Prime fields by brute force.
# ---------------------------------------------------------------------------


def primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


def minus_one_is_sum_of_squares(p: int, n: int) -> bool:
    """Is ``1 + x1^2 + ... + xn^2 == 0`` solvable mod p (n in 1, 2)?"""
    squares = {x * x % p for x in range(p)}
    if n == 1:
        return (p - 1) % p in squares
    return any((p - 1 - a) % p in squares for a in squares)
