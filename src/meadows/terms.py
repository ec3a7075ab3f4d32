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
``t ^ 0`` is ``1``), for ``|n|`` up to :data:`MAX_EXPONENT`.  Numerals are
stored as exact nonnegative rational constants; a leading minus parses as
:class:`Neg`.  A literal with a zero denominator such as ``1/0`` desugars to
``1 * inv(0)`` so that evaluation can totalize it.  ``[]`` is the context hole.

Rendering is the inverse of parsing — ``parse(render(t)) == t`` for every
term — with minimal parentheses.  Division is *never* rendered with ``/``
(which would collide with rational literals); quotients print as
``... * inv(...)``.  Parsing, printing, ``==``, hashing, substitution,
evaluation and law compilation run as loops over explicit stacks, so their
work grows with a term's size and their frames do not grow with its depth:
explicit caps such as :data:`MAX_EXPONENT` are the only limits.

One reading loop serves two builders: with the term builder it is
:func:`parse`, and with the value builder it reads a closed term straight
to its exact value, as :func:`eval_exact` of the parsed term would give it.
The loop reads the tokens in one pass of one regular expression, without
their positions; only an error makes a second pass of the same expression,
to find where the failing token starts.  Within one parse, every occurrence
of a literal or a name is the same node, so a parsed term may share its
leaves; nodes are immutable and compared by structure, so a shared leaf acts
as equal copies would.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Optional, Sequence, Union

from .approx import _CHUNK_BASE, _decimal, _parse_decimal
from .finite import PrimeField

if TYPE_CHECKING:  # pragma: no cover
    from .exact import Real, Session

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
    """Base class for all term nodes. Nodes are immutable, with structural ``==``,
    hash and ``repr``, and pickle and copy as a flat post-order list; the
    leaves keep the ``==``, hash and ``repr`` that ``dataclass`` writes for them,
    except that ``Const`` writes its ``repr`` whatever the int-to-str digit limit."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        # Each node's arity follows from its constructor, so two preorders
        # that agree node by node are those of one term.
        return self is other or all(
            map(operator.eq, map(_node_key, _subterms(self)), map(_node_key, _subterms(other)))
        )

    def __hash__(self) -> int:
        return hash(tuple(map(_node_key, _subterms(self))))

    def __repr__(self) -> str:
        # the text dataclass would write, from a stack of nodes and pieces
        out = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            kind = type(t)
            if kind is str:
                out.append(t)
            elif kind in _BINARY_NODES:
                stack += (")", t.right, ", right=", t.left)
                out.append(f"{kind.__qualname__}(left=")
            elif kind in _UNARY_NODES:
                stack += (")", t.arg)
                out.append(f"{kind.__qualname__}(arg=")
            else:
                out.append(repr(t))
        return "".join(out)

    def __reduce__(self) -> tuple:
        keys: list = []
        _fold(self, lambda node, *_: keys.append(_node_key(node)))
        return _from_postorder, (keys,)


@dataclass(frozen=True, slots=True, repr=False)
class Const(Term):
    """A nonnegative rational literal (negatives are spelled ``Neg(Const(..))``)."""

    value: Fraction

    def __post_init__(self) -> None:
        v = self.value
        if not isinstance(v, Fraction):
            v = Fraction(v)
            object.__setattr__(self, "value", v)
        if v.numerator < 0:
            raise ValueError("Const must be nonnegative; wrap a Neg around it")

    def __repr__(self) -> str:
        v = self.value
        return f"Const(value=Fraction({_decimal(v.numerator)}, {_decimal(v.denominator)}))"


@dataclass(frozen=True, slots=True)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Neg(Term):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Inv(Term):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Sign(Term):
    arg: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
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


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
# A token is a numeral, a name or a symbol; a symbol that is not an operator,
# a bracket or the hole is a stray character, which the last branch takes.
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_IDENT})|(\[\]|[-+*/^()]|\S))")
_IDENT_RE = re.compile(_IDENT)

# The function symbols, by name; their names are not variables.
_FUNCTIONS = {"s": Sign, "sqrt": Sqrt, "inv": Inv}
_NAMES = {symbol: name for name, symbol in _FUNCTIONS.items()}

#: The largest |n| that ``t ^ n`` may have; the parser unrolls it into n nodes.
MAX_EXPONENT = 10_000


def _error(src: str, message: str, index: int) -> ParseError:
    """The error for ``message`` at token ``index`` of ``src`` (at
    ``len(src)`` past the last token), unless ``src`` has a stray character:
    then the error is at the first one, wherever it is."""
    position = len(src)
    for k, m in enumerate(_TOKEN_RE.finditer(src)):
        symbol = m.group(3)
        if symbol and symbol != "[]" and symbol not in "-+*/^()":
            return ParseError(f"unexpected character {symbol!r}", m.start(3))
        if k == index:
            position = m.start(m.lastindex)
    return ParseError(message, position)


# How tightly each operator that waits on the reading loop's stack binds
# ("neg" is the prefix minus).
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}

# The term builder: what each infix operator, the prefix minus and each
# function symbol build.
_TERM_OPS = {
    "+": Add,
    "-": lambda left, right: Add(left, Neg(right)),
    "*": Mul,
    "/": lambda left, right: Mul(left, Inv(right)),
    "neg": Neg,
    **_FUNCTIONS,
}


def parse(src: str) -> Term:
    """The term ``src`` denotes, read by :func:`_read` with the term builder.

    An integer literal, ``/`` and an integer literal make one fraction
    literal, an atom, so a power after it raises the fraction: ``3/10^2`` is
    ``(3/10)^2``, while ``sqrt(2)/10^2`` is ``sqrt(2)/100``.
    """
    return _read(src, _TERM_OPS, _literal_term, _leaf_term, _power_term)


def _read(
    src: str, ops: Mapping[str, Callable], literal: Callable, leaf: Callable, power: Callable
) -> Any:
    """What the builder ``ops``, ``literal``, ``leaf``, ``power`` makes of
    ``src``, by one operator-precedence loop.

    The loop reads ``_TOKEN_RE``'s ``(numeral, name, symbol)`` triples, one
    of them nonempty, which come without positions; an error is raised at
    the first token that cannot continue, through :func:`_error`, which
    finds the token's position, or the first stray character, which wins.
    ``pending`` holds the operators not yet applied to ``operands`` and the
    open brackets (``"("`` or a function name), innermost last.  An operator
    is applied, by ``ops[symbol]``, once one that binds no tighter follows
    it, or its bracket closes, so the operands are built in post-order.
    ``literal`` gets a numeral or a ``(numerator, denominator)`` pair of
    numerals, ``leaf`` a name or ``"[]"``, each once per spelling, and
    ``power(base, n, negative)`` a power ``^n`` or ``^-n``.
    """
    tokens = _TOKEN_RE.findall(src)
    tokens.append(("", "", ""))  # the end
    leaves: dict = {}  # by the literal's texts, or the name
    operands: list = []
    pending: list[str] = []
    i = 0
    while True:
        # An operand: prefix minuses and open brackets, then an atom.
        numeral, name, symbol = tokens[i]
        i += 1
        if symbol == "-" or symbol == "(":
            pending.append("neg" if symbol == "-" else "(")
            continue
        if name in _FUNCTIONS:
            if tokens[i][2] != "(":
                raise _error(src, f"expected '(' after {name!r}", i)
            pending.append(name)
            i += 1
            continue
        if numeral:
            # a rational literal only when the next two tokens are "/" int
            key = numeral
            if tokens[i][2] == "/" and tokens[i + 1][0]:
                key = numeral, tokens[i + 1][0]
                i += 2
            atom = leaves.get(key)
            if atom is None:
                atom = leaves[key] = literal(key)
        elif name or symbol == "[]":
            key = name or symbol
            atom = leaves.get(key)
            if atom is None:
                atom = leaves[key] = leaf(key)
        else:
            raise _error(src, "expected a value", i - 1)
        operands.append(atom)
        # After an atom: at most one power, then an infix operator, which
        # asks for the next operand, or a ")", which completes another atom.
        while True:
            numeral, name, symbol = tokens[i]
            i += 1
            if symbol == "^":
                negative = tokens[i][2] == "-"
                exponent = tokens[i + negative][0]
                if not exponent:
                    raise _error(src, "exponent must be an integer literal", i + negative)
                n = _parse_decimal(exponent)
                if n > MAX_EXPONENT:
                    raise _error(src, f"exponent is over the cap of {MAX_EXPONENT}", i + negative)
                operands[-1] = power(operands[-1], n, negative)
                numeral, name, symbol = tokens[i + negative + 1]
                i += negative + 2
            binding = _BINDING.get(symbol)
            while pending and _BINDING.get(pending[-1], 0) >= (binding or 1):
                op = pending.pop()
                right = operands.pop()
                operands.append(ops[op](right) if op == "neg" else ops[op](operands.pop(), right))
            if binding is not None:
                pending.append(symbol)
                break
            if symbol == ")" and pending:
                op = pending.pop()
                if op != "(":
                    operands[-1] = ops[op](operands[-1])
            elif i == len(tokens) and not pending:
                return operands[0]
            else:
                message = "expected ')'" if pending else "unexpected trailing input"
                raise _error(src, message, i - 1)


def _literal_term(key: Union[str, tuple[str, str]]) -> Term:
    """The term of a numeral, or of a ``(numerator, denominator)`` pair of
    numerals: ``n/0`` desugars to ``n * inv(0)``."""
    if type(key) is str:
        return Const(Fraction(_parse_decimal(key)))
    num, den = map(_parse_decimal, key)
    return Mul(Const(Fraction(num)), Inv(ZERO)) if den == 0 else Const(Fraction(num, den))


def _leaf_term(text: str) -> Term:
    """The term of a name, or of ``[]``."""
    return HOLE if text == "[]" else Var(text)


def _power_term(base: Term, n: int, negative: bool) -> Term:
    """``base ^ n`` unrolled into a chain of products, ``inv`` of it if
    ``negative``; ``base ^ 0`` is ``1`` and drops ``base``."""
    out = base if n else ONE  # inv(1) for ^-0 keeps the sugar faithful
    for _ in range(n - 1):
        out = Mul(out, base)
    return Inv(out) if negative else out


# ---------------------------------------------------------------------------
# Rendering.  Precedence levels: Add 1 < Mul 2 < Neg 3 < atoms 4.
# ---------------------------------------------------------------------------


def render(t: Term) -> str:
    """Minimal-parentheses concrete syntax with ``parse(render(t)) == t``.

    ``pending`` holds what is still to write, last first: closing brackets,
    and ``(text, term, min_prec)`` for a term to write after ``text``, in
    parentheses if it binds less tightly than ``min_prec``.  A term's
    leftmost descendants are written at once.
    """
    out: list[str] = []
    pending: list = [("", t, 1)]
    while pending:
        piece = pending.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        text, t, min_prec = piece
        out.append(text)
        while True:  # type() rather than isinstance(): this loop is hot
            kind = type(t)
            if kind is Add or kind is Mul:
                prec = 1 if kind is Add else 2
                if prec < min_prec:
                    out.append("(")
                    pending.append(")")
                if kind is Mul:
                    pending.append((" * ", t.right, 3))
                elif type(t.right) is Neg:
                    pending.append((" - ", t.right.arg, 2))
                else:
                    pending.append((" + ", t.right, 2))
                t, min_prec = t.left, prec
            elif kind is Neg:
                out.append("-")
                t, min_prec = t.arg, 3
            elif kind in _NAMES:
                out.append(_NAMES[kind] + "(")
                pending.append(")")
                t, min_prec = t.arg, 1
            else:
                break
        if kind is Const:
            out.append(_literal(t.value.numerator, t.value.denominator))
        elif kind is Var:
            out.append(t.name)
        elif kind is Hole:
            out.append("[]")
        else:  # pragma: no cover
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)


def _literal(num: int, den: int) -> str:
    """The text of the rational literal ``num/den`` (``num >= 0``, ``den > 0``)."""
    return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


# ---------------------------------------------------------------------------
# Structural helpers.
# ---------------------------------------------------------------------------


_BINARY_NODES = frozenset({Add, Mul})
_UNARY_NODES = frozenset({Neg, Inv, Sign, Sqrt})
_NODE_TYPES = (Const, Var, Hole, *_BINARY_NODES, *_UNARY_NODES)


def _children(t: Term) -> tuple[Term, ...]:
    kind = type(t)
    if kind in _BINARY_NODES:
        return (t.left, t.right)
    if kind in _UNARY_NODES:
        return (t.arg,)
    return ()


def _rebuild(t: Term, children: Sequence[Term]) -> Term:
    return type(t)(*children) if children else t


def _subterms(t: Term) -> Iterator[Term]:
    """Every node of ``t`` in preorder, without recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack += _children(t)[::-1]


def _fold(t: Term, leave: Callable[..., Any], enter: Optional[Callable] = None) -> Any:
    """``t`` folded bottom-up with ``leave``, without recursion.

    The nodes are entered in preorder and left in post-order, children left
    to right.  Entering a node calls ``enter(node)``, if given; a result
    other than None becomes the node's, and its subterms are skipped.
    Otherwise leaving it computes ``leave(node, *results of its children)``.
    """
    results: list = []
    stack: list = [t]  # nodes to enter, and 1-tuples of nodes to leave
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:
            (node,) = node
            if type(node) in _BINARY_NODES:
                right = results.pop()
                results[-1] = leave(node, results[-1], right)
            else:
                results[-1] = leave(node, results[-1])
        elif enter is not None and (result := enter(node)) is not None:
            results.append(result)
        elif kind in _BINARY_NODES:
            stack += ((node,), node.right, node.left)
        elif kind in _UNARY_NODES:
            stack += ((node,), node.arg)
        else:
            results.append(leave(node))
    return results[0]


def _node_key(t: Term) -> tuple:
    """A node's constructor, and its value or name if it has one."""
    if isinstance(t, Const):
        return Const, t.value
    if isinstance(t, Var):
        return Var, t.name
    return (type(t),)


def _from_postorder(keys: Sequence[tuple]) -> Term:
    """The term whose nodes have the ``_node_key`` values ``keys`` in post-order."""
    stack: list = []
    for kind, *data in keys:
        if kind in _BINARY_NODES:
            right = stack.pop()
            stack[-1] = kind(stack[-1], right)
        elif kind in _UNARY_NODES:
            stack[-1] = kind(stack[-1])
        else:
            stack.append(kind(*data))
    return stack[0]


def _replace(t: Term, f: Callable[[Term], Optional[Term]]) -> Term:
    """``t`` with each node that ``f`` maps to a term replaced by that term.

    ``f`` sees the nodes in preorder, but not the subterms of a replaced one.
    """
    return _fold(t, lambda node, *kids: _rebuild(node, kids), f)


def free_vars(t: Term) -> frozenset[str]:
    return frozenset(n.name for n in _subterms(t) if isinstance(n, Var))


def contains_hole(t: Term) -> bool:
    return any(isinstance(n, Hole) for n in _subterms(t))


def term_size(t: Term) -> int:
    return sum(1 for _ in _subterms(t))


def substitute(t: Term, name: str, replacement: Term) -> Term:
    """Replace every free occurrence of the variable ``name``."""
    return _replace(t, lambda n: replacement if isinstance(n, Var) and n.name == name else None)


def fill(context: Term, plug: Term) -> Term:
    """Replace every hole ``[]`` in ``context`` with ``plug``."""
    return _replace(context, lambda n: plug if isinstance(n, Hole) else None)


# ---------------------------------------------------------------------------
# Evaluation.
# ---------------------------------------------------------------------------


class EvalError(ValueError):
    """Unbound variable or a hole reached during evaluation."""


class UnsupportedSymbolError(ValueError):
    """The target model has no interpretation for a symbol in the term."""


def _unevaluable(t: Term) -> ValueError:
    """What evaluation raises at ``t``: a hole, or ``s``/``sqrt`` over a field."""
    if isinstance(t, Hole):
        return EvalError("cannot evaluate a context hole")
    sym = "s" if isinstance(t, Sign) else "sqrt"
    return UnsupportedSymbolError(f"{sym!r} has no finite-field interpretation")


def _variable(t: Var, valuation: Mapping) -> Any:
    if t.name not in valuation:
        raise EvalError(f"unbound variable {t.name!r}")
    return valuation[t.name]


# Each constructor's value from its arguments' values, by model kind.  Over a
# field, ``inv`` is the field's, and ``s`` and ``sqrt`` have none: they raise.
_FIELD_OPS = {Add: operator.add, Mul: operator.mul, Neg: operator.neg}
_EXACT_OPS = {
    **_FIELD_OPS,
    Inv: operator.methodcaller("inv"),
    Sign: lambda a: a.session.rational(a.sign()),
    Sqrt: operator.methodcaller("ssqrt"),
}


def eval_exact(t: Term, valuation: Mapping[str, Real], session: Session) -> Real:
    """Evaluate in the exact kernel; homomorphic in every constructor."""

    def leave(t: Term, *args: Real) -> Real:
        if args:
            return _EXACT_OPS[type(t)](*args)
        if isinstance(t, Const):
            return session.rational(t.value.numerator, t.value.denominator)
        if isinstance(t, Var):
            return session.value(_variable(t, valuation))
        raise _unevaluable(t)

    return _fold(t, leave)


# The value builder's operators: the kernel's, and its meadow extras.
_VALUE_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "neg": operator.neg,
    **{name: _EXACT_OPS[kind] for name, kind in _FUNCTIONS.items()},
}
# The exponent of each "^" or "^-", as _TOKEN_RE splits the tokens.
_EXPONENT_RE = re.compile(r"\^\s*-?\s*(\d+)")


def _closed_value(src: str, session: Session) -> Real:
    """``eval_exact(parse(src), {}, session)``, read by :func:`_read` straight
    to the value, with the same result and the same roots adjoined to
    ``session`` in the same order.

    The kernel builds each node's value as the loop completes it, in the
    post-order of the term, so each ``sqrt`` is applied at its ``)``, where
    the term's walk would reach it.  A literal is ``session.rational`` of its
    ints and ``t ^ n`` is ``t ** n``, so ``t`` is read once.  Two kinds of
    source take the term path instead: one with a zero exponent, since the
    term drops ``t`` in ``t ^ 0`` unread and reading it could adjoin roots,
    and one with a name or hole where the loop reaches it, whose error the
    term path raises.  An invalid source is refused, with the error
    :func:`parse` raises, only after its valid prefix has been evaluated.
    """

    def literal(key: Union[str, tuple[str, str]]) -> Real:
        if type(key) is str:
            return session.rational(_parse_decimal(key))
        return session.rational(*map(_parse_decimal, key))

    def leaf(text: str) -> Real:
        raise EvalError(text)

    if all(map(_parse_decimal, _EXPONENT_RE.findall(src))):
        try:
            return _read(
                src, _VALUE_OPS, literal, leaf, lambda t, n, negative: t ** (-n if negative else n)
            )
        except EvalError:  # from leaf: the term path raises the error it has there
            pass
    return eval_exact(parse(src), {}, session)


def eval_mod_p(t: Term, valuation: Mapping[str, int], field) -> int:
    """Evaluate in a totalized prime field; rejects ``s`` and ``sqrt``.

    ``field`` is a :class:`meadows.finite.PrimeField` (or a prime int, which
    is promoted).  Inversion is total with ``inv(0) == 0``; a rational
    constant ``p/q`` evaluates to ``p * inv(q)``, which is 0 when ``q``
    vanishes modulo the characteristic.  Sums, products and negations are
    taken in the integers and reduced once, at the end (``inv`` reduces its
    own argument); reduction mod p is a ring map, so this is exact.  An
    ``s``, ``sqrt`` or hole raises when it is reached, before its argument.
    """
    if isinstance(field, int):
        field = PrimeField(field)

    def enter(t: Term) -> None:
        if isinstance(t, (Sign, Sqrt, Hole)):
            raise _unevaluable(t)

    ops = {**_FIELD_OPS, Inv: field.inv}

    def leave(t: Term, *args: int) -> int:
        if args:
            return ops[type(t)](*args)
        if isinstance(t, Const):
            return t.value.numerator * field.inv(t.value.denominator)
        return _variable(t, valuation)

    return _fold(t, leave, enter) % field.p


# The source of each constructor's value from its arguments' slots, by model
# kind.  Over a field, ``s`` and ``sqrt`` have none: they raise.
_FIELD_SOURCE = {Add: "{} + {}", Mul: "{} * {}", Neg: "-{}", Inv: "inv({})"}
_EXACT_SOURCE = {
    **_FIELD_SOURCE, Inv: "{}.inv()", Sign: "rational({}.sign())", Sqrt: "{}.ssqrt()"
}
_COMPLEX_SOURCE = {**_EXACT_SOURCE, Sign: "{}.sign()"}  # a complex value's own sign
_SOURCES = {
    "field": _FIELD_SOURCE,
    "exhaustive": _FIELD_SOURCE,
    "exact": _EXACT_SOURCE,
    "complex": _COMPLEX_SOURCE,
}

# The most subterms written inline into one another: each adds at most two
# parentheses, and the parser takes at most 200 nested ones.
_MAX_INLINE = 30


def _compile(
    variables: Sequence[str], premises: Sequence[tuple], lhs: Term, rhs: Term, kind: str
):
    """The whole trial loop of a law, for the model kind ``"exact"``,
    ``"complex"``, ``"field"`` (sampled prime-field valuations) or
    ``"exhaustive"`` (every valuation over a prime field).

    Returns ``law(trials, domain, refute)``, which runs every trial and
    returns ``(satisfied, skipped)``.  A trial is skipped as soon as a premise
    ``(left, right, "eq" | "ne")`` fails; otherwise it counts as satisfied,
    and when its two sides differ it calls ``refute(valuation, lhs, rhs)``
    with what :func:`eval_exact` or :func:`eval_mod_p` give for ``lhs`` and
    ``rhs``.  An error ends the loop where the walks would raise it first.

    A trial holds one value per name in ``variables``, in that order, bound
    to locals; the valuation dict is built only for ``refute``.  Over a
    field the values are ints and ``domain`` is the :class:`PrimeField`,
    whose ``p`` and ``inv`` are bound once.  Sampled ``trials`` are tuples;
    an exhaustive check takes the field's elements as ``trials`` and runs
    one nested ``for`` per variable, the first outermost, so the trials come
    in ``itertools.product`` order.  On the exact and complex kinds the
    trial's session comes first, ``[session, v0, v1, ...]``, and ``domain``
    is not read; complex values bring their own ``sign()``, and closed
    subterms stay exact values.

    Each distinct subterm is computed once per binding of its variables, by
    a level rule.  Level k > 0 is the body of the loop that binds the k-th
    variable (a flat loop binds them all at level 1) and level 0 is outside
    every loop.  A subterm's line sits at the level of its last-bound
    variable, but never above the deepest premise test written before it,
    so a skip or a ``raise`` happens in the trial where the walks have it.
    A premise that fails at level k of N variables over F_p skips
    ``p ** (N - k)`` trials at once; a closed one runs in a one-pass loop
    so that it too can ``continue``.  The two sides are compared in the
    innermost loop.  A flat loop does not know its trial count, so its
    premise tests and raises sit inside it.  An exact or complex value
    belongs to its trial's session, so on those kinds every line is inside
    the loop, in the order the walks first evaluate the nodes, and the
    session adjoins the same roots in the same order.

    Over a field, sums, products and negations stay in Z and are reduced
    once, when the sides are compared, and a subterm read once, by a line
    of its own level, is written inline there; on the exact kinds it keeps
    its line, since inlining would reorder root adjoins.  The node where
    the walk raises, before its children, becomes a ``raise``.  Only ints
    and ``repr`` of variable names go into the source; an int of more than
    one 640-digit chunk is written in hex, which compiles under any
    int-to-str digit limit.
    """
    exact = kind in ("exact", "complex")
    nested = kind == "exhaustive"
    depth = len(variables) if nested else 1
    # Value numbering: each node's slot by its constructor and its
    # children's slots (a leaf's by its value or name), so no term is hashed.
    slots = {(Var, name): f"v{i}" for i, name in enumerate(variables)}
    levels = {slot: i + 1 if nested else 1 for i, slot in enumerate(slots.values())}
    least = 1 if exact else 0  # an exact value belongs to its trial's session
    tests = 0 if nested else 1  # the least level of a premise test or raise
    floor = 0  # the level of the last premise test
    # Each level's lines in order, as (template, operands, slot): an operand
    # is a slot or text written as it is; a line with a slot defines it.
    lines: list[list] = [[] for _ in range(depth + 1)]
    readers: dict[str, list[int]] = {}  # the level of each line that reads a slot
    templates = _SOURCES[kind]
    reals: set[str] = set()  # the complex kind's slots of closed subterms, exact values

    def place(*operands: str, at: int = 0) -> int:
        """The level of a line that reads ``operands``, noted as their reader."""
        at = max(at, least, floor, *(levels.get(o, 0) for o in operands))
        for o in operands:
            readers.setdefault(o, []).append(at)
        return at

    def enter(t: Term) -> Optional[str]:
        if isinstance(t, (Const, Var)) or type(t) in templates:
            return None
        error = _unevaluable(t)
        at = levels["None"] = place(at=tests)
        lines[at].append(("{}", (f"raise {type(error).__name__}({str(error)!r})",), None))
        return "None"  # every line after the raise is unreachable

    def leave(t: Term, *kids: str) -> str:
        key = _node_key(t) + kids
        name = slots.get(key)
        if name is not None:
            return name
        real = all(k in reals for k in kids)  # true of a Const, which has no kids
        if isinstance(t, Const):
            n, d = (
                k if k < _CHUNK_BASE else hex(k) for k in t.value.as_integer_ratio()
            )
            if exact:
                expr = f"rational({n}, {d})"
            elif d == 1:  # an int literal needs no slot
                slots[key] = str(n)
                return slots[key]
            else:
                expr = f"{n} * inv({d})"
        else:
            expr = (_EXACT_SOURCE if real else templates)[type(t)]
        name = slots[key] = f"t{len(slots)}"
        if real and kind == "complex":
            reals.add(name)
        levels[name] = at = place(*kids)
        lines[at].append((expr, kids, name))
        return name

    if exact:
        lines[1].append(("rational = session.rational", (), None))
    closed_test = False
    for left, right, relation in premises:
        a, b = _fold(left, leave, enter), _fold(right, leave, enter)
        floor = place(a, b, at=tests)
        closed_test |= floor == 0
        if exact:
            test = f"{'not ' if relation == 'eq' else ''}{{}} == {{}}"
        else:
            test = f"{'' if relation == 'eq' else 'not '}({{}} - {{}}) % p"
        below = depth - floor  # the variables a failed test skips the values of
        skip = "1" if below == 0 else "p" if below == 1 else f"p ** {below}"
        lines[floor].append((f"if {test}: skipped += {skip}; continue", (a, b), None))
    a, b = _fold(lhs, leave, enter), _fold(rhs, leave, enter)
    valuation = "{%s}" % ", ".join(f"{n!r}: v{i}" for i, n in enumerate(variables))
    if exact:
        compare = [("lhs, rhs = {}, {}", (a, b)), ("satisfied += 1", ())]
        compare.append(("if lhs != rhs: refute({}, lhs, rhs)", (valuation,)))
    else:
        compare = [] if nested else [("satisfied += 1", ())]
        compare.append(("if ({} - {}) % p: refute({}, {} % p, {} % p)", (a, b, valuation, a, b)))
    for template, operands in compare:
        lines[place(*operands, at=depth)].append((template, operands, None))

    unpack = ", ".join(f"v{i}" for i in range(len(variables)))
    source = ["def law(trials, domain, refute):"]
    source.append("    skipped = 0" if nested else "    satisfied = skipped = 0")
    source += [] if exact else ["    inv = domain.inv", "    p = domain.p"]
    if closed_test:
        source.append("    for _ in (None,):")
    shown: dict[str, tuple] = {}  # each subterm written inline: its text and nesting
    for at, level in enumerate(lines):
        indent = "    " * (at + 1 + closed_test)
        if at:
            bound = f"v{at - 1}" if nested else f"[session, {unpack}]" if exact else f"[{unpack}]"
            source.append(f"{indent[4:]}for {bound} in trials:")
        for template, operands, name in level:
            inline = [shown.pop(o, (o, 0)) for o in operands]
            code = template.format(*(text for text, _ in inline))
            nesting = 1 + max((inner for _, inner in inline), default=0)
            if name is None:
                source.append(indent + code)
            elif not exact and readers[name] == [at] and nesting < _MAX_INLINE:
                shown[name] = f"({code})", nesting  # read once, at its own level
            else:
                source.append(f"{indent}{name} = {code}")
    source.append(f"    return {f'p ** {depth} - skipped' if nested else 'satisfied'}, skipped")
    namespace = {"EvalError": EvalError, "UnsupportedSymbolError": UnsupportedSymbolError}
    exec(compile("\n".join(source) + "\n", "<compiled law>", "exec"), namespace)
    return namespace["law"]


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
    runs out.  The leaf list and the constructor lists (by remaining fuel,
    each in name order) are built once per call and shared by every node.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    unknown = signature - SIGMA_MSS
    if unknown:
        raise ValueError(f"unknown constructors: {sorted(unknown)}")
    for name in variables:
        if not _IDENT_RE.fullmatch(name) or name in _FUNCTIONS:
            raise ValueError(f"{name!r} cannot be a variable name in the term syntax")
    r = rng if rng is not None else random.Random(seed)
    unary = [_UNARY[op] for op in sorted(signature & _UNARY.keys())]
    fits = ((), unary, unary + [_BINARY[op] for op in sorted(signature & _BINARY.keys())])
    return _gen(r, max_size, fits, [ZERO, ONE, *map(Var, variables)])


def _gen(r: random.Random, fuel: int, fits: tuple, leaves: list) -> Term:
    """At most ``fuel`` nodes; ``fits[min(fuel, 3) - 1]`` are the constructors that fit."""
    ops = fits[min(fuel, 3) - 1]
    if not ops or r.random() < _LEAF_WEIGHT:
        return r.choice(leaves)
    op = r.choice(ops)
    if op not in _BINARY_NODES:
        return op(_gen(r, fuel - 1, fits, leaves))
    left_fuel = r.randint(1, fuel - 2)
    left = _gen(r, left_fuel, fits, leaves)
    return op(left, _gen(r, fuel - 1 - left_fuel, fits, leaves))


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
    spot, preorder = r.randrange(term_size(t)), count()
    return _replace(t, lambda n: HOLE if next(preorder) == spot else None)
