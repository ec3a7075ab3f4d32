"""Differential tests: the term layer's loops against recursive references.

``parse``, ``eval_exact`` and ``eval_mod_p`` run as explicit loops, so the
stack they take does not grow with a term's depth.  The recursive-descent
parser with its own tokenizer, and the two recursive walks they replaced,
are kept below, verbatim, as the oracle, with the ``repr`` that
``dataclass`` writes; the code under test is reached as ``terms.parse`` and
so on, and shares no tokenizer with it.
On generated source strings, on those strings mutated, and on strings of
random tokens, both parsers must give equal terms, or a ``ParseError`` with
the same message and position.  On generated terms with holes, under
valuations that leave some variables unbound, both walks must give equal
values, or an error of the same class and message, and each exact session
must end with the reference's tower.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import re
from fractions import Fraction
from itertools import count
from typing import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import terms
from meadows.approx import _parse_decimal
from meadows.axioms import random_value
from meadows.exact import Real, Session
from meadows.finite import PrimeField, primes_upto
from meadows.simplify import rewrite_simplify
from meadows.terms import (
    HOLE,
    MAX_EXPONENT,
    ONE,
    SIGMA_M,
    SIGMA_MS,
    SIGMA_MSS,
    ZERO,
    Add,
    Const,
    EvalError,
    Hole,
    Inv,
    Mul,
    Neg,
    ParseError,
    Sign,
    Sqrt,
    Term,
    Var,
    _unevaluable,
    gen_random_context,
    gen_random_term,
    render,
)

_RESERVED = {"s", "sqrt", "inv"}


# --------------------------------------------------------------------------
# The recursive references, as the term layer had them
# --------------------------------------------------------------------------


def dataclass_repr(t: Term) -> str:
    """The ``repr`` that ``dataclass`` writes for every node."""
    fields = ", ".join(
        f"{f.name}={dataclass_repr(v) if isinstance(v, Term) else repr(v)}"
        for f in dataclasses.fields(t)
        for v in (getattr(t, f.name),)
    )
    return f"{type(t).__qualname__}({fields})"


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(
    rf"\s*(?:(?P<int>\d+)|(?P<ident>{_IDENT})|(?P<hole>\[\])|(?P<op>[-+*/^()]))"
)


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
        kind = m.lastgroup
        text = m.group(kind)
        out.append((kind if kind != "op" else text, text, m.start(kind)))
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
        n = _parse_decimal(tok[1])
        if n > MAX_EXPONENT:
            raise ParseError(f"exponent is over the cap of {MAX_EXPONENT}", tok[2])
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
                den = _parse_decimal(self.next()[1])
                if den == 0:
                    return Mul(Const(Fraction(_parse_decimal(text))), Inv(ZERO))
                return Const(Fraction(_parse_decimal(text), den))
            return Const(Fraction(_parse_decimal(text)))
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
        raise _unevaluable(t)
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
    if isinstance(t, (Sign, Sqrt, Hole)):
        raise _unevaluable(t)
    raise TypeError(f"not a term: {t!r}")  # pragma: no cover


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------


def parsed(parse, src):
    """What ``parse`` makes of ``src``: a term, or the error it raised."""
    try:
        return parse(src)
    except ParseError as exc:
        return ParseError, str(exc), exc.position
    except ValueError as exc:
        return type(exc), str(exc)


def _assert_parsers_agree(src):
    expected = parsed(parse, src)
    assert parsed(terms.parse, src) == expected, src


VARIABLES = ("x", "y", "z")
SIGNATURES = (SIGMA_M, SIGMA_MS, SIGMA_MSS)


@st.composite
def generated(draw, max_size=24):
    """A generated term or one-hole context over the full signature."""
    seed, size = draw(st.integers(0, 2**32)), draw(st.integers(2, max_size))
    signature = draw(st.sampled_from(SIGNATURES))
    if draw(st.booleans()):
        return gen_random_context(seed, size, signature, VARIABLES)
    return gen_random_term(seed, size, signature, VARIABLES)


# Tokens and characters a mutation may put in, junk included: other
# whitespace, a stray bracket, a non-ASCII digit (U+0663, which ``\d``
# takes as 3) and letter, and a numeral run into a name.
PIECES = (
    "x", "y", "s", "sqrt", "inv", "(", ")", "+", "-", "*", "/", "^", "[]", "[",
    "0", "1", "2", "3/4", "1/0", "10", str(MAX_EXPONENT), str(MAX_EXPONENT + 1),
    " ", "$", "s(", "inv(", "sqrt(", "\t", "\n", "]", "\u0663", "\u00e9", "2x",
)


@st.composite
def mutated(draw):
    """A rendered term with a few pieces deleted, inserted or replaced."""
    src = render(draw(generated()))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(src)))
        j = draw(st.integers(i, min(len(src), i + 3)))
        piece = draw(st.sampled_from(("",) + PIECES))
        src = src[:i] + piece + src[j:]
    return src


@settings(max_examples=300, deadline=None)
@given(generated())
def test_rendered_terms_parse_as_the_reference_parses_them(term):
    src = render(term)
    _assert_parsers_agree(src)
    assert terms.parse(src) == term


@settings(max_examples=300, deadline=None)
@given(generated())
def test_terms_print_as_dataclass_and_survive_pickle_and_copy(term):
    assert repr(term) == dataclass_repr(term)
    assert pickle.loads(pickle.dumps(term)) == term
    assert copy.deepcopy(term) == term


@settings(max_examples=200, deadline=None)
@given(generated(), st.integers(0, 2**32))
def test_shared_leaves_act_as_unshared_ones(term, seed):
    # parse builds one node per literal and per name; a pickle round trip
    # rebuilds the same term with a node of its own at every position
    t = terms.parse(render(term))
    u = pickle.loads(pickle.dumps(t))
    leaves = [n for n in terms._subterms(t) if isinstance(n, (Const, Var))]
    assert len({id(n) for n in leaves}) == len({terms._node_key(n) for n in leaves})
    assert len({id(n) for n in terms._subterms(u)}) == terms.term_size(u)
    assert t == u and hash(t) == hash(u) and render(t) == render(u)
    assert rewrite_simplify(t) == rewrite_simplify(u)
    for name in VARIABLES:
        assert terms.substitute(t, name, ONE) == terms.substitute(u, name, ONE)
    spot = random.Random(seed).randrange(terms.term_size(t))

    def at_spot():
        preorder = count()
        return lambda n: Var("w") if next(preorder) == spot else None

    assert terms._replace(t, at_spot()) == terms._replace(u, at_spot())


@settings(max_examples=600, deadline=None)
@given(mutated())
def test_mutated_strings_parse_as_the_reference_parses_them(src):
    _assert_parsers_agree(src)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=14).map("".join))
def test_token_strings_parse_as_the_reference_parses_them(src):
    _assert_parsers_agree(src)


def test_every_parse_error_is_reached():
    cases = {
        "x $ y": "unexpected character '$' (at position 2)",
        "s x": "expected '(' after 's' (at position 2)",
        "sqrt": "expected '(' after 'sqrt' (at position 4)",
        "(x": "expected ')' (at position 2)",
        "inv(x y)": "expected ')' (at position 6)",
        "(x^2^3)": "expected ')' (at position 4)",
        "x^2^3": "unexpected trailing input (at position 3)",
        "x)": "unexpected trailing input (at position 1)",
        "x^y": "exponent must be an integer literal (at position 2)",
        "x^--1": "exponent must be an integer literal (at position 3)",
        "x^10001": "exponent is over the cap of 10000 (at position 2)",
        "x + * y": "expected a value (at position 4)",
        "x + * y $": "unexpected character '$' (at position 8)",
        "-": "expected a value (at position 1)",
    }
    for src, message in cases.items():
        assert parsed(terms.parse, src) == parsed(parse, src)
        assert parsed(terms.parse, src)[1] == message


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def evaluated(evaluate, *args):
    """The value ``evaluate`` gives, or the class and message of its error."""
    try:
        return evaluate(*args)
    except ValueError as exc:  # EvalError and UnsupportedSymbolError
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(generated(), st.integers(0, 2**32), st.sets(st.sampled_from(VARIABLES)))
def test_exact_walk_matches_the_reference(term, seed, bound):
    # The same draws in two sessions: one for the reference, one for the loop.
    sessions = Session(), Session()
    valuations = []
    for session in sessions:
        rng = random.Random(seed)
        valuations.append({v: random_value(rng, session) for v in sorted(bound)})
    expected = evaluated(eval_exact, term, valuations[0], sessions[0])
    got = evaluated(terms.eval_exact, term, valuations[1], sessions[1])
    if isinstance(expected, Real):
        assert got.coords == expected.coords
    else:
        assert got == expected
    assert sessions[1].radicands == sessions[0].radicands


PRIMES = primes_upto(60)


@settings(max_examples=400, deadline=None)
@given(
    generated(),
    st.sampled_from(PRIMES),
    st.dictionaries(st.sampled_from(VARIABLES), st.integers(-200, 200)),
)
def test_field_walk_matches_the_reference(term, p, valuation):
    field = PrimeField(p)
    expected = evaluated(eval_mod_p, term, valuation, field)
    assert evaluated(terms.eval_mod_p, term, valuation, field) == expected
    assert evaluated(terms.eval_mod_p, term, valuation, p) == expected
