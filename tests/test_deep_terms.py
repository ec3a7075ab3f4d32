"""Terms nested ten times deeper than CPython's default recursion limit.

Every pass over a term runs as a loop, so none takes a frame per nesting
level.  The chains below nest about 10 000 nodes deep, and the tests run at
the default limit of 1000 frames.
"""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from meadows.axioms import Equation, check_equation
from meadows.exact import Session
from meadows import simplify
from meadows.simplify import rewrite_simplify
from meadows.terms import (
    ONE,
    Var,
    eval_exact,
    eval_mod_p,
    fill,
    parse,
    render,
    substitute,
    term_size,
)

# ``sqrt(s(-inv(t * x + 1)))`` around ``t``: every constructor, 8 nodes a
# block.  Its ring part, ``-inv(t * x + 1)``, has 6 nodes a block.
BLOCK = ("sqrt(s(-inv(", " * x + 1)))")
RING_BLOCK = ("-inv(", " * x + 1)")


def chain(block, blocks, base="y"):
    """``blocks`` nested copies of ``block`` around ``base``, in render form."""
    return block[0] * blocks + base + block[1] * blocks


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


@pytest.mark.parametrize("block, blocks", [(BLOCK, 1250), (RING_BLOCK, 1667)])
def test_a_deep_chain_parses_prints_and_compares(block, blocks):
    src = chain(block, blocks)
    term = parse(src)
    assert term_size(term) >= 10_000
    assert render(term) == src
    copy = parse(src)
    assert copy is not term and copy == term and hash(copy) == hash(term)
    assert term != parse(chain(block, blocks, base="z"))
    assert substitute(term, "y", ONE) == parse(chain(block, blocks, base="1"))
    assert fill(parse(chain(block, blocks, base="[]")), Var("y")) == term


def test_a_deep_chain_evaluates_exactly():
    def sign(q):
        return (q > 0) - (q < 0)

    x, value = Fraction(2), Fraction(3)
    for _ in range(1250):  # the signed root of a sign is the sign
        value = Fraction(sign(-(1 / (value * x + 1))))
    session = Session()
    got = eval_exact(parse(chain(BLOCK, 1250)), {"x": 2, "y": 3}, session)
    assert got == session.rational(value)


def test_a_deep_chain_evaluates_and_checks_over_a_field():
    term = parse(chain(RING_BLOCK, 1667))
    for p in (5, 7):
        value = 3
        for _ in range(1667):
            value = -pow(value * 2 + 1, p - 2, p) % p
        assert eval_mod_p(term, {"x": 2, "y": 3}, p) == value
    report = check_equation(Equation("deep", term, term), 5)
    assert (report.trials, report.failure_count) == (25, 0)


def test_a_deep_chain_rewrites():
    rewritten = parse(chain(("s(-inv(", " * x + 1))"), 1250))
    result = rewrite_simplify(parse(chain(BLOCK, 1250)), max_steps=1250)
    assert (result.term, result.steps, result.truncated) == (rewritten, 1250, False)
    assert {name for name, _ in result.trace} == {"sqrt-of-sign"}
    assert result.trace[0][1] == (0, 0, 0, 0, 0, 0) * 1249
    capped = rewrite_simplify(parse(chain(BLOCK, 1250)))
    assert (capped.steps, capped.truncated) == (1000, True)


def test_a_truncated_rewrite_matches_no_further_node(monkeypatch):
    calls = []

    def counted(matcher):
        def match(t):
            calls.append(t)
            return matcher(t)
        return match

    matchers = {kind: counted(m) for kind, m in simplify._matchers().items()}
    monkeypatch.setattr(simplify, "_matchers", lambda: matchers)
    term = parse(chain(BLOCK, 1250))
    result = rewrite_simplify(term, max_steps=0)
    assert (result.term, result.steps, result.truncated) == (term, 0, True)
    # y, x, y * x, 1, + 1, inv, -, s(...) and the first sqrt(s(...)), which
    # would fire: the walk then finishes the ancestors without matching them
    assert len(calls) == 9


@pytest.mark.parametrize("opening", ["(", "inv(", "inv(("])
def test_5000_nested_brackets(opening):
    src = opening * 5000 + "x" + ")" * opening.count("(") * 5000
    term = parse(src)
    layers = opening.count("inv") * 5000
    assert render(term) == "inv(" * layers + "x" + ")" * layers
    session = Session()
    assert eval_exact(term, {"x": 3}, session) == session.rational(3)
    assert eval_mod_p(term, {"x": 3}, 7) == 3
    result = rewrite_simplify(term, max_steps=layers)
    assert (result.term, result.steps) == (Var("x"), layers // 2)


def test_a_deep_term_prints_pickles_and_copies():
    term = parse("x^5000")  # ((x * x) * x) * ... nests 4999 products deep
    x = "Var(name='x')"
    assert repr(term) == "Mul(left=" * 4999 + x + f", right={x})" * 4999
    assert pickle.loads(pickle.dumps(term)) == term
    assert copy.deepcopy(term) == term
