"""Tests for canonical closed forms and the rewriting simplifier."""

import itertools
import json
import random
from pathlib import Path

import pytest

from meadows import simplify
from meadows.axioms import Equation, check_equation, random_value
from meadows.exact import Session
from meadows.simplify import (
    REWRITE_RULES,
    SimplifyResult,
    _RULES_BY_ROOT,
    _matchers,
    decide_closed_eq,
    normalize_closed,
    rewrite_simplify,
    sign_of_closed,
    value_to_term,
)
from meadows.terms import (
    Add,
    Const,
    EvalError,
    Hole,
    Inv,
    Mul,
    Neg,
    Sign,
    Sqrt,
    Term,
    Var,
    _children,
    _rebuild,
    _replace,
    _subterms,
    eval_exact,
    gen_random_term,
    parse,
    render,
)

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "rewrite_golden.json"


def _match(pattern, term, bindings):
    """First-order matching of ``term`` against ``pattern``, by recursion.

    ``bindings`` maps each pattern variable (the ``Var`` node) to the subterm
    it matched; repeated pattern variables must bind equal subterms.  The
    reference shares no matcher with :func:`rewrite_simplify`, whose
    matchers are generated from the patterns.
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
    return all(_match(p, t, bindings) for p, t in zip(_children(pattern), _children(term)))


def _reference_hit(term):
    """The first rule of the catalog that matches ``term`` at its root, as
    ``(name, replacement, bound subterms)``, or None."""
    for rule in REWRITE_RULES:
        bindings = {}
        if _match(rule.pattern, term, bindings):
            return rule.name, _replace(rule.replacement, bindings.get), tuple(bindings.values())
    return None


def _rewrite_once(term, path):
    """The leftmost-innermost redex of ``term``, rewritten: children first."""
    children = _children(term)
    for i, child in enumerate(children):
        hit = _rewrite_once(child, path + (i,))
        if hit is not None:
            new_child, rule_name, where = hit
            rebuilt = _rebuild(
                term, tuple(new_child if j == i else c for j, c in enumerate(children))
            )
            return rebuilt, rule_name, where
    hit = _reference_hit(term)
    if hit is not None:
        rule_name, replacement, _ = hit
        return replacement, rule_name, path
    return None


def restarting_rewrite(term, max_steps):
    """Reference for :func:`rewrite_simplify`: one step at a time, each
    searching for the next redex from the root."""
    trace = []
    current = term
    for _ in range(max_steps):
        hit = _rewrite_once(current, ())
        if hit is None:
            return SimplifyResult(current, len(trace), False, tuple(trace))
        current, rule_name, path = hit
        trace.append((rule_name, path))
    truncated = _rewrite_once(current, ()) is not None
    return SimplifyResult(current, len(trace), truncated, tuple(trace))


class TestValueToTerm:
    def test_rationals(self):
        s = Session()
        assert render(value_to_term(s.zero)) == "0"
        assert render(value_to_term(s.one)) == "1"
        assert render(value_to_term(s.rational(3, 25))) == "3/25"
        assert render(value_to_term(s.rational(-7, 2))) == "-7/2"

    def test_single_radical(self):
        s = Session()
        assert render(value_to_term(s.value(8).ssqrt())) == "2 * sqrt(2)"
        assert render(value_to_term(-s.value(2).ssqrt())) == "-sqrt(2)"
        assert render(value_to_term(1 + s.value(2).ssqrt())) == "1 + sqrt(2)"

    def test_factor_and_part_ordering(self):
        s = Session()
        root3 = s.value(3).ssqrt()
        root2 = s.value(2).ssqrt()
        value = root3 - 2 * root2 + s.rational(1, 2)
        assert render(value_to_term(value)) == "1/2 - 2 * sqrt(2) + sqrt(3)"
        assert render(value_to_term(root2 * root3)) == "sqrt(2) * sqrt(3)"

    def test_nested_radical(self):
        s = Session()
        value = (1 + s.value(2).ssqrt()).ssqrt()
        assert render(value_to_term(value)) == "sqrt(1 + sqrt(2))"

    def test_round_trips_through_eval(self):
        rng = random.Random(31)
        for _ in range(60):
            session = Session()
            value = random_value(rng, session)
            term = value_to_term(value)
            assert eval_exact(term, {}, session) == value
            # Re-reading the canonical form in a fresh session is stable.
            fresh = Session()
            again = eval_exact(term, {}, fresh)
            assert render(value_to_term(again)) == render(term)


class TestNormalizeClosed:
    def test_frozen_examples(self):
        assert normalize_closed("sqrt(8)") == "2 * sqrt(2)"
        assert normalize_closed("1/0 + 1") == "1"
        assert normalize_closed("sqrt(-1)") == "-1"
        assert normalize_closed("sqrt(2) * sqrt(3) + sqrt(6)") == "2 * sqrt(2) * sqrt(3)"
        assert normalize_closed("(1 + sqrt(2))^2") == "3 + 2 * sqrt(2)"
        assert normalize_closed("sqrt(1/2)") == "1/2 * sqrt(2)"
        assert normalize_closed("s(3 - sqrt(8))") == "1"
        assert normalize_closed("1/2 + 1/3") == "5/6"

    def test_idempotent(self):
        for src in (
            "sqrt(8)",
            "sqrt(2) * sqrt(3) + sqrt(6)",
            "(1 + sqrt(2))^2",
            "inv(1 - sqrt(5))",
            "sqrt(1 + sqrt(1 + sqrt(2)))",
        ):
            once = normalize_closed(src)
            assert normalize_closed(once) == once

    def test_rejects_open_terms(self):
        with pytest.raises(EvalError):
            normalize_closed("x + 1")
        with pytest.raises(EvalError):
            normalize_closed("1 + []")


class TestClosedDecisions:
    def test_decide_closed_eq(self):
        assert decide_closed_eq("sqrt(2) + sqrt(3)", "sqrt(5 + 2 * sqrt(6))")
        assert decide_closed_eq("1/0", "0")
        assert decide_closed_eq("inv(sqrt(2))", "sqrt(2) / 2")
        assert not decide_closed_eq("sqrt(2)", "3/2")
        assert not decide_closed_eq("sqrt(2) * sqrt(3)", "sqrt(5)")

    def test_sign_of_closed(self):
        assert sign_of_closed("1 - sqrt(2)") == -1
        assert sign_of_closed("sqrt(2) - 1") == 1
        assert sign_of_closed("sqrt(2) * sqrt(3) - sqrt(6)") == 0
        assert sign_of_closed("1/0") == 0


class TestRewriteRules:
    def test_rule_inventory(self):
        assert len(REWRITE_RULES) == 20
        names = [rule.name for rule in REWRITE_RULES]
        assert len(names) == len(set(names))

    def test_every_rule_is_sound(self):
        # Each oriented rule, read as an equation, holds in the exact model.
        for rule in REWRITE_RULES:
            law = Equation(rule.name, rule.pattern, rule.replacement)
            report = check_equation(law, "exact", trials=120, seed=17)
            assert report.verdict == "pass", str(report)


def _interpretation(t: Term, env: dict) -> int:
    """The polynomial interpretation under which the module docstring
    claims every rule is strictly reducing."""
    kind = type(t)
    if kind is Var:
        return env[t.name]
    if kind in (Const, Hole):
        return 2
    a = [_interpretation(c, env) for c in _children(t)]
    if kind is Add:
        return a[0] + a[1] + 1
    if kind is Mul:
        return a[0] * a[1] + 1
    if kind is Sign:
        return a[0] ** 2
    if kind is Sqrt:
        return 2 * a[0]
    return a[0] + 1  # Neg, Inv


class TestRuleTermination:
    @pytest.mark.parametrize("rule", REWRITE_RULES, ids=lambda r: r.name)
    def test_every_rule_lowers_the_interpretation(self, rule):
        for x in range(2, 30):
            for y in range(2, 30):
                env = {"x": x, "y": y}
                pattern = _interpretation(rule.pattern, env)
                assert pattern > _interpretation(rule.replacement, env), (x, y)


class TestRuleIndex:
    CONSTRUCTORS = (Const, Var, Hole, Add, Mul, Neg, Inv, Sign, Sqrt)

    def test_each_constructor_gets_the_rules_rooted_at_it(self):
        assert set(_RULES_BY_ROOT) == set(self.CONSTRUCTORS)
        for kind in (Const, Var, Hole):
            assert _RULES_BY_ROOT[kind] == ()
        assert [r.name for r in _RULES_BY_ROOT[Add]] == ["add-zero-left", "add-zero-right"]
        for kind in self.CONSTRUCTORS:
            expected = tuple(r for r in REWRITE_RULES if type(r.pattern) is kind)
            assert _RULES_BY_ROOT[kind] == expected, kind.__name__


def _instances(rule):
    """Instances of ``rule``'s pattern and near-misses of them.

    Each leaf of the pattern becomes, in turn, each term of a small pool:
    0, 1, 2, 1/2 or a variable where the pattern has a constant, and terms
    that equal one another or not where it has a variable.  Every leaf is
    parsed on its own, so a repeated variable binds equal but not identical
    subterms; the instance's text, parsed again, shares its leaves.
    """
    leaf = (Const, Var)
    pools = [
        ("0", "1", "2", "1/2", "x") if type(n) is Const else ("x", "y", "0", "1", "x + 1", "s(x)")
        for n in _subterms(rule.pattern)
        if type(n) in leaf
    ]
    for choice in itertools.product(*pools):
        picks = iter(choice)
        term = _replace(rule.pattern, lambda n: parse(next(picks)) if type(n) in leaf else None)
        yield term
        yield parse(render(term))


def test_compiled_matchers_agree_with_the_reference():
    # At every node, the generated matcher and the reference pick the same
    # first rule, build an equal replacement and bind the same subterms.
    rng = random.Random(41)
    terms = [gen_random_term(None, rng.randint(1, 14), rng=rng) for _ in range(300)]
    for rule in REWRITE_RULES:
        terms += _instances(rule)
    near_misses = ("sqrt(x*y*s(x))", "sqrt((a+1)*(a+1)*s(a+1))", "sqrt((a+1)*(a+1)*s(a+2))")
    terms += [parse(src) for src in near_misses]
    terms += [parse(src) for src, _, _ in json.loads(GOLDEN.read_text())]
    fired = set()
    for term in terms:
        for node in _subterms(term):
            expected = _reference_hit(node)
            hit = _matchers()[type(node)](node)
            if expected is None:
                assert hit is None, render(node)
                continue
            name, replacement, bound = hit
            assert name == expected[0], render(node)
            assert replacement == expected[1], render(node)
            assert len(bound) == len(expected[2]), render(node)
            assert all(a is b for a, b in zip(bound, expected[2])), render(node)
            fired.add(name)
    assert fired == {rule.name for rule in REWRITE_RULES}


class TestRewriteSimplify:
    def test_frozen_traces(self):
        result = rewrite_simplify(parse("s(s(x * y))"))
        assert render(result.term) == "s(x) * s(y)"
        assert [name for name, _ in result.trace] == [
            "sign-of-product",
            "sign-of-product",
            "sign-idempotent",
            "sign-idempotent",
        ]
        result = rewrite_simplify(parse("sqrt(x * x * s(x)) + 0 * y"))
        assert render(result.term) == "x"
        assert result.steps == 3
        result = rewrite_simplify(parse("inv(inv(sqrt(-(s(s(z))))))"))
        assert render(result.term) == "-s(z)"

    def test_fixpoint_and_leaf_cases(self):
        for src in ("x", "x + y", "sqrt(2)", "s(x) * s(y)", "x - 1"):
            result = rewrite_simplify(parse(src))
            assert render(result.term) == src
            assert result.steps == 0
            assert not result.truncated

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(40):
            term = gen_random_term(None, 18, rng=rng)
            simplified = rewrite_simplify(term).term
            again = rewrite_simplify(simplified)
            assert again.steps == 0
            assert again.term == simplified

    def test_step_budget(self):
        term = parse("inv(inv(inv(inv(x))))")
        full = rewrite_simplify(term)
        assert full.steps == 2 and not full.truncated
        capped = rewrite_simplify(term, max_steps=1)
        assert capped.steps == 1 and capped.truncated
        frozen = rewrite_simplify(term, max_steps=0)
        assert frozen.term == term and frozen.truncated
        with pytest.raises(ValueError):
            rewrite_simplify(term, max_steps=-1)

    def test_matches_the_restarting_reference(self):
        rng = random.Random(29)
        terms = [gen_random_term(None, rng.randint(1, 14), rng=rng) for _ in range(400)]
        terms += [gen_random_term(None, rng.randint(1, 30), rng=rng) for _ in range(200)]
        terms += [parse(src) for src, _, _ in json.loads(GOLDEN.read_text())]
        # parse and gen_random_term share only leaves.  These terms reuse
        # compound nodes, so a subterm one step binds turns up again
        # elsewhere, in the same term or in a replacement.
        u = Sign(Mul(Var("x"), Var("y")))
        terms += [Add(u, Mul(u, Inv(Inv(u)))), Mul(Inv(Inv(u)), Neg(Neg(Inv(Inv(u)))))]
        for _ in range(150):
            pool = [gen_random_term(None, rng.randint(1, 6), rng=rng) for _ in range(3)]
            for _ in range(rng.randint(2, 8)):
                kind = rng.choice([Add, Mul, Neg, Inv, Sign, Sqrt])
                kids = [rng.choice(pool) for _ in range(2 if kind in (Add, Mul) else 1)]
                pool.append(kind(*kids))
            terms.append(pool[-1])
        for term in terms:
            for max_steps in (0, 1, 2, 3, 1000):
                expected = restarting_rewrite(term, max_steps)
                assert rewrite_simplify(term, max_steps) == expected, render(term)

    @pytest.mark.parametrize(
        "src",
        ["x^600", "x" + "*1" * 600, "x" + "+0" * 600],
        ids=["power", "mul-by-one", "add-zero"],
    )
    def test_deep_terms_match_the_reference(self, src):
        # ``^`` and chained operators build left-nested terms without
        # recursing in the parser, so these reach about 600 levels: the
        # one-pass rewriter must fit them in the default recursion limit
        # just as the restarting loop does.
        term = parse(src)
        assert rewrite_simplify(term) == restarting_rewrite(term, 1000)

    def test_a_subtree_where_no_rule_fires_is_returned_as_is(self):
        big = parse("x * y + s(z) * sqrt(w + 1) - inv(x)")
        w = Var("w")
        result = rewrite_simplify(Add(big, Inv(Inv(w))))
        assert result.term == Add(big, w) and result.term.left is big
        term = parse("inv(inv(x)) + 0 * y")
        assert rewrite_simplify(term, max_steps=0).term is term

    def test_bound_subterms_are_not_normalised_again(self, monkeypatch):
        # inv(inv(x)) -> x binds the whole sum below it, which is normal
        # already: the layers must cost the same whatever the sum's size.
        calls = 0

        def counting(matcher):
            def count(term):
                nonlocal calls
                calls += 1
                return matcher(term)

            return count

        counted = {kind: counting(matcher) for kind, matcher in _matchers().items()}
        monkeypatch.setattr(simplify, "_matchers", lambda: counted)

        def matches(term, layers, normal_form):
            nonlocal calls
            calls = 0
            result = rewrite_simplify(term)
            assert result.term is normal_form and result.steps == layers
            return calls

        def balanced(lo, hi):
            if hi - lo == 1:
                return Var(f"x{lo}")
            mid = (lo + hi) // 2
            return Add(balanced(lo, mid), balanced(mid, hi))

        def layered(t, layers):
            for _ in range(layers):
                t = Inv(Inv(t))
            return t

        extra = {}
        for leaves in (16, 1024):
            s = balanced(0, leaves)
            alone = matches(s, 0, s)
            assert alone > 0
            extra[leaves] = [matches(layered(s, k), k, s) - alone for k in (1, 10, 40)]
        assert extra[16] == extra[1024]
        assert all(n > 0 for n in extra[16])

    def test_building_a_replacement_hashes_no_term(self, monkeypatch):
        # Only the replacement's variables are looked up in the bindings; a
        # compound node's hash walks all of it, so none may be taken.
        term = parse("sqrt(-s(x * y)) + s(s(x * y))")

        def unhashable(self):
            raise AssertionError(f"hashed {render(self)}")

        monkeypatch.setattr(Term, "__hash__", unhashable)
        result = rewrite_simplify(term)
        assert render(result.term) == "-sqrt(s(x) * s(y)) + s(x) * s(y)"

    def test_preserves_semantics_on_random_terms(self):
        rng = random.Random(19)
        for _ in range(40):
            term = gen_random_term(None, 16, variables=("x", "y"), rng=rng)
            simplified = rewrite_simplify(term).term
            for _ in range(5):
                session = Session()
                valuation = {
                    "x": random_value(rng, session),
                    "y": random_value(rng, session),
                }
                assert eval_exact(term, valuation, session) == eval_exact(
                    simplified, valuation, session
                )

    def test_result_shape(self):
        result = rewrite_simplify(parse("0 + sqrt(s(x))"))
        assert isinstance(result, SimplifyResult)
        assert render(result.term) == "s(x)"
        assert result.steps == len(result.trace) == 2
        data = result.as_dict()
        assert data["schema"] == "meadows.simplify/1"
        assert data["term"] == "s(x)"
        assert data["truncated"] is False
        assert all(set(entry) == {"rule", "path"} for entry in data["trace"])
