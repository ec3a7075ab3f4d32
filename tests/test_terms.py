"""Term language tests: grammar, rendering, evaluation, generation."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.axioms import Equation
from meadows.exact import Session
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
    Inv,
    Mul,
    Neg,
    ParseError,
    Sign,
    Sqrt,
    UnsupportedSymbolError,
    Var,
    contains_hole,
    eval_exact,
    eval_mod_p,
    fill,
    free_vars,
    gen_random_context,
    gen_random_term,
    parse,
    render,
    substitute,
    term_size,
)


class TestParsing:
    def test_atoms(self):
        assert parse("0") == ZERO
        assert parse("1") == ONE
        assert parse("42") == Const(Fraction(42))
        assert parse("x") == Var("x")
        assert parse("[]") == HOLE

    def test_rational_literals(self):
        assert parse("1/2") == Const(Fraction(1, 2))
        assert parse("2/4") == Const(Fraction(1, 2))
        assert parse("1 / 2") == Const(Fraction(1, 2))  # whitespace-insensitive

    def test_zero_denominator_desugars_to_division(self):
        assert parse("1/0") == Mul(ONE, Inv(ZERO))
        assert parse("7/0") == Mul(Const(Fraction(7)), Inv(ZERO))

    def test_literal_vs_division(self):
        assert parse("x/2") == Mul(Var("x"), Inv(Const(Fraction(2))))
        assert parse("2/x") == Mul(Const(Fraction(2)), Inv(Var("x")))
        # greedy literal first, then division
        assert parse("1/2/3") == Mul(Const(Fraction(1, 2)), Inv(Const(Fraction(3))))

    def test_sugar(self):
        assert parse("x - y") == Add(Var("x"), Neg(Var("y")))
        assert parse("x / y") == Mul(Var("x"), Inv(Var("y")))
        assert parse("-x") == Neg(Var("x"))
        assert parse("--x") == Neg(Neg(Var("x")))

    def test_precedence(self):
        assert parse("x + y * z") == Add(Var("x"), Mul(Var("y"), Var("z")))
        assert parse("-x * y") == Mul(Neg(Var("x")), Var("y"))
        assert parse("-(x * y)") == Neg(Mul(Var("x"), Var("y")))
        # unary minus distributes over the whole power
        assert parse("-x^2") == Neg(Mul(Var("x"), Var("x")))

    def test_left_associativity(self):
        assert parse("a + b + c") == Add(Add(Var("a"), Var("b")), Var("c"))
        assert parse("a - b + c") == Add(Add(Var("a"), Neg(Var("b"))), Var("c"))
        assert parse("a * b * c") == Mul(Mul(Var("a"), Var("b")), Var("c"))

    def test_functions(self):
        assert parse("s(x)") == Sign(Var("x"))
        assert parse("sqrt(x + 1)") == Sqrt(Add(Var("x"), ONE))
        assert parse("inv(sqrt(x))") == Inv(Sqrt(Var("x")))

    def test_powers_unroll(self):
        x = Var("x")
        assert parse("x^1") == x
        assert parse("x^3") == Mul(Mul(x, x), x)
        assert parse("x^0") == ONE
        assert parse("x^-2") == Inv(Mul(x, x))
        assert parse("s(1 + b)^2") == Mul(Sign(Add(ONE, Var("b"))), Sign(Add(ONE, Var("b"))))

    def test_parse_errors_carry_position(self):
        with pytest.raises(ParseError) as e:
            parse("x + ")
        assert e.value.position == 4
        with pytest.raises(ParseError):
            parse("x^y")  # exponent must be a literal
        with pytest.raises(ParseError):
            parse("sqrt 2")  # reserved word needs parentheses
        with pytest.raises(ParseError):
            parse("(x + y")
        with pytest.raises(ParseError):
            parse("x y")
        with pytest.raises(ParseError):
            parse("x @ y")

    def test_reserved_words_are_not_variables(self):
        with pytest.raises(ParseError):
            parse("s + 1")

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_exponent_over_the_cap_is_rejected_before_unrolling(self, sign):
        with pytest.raises(ParseError, match=f"over the cap of {MAX_EXPONENT}") as e:
            parse(f"x^{sign}{MAX_EXPONENT + 1}")
        assert e.value.position == 2 + len(sign)
        with pytest.raises(ParseError, match="over the cap"):
            parse("x^" + "9" * 5000)  # longer than any int-to-str digit limit

    def test_negative_constants_are_rejected(self):
        with pytest.raises(ValueError, match="wrap a Neg around it"):
            Const(-1)
        with pytest.raises(ValueError, match="wrap a Neg around it"):
            Const(Fraction(-1, 2))
        assert Const(1) == Const(Fraction(1))
        assert Const(3).value == Fraction(3) and type(Const(3).value) is Fraction

    def test_literals_longer_than_the_digit_limit(self):
        # 4501 and 4772 digits: past CPython's default int-to-str limit of 4300
        t = Const(Fraction(10**4500 + 1, 3**10000))
        assert parse(render(t)) == t


class TestRendering:
    def test_examples(self):
        assert render(Inv(Sqrt(Var("x")))) == "inv(sqrt(x))"
        assert render(Add(Var("x"), Neg(Var("y")))) == "x - y"
        assert render(Mul(Add(ONE, Var("b")), Inv(Var("c")))) == "(1 + b) * inv(c)"
        assert render(Const(Fraction(1, 2))) == "1/2"
        assert render(HOLE) == "[]"

    def test_right_nested_sums_are_parenthesized(self):
        t = Add(Var("x"), Add(Var("y"), Var("z")))
        assert render(t) == "x + (y + z)"
        assert parse(render(t)) == t

    @pytest.mark.parametrize("seed", range(200))
    def test_roundtrip_generated(self, seed):
        t = gen_random_term(seed, 25)
        assert parse(render(t)) == t

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=150)
    def test_roundtrip_property(self, seed):
        t = gen_random_term(seed, 18)
        assert parse(render(t)) == t

    def test_roundtrip_with_holes(self):
        for seed in range(40):
            c = gen_random_context(seed, 12)
            assert parse(render(c)) == c


class TestStructure:
    def test_free_vars_and_holes(self):
        t = parse("x * inv(y) + s(x)")
        assert free_vars(t) == {"x", "y"}
        assert not contains_hole(t)
        assert contains_hole(parse("sqrt([])"))

    def test_substitute(self):
        t = parse("x + x * y")
        assert substitute(t, "x", ONE) == parse("1 + 1 * y")
        assert substitute(t, "z", ZERO) == t

    def test_fill_replaces_every_hole(self):
        c = Add(HOLE, HOLE)
        assert fill(c, ZERO) == Add(ZERO, ZERO)
        assert fill(parse("sqrt([] + 1)"), Var("q")) == parse("sqrt(q + 1)")

    def test_comparing_with_a_foreign_object_is_not_implemented(self):
        t = parse("x + 1")
        assert t.__eq__(object()) is NotImplemented
        assert (t == object()) is False and (t != "x + 1") is True

    def test_repr_of_a_literal_past_the_digit_limit(self):
        big = "1" + "0" * 5000
        want = f"Const(value=Fraction({big}, 1))"
        assert repr(parse(big)) == want
        assert repr(Equation("big", parse(big), ZERO)) == (
            f"Equation(name='big', lhs={want}, rhs=Const(value=Fraction(0, 1)))"
        )

    @given(st.fractions(min_value=0, max_value=10**30, max_denominator=10**30))
    def test_repr_of_a_literal_is_the_dataclass_text(self, q):
        assert repr(Const(q)) == f"Const(value={q!r})"

    def test_term_size(self):
        assert term_size(ZERO) == 1
        assert term_size(parse("x + y * z")) == 5

    def test_structure_queries_do_not_recurse(self):
        t = Var("x")
        for _ in range(5000):
            t = Add(Neg(t), HOLE)
        assert term_size(t) == 15001
        assert free_vars(t) == {"x"}
        assert contains_hole(t)


class TestEvalExact:
    def test_homomorphic(self):
        s = Session()
        val = {"x": s.rational(3), "y": s.rational(-2)}
        assert eval_exact(parse("x + y"), val, s) == 1
        assert eval_exact(parse("x * y"), val, s) == -6
        assert eval_exact(parse("inv(y)"), val, s) == Fraction(-1, 2)
        assert eval_exact(parse("s(y)"), val, s) == -1
        assert eval_exact(parse("sqrt(x * x * s(x))"), val, s) == 3

    def test_totalized_division(self):
        s = Session()
        assert eval_exact(parse("1/0"), {}, s).is_zero()
        assert eval_exact(parse("1/0 + 1"), {}, s) == 1

    def test_errors(self):
        s = Session()
        with pytest.raises(EvalError):
            eval_exact(parse("x"), {}, s)
        with pytest.raises(EvalError):
            eval_exact(parse("[] + 1"), {}, s)


class TestEvalModP:
    def test_basic(self):
        val = {"x": 3, "y": 6}
        assert eval_mod_p(parse("x + y"), val, 7) == 2
        assert eval_mod_p(parse("x * y"), val, 7) == 4
        assert eval_mod_p(parse("-x"), val, 7) == 4
        assert eval_mod_p(parse("inv(x)"), val, 7) == 5  # 3*5 = 15 = 1 mod 7

    def test_inverse_is_totalized(self):
        assert eval_mod_p(parse("inv(0)"), {}, 7) == 0
        assert eval_mod_p(parse("1/0"), {}, 7) == 0

    def test_rational_constant_with_vanishing_denominator(self):
        # 1/3 has no value mod 3 in a field, but the totalized reading gives 0
        assert eval_mod_p(Const(Fraction(1, 3)), {}, 3) == 0
        assert eval_mod_p(Const(Fraction(2, 5)), {}, 7) == eval_mod_p(parse("2 * inv(5)"), {}, 7)

    def test_sign_and_sqrt_are_rejected(self):
        with pytest.raises(UnsupportedSymbolError):
            eval_mod_p(parse("s(x)"), {"x": 1}, 5)
        with pytest.raises(UnsupportedSymbolError):
            eval_mod_p(parse("sqrt(x)"), {"x": 1}, 5)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("s([])", UnsupportedSymbolError, "'s' has no finite-field interpretation"),
            ("sqrt(y)", UnsupportedSymbolError, "'sqrt' has no finite-field interpretation"),
            ("[] + s(x)", EvalError, "cannot evaluate a context hole"),
            ("s(x) + y", UnsupportedSymbolError, "'s' has no finite-field interpretation"),
            ("inv(z)", EvalError, "unbound variable 'z'"),
        ],
    )
    def test_error_precedence(self, text, error, message):
        # The first failing node in left-to-right order names the error, and
        # s and sqrt are rejected before their argument is evaluated.
        with pytest.raises(ValueError) as exc:
            eval_mod_p(parse(text), {"x": 1}, 5)
        assert type(exc.value) is error
        assert str(exc.value) == message


class TestGeneration:
    def test_deterministic(self):
        a = gen_random_term(123, 20)
        b = gen_random_term(123, 20)
        assert a == b
        assert gen_random_term(124, 20) != a  # overwhelmingly likely, fixed seed

    def test_size_bound(self):
        for seed in range(100):
            assert term_size(gen_random_term(seed, 9)) <= 9

    def test_size_one_is_a_leaf(self):
        t = gen_random_term(1, 1, SIGMA_M, ("x",))
        assert t in (ZERO, ONE, Var("x"))

    def test_signature_restriction(self):
        for seed in range(60):
            t = gen_random_term(seed, 15, SIGMA_M)
            assert not any(isinstance(n, (Sign, Sqrt)) for n in _walk(t))
            t2 = gen_random_term(seed, 15, SIGMA_MS)
            assert not any(isinstance(n, Sqrt) for n in _walk(t2))

    def test_unknown_constructor_rejected(self):
        with pytest.raises(ValueError):
            gen_random_term(0, 5, frozenset({"add", "bogus"}))

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="max_size must be at least 1"):
            gen_random_term(0, 0)

    @pytest.mark.parametrize("name", ["x-y", "s", "sqrt", "inv", "1x", "", "x y"])
    def test_variable_names_must_parse_back_as_variables(self, name):
        with pytest.raises(ValueError, match="cannot be a variable name"):
            gen_random_term(3, 7, SIGMA_MSS, ("x", name))
        with pytest.raises(ValueError, match="cannot be a variable name"):
            gen_random_context(3, 7, SIGMA_MSS, (name,))

    def test_identifier_names_round_trip(self):
        for seed in range(200):
            t = gen_random_term(seed, 7, SIGMA_MSS, ("sx", "x_1", "_"))
            assert parse(render(t)) == t

    def test_all_constructors_appear(self):
        seen = set()
        for seed in range(300):
            for n in _walk(gen_random_term(seed, 14, SIGMA_MSS, ("x", "y", "z"))):
                seen.add(type(n).__name__)
        assert {"Add", "Mul", "Neg", "Inv", "Sign", "Sqrt", "Const", "Var"} <= seen

    def test_contexts_have_exactly_one_hole(self):
        for seed in range(80):
            c = gen_random_context(seed, 10)
            assert sum(isinstance(n, type(HOLE)) for n in _walk(c)) == 1

    def test_generated_terms_are_pinned(self):
        # Every draw of the generator, in order, over each signature, seed and
        # size below, plus one long ``rng=`` stream; a change to the order of
        # draws or to the pick lists changes the digest.
        digest = hashlib.sha256()
        signatures = (SIGMA_M, SIGMA_MS, SIGMA_MSS, {"add"}, {"sqrt"}, set())
        for signature in map(frozenset, signatures):
            for seed in range(400):
                for size in (1, 2, 3, 5, 9, 14, 30):
                    for gen in (gen_random_term, gen_random_context):
                        digest.update(render(gen(seed, size, signature)).encode() + b"\n")
        rng = random.Random(20)
        for i in range(2000):
            gen = gen_random_context if i % 2 else gen_random_term
            digest.update(render(gen(None, 1 + i % 30, rng=rng)).encode() + b"\n")
        assert digest.hexdigest() == (
            "8edeccf3b17772bc160f7888d3bfdcee329bd825e4df1290d572a9433425b7b7"
        )


def _walk(t):
    yield t
    if isinstance(t, (Add, Mul)):
        yield from _walk(t.left)
        yield from _walk(t.right)
    elif isinstance(t, (Neg, Inv, Sign, Sqrt)):
        yield from _walk(t.arg)
