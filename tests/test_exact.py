"""Kernel tests: tower arithmetic, totalized inverse/sign/root, dedup."""

import random
import time
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meadows import exact
from meadows.approx import approx_fraction, enclose
from meadows.axioms import random_value
from meadows.exact import Real, Session, SessionMismatch, TowerInvariantError, _vmul


@pytest.fixture()
def s():
    return Session()


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)


class TestRationalLayer:
    def test_from_rational_reduces(self, s):
        assert s.rational(2, 4).coords == (Fraction(1, 2),)
        assert s.rational(-3, -6).coords == (Fraction(1, 2),)

    def test_from_rational_zero_denominator_is_zero(self, s):
        # matches the totalized reading p * inv(0) == 0
        assert s.rational(1, 0).is_zero()
        assert s.rational(-7, 0) == 0

    def test_fraction_input(self, s):
        assert s.rational(Fraction(3, 7)) == s.rational(3, 7)

    def test_as_rational_of_an_irrational_raises(self, s):
        assert s.rational(-3, 7).as_rational() == Fraction(-3, 7)
        with pytest.raises(ValueError, match="value is irrational"):
            s.rational(2).ssqrt().as_rational()

    @given(a=rationals, b=rationals)
    @settings(max_examples=60)
    def test_field_ops_match_fractions(self, a, b):
        sess = Session()
        x, y = sess.rational(a), sess.rational(b)
        assert (x + y).as_rational() == a + b
        assert (x * y).as_rational() == a * b
        assert (-x).as_rational() == -a
        assert (x - y).as_rational() == a - b

    @given(a=rationals)
    @settings(max_examples=60)
    def test_inv_totalized(self, a):
        sess = Session()
        x = sess.rational(a)
        assert x.inv().as_rational() == (0 if a == 0 else 1 / a)

    def test_division_by_zero_is_zero(self, s):
        assert (s.rational(5) / s.zero).is_zero()
        assert (5 / s.zero).is_zero()


class TestSignAndOrder:
    def test_sign_examples(self, s):
        assert s.rational(3, 4).sign() == 1
        assert s.rational(-2).sign() == -1
        assert s.zero.sign() == 0

    def test_sign_of_sqrt2_minus_best_approximant(self, s):
        # integer oracle: 2 * 408**2 == 332928 < 332929 == 577**2,
        # so sqrt(2) < 577/408 and the difference is negative.
        assert 2 * 408**2 < 577**2
        r2 = s.rational(2).ssqrt()
        assert (r2 - Fraction(577, 408)).sign() == -1

    def test_compare(self, s):
        r2 = s.rational(2).ssqrt()
        assert r2.compare(Fraction(3, 2)) == -1
        assert r2.compare(r2) == 0
        assert r2.compare(1) == 1
        assert r2 < Fraction(3, 2) and r2 > 1
        assert r2 <= Fraction(3, 2) and r2 >= 1 and r2 <= r2 and r2 >= r2
        assert not (r2 <= 1 or r2 >= Fraction(3, 2))
        with pytest.raises(TypeError, match="cannot compare Real with str"):
            r2.compare("1")

    def test_mixed_sign_parts(self, s):
        # 3 - 2*sqrt(2) > 0 but 1 - sqrt(2) < 0: the branch comparing
        # u^2 against v^2 * r must pick the right side both ways.
        r2 = s.rational(2).ssqrt()
        assert (3 - 2 * r2).sign() == 1
        assert (1 - r2).sign() == -1
        assert (r2 - 1).sign() == 1

    def test_trichotomy_random(self, s):
        import random

        rng = random.Random(7)
        r2 = s.rational(2).ssqrt()
        r3 = s.rational(3).ssqrt()
        for _ in range(50):
            q = Fraction(rng.randint(-20, 20), rng.randint(1, 15))
            x = q + rng.randint(-3, 3) * r2 + rng.randint(-3, 3) * r3
            sg = x.sign()
            assert sg in (-1, 0, 1)
            assert (sg == 0) == x.is_zero()
            assert (-x).sign() == -sg


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _exact_sign(tower, a):
    """The sign of ``a`` by the exact recursion alone, unfiltered at every level."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_enclosed_sign", lambda tower, a: 0)
        return exact._vsign(tower, a)


class TestFilteredSign:
    """Wide multiquadratic signs come from an integer enclosure when it excludes 0.

    The exact recursion, unfiltered at every level, is the oracle, and so is
    any ``approx.enclose`` interval that excludes 0 (an independent channel).
    """

    @staticmethod
    def _tower(rng, depth):
        sess = Session()
        while sess.depth < depth:
            sess.rational(rng.randint(2, 400), rng.randint(1, 9)).ssqrt()
        return sess

    @staticmethod
    def _sparse(rng, n):
        a = [0] * n
        for mask in rng.sample(range(n), rng.randint(1, 5)):
            a[mask] = rng.randint(-99, 99)
        return tuple(a)

    @pytest.mark.parametrize("seed", range(30))
    def test_filter_agrees_with_the_recursion_and_the_enclosure(self, seed):
        rng = random.Random(seed)
        sess = self._tower(rng, 3 + seed % 8)
        n = 1 << sess.depth
        forms = [self._sparse(rng, n) for _ in range(4)]
        vectors = [(0,) * n, *forms, _vmul(sess, forms[0], forms[1]), _vmul(sess, forms[2], forms[3])]
        if sess.depth <= 6:
            vectors.append(tuple(rng.randint(-20, 20) for _ in range(n)))
        for a in vectors:
            sign = exact._vsign(sess, a)
            assert sign == _exact_sign(sess, a)
            lo, hi = enclose(Real(sess, a), Fraction(1, 10**6))
            if lo > 0 or hi < 0:
                assert sign == (1 if lo > 0 else -1)

    @pytest.mark.parametrize("depth", [3, 5, 6])
    @pytest.mark.parametrize("digits", [15, 40, 400])
    def test_near_zero_signs_fall_back_only_past_the_last_precision(self, depth, digits):
        # q truncates x toward 0, so 0 < x - q < 10**-digits: one filter step
        # settles both signs at 15 digits, the second at 40, and none at 400,
        # where the recursion decides
        fallbacks, enclosed = [], exact._enclosed_sign

        def counted(tower, a):
            sign = enclosed(tower, a)
            if not sign:
                fallbacks.append(len(a))
            return sign

        sess = Session()
        x = sum((sess.rational(p).ssqrt() for p in PRIMES[:depth]), sess.zero)
        q = approx_fraction(x, digits)
        below, above = x - q, x - q - Fraction(1, 10**digits)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_enclosed_sign", counted)
            assert (below.sign(), above.sign()) == (1, -1)
        assert bool(fallbacks) == (digits == 400)

    def test_large_tower_signs_meet_their_budget(self):
        # the unfiltered recursion takes 0.7-1.1 s at 12 primes and at 16
        for n, budget in ((12, 0.05), (16, 0.25)):
            sess = Session()
            x = sum((sess.rational(p).ssqrt() for p in PRIMES[:n]), sess.zero) - 40
            start = time.perf_counter()
            assert x.sign() == 1
            assert time.perf_counter() - start < budget


class TestSignedSqrt:
    def test_perfect_squares(self, s):
        assert s.rational(4).ssqrt() == 2
        assert s.rational(-9).ssqrt() == -3
        assert s.rational(4).inv().ssqrt() == Fraction(1, 2)
        assert s.zero.ssqrt().is_zero()

    def test_square_root_squares_back(self, s):
        r2 = s.rational(2).ssqrt()
        assert r2 * r2 == 2
        v = r2 + r2
        assert v * v == 8

    def test_negative_mirror(self, s):
        m2 = s.rational(-2).ssqrt()
        p2 = s.rational(2).ssqrt()
        assert m2 == -p2
        assert m2.sign() == -1
        assert m2 * m2 == 2

    def test_square_content_is_extracted(self, s):
        r8 = s.rational(8).ssqrt()
        r2 = s.rational(2).ssqrt()
        assert r8 == 2 * r2
        # only one radical was ever adjoined: 8 deduplicated against 2
        assert s.depth == 1

    def test_product_of_roots_is_root_of_product(self, s):
        r2 = s.rational(2).ssqrt()
        r3 = s.rational(3).ssqrt()
        r6 = s.rational(6).ssqrt()
        assert r2 * r3 == r6

    def test_dedup_of_rational_ratio(self, s):
        r2 = s.rational(2).ssqrt()
        r50 = s.rational(50).ssqrt()
        assert r50 == 5 * r2
        assert s.depth == 1

    def test_nested_radical_dedup(self, s):
        r2 = s.rational(2).ssqrt()
        u = (2 + 2 * r2).ssqrt()
        x = (1 + r2).ssqrt()  # == u / sqrt(2), already in the tower
        depth = s.depth
        assert x * x == 1 + r2
        assert r2 * x == u
        assert s.depth == depth  # nothing new was adjoined

    def test_pseudo_units(self, s):
        assert s.zero.pseudo_unit().is_zero()
        assert s.zero.pseudo_zero() == 1
        m2 = s.rational(-2).ssqrt()
        assert m2.pseudo_unit() == 1
        assert m2.pseudo_zero().is_zero()

    def test_ssqrt_of_inverse(self, s):
        x = s.rational(7)
        assert x.inv().ssqrt() == x.ssqrt().inv()

    def test_signed_square_identity_random(self):
        import random

        rng = random.Random(21)
        for _ in range(30):
            sess = Session()
            q = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
            x = sess.rational(q)
            if rng.random() < 0.5:
                x = x.ssqrt()
            # root of x*x*s(x) recovers x, including for negatives and zero
            sgn = sess.rational(x.sign())
            assert (x * x * sgn).ssqrt() == x
            sess.check_invariants()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_every_root_the_tower_search_finds_squares_to_its_argument(self, seed):
        # Roots of squares and shifted squares of values over nested roots,
        # so the search recurses and builds roots a + (v/2a)*sqrt(r).
        search = exact._vsqrt_in_tower

        def checked(tower, y):
            w = search(tower, y)
            if w is not None:
                num, den = w
                assert _vmul(tower, num, num) == tuple(den * den * c for c in y)
            return w

        rng, sess = random.Random(seed), Session()
        x0, x1, x2 = (random_value(rng, sess) for _ in range(3))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact, "_vsqrt_in_tower", checked)  # recursive calls too
            a = x0.ssqrt() + x1
            assert (a * a).ssqrt() == a * a.sign()
            c = (x2 * x2 + a).ssqrt()
            assert ((c + 1) ** 2).ssqrt() == (c + 1) * (c + 1).sign()
            sess.check_invariants()


class TestMeadowLaws:
    """Spot checks of the defining equations on mixed depth values."""

    def _values(self, sess):
        r2 = sess.rational(2).ssqrt()
        r3 = sess.rational(3).ssqrt()
        return [
            sess.zero,
            sess.one,
            sess.rational(-5, 3),
            r2,
            1 - r3,
            r2 * r3 - 4,
            (1 + r2).ssqrt(),
        ]

    def test_inverse_laws(self, s):
        for x in self._values(s):
            assert x.inv().inv() == x
            assert x * (x * x.inv()) == x  # restricted inverse law
            assert (-x).inv() == -(x.inv())

    def test_inv_distributes_over_mul(self, s):
        vals = self._values(s)
        for x in vals:
            for y in vals:
                assert (x * y).inv() == x.inv() * y.inv()

    def test_sign_laws(self, s):
        vals = self._values(s)
        for x in vals:
            assert x.inv().sign() == x.sign()
            assert x.pseudo_unit().sign() in (0, 1)
            for y in vals:
                assert (x * y).sign() == x.sign() * y.sign()

    def test_root_order_preservation(self, s):
        vals = self._values(s)
        for x in vals:
            for y in vals:
                assert (x.ssqrt() - y.ssqrt()).sign() == (x - y).sign()


class TestSessionDiscipline:
    def test_mixing_sessions_raises(self):
        a = Session().rational(1)
        b = Session().rational(1)
        with pytest.raises(SessionMismatch):
            a + b
        with pytest.raises(SessionMismatch):
            a == b
        with pytest.raises(SessionMismatch, match="different session"):
            Session().value(a)
        assert a.session.value(a) is a

    def test_repr_and_unary_plus(self, s):
        x = s.rational(2).ssqrt() + s.rational(3).ssqrt()
        assert repr(s) == "Session(depth=2)"
        assert +x is x

    def test_int_and_fraction_promotion(self, s):
        x = s.rational(1, 2)
        assert x + 1 == Fraction(3, 2)
        assert 2 * x == 1
        assert x - Fraction(1, 2) == 0

    def test_hash_consistent_with_eq(self, s):
        r2 = s.rational(2).ssqrt()
        a = r2 + r2
        b = 2 * r2
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_rational_hash_matches_fraction_and_int(self, s):
        assert 2 in {s.value(2)}
        assert s.value(2) in {2}
        assert hash(s.rational(3, 4)) == hash(Fraction(3, 4))
        assert hash(s.rational(-5)) == hash(-5)
        assert hash(s.zero) == hash(0)
        r2 = s.rational(2).ssqrt()
        assert r2 * r2 in {2}  # a product that lands on a rational

    def test_irrational_values_stay_hashable(self, s):
        r2 = s.rational(2).ssqrt()
        r3 = s.rational(3).ssqrt()
        values = {r2, r3, r2 * r3, 1 + r2, (1 + r2) - 1}
        assert len(values) == 4
        assert s.rational(6).ssqrt() in values

    def test_foreign_operands_are_not_implemented(self, s):
        x, foreign = s.value(1), object()
        with pytest.raises(TypeError):
            x + "a"
        for op in (add, sub, mul, truediv):
            with pytest.raises(TypeError):
                op(x, foreign)
            with pytest.raises(TypeError):
                op(foreign, x)
        with pytest.raises(TypeError):
            x ** 0.5
        assert (x == foreign) is False and (x != foreign) is True

    def test_powers(self, s):
        r2 = s.rational(2).ssqrt()
        assert r2**2 == 2
        assert r2**0 == 1
        assert s.zero**0 == 1
        assert r2**-2 == Fraction(1, 2)
        assert r2**5 == 4 * r2
        assert (1 + r2) ** 3 == (1 + r2) * (1 + r2) * (1 + r2)
        assert s.zero**-1 == 0  # totalized

    def test_large_power_is_square_and_multiply(self, s):
        r2 = s.value(2).ssqrt()
        start = time.perf_counter()
        assert r2**200000 == 2**100000
        assert r2**-3 == r2 / 4
        assert time.perf_counter() - start < 1.0

    def test_invariants_after_heavy_use(self):
        sess = Session()
        x = sess.rational(5)
        for _ in range(4):
            x = (x + 1).ssqrt()
        sess.check_invariants()
        assert x.sign() == 1

    def test_root_memo_answers_repeats_and_stays_valid(self, s):
        r2 = s.rational(2).ssqrt()
        u = (2 + 2 * r2).ssqrt()
        x = (1 + r2).ssqrt()
        depth = s.depth
        assert (1 + r2).ssqrt() == x  # from the memo
        assert (-(1 + r2)).ssqrt() == -x
        s.rational(5).ssqrt()  # the tower grows; cached roots stay right
        assert (2 + 2 * r2).ssqrt() == u
        assert (1 + r2).ssqrt() ** 2 == 1 + r2
        assert s.depth == depth + 1
        s.check_invariants()

    def test_check_invariants_catches_a_bad_memo_entry(self, s):
        r2 = s.rational(2).ssqrt()
        s._roots[(r2._num, r2._den)] = ((3,), 1)
        with pytest.raises(TowerInvariantError):
            s.check_invariants()

    def test_check_invariants_catches_a_bad_product_table(self, s):
        for p in (2, 3, 5):
            s.rational(p).ssqrt()
        assert s._products == (1, 2, 3, 6, 5, 10, 15, 30)
        s.check_invariants()
        products = s._products
        s._products = products[:6] + (14,) + products[7:]
        with pytest.raises(TowerInvariantError, match="product table"):
            s.check_invariants()
        s._products = None  # a multiquadratic tower must keep its table
        with pytest.raises(TowerInvariantError, match="product table"):
            s.check_invariants()
        s._products = products
        (1 + s.rational(2).ssqrt()).ssqrt()  # a nested radicand drops the table
        assert s._products is None
        s.check_invariants()
        s._products = products + products
        with pytest.raises(TowerInvariantError, match="product table"):
            s.check_invariants()

    def test_check_invariants_catches_a_bad_radicand(self):
        s = Session()
        s.rational(2).ssqrt()
        s._radicands = ((2, 0),)
        with pytest.raises(TowerInvariantError, match="level 1 radicand has wrong arity"):
            s.check_invariants()
        for radicand, fault in (((-2,), "is not positive"), ((4,), "is a lower square")):
            s = Session()
            s._adjoin(radicand)
            with pytest.raises(TowerInvariantError, match=f"level 1 radicand {fault}"):
                s.check_invariants()

    def test_adjoin_rejects_a_radicand_of_the_wrong_arity(self):
        s = Session()
        with pytest.raises(TowerInvariantError, match="adjoined radicand has wrong arity"):
            s._adjoin((2, 0))
        s._adjoin((2,))
        with pytest.raises(TowerInvariantError, match="adjoined radicand has wrong arity"):
            s._adjoin((3,))
        assert s.depth == 1
        s.check_invariants()

    def test_rational_roots_are_not_memoized(self, s):
        s.rational(2).ssqrt()
        s.rational(3).ssqrt()
        memo = len(s._roots)
        for i in range(1, 40):
            assert s.value(i * i).ssqrt() == i
            assert s.rational(i * i, 4).ssqrt() == Fraction(i, 2)
        assert len(s._roots) == memo

    def test_constructor_checks_its_arguments(self, s):
        s.rational(2).ssqrt()
        x = Real(s, (2, 4, 0, 0), 6)
        assert x.coords == (Fraction(1, 3), Fraction(2, 3)) and x._den == 3
        with pytest.raises(ValueError):
            Real(s, (1, 2, 3))
        with pytest.raises(ValueError):
            Real(s, (1,), 0)
        with pytest.raises(TypeError, match="int numerators"):
            Real(s, (Fraction(1, 2),))
        with pytest.raises(TypeError, match="int numerators"):
            Real(s, (1,), 2.0)

    def test_a_vector_longer_than_the_tower_is_refused(self, s):
        with pytest.raises(ValueError, match="longer than the session's tower"):
            Real(s, (1, 1))
        s.rational(2).ssqrt()
        assert Real(s, (1, 1, 0, 0)) == 1 + s.rational(2).ssqrt()
        with pytest.raises(ValueError, match="longer than the session's tower"):
            Real(s, (1, 1, 1, 0))

    def test_radicand_value_roundtrip(self, s):
        s.rational(2).ssqrt()
        assert s.radicand_value(1) == 2
        with pytest.raises(ValueError):
            s.radicand_value(2)
