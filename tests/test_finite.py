"""Tests for the totalized prime fields and the Lagrange probes."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from meadows.axioms import F3Report, verify_f3_argument
from meadows.finite import (
    LagrangeResult,
    NotPrimeError,
    PrimeField,
    lagrange_holds,
    primes_upto,
    scan_lagrange,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def brute_lex_witness(p, n):
    """Independent oracle: first (x_1..x_n) in lex order with 1+sum sq == 0."""
    for xs in product(range(p), repeat=n):
        if (1 + sum(x * x for x in xs)) % p == 0:
            return xs
    return None


class TestPrimeField:
    def test_rejects_composites(self):
        with pytest.raises(NotPrimeError) as exc:
            PrimeField(15)
        assert exc.value.smallest_factor == 3
        with pytest.raises(NotPrimeError):
            PrimeField(1)
        with pytest.raises(NotPrimeError) as exc:
            PrimeField(0)
        assert exc.value.smallest_factor is None

    def test_accepts_primes(self):
        for p in SMALL_PRIMES + [97, 10007]:
            assert PrimeField(p).p == p

    def test_field_arithmetic(self):
        fp = PrimeField(7)
        assert fp.add(5, 4) == 2
        assert fp.sub(2, 5) == 4
        assert fp.mul(3, 5) == 1
        assert fp.neg(3) == 4
        assert fp.element(-1) == 6

    def test_inverse_is_totalized(self):
        fp = PrimeField(5)
        assert fp.inv(0) == 0
        assert fp.inv(2) == 3
        for a in range(1, 5):
            assert fp.mul(a, fp.inv(a)) == 1

    @given(st.sampled_from(SMALL_PRIMES), st.integers(0, 200), st.integers(0, 200))
    def test_ring_laws_random(self, p, a, b):
        fp = PrimeField(p)
        a, b = fp.element(a), fp.element(b)
        assert fp.add(a, b) == fp.add(b, a)
        assert fp.mul(a, b) == fp.mul(b, a)
        assert fp.add(a, fp.neg(a)) == 0
        assert fp.inv(fp.inv(a)) == a

    def test_squares_table(self):
        fp = PrimeField(3)
        assert sorted(fp.squares) == [0, 1]
        for p in SMALL_PRIMES[1:]:  # odd primes
            assert len(PrimeField(p).squares) == (p + 1) // 2
        # Euler's criterion as a second, independent characterization.
        fp = PrimeField(13)
        euler = {a for a in range(13) if a == 0 or pow(a, 6, 13) == 1}
        assert fp.squares == euler
        # Brute force over every residue, p = 2 included.
        for p in primes_upto(60):
            assert PrimeField(p).squares == {x * x % p for x in range(p)}

    def test_smallest_root(self):
        fp = PrimeField(7)
        assert fp.smallest_root(2) == 3  # 3*3 = 9 == 2, and 4 also works
        assert fp.smallest_root(0) == 0
        assert fp.smallest_root(3) is None
        # Against a scan for the least root, p = 2 included; arguments
        # outside range(p) are reduced first.
        for p in primes_upto(60):
            fp = PrimeField(p)
            for a in range(-p, 2 * p):
                least = next((x for x in range(p) if x * x % p == a % p), None)
                assert fp.smallest_root(a) == least

    def test_equality_and_repr(self):
        assert PrimeField(5) == PrimeField(5)
        assert PrimeField(5) != PrimeField(7)
        assert hash(PrimeField(5)) == hash(PrimeField(5))
        assert repr(PrimeField(5)) == "PrimeField(5)"


class TestPrimesUpto:
    def test_small(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_10000(self):
        assert len(primes_upto(10_000)) == 1229


class TestLagrangeProbe:
    def test_one_square_frozen(self):
        # 2*2 = 4 == -1 mod 5, so the probe fails at p=5 with witness (2,).
        res = lagrange_holds(5, 1)
        assert res == LagrangeResult(5, 1, False, (2,))
        assert res.verify()
        # No x has x*x == -1 mod 7 (squares mod 7 are {0,1,2,4}).
        res = lagrange_holds(7, 1)
        assert res == LagrangeResult(7, 1, True, None)

    def test_two_squares_frozen(self):
        # 1 + 1 == -1 mod 3 and 0 + 1 == -1 mod 2.
        assert lagrange_holds(3, 2).witness == (1, 1)
        assert lagrange_holds(2, 2).witness == (0, 1)

    def test_witness_is_lex_smallest(self):
        for p in primes_upto(60):
            for n in (1, 2, 3):
                res = lagrange_holds(p, n)
                assert res.witness == brute_lex_witness(p, n)
                assert res.holds == (res.witness is None)
                assert res.verify()

    def test_accepts_field_instance(self):
        fp = PrimeField(11)
        assert lagrange_holds(fp, 1).holds
        assert not lagrange_holds(fp, 2).holds

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            lagrange_holds(5, 0)
        with pytest.raises(ValueError):
            lagrange_holds(5, 5)


class TestScan:
    def test_one_square_upto_30(self):
        res = scan_lagrange(1, 30)
        assert res.holds == (3, 7, 11, 19, 23)
        assert all(p % 4 == 3 for p in res.holds)
        assert set(res.counterexample_sample) == {2, 5, 13, 17, 29}

    def test_one_square_matches_congruence(self):
        res = scan_lagrange(1, 500)
        assert list(res.holds) == [p for p in primes_upto(500) if p % 4 == 3]

    def test_two_squares_never_hold(self):
        res = scan_lagrange(2, 200)
        assert res.holds == ()
        assert list(res.counterexample_sample) == [2, 3, 5, 7, 11]
        for p, w in res.counterexample_sample.items():
            assert (1 + sum(x * x for x in w)) % p == 0

    def test_as_dict_shape(self):
        d = scan_lagrange(1, 10).as_dict()
        assert d["schema"] == "meadows.scan/1"
        assert d["holds"] == [3, 7]
        assert d["counterexample_sample"] == {"2": [1], "5": [2]}


class TestF3Argument:
    def test_report(self):
        report = verify_f3_argument()
        assert isinstance(report, F3Report)
        assert report.squares_mod_3 == (0, 1)
        assert report.md_and_l1_pass
        assert report.display_term == "(1 + 1 + 1) * inv(1 + 1 + 1)"
        assert report.finite_value == 0
        assert report.exact_value == "1"
        assert report.homomorphism_impossible

    def test_as_dict_shape(self):
        d = verify_f3_argument().as_dict()
        assert d["schema"] == "meadows.f3/1"
        assert d["homomorphism_impossible"] is True
