"""Decimal-channel tests: certified truncations and kernel cross-checks."""

import contextlib
import math
import random
import sys
from fractions import Fraction

import pytest

from meadows import approx
from meadows.approx import (
    _CHUNK,
    _LEAF_BITS,
    _MAX_BITS,
    _MAX_DIGITS,
    _decimal,
    _parse_decimal,
    approx_decimal,
    approx_fraction,
    enclose,
)
from meadows.exact import Session


@pytest.fixture()
def s():
    return Session()


class TestFrozenExamples:
    def test_exact_rational(self, s):
        assert approx_decimal(s.rational(1, 2), 3) == "0.500"
        assert approx_decimal(s.rational(-7, 4), 2) == "-1.75"
        assert approx_decimal(s.zero, 4) == "0.0000"

    def test_sqrt2_truncations(self, s):
        r2 = s.rational(2).ssqrt()
        # float oracle: sqrt(2) = 1.41421356...
        assert approx_decimal(r2, 7) == "1.4142135"
        assert approx_decimal(r2.inv(), 7) == "0.7071067"
        assert approx_decimal(r2 + r2, 7) == "2.8284271"

    def test_negative_root(self, s):
        m2 = s.rational(-2).ssqrt()
        assert approx_decimal(m2, 4) == "-1.4142"

    def test_digit_count_is_exact(self, s):
        r3 = s.rational(3).ssqrt()
        out = approx_decimal(r3, 12)
        assert out == "1.732050807568"
        assert len(out.split(".")[1]) == 12

    def test_rejects_nonpositive_digits(self, s):
        with pytest.raises(ValueError):
            approx_decimal(s.one, 0)

    @pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 10)])
    def test_enclose_rejects_nonpositive_width(self, s, width):
        with pytest.raises(ValueError, match="width must be positive"):
            enclose(s.rational(2).ssqrt(), width)


class TestCertification:
    def test_error_bound_against_float(self, s):
        for n in (2, 3, 5, 7, 11):
            x = s.rational(n).ssqrt()
            d = float(approx_fraction(x, 9))
            assert abs(d - math.sqrt(n)) < 1e-9

    def test_enclose_width(self, s):
        x = s.rational(2).ssqrt() + s.rational(3).ssqrt()
        lo, hi = enclose(x, Fraction(1, 10**15))
        assert hi - lo < Fraction(1, 10**15)
        assert lo < hi  # irrational: never a point interval
        f = math.sqrt(2) + math.sqrt(3)
        assert lo <= Fraction(f).limit_denominator(10**12) + Fraction(1, 10**9)

    def test_never_contradicts_exact_decisions(self):
        rng = random.Random(5)
        sess = Session()
        pool = [sess.rational(2).ssqrt(), sess.rational(3).ssqrt(), sess.one]
        values = []
        for _ in range(40):
            x = sess.rational(rng.randint(-9, 9), rng.randint(1, 9))
            for p in pool:
                if rng.random() < 0.4:
                    x = x + rng.randint(-2, 2) * p
            if rng.random() < 0.3:
                x = x.ssqrt()
            values.append(x)
        for a in values[:20]:
            for b in values[20:]:
                da, db = approx_fraction(a, 12), approx_fraction(b, 12)
                cmp = a.compare(b)
                if cmp == 0:
                    assert da == db  # equal values take identical paths
                elif cmp > 0:
                    assert da >= db  # truncation toward zero is monotone
                else:
                    assert da <= db

    def test_truncation_is_toward_zero(self, s):
        # the emitted magnitude never exceeds the true magnitude
        x = s.rational(2).ssqrt()
        lo, hi = enclose(x, Fraction(1, 10**9))
        d = approx_fraction(x, 6)
        assert d <= lo  # positive: truncation sits at or below the value
        dm = approx_fraction(-x, 6)
        assert dm >= -lo  # negative: at or above (magnitude truncated)
        assert dm == -d

    def test_tiny_negative_formats_unsigned_zero(self, s):
        x = s.rational(-1, 10**8)
        assert approx_decimal(x, 4) == "0.0000"

    def test_deep_tower(self, s):
        x = s.rational(2)
        for _ in range(3):
            x = (1 + x).ssqrt()
        out = approx_decimal(x, 10)
        # float oracle for sqrt(1+sqrt(1+sqrt(3)))
        f = math.sqrt(1 + math.sqrt(1 + math.sqrt(1 + 2)))
        assert abs(float(Fraction(out)) - f) < 1e-9


@contextlib.contextmanager
def int_str_limit(digits):
    """Run a block under ``sys.set_int_max_str_digits(digits)`` (0: no limit)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class TestDigitLimit:
    """Decimals longer than CPython's int<->str digit limit."""

    def test_5000_digits_of_sqrt2_under_the_lowest_limit(self, s):
        with int_str_limit(0):
            expected = str(math.isqrt(2 * 10**10000))
        with int_str_limit(640):
            out = approx_decimal(s.rational(2).ssqrt(), 5000)
            negated = approx_decimal(-s.rational(2).ssqrt(), 5000)
        assert out == f"{expected[0]}.{expected[1:]}"
        assert negated == "-" + out

    def test_fraction_is_built_from_ints(self, s):
        x = s.rational(2).ssqrt()
        assert approx_fraction(x, 4400) == Fraction(math.isqrt(2 * 10**8800), 10**4400)
        assert approx_fraction(-x, 4400) == -approx_fraction(x, 4400)

    def test_digits_beyond_the_precision_cap_are_refused(self, s):
        assert 10**_MAX_DIGITS <= 2**_MAX_BITS < 10 ** (_MAX_DIGITS + 1)
        with pytest.raises(ValueError, match=f"digits must be at most {_MAX_DIGITS}"):
            approx_decimal(s.rational(1, 3), _MAX_DIGITS + 1)
        with pytest.raises(ValueError, match="at most"):
            approx_fraction(s.rational(2).ssqrt(), 10**9)

    def test_a_value_beyond_the_precision_budget_is_refused(self, s, monkeypatch):
        # With a budget of 128 bits, 30 digits pass the request cap, but the
        # bounds of 10**40 * sqrt(2) at 128 bits are about 30 wide.
        monkeypatch.setattr(approx, "_MAX_BITS", 128)
        big = s.rational(10**40) * s.rational(2).ssqrt()
        with pytest.raises(ValueError, match="precision budget of 128 bits"):
            approx_decimal(big, 30)
        with pytest.raises(ValueError, match="precision budget of 128 bits"):
            enclose(s.rational(2).ssqrt(), Fraction(1, 2**200))
        assert approx_decimal(s.rational(2).ssqrt(), 30) == "1.414213562373095048801688724209"

    def test_long_integer_part(self, s):
        x = s.rational(10**1500 + 1, 3)
        with int_str_limit(0):
            expected = str((10**1500 + 1) * 100 // 3)
        with int_str_limit(640):
            out = approx_decimal(x, 2)
        assert out == f"{expected[:-2]}.{expected[-2:]}"


def _boundary_ints():
    """Ints on each side of the single-chunk cut, of the leaf size of the
    binary split, and of powers ``10**(640 * 2**k)``."""
    edges = [10**_CHUNK, 2**_LEAF_BITS, 2 ** (2 * _LEAF_BITS + 1)]
    edges += [10 ** (_CHUNK << k) for k in range(1, 6)]
    edges += [2 ** (10 ** (_CHUNK << k)).bit_length() for k in range(1, 4)]
    return [e + d for e in edges for d in (-1, 0, 1)] + [0, 1, 9, 10]


class TestDecimalConversion:
    def test_matches_str_at_chunk_and_split_boundaries(self):
        for n in _boundary_ints():
            with int_str_limit(0):
                expected = str(n)
            with int_str_limit(640):
                assert _decimal(n) == expected
                assert _parse_decimal(expected) == n

    def test_matches_str_on_random_sizes(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.getrandbits(rng.randrange(1, 40_000))
            with int_str_limit(0):
                expected = str(n)
            assert _decimal(n) == expected
            assert _parse_decimal(expected) == n
        assert _parse_decimal("007") == 7
        assert _parse_decimal("0" * 2 * _CHUNK + "7") == 7

    def test_a_number_with_as_many_digits_as_the_cap(self):
        n = 10**_MAX_DIGITS // 3
        out = _decimal(n)
        assert len(out) == _MAX_DIGITS and set(out) == {"3"}
        assert _parse_decimal(out) == n
