"""Tests for the complex extension of the exact kernel."""

import random
from operator import add, mul, sub, truediv

import pytest

from meadows.axioms import random_value
from meadows.complexes import Complex
from meadows.exact import Session, SessionMismatch


def random_complex(rng, session):
    return Complex(random_value(rng, session), random_value(rng, session))


class TestConstruction:
    def test_from_parts_and_literals(self):
        s = Session()
        z = Complex.from_parts(s, 3, 4)
        assert z.re == s.value(3)
        assert z.im == s.value(4)
        assert Complex(s.value(2)).im == s.zero
        assert Complex.from_parts(s, 1).is_real()

    def test_requires_real_part_value(self):
        with pytest.raises(TypeError):
            Complex(3, 4)

    def test_imaginary_unit(self):
        s = Session()
        i = Complex.i(s)
        assert i * i == -1
        assert i * i * i * i == 1

    def test_predicates(self):
        s = Session()
        assert Complex.from_parts(s, 0, 0).is_zero()
        assert not Complex.from_parts(s, 0, 1).is_zero()
        assert Complex.from_parts(s, 5).is_real()
        assert not Complex.i(s).is_real()


class TestArithmetic:
    def test_frozen_inverse(self):
        s = Session()
        z = Complex.from_parts(s, 3, 4)
        w = z.inv()
        assert w.re == s.rational(3, 25)
        assert w.im == s.rational(-4, 25)
        assert z * w == 1

    def test_inverse_is_totalized(self):
        s = Session()
        zero = Complex.from_parts(s, 0, 0)
        assert zero.inv() == zero
        assert (Complex.from_parts(s, 5, -2) / zero) == zero

    def test_ring_identities_random(self):
        rng = random.Random(12)
        for _ in range(40):
            s = Session()
            a, b = random_complex(rng, s), random_complex(rng, s)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b).conj() == a.conj() + b.conj()
            assert (a * b).conj() == a.conj() * b.conj()
            assert a + (-a) == 0
            assert a * a.inv() == (1 if not a.is_zero() else 0)

    def test_difference_of_squares(self):
        rng = random.Random(3)
        for _ in range(25):
            s = Session()
            a, b = random_complex(rng, s), random_complex(rng, s)
            assert (a + b) * (a - b) == a * a - b * b

    def test_scalar_mixing(self):
        s = Session()
        z = Complex.from_parts(s, 1, 1)
        assert 2 * z == Complex.from_parts(s, 2, 2)
        assert z + 1 == Complex.from_parts(s, 2, 1)
        assert 1 - z == Complex.from_parts(s, 0, -1)
        assert z / 2 == Complex.from_parts(s, s.rational(1, 2), s.rational(1, 2))
        assert 1 / Complex.i(s) == -Complex.i(s)

    def test_foreign_operands_are_not_implemented(self):
        z, foreign = Complex.from_parts(Session(), 1, 2), object()
        with pytest.raises(TypeError):
            z + "a"
        for op in (add, sub, mul, truediv):
            with pytest.raises(TypeError):
                op(z, foreign)
            with pytest.raises(TypeError):
                op(foreign, z)
        assert (z == foreign) is False and (z != foreign) is True

    def test_sessions_do_not_mix(self):
        a = Complex.from_parts(Session(), 1, 2)
        b = Complex.from_parts(Session(), 1, 2)
        with pytest.raises(SessionMismatch):
            a + b


class TestSignAndRoot:
    def test_sign_reads_real_part(self):
        s = Session()
        assert Complex.from_parts(s, 3, -100).sign() == 1
        assert Complex.from_parts(s, -3, 100).sign() == -1
        assert Complex.from_parts(s, 0, 5).sign() == 0

    def test_root_reads_real_part(self):
        s = Session()
        assert Complex.from_parts(s, 4, 7).ssqrt() == 2
        assert Complex.from_parts(s, -4, 7).ssqrt() == -2
        z = Complex.from_parts(s, 2, 1).ssqrt()
        assert z.is_real()
        assert z.re == s.value(2).ssqrt()

    def test_real_part_projection(self):
        s = Session()
        z = Complex.from_parts(s, 5, -3)
        assert z.re_part() == Complex.from_parts(s, 5)
        assert z.re_part() == (z + z.conj()) / 2


class TestDisplay:
    def test_serialize(self):
        s = Session()
        assert str(Complex.from_parts(s, 3, 4).inv()) == "complex(3/25, -4/25)"
        assert str(Complex.from_parts(s, 2).ssqrt()) == "complex(sqrt(2), 0)"
        assert repr(Complex.i(s)) == "Complex(complex(0, 1))"

    def test_hash_consistent_with_eq(self):
        s = Session()
        a = Complex.from_parts(s, 1, 2)
        b = Complex.from_parts(s, 1, 2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_real_line_hashes_like_its_real_part(self):
        s = Session()
        r2 = s.value(2).ssqrt()
        assert Complex(r2) == r2 and hash(Complex(r2)) == hash(r2)
        assert Complex.from_parts(s, 3) == 3 and hash(Complex.from_parts(s, 3)) == hash(3)
        assert 3 in {Complex.from_parts(s, 3)}
        assert Complex.from_parts(s, 3, 1) in {Complex.from_parts(s, 3, 1)}
