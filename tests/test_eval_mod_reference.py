"""Differential test: integer evaluation mod p against a per-node reference.

``eval_mod_p`` computes sums, products and negations on plain ints and
reduces once at the end (``inv`` reduces its own argument).  The reference
below is the earlier evaluator, which reduced every node through the field
operations.  It is kept here only as an oracle.  Random ring terms over
primes up to 60 must evaluate to the same residue under both, with
valuations that are negative or at least ``p`` and rational constants whose
denominators may vanish mod ``p``.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from meadows.finite import PrimeField, primes_upto
from meadows.terms import (
    SIGMA_M,
    Add,
    Const,
    Inv,
    Mul,
    Neg,
    Var,
    eval_mod_p,
    gen_random_term,
    substitute,
)


def ref_eval_mod(t, valuation, field):
    def ev(u):
        return ref_eval_mod(u, valuation, field)

    p = field.p
    if isinstance(t, Const):
        return field.mul(t.value.numerator % p, field.inv(t.value.denominator % p))
    if isinstance(t, Var):
        return valuation[t.name] % p
    if isinstance(t, Add):
        return field.add(ev(t.left), ev(t.right))
    if isinstance(t, Mul):
        return field.mul(ev(t.left), ev(t.right))
    if isinstance(t, Neg):
        return field.neg(ev(t.arg))
    if isinstance(t, Inv):
        return field.inv(ev(t.arg))
    raise TypeError(f"not a ring term: {t!r}")


PRIMES = primes_upto(60)


@st.composite
def cases(draw):
    p = draw(st.sampled_from(PRIMES))
    seed, size = draw(st.integers(0, 2**32)), draw(st.integers(1, 30))
    term = gen_random_term(seed, size, SIGMA_M, ("x", "y", "c"))
    # A rational constant, its denominator a multiple of p half of the time.
    denominator = draw(st.integers(1, 12)) * (p if draw(st.booleans()) else 1)
    term = substitute(term, "c", Const(Fraction(draw(st.integers(0, 50)), denominator)))
    value = st.integers(-3 * p, 3 * p) | st.integers(-(10**30), 10**30)
    return p, term, {"x": draw(value), "y": draw(value)}


@settings(max_examples=400, deadline=None)
@given(cases())
def test_eval_mod_p_matches_per_node_reduction(case):
    p, term, valuation = case
    field = PrimeField(p)
    expected = ref_eval_mod(term, valuation, field)
    assert eval_mod_p(term, valuation, field) == expected
    assert eval_mod_p(term, valuation, p) == expected


def test_constant_with_vanishing_denominator_under_a_sum():
    # 1/p + x is x mod p: the constant's inverse is the totalized inv(0) == 0.
    for p in PRIMES:
        term = Add(Const(Fraction(1, p)), Var("x"))
        assert eval_mod_p(term, {"x": -1}, p) == p - 1
        assert ref_eval_mod(term, {"x": -1}, PrimeField(p)) == p - 1
