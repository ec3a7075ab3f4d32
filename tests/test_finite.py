"""Tests for the totalized prime fields and the Lagrange probes."""

import hashlib
import json
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, strategies as st

from meadows.axioms import F3Report, verify_f3_argument
from meadows.finite import (
    MAX_SIEVE_LIMIT,
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


SMALL_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Primes too large to scan: p = 3 mod 4, p = 5 mod 8, and p - 1 divisible by
# 2**23 and 2**30, which make Tonelli–Shanks loop many times.
LARGE_PRIMES = (2**61 - 1, 10000000000000061, 998244353, 3221225473)


def strong_probable_prime(n, a):
    """Does odd n pass the strong Fermat test to base a?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a, n):
    """Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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

    def test_composite_without_small_factor(self):
        # A strong pseudoprime to every prime base up to 37: only 41 exposes it.
        n = 318665857834031151167461
        assert all(strong_probable_prime(n, a) for a in SMALL_PRIME_BASES[:-1])
        assert not strong_probable_prime(n, 41)
        with pytest.raises(NotPrimeError) as exc:
            PrimeField(n)
        assert exc.value.smallest_factor is None
        assert str(exc.value) == f"{n} is not a prime (Miller–Rabin witness 41)"

    def test_primality_beyond_the_bases_is_refused(self):
        # A strong pseudoprime to all thirteen bases with no factor below 1000.
        n = 3317044064679887385961981
        assert all(strong_probable_prime(n, a) for a in SMALL_PRIME_BASES)
        with pytest.raises(ValueError) as exc:
            PrimeField(n)
        assert type(exc.value) is ValueError

    def test_small_factor_is_reported(self):
        with pytest.raises(NotPrimeError) as exc:
            PrimeField(561)  # a Carmichael number
        assert exc.value.smallest_factor == 3
        # Trial division up to 1000 names the factor of every composite
        # below 10**6; past that, Miller–Rabin names a witness instead.
        with pytest.raises(NotPrimeError) as exc:
            PrimeField(997 * 997)
        assert exc.value.smallest_factor == 997
        with pytest.raises(NotPrimeError) as exc:
            PrimeField(1009 * 1013)
        assert exc.value.smallest_factor is None
        assert str(exc.value).endswith("(Miller–Rabin witness 2)")

    def test_a_modulus_of_100_digits_is_named_by_its_bit_length(self):
        # the messages stay short, and clear of CPython's int-to-str digit limit
        for n, message in [
            (10**99 - 1, f"{10**99 - 1} is not a prime: divisible by 3"),
            (10**99, "a 329-bit number is not a prime: divisible by 2"),
            (2 * 10**5000, "a 16611-bit number is not a prime: divisible by 2"),
            (10**1400 + 1, "a 4651-bit number is not a prime: divisible by 17"),
            (-(10**200), "a negative 665-bit number is not a prime (need p >= 2)"),
        ]:
            with pytest.raises(NotPrimeError) as exc:
                PrimeField(n)
            assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            PrimeField(1009**1700)
        assert type(exc.value) is ValueError
        assert str(exc.value) == (
            "cannot decide whether a 16964-bit number is prime: it has no factor "
            "up to 1000 and is at least 3317044064679887385961981"
        )

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


@given(
    st.sampled_from(primes_upto(3000)),
    st.integers(-(10**6), 10**6),
    st.sampled_from(LARGE_PRIMES),
    st.integers(0, 2**64),
)
def test_smallest_root_matches_brute_force(p, a, big, b):
    least = next((x for x in range(p) if x * x % p == a % p), None)
    assert PrimeField(p).smallest_root(a) == least
    # Past a scan: a root is checked by squaring, a non-root by the Jacobi
    # symbol; the small residues include primitive roots squared (9 for
    # 998244353, 25 for 3221225473), whose roots take the longest loops.
    fp = PrimeField(big)
    for c in (b, *range(-30, 31)):
        r = fp.smallest_root(c)
        if jacobi(c, big) == -1:
            assert r is None
        else:
            assert r is not None and r * r % big == c % big and 0 <= r <= big // 2


class TestPrimesUpto:
    def test_small(self):
        assert primes_upto(1) == []
        assert primes_upto(2) == [2]
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_count_to_10000(self):
        assert len(primes_upto(10_000)) == 1229

    def test_count_to_the_cap(self):
        assert len(primes_upto(MAX_SIEVE_LIMIT)) == 664_579


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

    @pytest.mark.parametrize("n", [0, 5, 7])
    def test_bad_square_count_is_rejected_even_without_primes(self, n):
        for limit in (1, 30):
            with pytest.raises(ValueError, match="n must be between 1 and 4"):
                scan_lagrange(n, limit)

    @pytest.mark.parametrize("limit", [MAX_SIEVE_LIMIT + 1, 10**11])
    def test_a_limit_over_the_cap_is_refused_before_the_sieve(self, limit):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"limit is over the cap of {MAX_SIEVE_LIMIT}"):
                scan_lagrange(1, limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a sieve would hold a byte per number

    def test_as_dict_shape(self):
        d = scan_lagrange(1, 10).as_dict()
        assert d["schema"] == "meadows.scan/1"
        assert d["holds"] == [3, 7]
        assert d["counterexample_sample"] == {"2": [1], "5": [2]}


# sha256 of the sorted-key JSON of scan_lagrange(n, limit).as_dict(), recorded
# with a table of least roots per prime, independently of Tonelli–Shanks.
SCAN_DIGESTS = {
    (1, 2000): "36576bb4bb6b62f62009c79fa7f37ac4bd1f5a8efcf2483ac3b5225eea08aa7b",
    (2, 2000): "0b48c005bd4b63b05d8467b8ffb57caaa098f16a204847639ca57430015a65fb",
    (3, 2000): "77eb5acce68b8dc75372b1f31d35b2194bcc1130896c1eae34427c1dadd125d0",
    (4, 500): "299c392f9b41ed36f0f750a6c07ad0a4e8a1f770336964bbeda436e69e4e7453",
}


def test_scan_outputs_pinned():
    for (n, limit), digest in SCAN_DIGESTS.items():
        text = json.dumps(scan_lagrange(n, limit).as_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (n, limit)
    for p in primes_upto(150):
        for n in (1, 2, 3):
            witness = brute_lex_witness(p, n)
            assert lagrange_holds(p, n) == LagrangeResult(p, n, witness is None, witness)


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
