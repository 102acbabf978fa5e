import numpy as np
import pytest

from mubtomo.errors import EvenDimension, IndexOutOfRange, NotPrime, ZeroDivisor
from mubtomo.finite_field import (
    PrimeModulus,
    WeylIndex,
    assert_odd_prime,
    mod_inverse,
    weyl_decompose,
)
from mubtomo.qudit_mub import weyl_operator


def test_odd_primes_accepted():
    for d in (3, 5, 7, 11, 13, 101):
        assert assert_odd_prime(d).d == d


def test_composite_rejected():
    for d in (9, 15, 21, 4, 100):
        with pytest.raises(NotPrime):
            assert_odd_prime(d)


def test_numpy_integers_are_dimensions():
    """A dimension of any Python or numpy integer type is stored as a Python int;
    anything else, a whole float included, is not a dimension."""
    for d in (np.int64(5), np.int32(7), np.uint8(3), 11):
        modulus = assert_odd_prime(d)
        assert modulus.d == d and type(modulus.d) is int
    with pytest.raises(NotPrime, match=r"^9 = 3 \* 3 is not prime$"):
        assert_odd_prime(np.int64(9))
    for bad in (5.0, np.float64(5.0), "5", None):
        with pytest.raises(NotPrime, match=r"^dimension = .* is not a whole number$"):
            assert_odd_prime(bad)


def test_two_is_its_own_error():
    with pytest.raises(EvenDimension):
        assert_odd_prime(2)


def test_small_and_negative_dimensions_rejected():
    for d in (1, 0, -7):
        with pytest.raises(NotPrime):
            assert_odd_prime(d)


def test_omega_is_primitive_root():
    p = assert_odd_prime(7)
    assert abs(p.omega**7 - 1) < 1e-12
    assert abs(p.omega - 1) > 0.5


def test_mod_inverse_examples():
    assert mod_inverse(1, PrimeModulus(7)) == 1
    assert mod_inverse(2, PrimeModulus(5)) == 3
    # frozen from brute-force search over 1..6
    assert mod_inverse(3, PrimeModulus(7)) == 5


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_mod_inverse_property(d):
    p = PrimeModulus(d)
    for a in range(1, d):
        inv = mod_inverse(a, p)
        assert 1 <= inv < d
        assert (a * inv) % d == 1
        # agree with exhaustive search
        brute = next(x for x in range(1, d) if (a * x) % d == 1)
        assert inv == brute


def test_mod_inverse_zero_divisor():
    with pytest.raises(ZeroDivisor):
        mod_inverse(0, PrimeModulus(5))
    with pytest.raises(ZeroDivisor):
        mod_inverse(10, PrimeModulus(5))


def test_weyl_decompose_examples():
    p5 = PrimeModulus(5)
    assert weyl_decompose(WeylIndex(1, 4), p5) == (4, 1, 0)
    assert weyl_decompose(WeylIndex(2, 4), p5) == (2, 2, 3)
    assert weyl_decompose(WeylIndex(3, 0), PrimeModulus(7)) == (0, 3, 0)


def test_weyl_decompose_rejects_m_zero_and_bad_ranges():
    p = PrimeModulus(5)
    with pytest.raises(ZeroDivisor):
        weyl_decompose(WeylIndex(0, 3), p)
    with pytest.raises(IndexOutOfRange):
        weyl_decompose(WeylIndex(5, 1), p)
    with pytest.raises(IndexOutOfRange):
        weyl_decompose(WeylIndex(1, -1), p)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_weyl_decompose_is_bijection(d):
    p = PrimeModulus(d)
    images = {
        (dec.b, dec.m)
        for m in range(1, d)
        for l in range(d)
        if (dec := weyl_decompose(WeylIndex(m, l), p))
    }
    assert len(images) == d * (d - 1)
    assert images == {(b, m) for b in range(d) for m in range(1, d)}


@pytest.mark.parametrize("d", [3, 5, 7])
def test_weyl_decompose_matrix_identity(d):
    """X^m Z^l reproduces omega^nu (X Z^b)^m entrywise."""
    p = PrimeModulus(d)
    for m in range(1, d):
        for l in range(d):
            dec = weyl_decompose(WeylIndex(m, l), p)
            lhs = weyl_operator(p, m, l)
            rhs = p.root_power(dec.nu) * np.linalg.matrix_power(
                weyl_operator(p, 1, dec.b), m
            )
            assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_explicit_five_dim_grouping_example():
    """X^2 Z^4 = omega^3 (X Z^2)^2 for d = 5, by direct matrix product."""
    p = PrimeModulus(5)
    lhs = weyl_operator(p, 2, 4)
    XZ2 = weyl_operator(p, 1, 2)
    rhs = p.root_power(3) * (XZ2 @ XZ2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
