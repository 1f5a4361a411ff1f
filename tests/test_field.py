"""Prime fields: primality, the modulus check, inverses."""

import pytest

from privcoal import ParameterError, PrimeField, is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97, 101]


def test_is_prime_on_knowns():
    for p in SMALL_PRIMES:
        assert is_prime(p)
    for n in [0, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 41041, 2**32, 725596]:
        assert not is_prime(n)
    # larger primes the count tables rely on
    for p in [809, 5231, 22787, 31601, 199999, 499253, 725597, 2**31 - 1]:
        assert is_prime(p)


def test_nonprime_modulus_rejected():
    with pytest.raises(ParameterError):
        PrimeField(6)
    with pytest.raises(ParameterError):
        PrimeField(1)


def test_inverse_examples():
    assert PrimeField(7).inv(3) == 5
    assert PrimeField(101).inv(1) == 1
    # derived by exhaustive scan
    f13 = PrimeField(13)
    scan = [b for b in range(13) if 5 * b % 13 == 1]
    assert scan == [8]
    assert f13.inv(5) == 8


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(14)  # reduced before the check


def test_inverse_and_fermat_exhaustive_small_primes():
    for p in SMALL_PRIMES:
        f = PrimeField(p)
        for a in range(1, p):
            assert f.inv(a) * a % p == 1
            assert f.inv(a + p) == f.inv(a - p) == f.inv(a)
            assert pow(a, p - 1, p) == 1

