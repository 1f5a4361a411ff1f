"""Prime fields: primality and the modulus check."""

import pytest

from privcoal import ParameterError, PrimeField, is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                61, 67, 71, 73, 79, 83, 89, 97, 101]
PSI_12 = 399165290221 * 798330580441  # 318665857834031151167461
PSI_13 = 1287836182261 * 2575672364521  # 3317044064679887385961981


def test_is_prime_on_knowns():
    for p in SMALL_PRIMES:
        assert is_prime(p)
    for n in [0, 1, 4, 6, 9, 15, 21, 25, 91, 561, 1105, 41041, 2**32, 725596]:
        assert not is_prime(n)
    # larger primes the count tables rely on
    for p in [809, 5231, 22787, 31601, 199999, 499253, 725597, 2**31 - 1]:
        assert is_prime(p)
    # composites with no factor up to the largest witness reach Miller-Rabin
    assert not is_prime(2021)  # 43 * 47
    assert not is_prime(2**32 + 1)  # 641 * 6700417
    # psi_12 is a strong pseudoprime to every prime base up to 37
    assert not is_prime(PSI_12)


def test_nonprime_modulus_rejected():
    with pytest.raises(ParameterError):
        PrimeField(6)
    with pytest.raises(ParameterError):
        PrimeField(1)
    with pytest.raises(ParameterError):
        PrimeField(PSI_12)



def test_modulus_at_or_above_psi_13_is_refused():
    # psi_13 is a strong pseudoprime to every witness the test uses
    assert is_prime(PSI_13)
    for p in (PSI_13, PSI_13 + 2, 2**89 - 1):
        with pytest.raises(ParameterError, match="exact only below"):
            PrimeField(p)
