"""Prime fields F_p.

`PrimeField` carries a modulus that is checked to be prime.  The package
works on plain integer residues in [0, p) with Python's `%` and `pow`,
inverting with `pow(x, -1, p)`.  Everything is immutable and pure, so
values can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError

# The primes up to 41 make Miller-Rabin deterministic for all n below
# psi_13 (about 3.3 * 10**24), far beyond the 64-bit moduli this package
# targets.  psi_13 itself is a strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check (exact below 3.3e24)."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime modulus p."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= _PSI_13:
            raise ParameterError(
                f"modulus {self.p} is at least psi_13 = {_PSI_13}; the "
                "primality test is exact only below that bound"
            )
        if not is_prime(self.p):
            raise ParameterError(f"modulus {self.p} is not prime")

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

