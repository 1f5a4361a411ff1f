"""Elementary symmetric polynomials, polynomial evaluation, power rows.

A *track* is the canonical identity sequence used everywhere in the
package: strictly increasing, pairwise distinct, nonzero residues.  The
symmetric-function ladder tau_0..tau_r of a track (`elem_sym_all`, read
by index) drives the extension condition and the paper's coalition
recovery formula, and the power rows (`power_rows`) every linear system
over the shares: the t x t solve (`linalg.solve_affine`) and the audit's
folds (`linalg.fold`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ParameterError
from .field import PrimeField

# canonical track: sorted tuple of distinct residues in [1, p-1]
Track = tuple[int, ...]


def as_track(values: Iterable[int], field: PrimeField) -> Track:
    """Validate and canonicalize a sequence of identities into a Track."""
    vals = tuple(int(v) for v in values)
    if not vals:
        raise ParameterError("a track must contain at least one identity")
    for v in vals:
        if not 1 <= v <= field.p - 1:
            raise ParameterError(f"identity {v} outside [1, {field.p - 1}]")
    if len(set(vals)) != len(vals):
        raise ParameterError("track identities must be pairwise distinct")
    return tuple(sorted(vals))


def elem_sym_all(values: Sequence[int], field: PrimeField) -> tuple[int, ...]:
    """The full ladder (tau_0, ..., tau_r) of elementary symmetric polynomials.

    Computed as the coefficients of prod(x + v) by incremental polynomial
    multiplication, O(r^2) field multiplications; tau_w is the coefficient
    of x^(r-w).
    """
    p = field.p
    taus = [1]
    for v in values:
        taus = (
            [1]
            + [(taus[k] + v * taus[k - 1]) % p for k in range(1, len(taus))]
            + [v * taus[-1] % p]
        )
    return tuple(taus)


def poly_eval(coeffs: Sequence[int], x: int, field: PrimeField) -> int:
    """Evaluate sum(coeffs[k] * x**k) mod p by Horner's rule."""
    p = field.p
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def power_rows(values: Iterable[int], t: int, field: PrimeField) -> list[list[int]]:
    """The power matrix: one row (1, v, ..., v^(t-1)) mod p per value."""
    p = field.p
    rows = []
    for v in values:
        row = [1] * t
        for k in range(1, t):
            row[k] = row[k - 1] * v % p
        rows.append(row)
    return rows

