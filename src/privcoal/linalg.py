"""Gaussian elimination over F_p, one equation at a time.

The one elimination kernel of the package: `extend_echelon` folds an
equation into an echelon and says whether it is new, implied or
contradictory, and `solve_affine` is its back substitution.  Recovery
from shares and the audit's solution spaces both go through it.
Matrices are lists of rows of integers; nothing here mutates its inputs.
"""

from __future__ import annotations

from operator import mul

# (pivot column, row) pairs, as built by extend_echelon
Echelon = list[tuple[int, list[int]]]


def reduce_row(echelon: Echelon, row: list[int], p: int) -> list[int]:
    """The row minus its components along the echelon rows, taken in order.

    Each echelon row is 1 at its pivot and 0 at the pivots of the rows
    before it, so one pass in order leaves the result 0 at every pivot.
    The result is all zero exactly when the row lies in the echelon's
    row span.
    """
    v = [x % p for x in row]
    for col, base in echelon:
        f = v[col]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, base)]
    return v


def extend_echelon(echelon: Echelon, row: list[int], p: int) -> Echelon | None:
    """Add one equation to an echelon of augmented rows (last entry the
    right-hand side).

    Returns the same echelon when the equation is implied by it, a new
    one a row longer when it is independent, and None when it
    contradicts the equations already there.
    """
    v = reduce_row(echelon, row, p)
    for col in range(len(v) - 1):
        if v[col]:
            break
    else:
        return None if v[-1] else echelon
    inv = pow(v[col], -1, p)
    return echelon + [(col, [x * inv % p for x in v])]


def solve_affine(
    rows: list[list[int]], rhs: list[int], p: int, ncols: int
) -> tuple[list[int], list[list[int]]] | None:
    """Solve rows @ x = rhs over F_p.

    Returns (particular solution, kernel basis), or None when the system
    is inconsistent.  The particular solution is 0 at every free column,
    and the basis holds one vector per free column, in ascending order,
    1 there and 0 at the other free columns.  With no constraints the
    solution space is all of F_p^ncols.

    The rows are folded into an echelon and read back last-first: each
    echelon row is 0 left of its pivot and at the pivots of the rows
    before it, so every entry it multiplies is already solved.
    """
    echelon: Echelon = []
    for row, b in zip(rows, rhs):
        echelon = extend_echelon(echelon, [*row, b], p)
        if echelon is None:
            return None
    # map(mul, row, x) stops before the right-hand side, and
    # x[col] is still 0 when its own row is read
    particular = [0] * ncols
    for col, row in reversed(echelon):
        particular[col] = (row[-1] - sum(map(mul, row, particular))) % p
    pivots = {col for col, _ in echelon}
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [0] * ncols
            vec[f] = 1
            for col, row in reversed(echelon):
                vec[col] = -sum(map(mul, row, vec)) % p
            basis.append(vec)
    return particular, basis
