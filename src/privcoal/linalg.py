"""Gaussian elimination over F_p, one equation at a time.

The one elimination kernel of the package, in two forms that share the
pivot-and-scale step (`_pivot`).  `solve_affine` reduces each equation
against the pivot rows kept so far and back-substitutes: recovery from
t or more shares goes through it.  `fold` folds an equation into the
coordinate functionals of an affine space instead, so every
coordinate's value, when fixed, can be read off without a back
substitution: the audit's solution spaces go through it.
`fold_coordinate` is its entry for a coordinate equation x_i = value (a
known secret, a coefficient forced to zero), rewritten straight from
functional i; both entries end in the same pivot and elimination step
(`_eliminate`).  Matrices are lists of rows of integers; nothing here
mutates its inputs.
"""

from __future__ import annotations

from operator import mul

# one augmented vector f per coordinate, as built by fold
Functionals = list[list[int]]


def _pivot(v: list[int], p: int) -> tuple[int, list[int]] | None:
    """The first column of an augmented row that is nonzero mod p, and
    the row reduced and scaled to 1 there; None when only the right-hand
    side can be nonzero."""
    for col in range(len(v) - 1):
        if v[col] % p:
            inv = pow(v[col], -1, p)
            return col, [x * inv % p for x in v]
    return None


def unit_functionals(n: int) -> Functionals:
    """The coordinate functionals of all of F_p^n, for `fold`."""
    return [[int(i == k) for k in range(n + 1)] for i in range(n)]


def fold(functionals: Functionals, row: list[int], p: int) -> Functionals | None:
    """Add one equation (an augmented row, last entry the right-hand
    side) to an affine space held as its coordinate functionals.

    functionals[i] is an augmented vector f with x_i = f[:-1] . x - f[-1]
    at every point x of the space, and 0 at the pivot column of every
    equation folded so far.  So x_i is fixed on the space exactly when
    f[:-1] is zero, and its value is then -f[-1] mod p.

    The equation, rewritten through the functionals, is 0 at every
    pivot.  Returns the same list when it is implied, None when it
    contradicts the space, and otherwise new functionals: the rewritten
    equation scaled to 1 at a new pivot, subtracted once from each
    functional that is nonzero there.
    """
    v = [0] * len(row)
    for r, f in zip(row, functionals):
        if r:
            v = [a + r * b for a, b in zip(v, f)]
    v[-1] += row[-1]
    return _eliminate(functionals, v, p)


def fold_coordinate(
    functionals: Functionals, i: int, value: int, p: int
) -> Functionals | None:
    """`fold` for the coordinate equation x_i = value.

    Rewritten through the functionals, the equation is functionals[i]
    with value added to its right-hand side, so no unit row is built and
    no other functional is combined.  Returns what `fold` returns for
    the unit row.
    """
    f = functionals[i]
    return _eliminate(functionals, [*f[:-1], f[-1] + value], p)


def _eliminate(functionals: Functionals, v: list[int], p: int) -> Functionals | None:
    """The step `fold` and `fold_coordinate` end in: the equation v,
    already rewritten through the functionals, scaled to 1 at a new
    pivot and subtracted once from each functional nonzero there."""
    pivot = _pivot(v, p)
    if pivot is None:
        return None if v[-1] % p else functionals
    col, base = pivot
    return [
        [(a - f[col] * b) % p for a, b in zip(f, base)] if f[col] else f
        for f in functionals
    ]


def solve_affine(
    rows: list[list[int]], rhs: list[int], p: int, ncols: int
) -> list[int] | None:
    """Solve rows @ x = rhs over F_p.

    Returns one solution, 0 at every free column, or None when the
    system is inconsistent.  With no constraints that is the zero
    vector of F_p^ncols.

    Each augmented row loses its components along the pivot rows kept
    so far, taken in order: each pivot row is 1 at its pivot and 0 at
    the pivots before it, so one pass leaves the row 0 at every pivot.
    A row left zero is implied, one left zero but for its right-hand
    side is a contradiction, and any other gives a new pivot row.  The
    pivot rows are then read back last-first: each is 0 left of its
    pivot and at the pivots before it, so every entry it multiplies is
    already solved.
    """
    pivots: list[tuple[int, list[int]]] = []
    for row, b in zip(rows, rhs):
        v = [x % p for x in row] + [b % p]
        for col, base in pivots:
            f = v[col]
            if f:
                v = [(a - f * c) % p for a, c in zip(v, base)]
        pivot = _pivot(v, p)
        if pivot is not None:
            pivots.append(pivot)
        elif v[-1]:
            return None
    # map(mul, row, x) stops before the right-hand side, and
    # x[col] is still 0 when its own row is read
    particular = [0] * ncols
    for col, row in reversed(pivots):
        particular[col] = (row[-1] - sum(map(mul, row, particular))) % p
    return particular
