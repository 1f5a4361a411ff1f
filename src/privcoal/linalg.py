"""Gaussian elimination over F_p on plain integer matrices.

Shared kernel for the rank oracle, share-system solving, and the audit's
solution spaces.  Matrices are lists of rows of canonical residues;
nothing here mutates its inputs.
"""

from __future__ import annotations

# (pivot column, row) pairs, as built by extend_echelon
Echelon = list[tuple[int, list[int]]]


def row_echelon(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (matrix, pivot columns)."""
    m = [[x % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        piv = next((i for i in range(lead, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        inv = pow(m[lead][col], -1, p)
        m[lead] = [x * inv % p for x in m[lead]]
        base = m[lead]
        for i in range(len(m)):
            if i != lead and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], base)]
        pivots.append(col)
        lead += 1
    return m, pivots


def in_rowspan(rows: list[list[int]], vec: list[int], p: int) -> bool:
    """True when vec lies in the span of the given rows."""
    m, pivots = row_echelon(rows, p)
    v = [x % p for x in vec]
    for i, col in enumerate(pivots):
        if v[col]:
            f = v[col]
            v = [(a - f * b) % p for a, b in zip(v, m[i])]
    return not any(v)


def solve_square(rows: list[list[int]], rhs: list[int], p: int) -> list[int] | None:
    """Solve a square system by forward elimination and back substitution.

    Returns None when the matrix is singular.
    """
    n = len(rows)
    m = [list(row) + [b % p] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] % p), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        base = m[col]
        inv = pow(base[col], -1, p)
        for i in range(col + 1, n):
            if m[i][col] % p:
                f = m[i][col] * inv % p
                m[i] = [(a - f * b) % p for a, b in zip(m[i], base)]
    out = [0] * n
    for i in range(n - 1, -1, -1):
        acc = m[i][n] - sum(m[i][k] * out[k] for k in range(i + 1, n))
        out[i] = acc * pow(m[i][i], -1, p) % p
    return out


def solve_affine(
    rows: list[list[int]], rhs: list[int], p: int, ncols: int
) -> tuple[list[int], list[list[int]]] | None:
    """Solve rows @ x = rhs over F_p.

    Returns (particular solution, kernel basis), or None when the system
    is inconsistent.  With no constraints the solution space is all of
    F_p^ncols.
    """
    if not rows:
        basis = [[1 if i == k else 0 for i in range(ncols)] for k in range(ncols)]
        return [0] * ncols, basis
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = row_echelon(aug, p)
    if ncols in pivots:
        return None
    pivot_row = {col: i for i, col in enumerate(pivots)}
    free_cols = [c for c in range(ncols) if c not in pivot_row]
    particular = [0] * ncols
    for col, i in pivot_row.items():
        particular[col] = m[i][ncols]
    basis = []
    for f in free_cols:
        vec = [0] * ncols
        vec[f] = 1
        for col, i in pivot_row.items():
            vec[col] = -m[i][f] % p
        basis.append(vec)
    return particular, basis


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
    col = next((c for c in range(len(v) - 1) if v[c]), None)
    if col is None:
        return None if v[-1] else echelon
    inv = pow(v[col], -1, p)
    return echelon + [(col, [x * inv % p for x in v])]
