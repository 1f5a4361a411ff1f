"""The elimination kernel against a brute force over every vector of F_p^n."""

import itertools
import random

import pytest

from privcoal import linalg

from oracles import affine_solutions

PRIMES = (2, 3, 5, 7)


def linear_systems(p, ncols, rng, per_shape=30):
    """(rows, rhs) with 0-5 rows over F_p^ncols.

    Half the systems take their right-hand sides from a chosen point, so
    they are consistent unless a dependent row says otherwise.  A row is
    dependent with probability 0.4: a combination of the earlier rows,
    with the combined right-hand side (implied) or, in every third
    system, a shifted one (contradictory).  Entries are written with a
    random multiple of p added, as callers need not reduce them.
    """
    for nrows in range(6):
        for case in range(per_shape):
            point = [rng.randrange(p) for _ in range(ncols)]
            rows, rhs = [], []
            for k in range(nrows):
                if k and rng.random() < 0.4:
                    coefs = [rng.randrange(p) for _ in range(k)]
                    row = [sum(c * r[i] for c, r in zip(coefs, rows)) for i in range(ncols)]
                    b = sum(c * y for c, y in zip(coefs, rhs))
                    if case % 3 == 1:
                        b += rng.randrange(1, p)
                else:
                    row = [rng.randrange(p) for _ in range(ncols)]
                    if case % 2:
                        b = rng.randrange(p)
                    else:
                        b = sum(a * v for a, v in zip(row, point))
                rows.append([a % p + p * rng.randrange(-1, 2) for a in row])
                rhs.append(b % p + p * rng.randrange(-1, 2))
            yield rows, rhs


def free_columns(solutions, ncols):
    """Columns c with a kernel vector whose last nonzero entry is at c:
    column c of the matrix lies in the span of the columns before it."""
    x0 = next(iter(solutions))
    free = set()
    for x in solutions:
        diff = [a - b for a, b in zip(x, x0)]
        nonzero = [c for c in range(ncols) if diff[c]]
        if nonzero:
            free.add(nonzero[-1])
    return sorted(free)


@pytest.mark.parametrize("p", PRIMES)
def test_solve_affine_matches_brute_force(p):
    rng = random.Random(p)
    seen = {"inconsistent": 0, "unique": 0, "kernel": 0}
    for ncols in range(1, 5):
        for rows, rhs in linear_systems(p, ncols, rng):
            expected = affine_solutions(rows, rhs, p, ncols)
            solved = linalg.solve_affine(rows, rhs, p, ncols)
            case = (p, ncols, rows, rhs)
            if not expected:
                assert solved is None, case
                seen["inconsistent"] += 1
                continue
            assert tuple(solved) in expected, case
            # the normal form: 0 at every free column
            assert all(solved[f] == 0 for f in free_columns(expected, ncols)), case
            seen["kernel" if len(expected) > 1 else "unique"] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", (2, 3, 5))
def test_fold_classifies_every_sequence_of_equations(p):
    """Every sequence of augmented equations over at most 3 unknowns,
    folded one at a time from the unit functionals, against the points
    of F_p^n that satisfy it.

    A fold's result depends only on the functionals it is given and the
    equation, so trying every equation from every distinct (functionals,
    solution set) state reached covers every sequence of any length.
    Solution sets are bitmasks over the p^n points.  After each fold the
    verdict must match the points kept (all: the same list back; none:
    None; some: new functionals), and coordinate i must be fixed (its
    functional 0 left of the right-hand side) exactly when every kept
    point has one value there, at -f[-1] mod p.  At every state reached,
    `fold_coordinate` fixing coordinate i at each value must keep the
    same points and give what `fold` gives for the unit row: the same
    list, None, or equal functionals.
    """
    seen = {"implied": 0, "contradictory": 0, "new": 0}
    coordinate = {"implied": 0, "contradictory": 0, "new": 0}
    for n in range(1, 4):
        points = list(itertools.product(range(p), repeat=n))
        everything = (1 << len(points)) - 1
        # coordinate i has value v on the points of at_value[i][v]
        at_value = [
            [sum(1 << k for k, x in enumerate(points) if x[i] == v) for v in range(p)]
            for i in range(n)
        ]
        equations = []
        for aug in itertools.product(range(p), repeat=n + 1):
            mask = sum(
                1 << k for k, x in enumerate(points)
                if (sum(a * v for a, v in zip(aug, x)) - aug[-1]) % p == 0
            )
            # entries written with a multiple of p added, as callers need
            # not reduce them
            row = [a + p * ((a + k) % 3 - 1) for k, a in enumerate(aug)]
            equations.append((row, mask))
        start = ([[int(i == k) for k in range(n + 1)] for i in range(n)], everything)
        stack = [start]
        visited = {(str(start[0]), everything)}
        while stack:
            functionals, solutions = stack.pop()
            for i, v in itertools.product(range(n), range(p)):
                kept = solutions & at_value[i][v]
                value = v + p * (v % 3 - 1)
                unit = [int(k == i) for k in range(n)] + [value]
                fixed = linalg.fold_coordinate(functionals, i, value, p)
                folded = linalg.fold(functionals, unit, p)
                case = (p, functionals, i, value)
                if kept == solutions:
                    assert fixed is functionals and folded is functionals, case
                    coordinate["implied"] += 1
                elif not kept:
                    assert fixed is None and folded is None, case
                    coordinate["contradictory"] += 1
                else:
                    assert fixed is not functionals and fixed == folded, case
                    coordinate["new"] += 1
            for row, mask in equations:
                kept = solutions & mask
                grown = linalg.fold(functionals, row, p)
                case = (p, functionals, row)
                if kept == solutions:
                    assert grown is functionals, case
                    seen["implied"] += 1
                    continue
                if not kept:
                    assert grown is None, case
                    seen["contradictory"] += 1
                    continue
                assert grown is not None and grown is not functionals, case
                seen["new"] += 1
                for i, f in enumerate(grown):
                    values = [v for v in range(p) if not kept & ~at_value[i][v]]
                    if any(x % p for x in f[:-1]):
                        assert not values, case
                    else:
                        assert values == [-f[-1] % p], case
                key = (str(grown), kept)
                if key not in visited:
                    visited.add(key)
                    stack.append((grown, kept))
    assert all(seen.values()), seen
    assert all(coordinate.values()), coordinate
