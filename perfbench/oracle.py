"""The benchmark's own arithmetic over F_p, independent of privcoal.

Nothing here imports privcoal.  The references in refs.json and the
expected outcome of every recover-fresh request come from these
functions, so a defect shared between the program and its checks would
have to be written twice.  Privilege is decided by the definition (the
j-th unit vector lies in the row space of the coalition's power matrix),
not by the symmetric-function window test the program uses to enumerate.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by trial division (small ranges only)."""
    return [
        n for n in range(max(lo, 2), hi + 1)
        if all(n % d for d in range(2, int(n**0.5) + 1))
    ]


def taus(values, p: int) -> list[int]:
    """Elementary symmetric polynomials e_0..e_r of the values, mod p."""
    e = [1] + [0] * len(values)
    for k, v in enumerate(values, start=1):
        for w in range(k, 0, -1):
            e[w] = (e[w] + v * e[w - 1]) % p
    return e


def horner(coeffs, x: int, p: int) -> int:
    """sum(coeffs[k] * x**k) mod p."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def power_row(x: int, t: int, p: int) -> list[int]:
    row = [1]
    for _ in range(t - 1):
        row.append(row[-1] * x % p)
    return row


def in_span(rows, target, p: int) -> bool:
    """True when target lies in the span of rows over F_p."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        row = [x % p for x in row]
        for piv, b in basis:
            f = row[piv]
            if f:
                row = [(a - f * c) % p for a, c in zip(row, b)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = pow(row[piv], p - 2, p)
        basis.append((piv, [x * inv % p for x in row]))
    v = [x % p for x in target]
    for piv, b in basis:
        f = v[piv]
        if f:
            v = [(a - f * c) % p for a, c in zip(v, b)]
    return not any(v)


def authorized(ids, t: int, j: int, p: int) -> bool:
    """Do the shares at these identities determine coefficient a_j?"""
    unit = [0] * t
    unit[j] = 1
    return in_span([power_row(x, t, p) for x in ids], unit, p)


def digest(items) -> str:
    """Order-insensitive fingerprint of a collection of JSON-able items."""
    canon = sorted(json.dumps(i, separators=(",", ":")) for i in items)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def _lengths(t: int, j: int, n: int) -> list[int]:
    return [r for r in range(max(t - j, j + 1), t) if r <= n]


def _privileged_by_length(t: int, j: int, p: int, n_max: int) -> dict[int, list[tuple]]:
    n = min(n_max, p - 1)
    return {
        r: [c for c in itertools.combinations(range(1, n + 1), r) if authorized(c, t, j, p)]
        for r in _lengths(t, j, n)
    }


def _shortest(by_len: dict[int, list]) -> tuple[int | None, int | None]:
    for r in sorted(by_len):
        if by_len[r]:
            return r, len(by_len[r])
    return None, None


def _minimal(track: tuple, t: int, j: int, p: int) -> bool:
    # Authorization is monotone under supersets, so drop-one subsets suffice.
    return not any(
        authorized(track[:k] + track[k + 1:], t, j, p) for k in range(len(track))
    )


def enumerate_ref(t: int, j: int, p: int, n_max: int) -> dict:
    """Expected semantics of `privcoal enumerate` with every length swept."""
    by_len = _privileged_by_length(t, j, p, n_max)
    found = [list(c) for r in sorted(by_len) for c in by_len[r]]
    r_min, n_min = _shortest(by_len)
    return {"count": len(found), "coalitions": digest(found), "r_min": r_min, "N_min": n_min}


def table_ref(t: int, p: int, n_max: int) -> dict:
    """Expected cells of a one-prime `privcoal table --format json` row."""
    cells = {}
    for j in range(1, t - 1):
        by_len = _privileged_by_length(t, j, p, n_max)
        r_min, n_min = _shortest(by_len)
        per_length = {}
        for r in sorted(by_len):
            count = sum(1 for c in by_len[r] if _minimal(c, t, j, p))
            if count:
                per_length[str(r)] = count
        cells[str(j)] = {
            "count": sum(per_length.values()),
            "r_min": r_min,
            "N_min": n_min,
            "per_length": per_length,
        }
    return {"cells": {str(p): cells}}


def access_structure_ref(t: int, p: int, ids) -> dict:
    """Minimal authorized sets per secret index, with their kinds.

    Every proper subset is tested by the rank definition, whatever its
    length; a t-subset is minimal when none of its (t-1)-subsets is
    authorized.
    """
    ids = tuple(sorted(ids))
    out = {}
    for j in range(t - 1):
        sets = []
        if j == 0:
            sets = [[list(s), "threshold"] for s in itertools.combinations(ids, t)]
        else:
            for r in range(1, t):
                for s in itertools.combinations(ids, r):
                    if authorized(s, t, j, p) and _minimal(s, t, j, p):
                        sets.append([list(s), "privileged"])
            for s in itertools.combinations(ids, t):
                if _minimal(s, t, j, p):
                    sets.append([list(s), "unextended"])
        out[str(j)] = {"count": len(sets), "digest": digest(sets)}
    return {"structure": out}


def seeded_secrets(p: int, t: int, seed: int) -> tuple[list[int], int]:
    """The secret vector `audit --seed` documents: stdlib Random(seed) draws
    t-1 residues, then a nonzero blinding coefficient."""
    rng = random.Random(seed)
    secrets = [rng.randrange(p) for _ in range(t - 1)]
    return secrets, rng.randrange(1, p)


def audit_ref(t: int, p: int, ids, domain: str, seed: int) -> dict:
    """Expected verdicts of the exhaustive audit, by brute force over F_p^t."""
    ids = tuple(sorted(ids))
    secrets, blinding = seeded_secrets(p, t, seed)
    dealt = secrets + [blinding]
    shares = [horner(dealt, x, p) for x in ids]
    if domain == "full-field":
        space = [v for v in itertools.product(range(p), repeat=t) if v[-1]]
        values = range(p)
    else:
        space = list(itertools.product(range(1, p), repeat=t))
        values = range(1, p)
    evals = [[horner(v, x, p) for x in ids] for v in space]
    violations = []
    cells = 0
    for size in range(t + 1):
        for pos in itertools.combinations(range(len(ids)), size):
            subset = [ids[i] for i in pos]
            consistent = [
                v for v, e in zip(space, evals) if all(e[i] == shares[i] for i in pos)
            ]
            if not consistent:
                violations.append([subset, -1, []])
                continue
            for j in range(t - 1):
                auth = size == t or authorized(subset, t, j, p)
                others = [i for i in range(t - 1) if i != j]
                for k in range(len(others) + 1):
                    for known in itertools.combinations(others, k):
                        hist = Counter(
                            v[j] for v in consistent if all(v[i] == dealt[i] for i in known)
                        )
                        cells += 1
                        if auth:
                            ok = set(hist) == {dealt[j]}
                        elif domain == "full-field":
                            ok = len({hist.get(v, 0) for v in values} - {0}) == 1 and all(
                                hist.get(v, 0) for v in values
                            )
                        else:
                            ok = True
                        if not ok:
                            violations.append([subset, j, list(known)])
    return {
        "passed": not violations,
        "cells_checked": cells,
        "violations": {"count": len(violations), "digest": digest(violations)},
        "secrets": secrets,
        "blinding": blinding,
    }
