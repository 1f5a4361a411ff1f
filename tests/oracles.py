"""Independent brute-force oracles used to cross-check the library.

Everything here is written from first principles (subset sums, textbook
elimination, direct polynomial evaluation) and deliberately shares no
code with the package, so agreement between the two is meaningful.
"""

import itertools


def elem_sym_subsets(values, w):
    """tau_w by its definition: sum over all w-subsets of products (integers)."""
    if w == 0:
        return 1
    if w < 0 or w > len(values):
        return 0
    return sum(
        prod for prod in (_product(sub) for sub in itertools.combinations(values, w))
    )


def _product(values):
    out = 1
    for v in values:
        out *= v
    return out


def eval_poly_int(coeffs, x, p):
    """Term-by-term integer evaluation, reduced once at the end."""
    return sum(c * x**k for k, c in enumerate(coeffs)) % p


def matrix_rank(rows, p):
    m = [[x % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def determines_coefficient(track, t, j, p):
    """Rank oracle from scratch: e_j in the row space of the power matrix."""
    rows = [[pow(l, v, p) for v in range(t)] for l in track]
    unit = [1 if v == j else 0 for v in range(t)]
    return matrix_rank(rows + [unit], p) == matrix_rank(rows, p)


def minimal_by_all_subtracks(track, t, j, p):
    """Minimality checked against every proper subtrack, not just drop-one."""
    if not determines_coefficient(track, t, j, p):
        return False
    for size in range(1, len(track)):
        for sub in itertools.combinations(track, size):
            if determines_coefficient(sub, t, j, p):
                return False
    return True


def unextended_by_all_subtracks(track, t, j, p):
    """No proper subtrack of any size determines the coefficient."""
    return not any(
        determines_coefficient(sub, t, j, p)
        for size in range(1, len(track))
        for sub in itertools.combinations(track, size)
    )


def brute_force_minimal_count(t, j, p, universe):
    """Count minimal privileged coalitions over the given identity universe."""
    total = 0
    per_length = {}
    for r in range(2, t):
        if not (t - r <= j <= r - 1):
            continue
        c = 0
        for track in itertools.combinations(universe, r):
            if minimal_by_all_subtracks(track, t, j, p):
                c += 1
        per_length[r] = c
        total += c
    return total, per_length


def window_privileged(track, t, j, p):
    """The window test with each tau_w taken from its subset-sum definition."""
    r = len(track)
    if not t - r <= j <= r - 1:
        return False
    return all(elem_sym_subsets(track, w) % p == 0 for w in range(r - j, t - j))


def privileged_tracks_brute(ids, r, t, j, p):
    """Every privileged r-subset of the identities, testing each subset."""
    return [
        track
        for track in itertools.combinations(sorted(ids), r)
        if window_privileged(track, t, j, p)
    ]


def minimal_privileged_brute(ids, t, j, p, lengths):
    """Privileged tracks of the given lengths with no privileged proper
    subset of any size, in length-then-lexicographic order."""
    out = []
    for r in lengths:
        for track in privileged_tracks_brute(ids, r, t, j, p):
            if not any(
                window_privileged(sub, t, j, p)
                for size in range(1, r)
                for sub in itertools.combinations(track, size)
            ):
                out.append(track)
    return out


def coefficient_domain(t, p, domain):
    """Every coefficient vector of the domain: blinding (last) coefficient
    nonzero for "full-field", every coefficient nonzero for "all-nonzero"."""
    if domain == "full-field":
        return [vec for vec in itertools.product(range(p), repeat=t) if vec[-1]]
    return list(itertools.product(range(1, p), repeat=t))


def consistent_vectors(pairs, t, p, domain="full-field"):
    """The domain's coefficient vectors whose polynomial takes every share."""
    return [
        vec
        for vec in coefficient_domain(t, p, domain)
        if all(eval_poly_int(vec, i, p) == y % p for i, y in pairs)
    ]


def conditional_histogram(pairs, j, known, p, t, domain="full-field"):
    """Counts of s_j over the consistent vectors agreeing with the known
    secrets (a dict index -> value)."""
    hist = {}
    for vec in consistent_vectors(pairs, t, p, domain):
        if all(vec[idx] == val for idx, val in known.items()):
            hist[vec[j]] = hist.get(vec[j], 0) + 1
    return hist


def verdict(hist, values):
    """determined (one value occurs), uniform (every value of the domain
    occurs equally often) or leaky."""
    if len(hist) == 1:
        return "determined"
    counts = {hist.get(v, 0) for v in values}
    return "uniform" if len(counts) == 1 and 0 not in counts else "leaky"


def audit_brute(t, p, ids, coefficients, domain):
    """The perfectness audit from its definition, by filtering the whole
    coefficient domain for every participant subset.

    Returns (cells, violations, notes): a cell is (subset, j, known,
    authorized, verdict, histogram), the histogram a sorted tuple of
    (value, count) pairs given only for violating cells, and a subset
    with no consistent vector is the violation (subset, -1, (), False,
    "leaky", None).
    """
    ids = sorted(ids)
    space = coefficient_domain(t, p, domain)
    shares = [eval_poly_int(coefficients, i, p) for i in ids]
    agree = [
        {i for i, y in zip(ids, shares) if eval_poly_int(vec, i, p) == y}
        for vec in space
    ]
    values = range(p) if domain == "full-field" else range(1, p)
    cells, violations, notes = [], [], []
    for size in range(t + 1):
        for subset in itertools.combinations(ids, size):
            consistent = [vec for vec, hits in zip(space, agree) if hits.issuperset(subset)]
            if not consistent:
                notes.append(
                    f"subset {subset}: no vector of the {domain} domain matches these "
                    "shares (the dealt vector lies outside the domain)"
                )
                violations.append((subset, -1, (), False, "leaky", None))
                continue
            for j in range(t - 1):
                authorized = size == t or determines_coefficient(subset, t, j, p)
                others = [k for k in range(t - 1) if k != j]
                for ksize in range(len(others) + 1):
                    for known in itertools.combinations(others, ksize):
                        hist = {}
                        for vec in consistent:
                            if all(vec[k] == coefficients[k] for k in known):
                                hist[vec[j]] = hist.get(vec[j], 0) + 1
                        seen = verdict(hist, values)
                        if authorized:
                            ok = set(hist) == {coefficients[j]}
                        elif domain == "full-field":
                            ok = seen == "uniform"
                        else:
                            ok = True
                            if seen != "uniform":
                                notes.append(
                                    f"subset {subset} j={j} known={known}: "
                                    "non-uniform under all-nonzero (informational)"
                                )
                        cell = (
                            subset, j, known, authorized, seen,
                            None if ok else tuple(sorted(hist.items())),
                        )
                        cells.append(cell)
                        if not ok:
                            violations.append(cell)
    return cells, violations, notes


def affine_solutions(rows, rhs, p, ncols):
    """Every x in F_p^ncols with rows @ x = rhs, trying each in turn."""
    return {
        x
        for x in itertools.product(range(p), repeat=ncols)
        if all(
            (sum(a * v for a, v in zip(row, x)) - b) % p == 0
            for row, b in zip(rows, rhs)
        )
    }
