"""Exact information-theoretic audit of a dealt scheme instance.

For every participant subset A (up to size t), every secret index j, and
every set T of other secret indices assumed known, the auditor computes
the exact conditional distribution of s_j given A's shares and T.  No
coefficient vector is enumerated.  Each linear condition on the
coefficient vector a is folded by the elimination kernel into the
coordinate functionals of the affine space of vectors that meet the
conditions so far: a share through `linalg.fold`, and a coordinate
equation (a known secret, a coefficient forced to zero) through
`linalg.fold_coordinate`, which rewrites that coordinate's functional
directly.  a_i is fixed on the space exactly when its functional has no
coefficient part, and the space has dimension t minus the number of
conditions that were new.  Each subset is folded from its prefix subset,
one size at a time, and each known set from its prefix known set.  The
coefficient domain (nonzero blinding, or every coefficient nonzero) is
counted by inclusion-exclusion over the patterns Z of restricted
coordinates forced to zero, walked depth first from each (subset, known
set) space: each consistent pattern is again an affine space, signed by
(-1)^|Z|, on which each s_j is either constant (adding p^dim to one
value) or exactly uniform (adding p^(dim-1) to every value), so one walk
counts every j.  Many subsets and known sets fold to one space (every
t-subset to the dealt vector alone), so a report counts and classifies
each distinct space once and shares the result; nothing is kept from
one report to the next.  Verdicts come from these exact integer counts,
never floating point:

* determined - a point mass (the subset pins the secret down),
* uniform    - literally equal counts over the whole coefficient domain,
* leaky      - anything in between: the subset's shares shift the
               distribution without determining the value.

The audit passes only when authorized subsets are determined at the
dealt value and unauthorized ones stay exactly uniform for every T.
Histograms of violating cells are written out value by value over F_p,
so instances with p^t, or with their cell count times p, above the
enumeration guard are refused before dealing (CLI exit code 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .errors import ParameterError, binomial_sum, bound_work
from .scheme import SchemeConfig, SecretVector, deal
from .symfun import Track, power_rows

FULL_FIELD = "full-field"  # secrets range over F_p, blinding nonzero
ALL_NONZERO = "all-nonzero"  # every coefficient nonzero
DOMAINS = (FULL_FIELD, ALL_NONZERO)


def _check_capacity(cfg: SchemeConfig) -> None:
    """Refuse p^t, then the values the report may write (a violating
    cell writes up to p), beyond the guard, before anything is dealt."""
    t, p, n = cfg.t, cfg.field.p, len(cfg.identities)
    size = p**t
    bound_work(size, lambda: f"p^t = {p}^{t} = {size} exceeds")
    per_subset = (t - 1) * 2 ** (t - 2)
    bound_work(
        binomial_sum(n, range(t + 1)) * per_subset * p,
        lambda: f"the sum of C({n}, s) over s = 0..{t} subsets, times {per_subset} cells "
        f"and p = {p} histogram values each, exceeds",
    )


def _check_domain(domain: str) -> None:
    if domain not in DOMAINS:
        raise ParameterError(f"unknown coefficient domain {domain!r}")


# an affine space of coefficient vectors: its coordinate functionals
# (see linalg.fold) and its dimension
Node = tuple[linalg.Functionals, int]
# a node's count of domain points, the value counts of each secret on
# them (see _value_counts) and each secret's verdict (see _classify)
Summary = tuple[int, list[tuple[int, dict[int, int]]], list[str]]


def _fix(node: Node, i: int, value: int, p: int) -> Node | None:
    """The node with the equation a_i = value folded in
    (`linalg.fold_coordinate`): the same node when a_i is already fixed
    at value there, None when at another."""
    functionals, dim = node
    fixed = linalg.fold_coordinate(functionals, i, value, p)
    if fixed is functionals:
        return node
    return None if fixed is None else (fixed, dim - 1)


def _value_counts(
    node: Node, secrets: int, zeros: tuple[int, ...], p: int
) -> tuple[int, list[tuple[int, dict[int, int]]]]:
    """Count the points of the node that lie in the domain, and the
    values each secret a_j, j < secrets, takes on them.

    Returns (total, [(level, points) for each j]): a_j takes every value
    level + points.get(value, 0) times, and points holds no zero entry.
    The domain is counted by inclusion-exclusion over the patterns of
    coordinates in `zeros` forced to zero, walked depth first: each
    pattern is one more fold, signed by (-1)^|pattern|, and a pattern
    that contradicts the node does so for every pattern containing it.
    On each pattern's space a_j is constant, adding p^dim to one value,
    or exactly uniform, adding p^(dim-1) to every value.
    """
    total = 0
    levels = [0] * secrets
    points: list[dict[int, int]] = [{} for _ in range(secrets)]
    stack = [(node, 0, 1)]
    while stack:
        node, start, sign = stack.pop()
        functionals, dim = node
        weight = sign * p**dim
        total += weight
        for j in range(secrets):
            f = functionals[j]
            if any(f[:-1]):
                levels[j] += weight // p
            else:
                value = -f[-1] % p
                points[j][value] = points[j].get(value, 0) + weight
        for pos in range(start, len(zeros)):
            child = _fix(node, zeros[pos], 0, p)
            if child is not None:
                stack.append((child, pos + 1, -sign))
    return total, [(lv, {v: c for v, c in pts.items() if c}) for lv, pts in zip(levels, points)]


DETERMINED = "determined"
UNIFORM = "uniform"
LEAKY = "leaky"


def _classify(level: int, points: dict[int, int], p: int, domain: str) -> str:
    """Verdict for value counts level + points.get(v, 0), v in F_p."""
    support = (p - len(points) if level else 0) + sum(
        1 for c in points.values() if level + c
    )
    if support == 1:
        return DETERMINED
    lo = 0 if domain == FULL_FIELD else 1
    in_domain = [level + c for v, c in points.items() if v >= lo]
    counts = set(in_domain)
    if len(in_domain) < p - lo:  # some domain value carries the level alone
        counts.add(level)
    if len(counts) == 1 and 0 not in counts:
        return UNIFORM
    return LEAKY


def _materialize(level: int, points: dict[int, int], p: int) -> tuple[tuple[int, int], ...]:
    if not level:
        return tuple(sorted(points.items()))
    counts = ((v, level + points.get(v, 0)) for v in range(p))
    return tuple((v, c) for v, c in counts if c)


class AuditCell(NamedTuple):
    """Verdict for one (subset, secret index, known-set) combination."""

    subset: Track
    j: int
    known: tuple[int, ...]
    authorized: bool
    verdict: str
    histogram: tuple[tuple[int, int], ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "subset": list(self.subset),
            "j": self.j,
            "known": list(self.known),
            "authorized": self.authorized,
            "verdict": self.verdict,
        }
        if self.histogram is not None:
            out["histogram"] = [list(pair) for pair in self.histogram]
        return out


@dataclass(frozen=True)
class AuditReport:
    config: SchemeConfig
    domain: str
    secret_vector: SecretVector
    passed: bool
    cells: tuple[AuditCell, ...]
    violations: tuple[AuditCell, ...]
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "t": self.config.t,
            "p": self.config.field.p,
            "identities": list(self.config.identities),
            "domain": self.domain,
            "secrets": list(self.secret_vector.secrets),
            "blinding": self.secret_vector.blinding,
            "passed": self.passed,
            "cells_checked": len(self.cells),
            "violations": [c.to_dict() for c in self.violations],
            "notes": list(self.notes),
        }


def perfectness_report(
    cfg: SchemeConfig,
    secret_vector: SecretVector | None = None,
    domain: str = FULL_FIELD,
    seed: int = 0,
) -> AuditReport:
    """Audit one dealt instance, every cell exactly.

    Deals the given secret vector (or a seed-derived one), then checks
    every (subset, j, known-set) cell.  Under the full-field domain the
    report passes only if authorized subsets are determined at the dealt
    value and unauthorized ones are exactly uniform for every known-set;
    under the all-nonzero domain uniformity deviations are recorded as
    notes without failing, since the restricted domain is not a product
    space and exact uniformity is not to be expected.
    """
    _check_capacity(cfg)
    _check_domain(domain)
    t, field = cfg.t, cfg.field
    p = field.p
    sv = secret_vector if secret_vector is not None else SecretVector.random(field, t, seed)
    table = deal(cfg, sv)
    dealt = sv.coefficients
    secret_indices = range(t - 1)

    cells: list[AuditCell] = []
    violations: list[AuditCell] = []
    notes: list[str] = []
    zeros = (t - 1,) if domain == FULL_FIELD else tuple(range(t))
    rows = power_rows([i for i, _ in table.entries], t, field)
    share_rows = {i: row + [y] for row, (i, y) in zip(rows, table.entries)}
    # every known-set, () first and each after its prefix, and one
    # subset's cells in report order
    known_sets = [
        known for size in range(t - 1) for known in itertools.combinations(secret_indices, size)
    ]
    cell_keys = [(j, known) for j in secret_indices for known in known_sets if j not in known]

    def add_share(node: Node, row: list[int]) -> Node:
        grown = linalg.fold(node[0], row, p)  # the dealt vector satisfies every share
        return node if grown is node[0] else (grown, node[1] - 1)

    # the total, value counts and per-j verdicts of each distinct node,
    # counted once in this report: subsets and known sets often fold to
    # one space (every t-subset to the dealt vector alone)
    summaries: dict[tuple, Summary] = {}

    def summary(node: Node) -> Summary:
        key = (tuple(map(tuple, node[0])), node[1])
        found = summaries.get(key)
        if found is None:
            total, counts = _value_counts(node, t - 1, zeros, p)
            verdicts = [_classify(level, points, p, domain) for level, points in counts]
            found = summaries[key] = (total, counts, verdicts)
        return found

    # the nodes of the subsets of one size, each folded from its prefix
    layer = {(): (linalg.unit_functionals(t), t)}
    for size in range(t + 1):
        if size:
            layer = {
                subset: add_share(layer[subset[:-1]], share_rows[subset[-1]])
                for subset in itertools.combinations(cfg.identities, size)
            }
        for subset, node in layer.items():
            by_known = {(): summary(node)}
            if not by_known[()][0]:
                notes.append(
                    f"subset {subset}: no vector of the {domain} domain matches these "
                    "shares (the dealt vector lies outside the domain)"
                )
                violations.append(AuditCell(subset, -1, (), False, LEAKY))
                continue
            nodes = {(): node}
            for known in known_sets[1:]:
                prefix, k = known[:-1], known[-1]
                nodes[known] = _fix(nodes[prefix], k, dealt[k], p)  # the dealt vector lies on it
                by_known[known] = (
                    by_known[prefix]
                    if nodes[known] is nodes[prefix]
                    else summary(nodes[known])
                )
            # a_j is determined when the shares alone fix it
            authorized = [not any(node[0][j][:-1]) for j in secret_indices]
            for j, known in cell_keys:
                _, counts, verdicts = by_known[known]
                level, points = counts[j]
                verdict = verdicts[j]
                ok = True
                if authorized[j]:
                    ok = verdict == DETERMINED and level + points.get(dealt[j], 0) > 0
                elif domain == FULL_FIELD:
                    ok = verdict == UNIFORM
                elif verdict != UNIFORM:
                    notes.append(
                        f"subset {subset} j={j} known={known}: "
                        f"non-uniform under {ALL_NONZERO} (informational)"
                    )
                histogram = None if ok else _materialize(level, points, p)
                cell = AuditCell(subset, j, known, authorized[j], verdict, histogram)
                cells.append(cell)
                if not ok:
                    violations.append(cell)

    return AuditReport(
        config=cfg,
        domain=domain,
        secret_vector=sv,
        passed=not violations,
        cells=tuple(cells),
        violations=tuple(violations),
        notes=tuple(notes),
    )
