"""Exact information-theoretic audit of a dealt scheme instance.

For every participant subset A (up to size t), every secret index j, and
every set T of other secret indices assumed known, the auditor computes
the exact conditional distribution of s_j given A's shares and T.  No
coefficient vector is enumerated.  A's shares leave an affine space
a = x + B.alpha of coefficient vectors, alpha ranging over F_p^dim; each
known secret adds one linear equation on alpha.  The coefficient domain
(nonzero blinding, or every coefficient nonzero) is counted by
inclusion-exclusion over the patterns Z of restricted coordinates forced
to zero: each consistent pattern is again an affine space, signed by
(-1)^|Z|, on which s_j is either constant (adding p^dim to one value)
or exactly uniform (adding p^(dim-1) to every value).  Verdicts come
from these exact integer counts, never floating point:

* determined - a point mass (the subset pins the secret down),
* uniform    - literally equal counts over the whole coefficient domain,
* leaky      - anything in between: the subset's shares shift the
               distribution without determining the value.

The audit passes only when authorized subsets are determined at the
dealt value and unauthorized ones stay exactly uniform for every T.
Histograms of violating cells are written out value by value over F_p,
so instances with p^t above the enumeration guard are refused (CLI exit
code 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .errors import ENUMERATION_GUARD, CapacityError, ParameterError
from .scheme import SchemeConfig, SecretVector, deal
from .symfun import Track, power_rows

FULL_FIELD = "full-field"  # secrets range over F_p, blinding nonzero
ALL_NONZERO = "all-nonzero"  # every coefficient nonzero
DOMAINS = (FULL_FIELD, ALL_NONZERO)


def _check_capacity(cfg: SchemeConfig) -> None:
    size = cfg.field.p**cfg.t
    if size > ENUMERATION_GUARD:
        raise CapacityError(
            f"p^t = {cfg.field.p}^{cfg.t} = {size} exceeds the "
            f"{ENUMERATION_GUARD} enumeration guard"
        )


def _check_domain(domain: str) -> None:
    if domain not in DOMAINS:
        raise ParameterError(f"unknown coefficient domain {domain!r}")


class _ConsistentSpace:
    """The coefficient vectors in the domain that match one subset's
    shares, as a signed sum of affine spaces.

    Coordinate i of a matching vector is base[i] + coords[i] . alpha.
    Each inclusion-exclusion term is (sign, echelon): the echelon holds
    the equations on alpha of the known secrets and of one zero pattern,
    and the term's space has dimension dim - len(echelon).
    """

    def __init__(
        self, base: list[int], basis: list[list[int]], dealt: tuple[int, ...],
        restricted: tuple[int, ...], p: int,
    ) -> None:
        self.base = base
        self.coords = [[vec[i] for vec in basis] for i in range(len(base))]
        self.dim = len(basis)
        self.dealt = dealt
        self.restricted = restricted
        self.p = p
        self._terms: dict[tuple[int, ...], list[tuple[int, linalg.Echelon]]] = {}

    def _equation(self, i: int, value: int) -> list[int]:
        return self.coords[i] + [(value - self.base[i]) % self.p]

    def terms(self, known: tuple[int, ...]) -> list[tuple[int, linalg.Echelon]]:
        """Terms for the secrets in `known` fixed at their dealt values;
        every secret index outside `known` shares them."""
        if known in self._terms:
            return self._terms[known]
        echelon: linalg.Echelon = []
        for k in known:
            echelon = linalg.extend_echelon(echelon, self._equation(k, self.dealt[k]), self.p)
            assert echelon is not None, "the dealt vector agrees with its own secrets"
        # depth-first over zero patterns; a pattern that contradicts the
        # equations so far does so for every pattern containing it
        out = []
        stack = [(echelon, 0, 1)]
        while stack:
            echelon, start, sign = stack.pop()
            out.append((sign, echelon))
            for pos in range(start, len(self.restricted)):
                row = self._equation(self.restricted[pos], 0)
                grown = linalg.extend_echelon(echelon, row, self.p)
                if grown is not None:
                    stack.append((grown, pos + 1, -sign))
        self._terms[known] = out
        return out

    def count(self) -> int:
        return sum(sign * self.p ** (self.dim - len(e)) for sign, e in self.terms(()))

    def histogram(self, j: int, known: tuple[int, ...]) -> tuple[int, dict[int, int]]:
        """Counts of s_j as (level, points): every value occurs
        level + points.get(value, 0) times; points holds no zero entry."""
        p = self.p
        level = 0
        points: dict[int, int] = {}
        for sign, echelon in self.terms(known):
            dim = self.dim - len(echelon)
            rest = linalg.reduce_row(echelon, self.coords[j] + [0], p)
            if any(rest[:-1]):
                level += sign * p ** (dim - 1)
            else:
                value = (self.base[j] - rest[-1]) % p
                points[value] = points.get(value, 0) + sign * p**dim
        return level, {v: c for v, c in points.items() if c}


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


@dataclass(frozen=True)
class AuditCell:
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
    restricted = (t - 1,) if domain == FULL_FIELD else tuple(range(t))

    for size in range(0, t + 1):
        for subset in itertools.combinations(cfg.identities, size):
            pairs = table.subset(subset)
            rows = power_rows(subset, t, field)
            solution = linalg.solve_affine(rows, [y for _, y in pairs], p, t)
            space = _ConsistentSpace(*solution, dealt, restricted, p)  # honest shares solve
            if not space.count():
                notes.append(
                    f"subset {subset}: no vector of the {domain} domain matches these "
                    "shares (the dealt vector lies outside the domain)"
                )
                violations.append(
                    AuditCell(subset=subset, j=-1, known=(), authorized=False, verdict=LEAKY)
                )
                continue
            for j in secret_indices:
                # a_j is determined when the kernel leaves coordinate j fixed
                authorized = not any(space.coords[j])
                others = [i for i in secret_indices if i != j]
                for ksize in range(len(others) + 1):
                    for known in itertools.combinations(others, ksize):
                        level, points = space.histogram(j, known)
                        verdict = _classify(level, points, p, domain)
                        ok = True
                        if authorized:
                            ok = verdict == DETERMINED and level + points.get(dealt[j], 0) > 0
                        elif domain == FULL_FIELD:
                            ok = verdict == UNIFORM
                        elif verdict != UNIFORM:
                            notes.append(
                                f"subset {subset} j={j} known={known}: "
                                f"non-uniform under {ALL_NONZERO} (informational)"
                            )
                        cell = AuditCell(
                            subset=subset,
                            j=j,
                            known=known,
                            authorized=authorized,
                            verdict=verdict,
                            histogram=_materialize(level, points, p) if not ok else None,
                        )
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
