"""Enumeration and classification of privileged coalitions.

A coalition of r < t participants is (t, j)-privileged when its shares
already determine coefficient a_j of the degree-(t-1) scheme polynomial.
Two independent characterizations are implemented:

* the symmetric-function window test: tau_w(track) = 0 for every
  w in {r-j, ..., t-1-j}, and
* a rank oracle: the j-th unit vector lies in the row space of the
  coalition's power matrix.

They agree on every input (the window test with the conventions
tau_0 = 1 and tau_w = 0 for w > r encodes exactly the row-space
condition); the test suite verifies the equivalence exhaustively.

Enumeration does not test every r-subset: `privileged_tracks` walks the
(r-1)-prefixes and solves the window equations for the last identity.
Privilege is monotone under supersets, so minimal coalitions and
unextended t-subsets are decided by containment of the privileged
coalitions one length shorter (`contains_privileged`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import linalg
from .errors import ParameterError
from .field import PrimeField
from .symfun import Track, as_track, elem_sym_all


def valid_lengths(t: int, j: int) -> list[int]:
    """Coalition lengths r compatible with (t, j): t-r <= j <= r-1, r < t.

    Both bounds together force r >= ceil((t+1)/2), so lengths below that
    never appear.
    """
    return list(range(max(t - j, j + 1), t))


def _check_predicate_args(r: int, t: int, j: int, field: PrimeField) -> None:
    if r >= t:
        raise ParameterError(f"coalition length {r} must be below the threshold {t}")
    if t > field.p:
        raise ParameterError(f"threshold {t} exceeds the field order {field.p}")
    if not 0 <= j <= t - 1:
        raise ParameterError(f"coefficient index {j} outside [0, {t - 1}]")


def is_privileged(track: Track, t: int, j: int, field: PrimeField) -> bool:
    """Window test: every tau_w for w in {r-j, ..., t-1-j} vanishes mod p.

    False immediately for j = 0 (the window would contain tau_r, a product
    of nonzero identities), for j = t-1 (it would contain tau_0 = 1), and
    for j outside [t-r, r-1] (the window escapes [1, r] with the same
    effect).
    """
    _check_predicate_args(len(track), t, j, field)
    r = len(track)
    if j < t - r or j > r - 1:
        return False
    taus = elem_sym_all(track, field)
    return all(taus[w] == 0 for w in range(r - j, t - j))


def privileged_rank_oracle(track: Track, t: int, j: int, field: PrimeField) -> bool:
    """Independent check: is a_j determined by the coalition's r shares?

    Builds the r x t power matrix with rows (1, l, ..., l^(t-1)) and asks
    whether the j-th unit vector lies in its row space.
    """
    _check_predicate_args(len(track), t, j, field)
    p = field.p
    rows = [[pow(l, v, p) for v in range(t)] for l in track]
    unit = [0] * t
    unit[j] = 1
    return linalg.in_rowspan(rows, unit, p)


def check_extension(track: Track, ext: Track, t: int, field: PrimeField) -> None:
    """Raise ParameterError unless ext is an admissible extension of the
    track: t - r pairwise distinct nonzero residues outside the track."""
    if len(ext) != t - len(track):
        raise ParameterError(
            f"extension length {len(ext)} differs from t - r = {t - len(track)}"
        )
    if set(ext) & set(track):
        raise ParameterError("extension overlaps the coalition")
    for v in ext:
        if not 1 <= v <= field.p - 1:
            raise ParameterError(f"extension element {v} outside [1, {field.p - 1}]")
    if len(set(ext)) != len(ext):
        raise ParameterError("extension elements must be pairwise distinct")


def extension_condition(
    track: Track, ext: Track, t: int, j: int, field: PrimeField
) -> bool:
    """Privilege characterized through one-short extensions.

    For a disjoint extension ext of length t-r, the coalition is
    (t, j)-privileged exactly when tau_{t-1-j}(track + ext-minus-one)
    vanishes for every dropped element of ext.  Those values are the
    coefficients that would multiply the shares the coalition does not
    hold in the full t x t solve, so their vanishing is what lets a
    privileged coalition recover a_j without extra shares.
    """
    _check_predicate_args(len(track), t, j, field)
    check_extension(track, ext, t, field)
    r = len(track)
    p = field.p
    b = t - 1 - j
    base = elem_sym_all(track, field)
    for m in range(len(ext)):
        dropped = ext[:m] + ext[m + 1 :]
        acc = 0
        for k, ek in enumerate(elem_sym_all(dropped, field)):
            w = b - k
            if 0 <= w <= r:
                acc += ek * base[w]
        if acc % p:
            return False
    return True


def privileged_tracks(
    ids: Iterable[int], r: int, t: int, j: int, field: PrimeField
) -> list[Track]:
    """Every (t, j)-privileged r-subset of the identities, lexicographically.

    Walks the (r-1)-prefixes depth-first, extending the tau ladder by one
    identity per level.  tau_w(prefix + {x}) = tau_w(prefix) +
    x * tau_{w-1}(prefix) is linear in x, so the window equations leave at
    most one last identity: the first w with tau_{w-1}(prefix) != 0 fixes
    it, and it counts when it is an identity after the prefix that meets
    the other equations.  When every tau_{w-1}(prefix) in the window
    vanishes, x drops out and the equations hold exactly when the prefix
    is itself privileged; then every later identity completes it.  That
    is O(r) work per prefix instead of an O(r^2) ladder per r-subset.
    """
    ids = as_track(ids, field)
    _check_predicate_args(r, t, j, field)
    n = len(ids)
    if j < t - r or j > r - 1 or r > n:
        return []
    p = field.p
    window = range(r - j, t - j)
    position = {x: k for k, x in enumerate(ids)}
    found: list[Track] = []

    def complete(prefix: Track, taus: list[int], start: int) -> None:
        for w in window:
            if taus[w - 1]:
                x = -taus[w] * pow(taus[w - 1], -1, p) % p
                if position.get(x, -1) >= start and all(
                    (taus[v] + x * taus[v - 1]) % p == 0 for v in window
                ):
                    found.append(prefix + (x,))
                return
        # x dropped out: what is left is tau_{t-1-j}(prefix) = 0, the
        # last equation of the prefix's own window test
        if taus[t - 1 - j] == 0:
            found.extend(prefix + (x,) for x in ids[start:])

    def extend(prefix: Track, taus: list[int], start: int) -> None:
        depth = len(prefix) + 1
        pairs = list(zip(taus + [0], [0] + taus))
        for k in range(start, n - r + depth):
            x = ids[k]
            ladder = [(a + x * b) % p for a, b in pairs]
            if depth == r - 1:
                complete(prefix + (x,), ladder, k + 1)
            else:
                extend(prefix + (x,), ladder, k + 1)

    # a nonempty window needs r >= 2, so every prefix has an identity
    extend((), [1], 0)
    return found


def contains_privileged(track: Track, shorter: set[Track]) -> bool:
    """Does the track contain one of the privileged tracks in `shorter`?

    `shorter` holds every privileged track one element shorter than
    `track` over the same identities.  Privilege is monotone under
    supersets, so a track containing any shorter privileged track also
    contains one of length exactly len(track) - 1: dropping one element
    at a time covers them all.
    """
    return any(track[:k] + track[k + 1 :] in shorter for k in range(len(track)))


@dataclass(frozen=True)
class CoalitionQuery:
    """Enumeration request: threshold t, coefficient index j, length r
    (None sweeps every valid length), the field, and the identity bound
    n_max.  Candidate identities are {1, ..., n_max}; values above p-1
    would collapse to 0 mod p and are never candidates, so the effective
    bound is min(n_max, p-1)."""

    t: int
    j: int
    field: PrimeField
    n_max: int
    r: int | None = None

    def __post_init__(self) -> None:
        if self.t < 3:
            raise ParameterError(f"threshold t = {self.t} violates t >= 3")
        if self.t > self.field.p:
            raise ParameterError(
                f"t = {self.t} violates t <= p (p = {self.field.p})"
            )
        if self.n_max < 1:
            raise ParameterError(
                f"identity bound N = {self.n_max} violates N >= 1"
            )
        if not 1 <= self.j <= self.t - 2:
            raise ParameterError(
                f"j = {self.j} violates 1 <= j <= t - 2 (no coalition is "
                f"privileged for j = 0 or j = t - 1)"
            )
        if self.r is not None:
            r, t, j = self.r, self.t, self.j
            if 2 * r < t + 1:
                raise ParameterError(
                    f"r = {r} violates (t + 1) / 2 <= r (t = {t})"
                )
            if r > t - 1:
                raise ParameterError(f"r = {r} violates r <= t - 1 (t = {t})")
            if j < t - r:
                raise ParameterError(f"j = {j} violates t - r <= j (t - r = {t - r})")
            if j > r - 1:
                raise ParameterError(f"j = {j} violates j <= r - 1 (r = {r})")
            if r > self.effective_n_max:
                raise ParameterError(
                    f"r = {r} violates r <= min(N, p - 1) = {self.effective_n_max}"
                )

    @property
    def effective_n_max(self) -> int:
        return min(self.n_max, self.field.p - 1)

    @property
    def lengths(self) -> list[int]:
        if self.r is not None:
            return [self.r]
        return [r for r in valid_lengths(self.t, self.j) if r <= self.effective_n_max]


@dataclass(frozen=True)
class CoalitionReport:
    """Deterministic result of a coalition enumeration."""

    query: CoalitionQuery
    minimal_only: bool
    coalitions: tuple[Track, ...]
    r_min: int | None = None
    n_min: int | None = None

    @property
    def count(self) -> int:
        return len(self.coalitions)

    def per_length(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.coalitions:
            out[len(c)] = out.get(len(c), 0) + 1
        return out

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "query": {
                "t": self.query.t,
                "j": self.query.j,
                "r": self.query.r,
                "p": self.query.field.p,
                "N": self.query.n_max,
            },
            "minimal": self.minimal_only,
            "count": self.count,
            "coalitions": [list(c) for c in self.coalitions],
            "r_min": self.r_min,
            "N_min": self.n_min,
        }


def _enumerate_report(query: CoalitionQuery, minimal: bool) -> CoalitionReport:
    t, j, field = query.t, query.j, query.field
    ids = tuple(range(1, query.effective_n_max + 1))
    found: list[Track] = []
    r_min: int | None = None
    n_min: int | None = None
    # privileged tracks one length shorter, for the minimality check; a
    # fixed length walks its predecessor first (empty below the valid range)
    shorter: set[Track] = set()
    if minimal and query.r is not None:
        shorter = set(privileged_tracks(ids, query.r - 1, t, j, field))
    for r in query.lengths:
        priv = privileged_tracks(ids, r, t, j, field)
        if priv and r_min is None:
            r_min = r
            n_min = len(priv)
        if minimal:
            found.extend(c for c in priv if not contains_privileged(c, shorter))
            shorter = set(priv)
        else:
            found.extend(priv)
    if query.r is not None:
        r_min = n_min = None
    return CoalitionReport(
        query=query,
        minimal_only=minimal,
        coalitions=tuple(found),
        r_min=r_min,
        n_min=n_min,
    )


def privileged_coalitions(query: CoalitionQuery) -> CoalitionReport:
    """All (t, j)-privileged coalitions for the query, lexicographically.

    With r fixed the report lists that single length; with r = None it
    sweeps every valid length (ordered by length, then lexicographically)
    and reports the shortest populated length r_min together with the
    number of privileged coalitions found there (N_min).
    """
    return _enumerate_report(query, minimal=False)


def minimal_privileged_coalitions(query: CoalitionQuery) -> CoalitionReport:
    """Like privileged_coalitions, restricted to minimal coalitions.

    At the shortest populated length every privileged coalition is
    automatically minimal, so r_min and N_min agree with the
    unfiltered sweep.
    """
    return _enumerate_report(query, minimal=True)
