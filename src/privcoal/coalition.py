"""Enumeration and classification of privileged coalitions.

A coalition of r < t participants is (t, j)-privileged when its shares
already determine coefficient a_j of the degree-(t-1) scheme polynomial,
i.e. when the j-th unit vector lies in the row space of its power matrix.
Privilege is decided by the symmetric-function window test:
tau_w(track) = 0 for every w in {r-j, ..., t-1-j}, run by the enumeration
walk (also for one track: `is_privileged`).  With the conventions
tau_0 = 1 and tau_w = 0 for w > r it encodes exactly the row-space
condition; the test suite checks the two against each other with a rank
oracle written from scratch.

Enumeration does not test every r-subset: `privileged_tracks` walks the
(r-2)-prefixes with one ladder rule at every depth, streams over the
later identities below each, and solves the first window equation for
the last identity; where that equation loses the last identity, so do
all the others, and the prefix must be privileged.
Privilege is monotone under supersets, so one sweep over successive
lengths (`minimal_tracks`) keeps the tracks that contain no privileged
track one element shorter: it yields the minimal coalitions and, given
the t-subsets as its last layer, the unextended ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import ParameterError, binomial_sum, bound_held, bound_work
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

    Decided by the enumeration walk over the track's own identities, which
    lists the track exactly when it passes.  False for j outside [t-r, r-1],
    j = 0 and j = t-1 included (the window then holds tau_r, a product of
    nonzero identities, or tau_0 = 1).
    """
    return bool(privileged_tracks(track, len(track), t, j, field))


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

    The window equations tau_w = 0 for w in {lo, ..., b}, lo = r-j and
    b = t-1-j, read no tau above b, so every ladder stops at tau_b.  The
    walk pops prefixes off an explicit stack, children pushed in reverse
    so the output stays lexicographic.  A prefix of depth d holds
    tau_{d-j}..tau_b; the empty prefix holds j zeros, tau_0 = 1, b zeros.
    Adding identity v applies one rule at every depth,
    tau_w(P + {v}) = tau_w(P) + v * tau_{w-1}(P), and drops the lowest
    rung, so each (r-2)-prefix head holds exactly tau_{lo-2}..tau_b (for
    r = 2 the empty prefix is the head).  One comprehension streams over
    every identity y after each head.  With Q = head + {y},
    tau_w(Q + {x}) = tau_w(Q) + x * tau_{w-1}(Q) is linear in x, so the
    first window equation fixes x = -tau_lo(Q) / tau_{lo-1}(Q).  x counts
    when it is an identity after y, and only those hits check the
    remaining window equations.  When the denominator tau_{lo-1}(Q)
    vanishes, x drops out of every equation (`dropped`): Q + {x} is then
    privileged for every later x exactly when Q is, and those tracks come
    out in place, so the result needs no sort.  That is O(1) work per
    (r-1)-prefix, and no call stack grows with r.
    """
    ids = as_track(ids, field)
    _check_predicate_args(r, t, j, field)
    n = len(ids)
    if r not in valid_lengths(t, j) or r > n:
        return []
    p = field.p
    lo, b = r - j, t - 1 - j
    members = frozenset(ids)
    rest = range(1, b - lo + 1)

    def dropped(y: int, m: list[int]) -> Track:
        # tau_{lo-1}(Q) = 0 for Q = head + {y}: the first window equation
        # loses x and asks tau_lo(Q) = 0, which zeroes the next denominator,
        # and so on up to b.  The equations then hold for every later x
        # exactly when tau_lo(Q) = ... = tau_b(Q) = 0, i.e. when Q is itself
        # privileged.
        if any((m[i + 1] + y * m[i]) % p for i in range(1, len(m) - 1)):
            return ()
        return ids[ids.index(y) + 1 :]

    def heads() -> Iterator[tuple[Track, int, list[int]]]:
        # yields each (r-2)-prefix head, the index after it and its ladder
        stack = [((), [0] * j + [1] + [0] * b, 0)]
        while stack:
            prefix, taus, start = stack.pop()
            if len(prefix) == r - 2:
                yield prefix, start, taus
                continue
            pairs = list(zip(taus[1:], taus))
            for k in reversed(range(start, n - r + len(prefix) + 1)):
                v = ids[k]
                stack.append((prefix + (v,), [(a + v * c) % p for a, c in pairs], k + 1))

    return [
        head + (y, x)
        for head, k, m in heads()
        for y in ids[k : n - 1]
        for d in ((m[1] + y * m[0]) % p,)
        for x in ((-(m[2] + y * m[1]) * pow(d, -1, p) % p,) if d else dropped(y, m))
        if x > y
        and x in members
        and all((m[i + 2] + (y + x) * m[i + 1] + y * x * m[i]) % p == 0 for i in rest)
    ]


def minimal_tracks(layers: Iterable[Iterable[Track]]) -> Iterator[list[Track]]:
    """For each layer, the tracks that contain no track of the layer before.

    Layers hold tracks of successive lengths over the same identities, each
    privileged layer complete.  Privilege is monotone under supersets, so a
    track containing a shorter privileged track contains one of length
    len(track) - 1.  Those one-element drops are combinations(c, len(c) - 1),
    tested with one `isdisjoint`.  A one-pass last layer (the t-subsets) is
    streamed, never collected into `shorter`.
    """
    shorter: set[Track] = set()
    for layer in layers:
        yield [c for c in layer if shorter.isdisjoint(itertools.combinations(c, len(c) - 1))]
        shorter = set(layer)


def check_walk(n: int, lengths: Sequence[int]) -> None:
    """Refuse a walk over more (r-1)-prefixes of n identities than the guard."""
    bound_work(
        binomial_sum(n, [r - 1 for r in lengths]),
        lambda: f"the sum of C({n}, r - 1) over r = {lengths[0]}..{lengths[-1]} exceeds",
    )


@dataclass(frozen=True)
class CoalitionQuery:
    """Enumeration request: threshold t, coefficient index j, length r
    (None sweeps every valid length), the field, and the identity bound
    n_max.  Candidate identities are {1, ..., n_max}; values above p-1
    would collapse to 0 mod p and are never candidates, so the effective
    bound is min(n_max, p-1).  After the parameter checks, construction
    refuses (CapacityError) a walk over more (r-1)-prefixes than the
    enumeration guard (`check_walk`), then more identities than the
    identity bound, before any identity is built."""

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
        n = self.effective_n_max
        check_walk(n, self.lengths)
        bound_held(n, lambda: f"identities 1..{n} exceed")

    @property
    def effective_n_max(self) -> int:
        return min(self.n_max, self.field.p - 1)

    @property
    def lengths(self) -> range:
        if self.r is not None:
            return range(self.r, self.r + 1)
        return range(max(self.t - self.j, self.j + 1), min(self.t, self.effective_n_max + 1))


@dataclass(frozen=True)
class CoalitionReport:
    """Deterministic result of a coalition enumeration."""

    query: CoalitionQuery
    minimal_only: bool
    coalitions: tuple[Track, ...]

    @property
    def count(self) -> int:
        return len(self.coalitions)

    def per_length(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.coalitions:
            out[len(c)] = out.get(len(c), 0) + 1
        return out

    @property
    def r_min(self) -> int | None:
        return len(self.coalitions[0]) if self.query.r is None and self.coalitions else None

    @property
    def n_min(self) -> int | None:
        return self.per_length().get(self.r_min)

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
    t, j, field, lengths = query.t, query.j, query.field, query.lengths
    ids = tuple(range(1, query.effective_n_max + 1))
    # a minimal sweep walks the length before the first only to filter it
    walked = range(lengths.start - minimal, lengths.stop)
    layers = (privileged_tracks(ids, r, t, j, field) for r in walked)
    if minimal:
        layers = itertools.islice(minimal_tracks(layers), 1, None)
    return CoalitionReport(query, minimal, tuple(itertools.chain.from_iterable(layers)))


def privileged_coalitions(query: CoalitionQuery) -> CoalitionReport:
    """All (t, j)-privileged coalitions for the query, lexicographically.

    With r fixed the report lists that single length; with r = None it
    sweeps every valid length (ordered by length, then lexicographically)
    and reports the shortest populated length r_min together with the
    number of privileged coalitions found there (N_min).  The query's
    construction has already bounded the walk.
    """
    return _enumerate_report(query, minimal=False)


def minimal_privileged_coalitions(query: CoalitionQuery) -> CoalitionReport:
    """Like privileged_coalitions, restricted by `minimal_tracks` to minimal
    coalitions.  The sweep starts one length before the first reported
    (empty below the valid range), so a fixed r is filtered against r-1
    like any other.  At the shortest populated length every privileged
    coalition is minimal, so r_min and N_min agree with the unfiltered sweep.
    """
    return _enumerate_report(query, minimal=True)
