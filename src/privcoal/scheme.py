"""The multi-secret sharing scheme: dealing, access structures, recovery.

The dealer hides t-1 secrets s_0..s_{t-2} as the low coefficients of a
degree-(t-1) polynomial whose top coefficient is a nonzero blinding
value, and hands participant i the evaluation at its public identity.
Any t participants recover the whole coefficient vector, and a
privileged coalition of r < t its own coefficient: `recover` reads both
off the kernel of one solve.  The paper's cofactor expansion, whose
terms needing the missing t-r shares provably vanish, is kept as
`recover_privileged`; `recover` does not call it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from . import linalg
from .coalition import (
    binomial_sum,
    check_walk,
    extension_condition,
    minimal_tracks,
    privileged_tracks,
    valid_lengths,
)
from .errors import ENUMERATION_GUARD, AuthorizationError, CapacityError, ParameterError
from .field import PrimeField
from .symfun import Track, as_track, elem_sym_all, poly_eval, power_rows, vandermonde_det

SharePairs = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class SchemeConfig:
    """Threshold t, the prime field, and the participants' public identities."""

    t: int
    field: PrimeField
    identities: Track

    def __post_init__(self) -> None:
        object.__setattr__(self, "identities", as_track(self.identities, self.field))
        if self.t < 2:
            raise ParameterError(f"threshold t = {self.t} must be at least 2")
        if self.t > self.field.p:
            raise ParameterError(
                f"threshold t = {self.t} exceeds the field order {self.field.p}"
            )
        if len(self.identities) < self.t:
            raise ParameterError(
                f"{len(self.identities)} participants cannot support threshold {self.t}"
            )


@dataclass(frozen=True)
class SecretVector:
    """The t-1 secrets plus the nonzero blinding coefficient a_{t-1}."""

    secrets: tuple[int, ...]
    blinding: int
    field: PrimeField

    def __post_init__(self) -> None:
        object.__setattr__(self, "secrets", tuple(int(s) for s in self.secrets))
        for s in self.secrets:
            if not 0 <= s < self.field.p:
                raise ParameterError(f"secret {s} is not a residue mod {self.field.p}")
        if not 1 <= self.blinding < self.field.p:
            raise ParameterError("the blinding coefficient must be a nonzero residue")

    @property
    def coefficients(self) -> tuple[int, ...]:
        """Ascending-power coefficient vector (s_0, ..., s_{t-2}, blinding)."""
        return self.secrets + (self.blinding,)

    @classmethod
    def random(cls, field: PrimeField, t: int, seed: int) -> "SecretVector":
        """Deterministic pseudo-random vector for a given seed.

        Reproducibility is the point here; the generator is not a CSPRNG,
        so real deployments should supply their own secrets.
        """
        rng = random.Random(seed)
        secrets = tuple(rng.randrange(field.p) for _ in range(t - 1))
        return cls(secrets=secrets, blinding=rng.randrange(1, field.p), field=field)


@dataclass(frozen=True)
class ShareTable:
    """One share per participant, keyed by public identity."""

    entries: tuple[tuple[int, int], ...]

    def share(self, identity: int) -> int:
        for ident, value in self.entries:
            if ident == identity:
                return value
        raise ParameterError(f"identity {identity} holds no share")

    def subset(self, identities: Iterable[int]) -> list[tuple[int, int]]:
        return [(i, self.share(i)) for i in sorted(set(identities))]


@dataclass(frozen=True)
class AuthorizedSet:
    """A minimal authorized identity set, tagged by how it qualifies."""

    members: Track
    kind: str  # "threshold" | "privileged" | "unextended"


@dataclass(frozen=True)
class AccessStructure:
    """Per secret index j, the family of minimal authorized sets."""

    config: SchemeConfig
    per_index: tuple[tuple[AuthorizedSet, ...], ...]

    def minimal_sets(self, j: int) -> tuple[AuthorizedSet, ...]:
        if not 0 <= j <= self.config.t - 2:
            raise ParameterError(f"secret index {j} outside [0, {self.config.t - 2}]")
        return self.per_index[j]

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "t": self.config.t,
            "p": self.config.field.p,
            "identities": list(self.config.identities),
            "structure": {
                str(j): [
                    {"members": list(a.members), "kind": a.kind}
                    for a in sets
                ]
                for j, sets in enumerate(self.per_index)
            },
        }


def derive_access_structure(cfg: SchemeConfig) -> AccessStructure:
    """Minimal authorized sets for every secret index.

    For each j they are the minimal privileged coalitions among the
    participants plus the unextended t-subsets (t-subsets containing no
    privileged coalition, which are therefore minimally authorized).
    One `minimal_tracks` sweep decides both: its layers are the privileged
    coalitions of every valid length, then the t-subsets, streamed.  j = 0
    is the index with no privileged coalition (no length is valid for it),
    so its sets are all the t-subsets, tagged "threshold".  Before any
    walk, CapacityError refuses more than ENUMERATION_GUARD t-subsets or
    a walk over more (r-1)-prefixes than the guard (`check_walk`).
    """
    t, field, ids = cfg.t, cfg.field, cfg.identities
    n = len(ids)
    if binomial_sum(n, [t]) > ENUMERATION_GUARD:
        raise CapacityError(
            f"C({n}, {t}) t-subsets exceed the {ENUMERATION_GUARD} enumeration guard"
        )
    for j in range(t - 1):
        check_walk(n, valid_lengths(t, j))
    per_index: list[tuple[AuthorizedSet, ...]] = []
    for j in range(t - 1):
        layers = [privileged_tracks(ids, r, t, j, field) for r in valid_lengths(t, j)]
        kind = "unextended" if j else "threshold"
        per_index.append(tuple(
            AuthorizedSet(members=sub, kind="privileged" if len(sub) < t else kind)
            for layer in minimal_tracks(layers + [itertools.combinations(ids, t)])
            for sub in layer
        ))
    return AccessStructure(config=cfg, per_index=tuple(per_index))


def deal(cfg: SchemeConfig, sv: SecretVector) -> ShareTable:
    """Evaluate the scheme polynomial at every participant identity."""
    if sv.field.p != cfg.field.p:
        raise ParameterError("secret vector and configuration use different fields")
    if len(sv.secrets) != cfg.t - 1:
        raise ParameterError(
            f"{len(sv.secrets)} secrets supplied; threshold {cfg.t} needs {cfg.t - 1}"
        )
    coeffs = sv.coefficients
    entries = tuple((i, poly_eval(coeffs, i, cfg.field)) for i in cfg.identities)
    return ShareTable(entries=entries)


def _normalize_pairs(shares: SharePairs | Mapping[int, int]) -> list[tuple[int, int]]:
    pairs = sorted(shares.items()) if isinstance(shares, Mapping) else sorted(shares)
    ids = [i for i, _ in pairs]
    if len(set(ids)) != len(ids):
        raise ParameterError("duplicate identity among the supplied shares")
    return pairs


def extension_track(track: Track, t: int, field: PrimeField) -> Track:
    """The t-r smallest nonzero residues disjoint from the track."""
    need = t - len(track)
    taken = set(track)
    out = tuple(itertools.islice((x for x in range(1, field.p) if x not in taken), need))
    if len(out) < need:
        raise ParameterError(
            f"field of order {field.p} has too few residues for a disjoint extension"
        )
    return out


def recover_privileged(
    shares: SharePairs | Mapping[int, int],
    t: int,
    j: int,
    field: PrimeField,
    extension: Track | None = None,
) -> int:
    """Recover a_j from r < t privileged shares by the paper's cofactor formula.

    Extends the coalition by a disjoint track u (the smallest free
    residues unless one is supplied), then evaluates the cofactor
    expansion of the Cramer determinant for column j along that column.
    The cofactors of the rows belonging to u carry a factor
    tau_{t-1-j}(coalition + u-minus-one), which vanishes for a privileged
    coalition, so only the coalition's own shares enter the sum.  The
    result is identical for every admissible u.  `recover` never calls this.
    """
    pairs = _normalize_pairs(shares)
    track = as_track([i for i, _ in pairs], field)
    ys = [y % field.p for _, y in pairs]
    r = len(track)
    if r >= t:
        raise ParameterError(f"coalition recovery needs fewer than t = {t} shares")
    ext = extension_track(track, t, field) if extension is None else tuple(extension)
    if not extension_condition(track, ext, t, j, field):
        raise AuthorizationError(
            f"subset {track} is not authorized for secret index {j}"
        )
    p = field.p
    b = t - 1 - j
    total = 0
    for k in range(r):
        seq = track[:k] + track[k + 1 :] + ext
        minor = vandermonde_det(seq, field) * elem_sym_all(seq, field)[b] % p
        if (k + j) % 2:
            minor = -minor
        total = (total + minor * ys[k]) % p
    return total * pow(vandermonde_det(track + ext, field), -1, p) % p


def recover(shares: SharePairs | Mapping[int, int], j: int, cfg: SchemeConfig) -> int:
    """Recover secret s_j from any authorized subset of shares.

    One route for every subset size: linalg.solve_affine on the power
    rows of the first min(t, n) identities, which are independent.  a_j
    is determined exactly when every kernel vector is 0 at j
    (AuthorizationError otherwise); shares past the t-th must lie on the
    polynomial the first t give (ParameterError otherwise).
    """
    pairs = _normalize_pairs(shares)
    known = set(cfg.identities)
    for i, _ in pairs:
        if i not in known:
            raise ParameterError(f"identity {i} is not a participant")
    t, field = cfg.t, cfg.field
    if not 0 <= j <= t - 1:
        raise ParameterError(f"coefficient index {j} outside [0, {t - 1}]")
    if not pairs:
        raise ParameterError("a track must contain at least one identity")
    p = field.p
    ids = tuple(i for i, _ in pairs)
    rows = power_rows(ids[:t], t, field)
    coeffs, kernel = linalg.solve_affine(rows, [y for _, y in pairs[:t]], p, t)
    if any(v[j] for v in kernel):
        raise AuthorizationError(f"subset {ids} is not authorized for secret index {j}")
    for i, y in pairs[t:]:
        if poly_eval(coeffs, i, field) != y % p:
            raise ParameterError(
                f"the shares do not lie on one polynomial of degree below {t}: "
                f"the share of identity {i} disagrees with the first {t}"
            )
    return coeffs[j]
