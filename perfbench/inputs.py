"""Seeded inputs for the four workloads.

Imports nothing from privcoal: the program sees only the argv lists,
identities and secret vectors built here.  Each workload is a closed loop
with one caller.  Where op cost depends on the input shape, the stream is
built from fixed blocks whose slots fix the shape and let the seed draw
the rest (prime, coefficient index, order, secrets), so every seed puts
the same mix of costs in front of the program and medians stay
comparable across seeds.  Streams yield whole blocks, and a run ends
only between blocks, so every run holds the mix exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracle
from setups import FRESH_P, FRESH_T, REPEAT_IDS, REPEAT_P, REPEAT_T

# explore: a researcher's session through the CLI.
EXPLORE_T = 7
ENUM_PRIMES = oracle.primes_between(13, 113) + [10007, 2**61 - 1]
AS_PRIMES = oracle.primes_between(11, 113) + [10007, 2**61 - 1]

# One block of the session: (command, shape, copies).  For enumerate the
# shape is the interchangeable coefficient indices (j and t-1-j scan the
# same lengths) and N; for table it is N; for access-structure it is
# (t, n).  Primes are drawn from those above N (resp. n), so the shape
# fixes the number of tracks scanned.
#
# Latency percentiles are read from a mixture of shapes, and the host's
# speed can shift by half within a run, so each percentile must fall well
# inside one group of similar shapes, not on the edge between two.  Costs
# on a 2-core x86 box when this benchmark was defined: 3 cheap slots of
# 20-45 ms; 10 middle slots of 70-130 ms, ranks 15-65%, holding the
# median; 2 slots of 70-250 ms; 5 top slots of 320-460 ms, ranks 75-100%,
# holding the 90th percentile.
EXPLORE_BLOCK = (
    ("enumerate", ((3,), 13), 1),
    ("enumerate", ((2, 4), 14), 1),
    ("access-structure", (5, 8), 1),
    ("enumerate", ((2, 4), 16), 5),
    ("enumerate", ((1, 5), 17), 5),
    ("table", 13, 1),
    ("access-structure", (7, 9), 1),
    ("access-structure", (7, 10), 5),
)


def _explore_argv(command: str, shape, j: int | None, p: int) -> list[str]:
    if command == "enumerate":
        n = shape[1]
        return ["enumerate", "--t", str(EXPLORE_T), "--j", str(j), "--p", str(p), "--N", str(n)]
    if command == "table":
        return ["table", "--t", str(EXPLORE_T), "--N", str(shape), "--p", str(p), "--format", "json"]
    t, n = shape
    return ["access-structure", "--t", str(t), "--p", str(p), "--identities", f"1..{n}"]


def _explore_choices(command: str, shape) -> list[tuple[int | None, int]]:
    if command == "enumerate":
        js, n = shape
        return [(j, p) for j in js for p in ENUM_PRIMES if p > n]
    if command == "table":
        return [(None, p) for p in ENUM_PRIMES if p > shape]
    return [(None, p) for p in AS_PRIMES if p > shape[1]]


def explore_domain() -> list[list[str]]:
    """Every argv an explore stream can produce, for any seed."""
    return [
        _explore_argv(command, shape, j, p)
        for command, shape, _ in EXPLORE_BLOCK
        for j, p in _explore_choices(command, shape)
    ]


def explore_stream(seed: int):
    """Endless blocks of argvs, shuffled, with seeded primes and indices."""
    rng = random.Random(f"explore:{seed}")
    slots = [(command, shape) for command, shape, copies in EXPLORE_BLOCK for _ in range(copies)]
    while True:
        rng.shuffle(slots)
        block = []
        for command, shape in slots:
            j, p = rng.choice(_explore_choices(command, shape))
            block.append(_explore_argv(command, shape, j, p))
        yield block


# audit: the exhaustive auditor through the CLI, t=4 over identities 1..6.
AUDIT_T = 4
AUDIT_IDS = tuple(range(1, 7))
AUDIT_SEEDS = range(16)
# (p, domain) slots of one block, cheapest first: about 65, 100, 260 and
# 370 ms.  The four p=7 full-field slots (ranks 20-60%) hold the median and
# the three p=11 full-field slots (ranks 70-100%) the 90th percentile.
AUDIT_BLOCK = (
    ((7, "all-nonzero"),) * 2
    + ((7, "full-field"),) * 4
    + ((11, "all-nonzero"),)
    + ((11, "full-field"),) * 3
)


def _audit_argv(p: int, domain: str, seed: int) -> list[str]:
    return [
        "audit", "--t", str(AUDIT_T), "--p", str(p), "--identities", "1..6",
        "--domain", domain, "--seed", str(seed),
    ]


def audit_domain() -> list[list[str]]:
    return [
        _audit_argv(p, domain, s)
        for p, domain in sorted(set(AUDIT_BLOCK))
        for s in AUDIT_SEEDS
    ]


def audit_stream(seed: int):
    """Endless blocks of argvs, shuffled, with seeded secret vectors."""
    rng = random.Random(f"audit:{seed}")
    slots = list(AUDIT_BLOCK)
    while True:
        rng.shuffle(slots)
        yield [_audit_argv(p, domain, rng.choice(AUDIT_SEEDS)) for p, domain in slots]


# recover-repeat: the shape of acceptance criterion 6b (setups.py holds t,
# p and the identities).
def repeat_stream(seed: int, coalition_pairs: list, full_pairs: list):
    """Endless (secrets, blinding, pairs) triples: one secret vector, and
    the (minimal set, j) pairs that recover it, in a shuffled order.

    The pairs are every coalition pair and a sample, drawn once per seed,
    of twice as many full-solve pairs; each recurs once per vector."""
    rng = random.Random(f"recover-repeat:{seed}")
    pairs = sorted(coalition_pairs) + rng.sample(sorted(full_pairs), 2 * len(coalition_pairs))
    while True:
        secrets = [rng.randrange(REPEAT_P) for _ in range(REPEAT_T - 1)]
        blinding = rng.randrange(1, REPEAT_P)
        rng.shuffle(pairs)
        yield secrets, blinding, list(pairs)


# recover-fresh: fresh identities per request set, 16-bit prime (setups.py
# holds t and p).
FRESH_N = 11


@dataclass(frozen=True)
class Request:
    kind: str  # privileged | t-subset | all | short
    subset: tuple[int, ...]
    j: int
    authorized: bool  # by the benchmark's own rank test


@dataclass(frozen=True)
class RequestSet:
    identities: tuple[int, ...]
    secrets: tuple[int, ...]
    blinding: int
    requests: tuple[Request, ...]


def privileged_coalition(rng: random.Random, t: int, j: int, p: int) -> tuple[int, ...]:
    """A (t-1)-coalition privileged for a_j, found by solving for its last
    identity: tau_w(prefix + {x}) = tau_w(prefix) + x * tau_{w-1}(prefix)
    is linear in x, so w = t-1-j fixes x."""
    w = t - 1 - j
    while True:
        prefix = rng.sample(range(1, p), t - 2)
        e = oracle.taus(prefix, p)
        if not e[w - 1]:
            continue
        x = -e[w] * pow(e[w - 1], p - 2, p) % p
        if x and x not in prefix:
            return tuple(sorted(prefix + [x]))


def fresh_stream(seed: int):
    """Endless request sets: a privileged (t-1)-coalition, a random
    t-subset, all shares, and a random (t-1)-subset (normally refused)."""
    rng = random.Random(f"recover-fresh:{seed}")
    t, p = FRESH_T, FRESH_P
    while True:
        j_priv = rng.randrange(1, t - 1)
        coalition = privileged_coalition(rng, t, j_priv, p)
        rest = set()
        while len(rest) < FRESH_N - len(coalition):
            x = rng.randrange(1, p)
            if x not in coalition:
                rest.add(x)
        ids = tuple(sorted(coalition + tuple(rest)))
        plan = [
            ("privileged", coalition, j_priv),
            ("t-subset", tuple(sorted(rng.sample(ids, t))), rng.randrange(t - 1)),
            ("all", ids, rng.randrange(t - 1)),
            ("short", tuple(sorted(rng.sample(ids, t - 1))), rng.randrange(1, t - 1)),
        ]
        requests = tuple(
            Request(kind, subset, j, oracle.authorized(subset, t, j, p))
            for kind, subset, j in plan
        )
        secrets = tuple(rng.randrange(p) for _ in range(t - 1))
        yield RequestSet(ids, secrets, rng.randrange(1, p), requests)
