"""Dealing, access structures, and recovery: `recover`'s two routes (the
paper's cofactor formula `recover_privileged` below t, one t x t solve
from t on), each checked against an oracle that shares no code with it."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from privcoal import (
    AuthorizationError,
    ParameterError,
    PrimeField,
    SchemeConfig,
    SecretVector,
    deal,
    derive_access_structure,
    extension_track,
    recover,
    recover_privileged,
    valid_lengths,
)

from oracles import (
    determines_coefficient,
    elem_sym_subsets,
    eval_poly_int,
    minimal_by_all_subtracks,
    unextended_by_all_subtracks,
)

F7 = PrimeField(7)
CFG = SchemeConfig(t=5, field=F7, identities=range(1, 7))
SV = SecretVector(secrets=(1, 2, 3, 4), blinding=5, field=F7)


def test_config_validation():
    with pytest.raises(ParameterError):
        SchemeConfig(t=5, field=F7, identities=(1, 2, 3, 4))  # too few
    with pytest.raises(ParameterError):
        SchemeConfig(t=5, field=F7, identities=(0, 1, 2, 3, 4))  # zero identity
    with pytest.raises(ParameterError):
        SchemeConfig(t=5, field=F7, identities=(1, 1, 2, 3, 4))  # duplicate
    with pytest.raises(ParameterError):
        SchemeConfig(t=8, field=F7, identities=range(1, 7))  # t > p
    with pytest.raises(ParameterError, match="must be at least 2"):
        SchemeConfig(t=1, field=F7, identities=range(1, 7))


def test_secret_vector_validation():
    with pytest.raises(ParameterError):
        SecretVector(secrets=(1, 2, 3, 4), blinding=0, field=F7)
    with pytest.raises(ParameterError):
        SecretVector(secrets=(1, 2, 9, 4), blinding=5, field=F7)
    assert SecretVector(secrets=(0, 0, 0, 0), blinding=1, field=F7).coefficients == \
        (0, 0, 0, 0, 1)


def test_secret_vector_random_deterministic():
    a = SecretVector.random(F7, 5, seed=11)
    b = SecretVector.random(F7, 5, seed=11)
    c = SecretVector.random(F7, 5, seed=12)
    assert a == b
    assert a != c
    assert len(a.secrets) == 4 and a.blinding != 0


def test_deal_known_shares():
    table = deal(CFG, SV)
    assert table.entries == ((1, 1), (2, 3), (3, 1), (4, 4), (5, 1), (6, 3))
    # independent integer-evaluation oracle
    for i, y in table.entries:
        assert y == eval_poly_int(SV.coefficients, i, 7)


def test_deal_only_top_term():
    sv = SecretVector(secrets=(0, 0, 0, 0), blinding=1, field=F7)
    table = deal(CFG, sv)
    for i, y in table.entries:
        assert y == pow(i, 4, 7)


def test_deal_validation():
    with pytest.raises(ParameterError):
        deal(CFG, SecretVector(secrets=(1, 2, 3), blinding=5, field=F7))
    with pytest.raises(ParameterError):
        deal(CFG, SecretVector(secrets=(1, 2, 3, 4), blinding=5, field=PrimeField(13)))


def test_access_structure_six_participants():
    structure = derive_access_structure(CFG)
    gamma0 = structure.minimal_sets(0)
    assert len(gamma0) == 6
    assert all(a.kind == "threshold" and len(a.members) == 5 for a in gamma0)
    gamma1 = [a.members for a in structure.minimal_sets(1)]
    gamma2 = [a.members for a in structure.minimal_sets(2)]
    gamma3 = [a.members for a in structure.minimal_sets(3)]
    assert gamma1 == gamma3 == [(1, 2, 5, 6), (1, 3, 4, 6), (2, 3, 4, 5)]
    assert gamma2 == [(1, 2, 4), (3, 5, 6)]
    assert all(
        a.kind == "privileged"
        for j in (1, 2, 3)
        for a in structure.minimal_sets(j)
    )  # this instance has no unextended tracks
    for j in (-1, 4):
        with pytest.raises(ParameterError, match="secret index"):
            structure.minimal_sets(j)


def test_access_structure_threshold_three():
    cfg = SchemeConfig(t=3, field=F7, identities=(1, 2, 3))
    structure = derive_access_structure(cfg)
    assert [a.members for a in structure.minimal_sets(0)] == [(1, 2, 3)]
    # brute-force check of gamma_1 against the independent rank oracle
    expected = []
    for r in (1, 2):
        for sub in itertools.combinations((1, 2, 3), r):
            if determines_coefficient(sub, 3, 1, 7) and not any(
                determines_coefficient(s, 3, 1, 7)
                for rr in range(1, r)
                for s in itertools.combinations(sub, rr)
            ):
                expected.append(sub)
    unextended = [
        full for full in [(1, 2, 3)]
        if not any(
            determines_coefficient(s, 3, 1, 7)
            for rr in (1, 2)
            for s in itertools.combinations(full, rr)
        )
    ]
    got = [a.members for a in structure.minimal_sets(1)]
    assert got == sorted(expected, key=lambda m: (len(m), m)) + unextended


def test_access_structure_antichain():
    structure = derive_access_structure(CFG)
    for j in range(4):
        members = [set(a.members) for a in structure.minimal_sets(j)]
        for a, b in itertools.permutations(members, 2):
            assert not a < b


def test_recover_full():
    # t shares take the full-solve route, for the blinding coefficient too
    table = deal(CFG, SV)
    for ids in itertools.combinations(range(1, 7), 5):
        subset = table.subset(ids)
        assert [recover(subset, j, CFG) for j in range(5)] == list(SV.coefficients)
    with pytest.raises(ParameterError):
        recover(table.subset([1, 2, 3, 4, 5]), 5, CFG)


def test_recover_rejects_shares_off_one_polynomial():
    table = deal(CFG, SV)
    shares = dict(table.entries)
    for tampered in (6, 2):  # outside the first t identities, then inside
        bad = dict(shares)
        bad[tampered] = (bad[tampered] + 1) % 7
        with pytest.raises(ParameterError, match="do not lie on one polynomial"):
            recover(bad, 0, CFG)
    assert recover(shares, 4, CFG) == 5  # all six consistent shares


def test_recover_privileged():
    table = deal(CFG, SV)
    assert recover_privileged(table.subset([1, 2, 4]), 5, 2, F7) == 3
    assert recover_privileged(table.subset([3, 5, 6]), 5, 2, F7) == 3
    assert recover_privileged(table.subset([1, 2, 5, 6]), 5, 1, F7) == 2
    assert recover_privileged(table.subset([1, 2, 5, 6]), 5, 3, F7) == 4
    with pytest.raises(AuthorizationError):
        recover_privileged(table.subset([1, 2, 3]), 5, 2, F7)
    with pytest.raises(ParameterError):
        recover_privileged(table.subset([1, 2, 3, 4, 5]), 5, 2, F7)
    with pytest.raises(ParameterError):
        recover_privileged(table.subset([1, 2, 4]), 5, 2, F7, extension=(4, 5))


def test_recover_privileged_superset_of_minimal():
    # privilege is monotone: a 4-set containing (1,2,4) recovers s_2 directly
    table = deal(CFG, SV)
    assert recover_privileged(table.subset([1, 2, 4, 5]), 5, 2, F7) == 3


def test_extension_track():
    assert extension_track((1, 2, 4), 5, F7) == (3, 5)
    assert extension_track((1, 2, 5, 6), 5, F7) == (3,)
    with pytest.raises(ParameterError):
        extension_track((1, 2, 4), 7, F7)  # only 3 residues remain


def test_extension_track_and_recovery_in_a_61_bit_field():
    field = PrimeField(2**61 - 1)
    p = field.p
    assert extension_track((1, 2, 4), 7, field) == (3, 5, 6, 7)
    # (1, 2, 3, x) is (5, 2)-privileged when tau_2 = 11 + 6x vanishes
    x = -elem_sym_subsets((1, 2, 3), 2) * pow(elem_sym_subsets((1, 2, 3), 1), -1, p) % p
    cfg = SchemeConfig(t=5, field=field, identities=(1, 2, 3, x, 9))
    sv = SecretVector(secrets=(11, 22, 33, 44), blinding=5, field=field)
    table = deal(cfg, sv)
    assert recover_privileged(table.subset([1, 2, 3, x]), 5, 2, field) == 33
    assert recover(table.subset([1, 2, 3, x]), 2, cfg) == 33


def _access_structure_by_definition(cfg):
    """Minimal sets from the independent rank oracle over every subset."""
    t, p, ids = cfg.t, cfg.field.p, cfg.identities
    per_index = [[(sub, "threshold") for sub in itertools.combinations(ids, t)]]
    for j in range(1, t - 1):
        per_index.append(
            [
                (sub, "privileged")
                for r in valid_lengths(t, j)
                for sub in itertools.combinations(ids, r)
                if minimal_by_all_subtracks(sub, t, j, p)
            ]
            + [
                (sub, "unextended")
                for sub in itertools.combinations(ids, t)
                if unextended_by_all_subtracks(sub, t, j, p)
            ]
        )
    return per_index


def _definition_configs(t):
    """Random identity sets of t and t + 2 members over the primes above
    t; at t = 7, the explore benchmark's access-structure shape instead
    (identities 1..10 at p = 11 and 13), where the privileged layers are
    dense and extend many of the streamed t-subsets."""
    if t == 7:
        return [SchemeConfig(t=7, field=PrimeField(p), identities=range(1, 11)) for p in (11, 13)]
    rng = random.Random(t)
    return [
        SchemeConfig(t=t, field=PrimeField(p), identities=rng.sample(range(1, p), n))
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
        if p > t
        for n in (t, min(p - 1, t + 2))
    ]


@pytest.mark.parametrize("t", [3, 4, 5, 6, 7])
def test_access_structure_matches_definitional_construction(t):
    for cfg in _definition_configs(t):
        structure = derive_access_structure(cfg)
        got = [
            [(a.members, a.kind) for a in structure.minimal_sets(j)]
            for j in range(t - 1)
        ]
        assert got == _access_structure_by_definition(cfg), (t, cfg.field.p, cfg.identities)


def test_privileged_sets_at_t7_p13_determine_their_coefficient():
    """Every minimal privileged set of the t = 7, p = 13, ids 1..12
    structure (the recover-repeat benchmark's) passes the from-scratch
    rank oracle."""
    field = PrimeField(13)
    structure = derive_access_structure(
        SchemeConfig(t=7, field=field, identities=range(1, 13))
    )
    privileged = [
        (a.members, j)
        for j in range(1, 6)
        for a in structure.minimal_sets(j)
        if a.kind == "privileged"
    ]
    assert len(privileged) > 100
    for members, j in privileged:
        assert determines_coefficient(members, 7, j, 13), (members, j)


def _coset(rng, r, p):
    """a, a z, ..., a z^(r-1) for a random a and a z of order r in F_p^*.

    Their product polynomial is x^r - a^r, so tau_1..tau_{r-1} vanish and
    the coset is (t, j)-privileged for every j that length r allows."""
    while True:
        z = pow(rng.randrange(2, p), (p - 1) // r, p)
        if all(pow(z, k, p) != 1 for k in range(1, r)):
            a = rng.randrange(1, p)
            return {a * pow(z, k, p) % p for k in range(r)}


def _identities(t, p, n):
    """Every identity of F_p when n = p - 1.  Otherwise random cosets of
    orders t-2 and t-1, so minimal privileged sets and their supersets
    below t occur, filled up to n with random identities."""
    if n == p - 1:
        return range(1, p)
    rng = random.Random(p)
    ids = _coset(rng, t - 2, p) | _coset(rng, t - 1, p)
    while len(ids) < n:
        ids.add(rng.randrange(1, p))
    return sorted(ids)


@pytest.mark.parametrize(
    "t, p, n",
    [(5, 7, 6), (7, 13, 12), (5, 65521, 8), (7, 2**61 - 1, 12)],
    ids=["5-7-6", "7-13-12", "random-65521", "random-2^61-1"],
)
def test_cofactor_formula_agrees_with_recover(t, p, n):
    """Recovery below t, by recover and by recover_privileged, against the
    from-scratch rank oracle: on every subset of 1..t-1 identities and
    every index j in 0..t-1, a subset the oracle accepts gives the dealt
    coefficient of every secret vector tried, and any other is refused
    by both with the same message."""
    field = PrimeField(p)
    cfg = SchemeConfig(t=t, field=field, identities=_identities(t, p, n))
    tables = [
        (sv.coefficients, deal(cfg, sv))
        for sv in (SecretVector.random(field, t, seed) for seed in range(3))
    ]
    accepted = []
    refused = 0
    for size in range(1, t):
        for members in itertools.combinations(cfg.identities, size):
            for j in range(t):
                if determines_coefficient(members, t, j, p):
                    accepted.append(members)
                    for coefficients, table in tables:
                        pairs = table.subset(members)
                        assert recover(pairs, j, cfg) == coefficients[j], (members, j)
                        assert recover_privileged(pairs, t, j, field) == coefficients[j]
                    continue
                pairs = tables[0][1].subset(members)
                with pytest.raises(AuthorizationError) as formula:
                    recover_privileged(pairs, t, j, field)
                with pytest.raises(AuthorizationError) as routed:
                    recover(pairs, j, cfg)
                message = f"subset {members} is not authorized for secret index {j}"
                assert str(formula.value) == str(routed.value) == message
                refused += 1
    assert refused
    assert min(map(len, accepted)) <= t - 2
    assert any(len(a) == t - 1 and any(set(b) < set(a) for b in accepted) for a in accepted)


def test_recover_dispatch():
    table = deal(CFG, SV)
    assert recover(table.subset([3, 5, 6]), 2, CFG) == 3
    assert recover(table.subset([1, 2, 3, 4, 5]), 0, CFG) == 1
    assert recover(table.subset(range(1, 7)), 0, CFG) == 1  # extra shares fine
    with pytest.raises(AuthorizationError, match="secret index 2"):
        recover(table.subset([1, 2]), 2, CFG)
    with pytest.raises(AuthorizationError):
        recover(table.subset([1, 2, 4]), 1, CFG)  # privileged for j=2 only
    with pytest.raises(ParameterError):
        recover([(9, 0)], 2, CFG)  # not a participant
    with pytest.raises(ParameterError, match="duplicate identity"):
        recover([(1, 1), (2, 3), (1, 2)], 2, CFG)
    with pytest.raises(ParameterError, match="at least one identity"):
        recover([], 2, CFG)


def test_share_table_lookups():
    table = deal(CFG, SV)
    assert table.share(2) == 3
    assert table.subset([6, 2, 6]) == [(2, 3), (6, 3)]
    with pytest.raises(ParameterError):
        table.share(9)


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_round_trip_random_vectors(seed):
    sv = SecretVector.random(F7, 5, seed)
    table = deal(CFG, sv)
    structure = derive_access_structure(CFG)
    for j in range(4):
        for authorized in structure.minimal_sets(j):
            got = recover(table.subset(authorized.members), j, CFG)
            assert got == sv.coefficients[j]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_round_trip_larger_instance(seed):
    f13 = PrimeField(13)
    cfg = SchemeConfig(t=7, field=f13, identities=range(1, 13))
    sv = SecretVector.random(f13, 7, seed)
    table = deal(cfg, sv)
    for ids in [(1, 2, 3, 4, 5, 6, 7), (2, 4, 6, 8, 10, 11, 12)]:
        subset = table.subset(ids)
        assert [recover(subset, j, cfg) for j in range(7)] == list(sv.coefficients)
    # a known privileged coalition for j = 3
    assert recover(table.subset([1, 5, 8, 12]), 3, cfg) == sv.secrets[3]
