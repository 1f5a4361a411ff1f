"""Coalition predicates and enumeration."""

import functools
import inspect
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from privcoal import (
    CapacityError,
    CoalitionQuery,
    ParameterError,
    PrimeField,
    SchemeConfig,
    derive_access_structure,
    extension_condition,
    is_privileged,
    minimal_privileged_coalitions,
    privileged_coalitions,
    privileged_tracks,
    valid_lengths,
)
from privcoal.coalition import check_walk

import oracles
from oracles import (
    determines_coefficient,
    elem_sym_subsets,
    minimal_by_all_subtracks,
    minimal_privileged_brute,
    privileged_tracks_brute,
    unextended_by_all_subtracks,
)

F7 = PrimeField(7)
F13 = PrimeField(13)


def test_valid_lengths():
    assert valid_lengths(7, 1) == [6]
    assert valid_lengths(7, 2) == [5, 6]
    assert valid_lengths(7, 3) == [4, 5, 6]
    assert valid_lengths(7, 4) == [5, 6]
    assert valid_lengths(7, 5) == [6]
    assert valid_lengths(5, 2) == [3, 4]


def test_is_privileged_known_cases():
    assert is_privileged((1, 2, 4), 5, 2, F7)
    assert is_privileged((3, 5, 6), 5, 2, F7)
    assert is_privileged((1, 2, 5, 6), 5, 1, F7)
    assert is_privileged((1, 2, 5, 6), 5, 3, F7)
    assert not is_privileged((1, 2, 3), 5, 2, F7)  # tau_1 = 6, nonzero mod 7
    assert is_privileged((1, 5, 8, 12), 7, 3, F13)


def test_is_privileged_index_boundaries():
    for track in itertools.combinations(range(1, 7), 3):
        assert not is_privileged(track, 5, 0, F7)
        assert not is_privileged(track, 5, 4, F7)
    # outside the window [t-r, r-1] the answer is immediately False
    assert not is_privileged((1, 2, 4), 5, 1, F7)
    assert not is_privileged((1, 2, 4), 5, 3, F7)


def test_is_privileged_preconditions():
    with pytest.raises(ParameterError):
        is_privileged((1, 2, 3, 4, 5), 5, 2, F7)  # full track, not a coalition
    with pytest.raises(ParameterError):
        is_privileged((1, 2, 4), 5, 5, F7)
    with pytest.raises(ParameterError):
        is_privileged((1, 2, 4), 11, 2, F7)  # t > p


def test_rank_oracle_known_cases():
    assert determines_coefficient((1, 2, 4), 5, 2, 7)
    assert not determines_coefficient((1, 2, 3), 5, 2, 7)
    # superset of a privileged coalition stays privileged
    assert determines_coefficient((1, 2, 4, 5), 5, 2, 7)
    # the kernel of the power matrix of (1,2,4,5) is spanned by the
    # coefficients of (x-1)(x-2)(x-4)(x-5), whose x^2 coefficient is 0 mod 7
    poly = [1]
    for root in (1, 2, 4, 5):
        poly = [(a - root * b) % 7 for a, b in
                zip(poly + [0], [0] + poly)]
    # poly is descending-power; x^2 coefficient sits at index 2 from the end
    assert poly[-3] == 0


def test_extension_condition():
    assert extension_condition((1, 2, 4), (3, 5), 5, 2, F7)
    assert extension_condition((1, 2, 4), (5, 6), 5, 2, F7)
    assert not extension_condition((1, 2, 3), (4, 5), 5, 2, F7)
    # a single-element extension reduces to tau_{t-1-j}(track) = 0
    assert extension_condition((1, 2, 5, 6), (3,), 5, 1, F7) == \
        (elem_sym_subsets((1, 2, 5, 6), 3) % 7 == 0)
    with pytest.raises(ParameterError):
        extension_condition((1, 2, 4), (4, 5), 5, 2, F7)  # overlap
    with pytest.raises(ParameterError):
        extension_condition((1, 2, 4), (3,), 5, 2, F7)  # wrong length
    with pytest.raises(ParameterError, match="outside"):
        extension_condition((1, 2, 4), (3, 7), 5, 2, F7)  # 7 is the zero residue
    with pytest.raises(ParameterError, match="pairwise distinct"):
        extension_condition((1, 2, 4), (3, 3), 5, 2, F7)


def test_privileged_coalitions_goldens():
    report = privileged_coalitions(
        CoalitionQuery(t=7, j=3, field=F13, n_max=13, r=4)
    )
    assert report.coalitions == ((1, 5, 8, 12), (2, 3, 10, 11), (4, 6, 7, 9))
    assert report.count == 3
    report17 = privileged_coalitions(
        CoalitionQuery(t=7, j=3, field=PrimeField(17), n_max=13, r=4)
    )
    assert report17.coalitions == ((6, 7, 10, 11),)
    report7 = privileged_coalitions(
        CoalitionQuery(t=5, j=2, field=F7, n_max=6, r=3)
    )
    assert report7.coalitions == ((1, 2, 4), (3, 5, 6))


def test_query_constraint_violations_are_named():
    with pytest.raises(ParameterError, match="t - r <= j"):
        CoalitionQuery(t=5, j=1, field=F7, n_max=6, r=3)
    with pytest.raises(ParameterError, match=r"\(t \+ 1\) / 2 <= r"):
        CoalitionQuery(t=7, j=3, field=F13, n_max=13, r=3)
    with pytest.raises(ParameterError, match="j <= r - 1"):
        CoalitionQuery(t=7, j=5, field=F13, n_max=13, r=5)
    with pytest.raises(ParameterError, match="r <= t - 1"):
        CoalitionQuery(t=5, j=2, field=F7, n_max=6, r=5)
    with pytest.raises(ParameterError, match="t <= p"):
        CoalitionQuery(t=11, j=2, field=F7, n_max=6, r=6)
    with pytest.raises(ParameterError, match="t >= 3"):
        CoalitionQuery(t=2, j=1, field=F7, n_max=6)
    with pytest.raises(ParameterError, match="N >= 1"):
        CoalitionQuery(t=5, j=2, field=F7, n_max=0)
    for j in (0, 4):
        with pytest.raises(ParameterError, match="1 <= j <= t - 2"):
            CoalitionQuery(t=5, j=j, field=F7, n_max=6)
    with pytest.raises(ParameterError, match=r"r <= min\(N, p - 1\)"):
        CoalitionQuery(t=5, j=2, field=F7, n_max=2, r=3)


def test_identity_bound_clamps_to_field():
    # N = p is accepted; the residue 0 = p mod p is never a candidate
    report = privileged_coalitions(CoalitionQuery(t=7, j=3, field=F13, n_max=13, r=4))
    assert all(max(c) <= 12 for c in report.coalitions)


def test_minimal_privileged():
    sweep = minimal_privileged_coalitions(CoalitionQuery(t=5, j=2, field=F7, n_max=6))
    assert (1, 2, 4) in sweep.coalitions
    assert minimal_by_all_subtracks((1, 2, 4), 5, 2, 7)
    # privileged, but contains (1,2,4)
    assert is_privileged((1, 2, 4, 5), 5, 2, F7)
    assert (1, 2, 4, 5) not in sweep.coalitions
    assert not minimal_by_all_subtracks((1, 2, 4, 5), 5, 2, 7)
    cfg = SchemeConfig(t=7, field=F13, identities=range(1, 13))
    members = [a.members for a in derive_access_structure(cfg).minimal_sets(3)]
    assert (1, 5, 8, 12) in members
    assert minimal_by_all_subtracks((1, 5, 8, 12), 7, 3, 13)


def test_minimal_enumeration_cases():
    report = minimal_privileged_coalitions(
        CoalitionQuery(t=5, j=2, field=F7, n_max=6, r=4)
    )
    assert report.coalitions == ()
    # sweep over all lengths: only the two length-3 coalitions are minimal
    sweep = minimal_privileged_coalitions(CoalitionQuery(t=5, j=2, field=F7, n_max=6))
    assert sweep.coalitions == ((1, 2, 4), (3, 5, 6))
    assert sweep.r_min == 3 and sweep.n_min == 2
    # no (7,5)-minimal coalitions at p = 67
    report67 = minimal_privileged_coalitions(
        CoalitionQuery(t=7, j=5, field=PrimeField(67), n_max=13)
    )
    assert report67.count == 0
    assert report67.r_min is None and report67.n_min is None


def test_minimality_agrees_with_all_subtracks_oracle():
    for j in range(1, 6):
        query = CoalitionQuery(t=7, j=j, field=F13, n_max=13)
        members = set(minimal_privileged_coalitions(query).coalitions)
        for r in query.lengths:
            for track in itertools.combinations(range(1, 13), r):
                expected = minimal_by_all_subtracks(track, 7, j, 13)
                assert ((track in members) == expected), (track, j)


def _unextended_sets(t, j, field, ids):
    structure = derive_access_structure(SchemeConfig(t=t, field=field, identities=ids))
    return [a.members for a in structure.minimal_sets(j) if a.kind == "unextended"]


def test_unextended():
    # contains (1,2,4), resp. (2,3,4,5)
    assert (1, 2, 3, 4, 5) not in _unextended_sets(5, 2, F7, range(1, 7))
    assert not unextended_by_all_subtracks((1, 2, 3, 4, 5), 5, 2, 7)
    assert (2, 3, 4, 5, 6) not in _unextended_sets(5, 1, F7, range(1, 7))
    assert not unextended_by_all_subtracks((2, 3, 4, 5, 6), 5, 1, 7)
    # over a huge prime no subset of 1..13 has vanishing symmetric functions,
    # so any 7-subset is unextended for every index
    big = PrimeField(22787)
    for track, j in (((1, 2, 3, 4, 5, 6, 7), 3), ((7, 8, 9, 10, 11, 12, 13), 4)):
        assert track in _unextended_sets(7, j, big, range(1, 14))
        assert unextended_by_all_subtracks(track, 7, j, 22787)


GRID_PRIMES = [7, 11, 13, 17]


def test_window_test_agrees_with_rank_oracle_small_grid():
    # the full grid lives in the acceptance suite; keep a fast slice here
    for p in GRID_PRIMES:
        field = PrimeField(p)
        n = min(8, p - 1)
        for t in (4, 5):
            if t > p:
                continue
            for r in range(2, t):
                for j in range(t):
                    for track in itertools.combinations(range(1, n + 1), r):
                        assert is_privileged(track, t, j, field) == \
                            determines_coefficient(track, t, j, p), (track, t, j, p)


def test_rank_oracle_agrees_with_independent_elimination():
    # the library's privilege predicate against textbook elimination,
    # keeping t = 7 covered outside the acceptance suite
    for t, j, p, n in [(5, 2, 7, 6), (5, 1, 7, 6), (7, 3, 13, 12)]:
        field = PrimeField(p)
        for r in range(2, min(t, 6)):
            for track in itertools.combinations(range(1, n + 1), r):
                assert is_privileged(track, t, j, field) == \
                    determines_coefficient(track, t, j, p), (track, t, j, p)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, 11, 13]),
    st.integers(min_value=4, max_value=6),
    st.data(),
)
def test_superset_closure(p, t, data):
    if t > p:
        t = p
    field = PrimeField(p)
    j = data.draw(st.integers(min_value=1, max_value=t - 2))
    pool = list(range(1, min(13, p - 1) + 1))
    r = data.draw(st.integers(min_value=max(t - j, j + 1), max_value=t - 1))
    if r > len(pool):
        return
    track = tuple(sorted(data.draw(
        st.sets(st.sampled_from(pool), min_size=r, max_size=r))))
    if not is_privileged(track, t, j, field):
        return
    rest = [x for x in pool if x not in track]
    for extra in rest:
        bigger = tuple(sorted(track + (extra,)))
        if len(bigger) < t:
            assert determines_coefficient(bigger, t, j, p)


def test_report_determinism_and_dict():
    query = CoalitionQuery(t=7, j=3, field=F13, n_max=13, r=4)
    a = privileged_coalitions(query)
    b = privileged_coalitions(query)
    assert a == b
    doc = a.to_dict()
    assert doc["query"] == {"t": 7, "j": 3, "r": 4, "p": 13, "N": 13}
    assert doc["count"] == 3
    assert doc["coalitions"][0] == [1, 5, 8, 12]
    assert doc["minimal"] is False


WALK_PRIMES = [7, 11, 13, 31, 10007, 2**61 - 1]


def _taus(values, top, p):
    """tau_0..tau_top of the values mod p: the coefficients of
    prod (1 + v X) over the values, truncated above X^top."""
    out = [1] + [0] * top
    for v in values:
        for w in range(top, 0, -1):
            out[w] = (out[w] + v * out[w - 1]) % p
    return out


def _planted_coalition(rng, t, j, p):
    """A (t-1)-track privileged for (t, j): a random prefix completed by
    solving tau_{t-1-j}(prefix + {x}) = 0 for x, so that sparse large
    fields hold privileged tracks too.  Small fields, where a prefix may
    have no valid completion, fall back to a random track."""
    w = t - 1 - j
    for _ in range(50):
        prefix = rng.sample(range(1, p), t - 2)
        taus = _taus(prefix, w, p)
        den = taus[w - 1]
        if den:
            x = -taus[w] * pow(den, -1, p) % p
            if x and x not in prefix:
                return prefix + [x]
    return rng.sample(range(1, p), t - 1)


@pytest.mark.parametrize("p", WALK_PRIMES)
def test_walk_matches_brute_force_lister(p, monkeypatch):
    # the unextended oracle asks the rank oracle about every proper
    # subtrack; t-subsets share most of theirs, so remember the answers
    monkeypatch.setattr(
        oracles, "determines_coefficient", functools.cache(oracles.determines_coefficient)
    )
    rng = random.Random(p)
    field = PrimeField(p)
    hits = extended = 0
    for _ in range(12):
        t = rng.randint(3, min(7, p))
        j = rng.randint(1, t - 2)
        n = rng.randint(t - 1, min(10, p - 1))
        ids = _planted_coalition(rng, t, j, p)
        while len(ids) < n:
            x = rng.randrange(1, p)
            if x not in ids:
                ids.append(x)
        rng.shuffle(ids)
        for r in range(1, t):
            want = privileged_tracks_brute(ids, r, t, j, p)
            assert privileged_tracks(ids, r, t, j, field) == want, (t, j, r, ids)
            hits += len(want)
        if len(ids) >= t:
            structure = derive_access_structure(SchemeConfig(t=t, field=field, identities=ids))
            got = [a.members for a in structure.minimal_sets(j) if a.kind == "privileged"]
            assert got == minimal_privileged_brute(ids, t, j, p, valid_lengths(t, j))
            subsets = list(itertools.combinations(sorted(ids), t))
            for index, kind in ((j, "unextended"), (0, "threshold")):
                got = [a.members for a in structure.minimal_sets(index) if a.kind == kind]
                want = [s for s in subsets if unextended_by_all_subtracks(s, t, index, p)]
                assert got == want, (t, index, ids)
                extended += len(subsets) - len(want)
    assert hits >= 12 and extended > 0


def test_walk_depth_leaves_the_call_stack_alone():
    """A walk whose prefixes go r - 3 = 146 levels deep runs under a
    recursion limit only 20 frames above the caller's: the walk keeps its
    own stack, so coalitions of any length enumerate."""
    rng = random.Random(149)
    p, t, j = 2**61 - 1, 150, 75
    r = t - 1
    ids = _planted_coalition(rng, t, j, p) + [rng.randrange(1, p)]
    want = [
        track
        for track in itertools.combinations(sorted(ids), r)
        if not any(_taus(track, t - 1 - j, p)[r - j :])
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 20)
    try:
        got = privileged_tracks(ids, r, t, j, PrimeField(p))
    finally:
        sys.setrecursionlimit(limit)
    assert want and got == want


def test_walk_guard_counts_the_prefixes_exactly():
    """The enumeration guard refuses a walk exactly when the sum of
    C(n, r - 1) over its lengths exceeds it, at either end of the
    binomial and across lengths, without computing huge binomials."""
    cases = [  # (n, lengths, refused)
        (14142, range(3, 4), False),  # C(n, 2) = 99,991,011
        (14143, range(3, 4), True),  # C(n, 2) = 100,005,153
        (14142, range(14141, 14142), False),  # C(n, n - 2) = C(n, 2)
        (14143, range(14142, 14143), True),
        (843, range(3, 5), False),  # C(n, 2) + C(n, 3) = 99,846,044
        (844, range(3, 5), True),  # 100,201,790
        (60, range(20, 40), True),
        (10**18, range(3, 4), True),
        (10**6, range(500001, 500002), True),  # C(n, n / 2) alone takes seconds
    ]
    for n, lengths, refused in cases:
        assert refused == (n > 10**5 or sum(math.comb(n, r - 1) for r in lengths) > 10**8)
        if refused:
            with pytest.raises(CapacityError, match="10+ enumeration guard"):
                check_walk(n, lengths)
        else:
            check_walk(n, lengths)


def test_walk_preconditions():
    with pytest.raises(ParameterError):
        privileged_tracks((1, 2, 3, 4, 5), 5, 5, 2, F7)  # r = t is not a coalition
    with pytest.raises(ParameterError):
        privileged_tracks((1, 2, 7), 3, 5, 2, F7)  # 7 is the zero residue
    assert privileged_tracks((1, 2, 4), 3, 5, 1, F7) == []  # j below t - r
    assert privileged_tracks((1, 2, 4), 4, 5, 2, F7) == []  # r above len(ids)


def test_reports_match_brute_force_lister():
    rng = random.Random(1212)
    non_minimal = 0
    for _ in range(60):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 31, 10007, 2**61 - 1])
        t = rng.randint(3, min(7, p))
        j = rng.randint(1, t - 2)
        n = rng.randint(min(t - 1, p - 1), min(11, p - 1))
        ids = range(1, n + 1)
        lengths = [r for r in valid_lengths(t, j) if r <= n]
        for r in [None] + lengths:
            query = CoalitionQuery(t=t, j=j, field=PrimeField(p), n_max=n, r=r)
            walked = lengths if r is None else [r]
            priv = [c for length in walked for c in privileged_tracks_brute(ids, length, t, j, p)]
            minimal = minimal_privileged_brute(ids, t, j, p, walked)
            report = privileged_coalitions(query)
            assert report.coalitions == tuple(priv), (p, t, j, n, r)
            minimal_report = minimal_privileged_coalitions(query)
            assert minimal_report.coalitions == tuple(minimal)
            assert (minimal_report.r_min, minimal_report.n_min) == (report.r_min, report.n_min)
            if r is None and priv:
                r_min = len(priv[0])
                assert (report.r_min, report.n_min) == (r_min, sum(len(c) == r_min for c in priv))
            non_minimal += len(priv) - len(minimal)
    # non-minimal tracks, among them those whose (r-1)-prefix is privileged
    # and which the walk lists through its degenerate branch
    assert non_minimal > 0


def test_walk_matches_brute_force_over_whole_small_fields():
    """Every identity of F_p for small p, every t up to 7, every j and r.

    This reaches length 2, whose head is the empty prefix, length 3,
    windows of several equations, and tracks whose first window equation
    loses the last identity (a zero denominator at the pair stage).
    """
    seen = dict.fromkeys(["r=2", "r=3", "several equations", "zero denominator"], 0)
    for p in (5, 7, 11, 13):
        field = PrimeField(p)
        ids = range(1, p)
        for t in range(3, min(7, p - 1) + 1):
            for j in range(t):
                for r in range(1, t):
                    want = privileged_tracks_brute(ids, r, t, j, p)
                    assert privileged_tracks(ids, r, t, j, field) == want, (p, t, j, r)
                    window = range(r - j, t - j)
                    for track in want:
                        den = elem_sym_subsets(track[:-1], r - j - 1) % p
                        seen["r=2"] += r == 2
                        seen["r=3"] += r == 3
                        seen["several equations"] += len(window) > 1
                        seen["zero denominator"] += r >= 3 and den == 0
    assert all(seen.values()), seen
