"""Perfectness audit: the closed-form report against a brute force.

The expected values here were frozen from a from-scratch brute force
(enumerate the whole coefficient domain, filter by share equations);
see the oracles in oracles.py.  Notably, the construction is NOT
leak-free: restricting the top coefficient to nonzero values lets some
unauthorized subsets exclude one candidate value of a secret, and
knowing enough of the other secrets can substitute for missing shares
outright.  The audit is expected to detect both effects.
"""

import itertools

import pytest

from privcoal import (
    ALL_NONZERO,
    FULL_FIELD,
    CapacityError,
    ParameterError,
    PrimeField,
    SchemeConfig,
    SecretVector,
    audit,
    deal,
    perfectness_report,
)

from oracles import audit_brute, conditional_histogram, consistent_vectors, verdict

F7 = PrimeField(7)
CFG = SchemeConfig(t=5, field=F7, identities=range(1, 7))
SV = SecretVector(secrets=(1, 2, 3, 4), blinding=5, field=F7)
TABLE = deal(CFG, SV)
REPORT = perfectness_report(CFG, secret_vector=SV)
CELLS = {(c.subset, c.j, c.known): c for c in REPORT.cells}


def test_consistent_counts():
    assert len(consistent_vectors([], 5, 7)) == 6 * 7**4
    assert len(consistent_vectors(TABLE.subset([1]), 5, 7)) == 6 * 7**3
    assert consistent_vectors(TABLE.subset(range(1, 7)), 5, 7) == [SV.coefficients]


def test_consistent_monotone_under_more_shares():
    small = set(consistent_vectors(TABLE.subset([1, 2]), 5, 7))
    big = set(consistent_vectors(TABLE.subset([1, 2, 4]), 5, 7))
    assert big < small


def test_consistent_all_nonzero_domain():
    vectors = consistent_vectors([], 5, 7, domain=ALL_NONZERO)
    assert len(vectors) == 6**5
    assert all(all(vec) for vec in vectors)


def test_inconsistent_shares_yield_nothing():
    bad = [(1, 1), (2, 3), (3, 1), (4, 4), (5, 1), (6, 0)]  # last share corrupted
    assert consistent_vectors(bad, 5, 7) == []


def test_capacity_guard():
    big = SchemeConfig(t=7, field=PrimeField(101), identities=range(1, 9))
    with pytest.raises(CapacityError, match="10+"):
        perfectness_report(big)
    with pytest.raises(ParameterError, match="unknown coefficient domain"):
        perfectness_report(CFG, domain="rationals")


def test_conditional_distribution_matches_oracle():
    cases = [
        ([1, 2], 2, ()),
        ([1, 2], 2, (0, 1, 3)),
        ([1, 2, 4], 2, ()),
        ([1, 2, 4], 1, ()),
        ([1, 2, 3, 4], 0, ()),
        ([1, 2, 3, 4], 3, (0,)),
    ]
    for ids, j, known in cases:
        hist = conditional_histogram(
            TABLE.subset(ids), j, {k: SV.coefficients[k] for k in known}, 7, 5
        )
        cell = CELLS[(tuple(ids), j, known)]
        assert cell.verdict == verdict(hist, range(7))
        if cell.histogram is not None:
            assert cell.histogram == tuple(sorted(hist.items()))


def test_unauthorized_pair_is_uniform():
    hist = conditional_histogram(TABLE.subset([1, 2]), 2, {}, 7, 5)
    assert hist == {v: 42 for v in range(7)}
    cell = CELLS[((1, 2), 2, ())]
    assert not cell.authorized and cell.verdict == "uniform"


def test_authorized_coalition_is_point_mass():
    hist = conditional_histogram(TABLE.subset([1, 2, 4]), 2, {}, 7, 5)
    assert hist == {3: 42}
    cell = CELLS[((1, 2, 4), 2, ())]
    assert cell.authorized and cell.verdict == "determined"
    assert cell not in REPORT.violations


def test_known_secrets_can_substitute_for_shares():
    # two shares plus three known secrets leave a 2x2 invertible system,
    # so the remaining secret is pinned down exactly
    cell = CELLS[((1, 2), 2, (0, 1, 3))]
    assert not cell.authorized and cell.verdict == "determined"
    assert cell.histogram == ((3, 1),)


def test_nonzero_blinding_excludes_one_value():
    # (1,2,4) determines s_2; for s_1 it can rule out exactly one value
    # because s_1 and the blinding coefficient are proportional on the
    # kernel of its share system
    cell = CELLS[((1, 2, 4), 1, ())]
    assert cell.verdict == "leaky"
    hist = dict(cell.histogram)
    assert sorted(hist.values()) == [7] * 6
    assert len(hist) == 6
    excluded = ({*range(7)} - set(hist)).pop()
    assert excluded == (SV.secrets[1] + SV.blinding) % 7


def test_histogram_mass_conservation():
    # every histogram the report writes out counts each consistent
    # vector agreeing with the known secrets exactly once
    for cell in REPORT.violations:
        if cell.subset not in [(1,), (1, 2), (1, 2, 4), (2, 3, 5, 6)]:
            continue
        known = {k: SV.coefficients[k] for k in cell.known}
        total = sum(
            1
            for vec in consistent_vectors(TABLE.subset(cell.subset), 5, 7)
            if all(vec[k] == v for k, v in known.items())
        )
        assert sum(c for _, c in cell.histogram) == total


def test_perfectness_report_structure():
    report = perfectness_report(CFG, secret_vector=SV)
    # 63 subsets x 4 indices x 8 known-sets
    assert len(report.cells) == 63 * 4 * 8
    assert report.domain == FULL_FIELD
    # authorized cells must always be determined at the dealt value
    for cell in report.cells:
        if cell.authorized:
            assert cell.verdict == "determined"
    # the instance leaks, and the auditor must say so
    assert not report.passed
    assert report.violations
    leak_keys = {(c.subset, c.j, c.known) for c in report.violations}
    assert ((1, 2, 4), 1, ()) in leak_keys
    assert ((1, 2), 2, (0, 1, 3)) in leak_keys


def test_perfectness_report_verdicts_match_oracle():
    report = perfectness_report(CFG, secret_vector=SV)
    by_key = {(c.subset, c.j, c.known): c for c in report.cells}
    # spot-check a handful of cells of each flavor against the brute force
    for ids, j, known in [
        ((1, 2), 2, ()),
        ((1, 2), 2, (0, 1, 3)),
        ((1, 2, 4), 2, ()),
        ((1, 2, 4), 1, ()),
        ((3, 5, 6), 1, (0,)),
        ((1, 2, 3, 4), 0, ()),
    ]:
        cell = by_key[(ids, j, known)]
        hist = conditional_histogram(
            TABLE.subset(ids), j, {k: SV.coefficients[k] for k in known}, 7, 5
        )
        if len(hist) == 1:
            assert cell.verdict == "determined"
        elif len(hist) == 7 and len(set(hist.values())) == 1:
            assert cell.verdict == "uniform"
        else:
            assert cell.verdict == "leaky"


def test_zero_secret_leaves_no_consistent_polynomial():
    # under all-nonzero a zero secret rules out the dealt vector, the one
    # polynomial t shares allow; smaller subsets keep other vectors
    sv = SecretVector(secrets=(0, 2), blinding=3, field=F7)
    cfg = SchemeConfig(t=3, field=F7, identities=(1, 3, 4, 6))
    report = perfectness_report(cfg, secret_vector=sv, domain=ALL_NONZERO)
    empty = {c.subset for c in report.violations if c.j == -1}
    assert empty == set(itertools.combinations(cfg.identities, 3))
    for subset in empty:
        assert consistent_vectors(deal(cfg, sv).subset(subset), 3, 7, ALL_NONZERO) == []
        assert (
            f"subset {subset}: no vector of the {ALL_NONZERO} domain matches these "
            "shares (the dealt vector lies outside the domain)"
        ) in report.notes
    # knowing s_0 = 0 leaves no admissible vector: the coalitions
    # authorized for s_1 get an empty histogram
    assert [(c.subset, c.histogram) for c in report.violations if c.j != -1] == [
        ((1, 6), ()),
        ((3, 4), ()),
    ]


def test_all_nonzero_domain_is_informational():
    report = perfectness_report(CFG, secret_vector=SV, domain=ALL_NONZERO)
    # correctness still binds, uniformity deviations become notes
    for cell in report.cells:
        if cell.authorized:
            assert cell.verdict == "determined"
    assert report.notes  # the restricted domain is visibly non-uniform
    assert all(not c.authorized for c in report.violations)


def test_report_seed_reproducibility():
    a = perfectness_report(CFG, seed=3)
    b = perfectness_report(CFG, seed=3)
    assert a.secret_vector == b.secret_vector
    assert a.passed == b.passed
    assert a.cells == b.cells


@pytest.mark.parametrize("domain", [FULL_FIELD, ALL_NONZERO])
def test_each_distinct_space_is_counted_and_classified_once_per_report(monkeypatch, domain):
    """Subsets and known sets that fold to one affine space share its
    counts and verdicts within a report; the next report, even of the
    same instance, counts every space again."""
    cfg = SchemeConfig(t=4, field=F7, identities=range(1, 7))
    fresh = {seed: perfectness_report(cfg, domain=domain, seed=seed) for seed in (3, 5)}
    counted, classified = [], []
    value_counts, classify = audit._value_counts, audit._classify

    def counting(node, *args):
        counted.append((str(node[0]), node[1]))
        return value_counts(node, *args)

    def classifying(*args):
        classified.append(args)
        return classify(*args)

    monkeypatch.setattr(audit, "_value_counts", counting)
    monkeypatch.setattr(audit, "_classify", classifying)
    spaces = []
    for seed in (3, 5, 3):
        counted.clear()
        classified.clear()
        assert perfectness_report(cfg, domain=domain, seed=seed) == fresh[seed]
        assert counted and len(set(counted)) == len(counted)
        assert len(classified) == (cfg.t - 1) * len(counted)
        spaces.append(sorted(counted))
    assert spaces[2] == spaces[0] != spaces[1]


def test_report_to_dict():
    report = perfectness_report(CFG, secret_vector=SV)
    doc = report.to_dict()
    assert doc["p"] == 7 and doc["t"] == 5
    assert doc["passed"] is False
    assert doc["cells_checked"] == 2016
    assert doc["secrets"] == [1, 2, 3, 4] and doc["blinding"] == 5


# (t, p, identities, seed or explicit (secrets, blinding)); explicit
# vectors put a zero secret under the all-nonzero domain, which leaves
# full subsets without a consistent polynomial, empties histograms, and
# (the last case) gives cells whose every value carries a point mass
EQUIVALENCE_CASES = [
    (2, 101, (3, 17, 50, 99), 0),
    (2, 101, (3, 17, 50, 99), ((0,), 7)),
    (3, 13, (2, 5, 9, 11), 0),
    (3, 13, (2, 5, 9, 11), 1),
    (3, 13, (2, 5, 9, 11), ((0, 4), 9)),
    (3, 5, (1, 2, 4), 2),
    (4, 5, (1, 2, 3, 4), 0),
    (4, 5, (1, 2, 3, 4), 1),
    (4, 7, (1, 2, 4, 5, 6), 3),
    (4, 7, (1, 2, 4, 5, 6), 8),
    (4, 7, (1, 2, 4, 5, 6), ((3, 0, 5), 2)),
    (4, 11, (1, 3, 4, 7, 10), 1),
    (4, 11, (1, 2, 3, 4, 5, 6), 5),
    (4, 13, (2, 3, 5, 8, 12), 2),
    (5, 7, (1, 2, 3, 5, 6), 0),
    (5, 7, (1, 2, 3, 4, 5, 6), ((0, 3, 0, 3), 1)),
]


@pytest.mark.parametrize("domain", [FULL_FIELD, ALL_NONZERO])
@pytest.mark.parametrize("t, p, ids, vector", EQUIVALENCE_CASES)
def test_report_matches_brute_force_audit(t, p, ids, vector, domain):
    field = PrimeField(p)
    cfg = SchemeConfig(t=t, field=field, identities=ids)
    if isinstance(vector, int):
        sv = SecretVector.random(field, t, vector)
    else:
        sv = SecretVector(secrets=vector[0], blinding=vector[1], field=field)
    report = perfectness_report(cfg, secret_vector=sv, domain=domain)
    cells, violations, notes = audit_brute(t, p, ids, sv.coefficients, domain)

    def flat(cell):
        return (cell.subset, cell.j, cell.known, cell.authorized, cell.verdict,
                cell.histogram)

    assert [flat(c) for c in report.cells] == cells
    assert [flat(c) for c in report.violations] == violations
    assert list(report.notes) == notes
    assert report.passed == (not violations)
