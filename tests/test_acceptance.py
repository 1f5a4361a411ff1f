"""End-to-end acceptance checks.

One test per criterion, each printing a single PASS line (run with
``pytest tests/test_acceptance.py -v -s`` to watch them stream).  All
tolerances are exact; where a golden reference value disagrees with the
library, the value is re-verified against an independent from-scratch
brute force, and the discrepancies must equal those committed in
``tests/goldens_deviation.json``.

The perfectness-audit criterion asserts that the construction is
leak-free at desk scale.  The auditor proves otherwise (exhaustive
counterexamples appear in the failure message), so that single criterion
is expected to fail; everything else must be green.
"""

import itertools
import json
import multiprocessing
import pathlib
import time

import pytest

from privcoal import (
    ALL_NONZERO,
    FULL_FIELD,
    CoalitionQuery,
    PrimeField,
    SchemeConfig,
    SecretVector,
    deal,
    derive_access_structure,
    extension_condition,
    is_privileged,
    minimal_privileged_coalitions,
    perfectness_report,
    recover,
    recover_privileged,
    valid_lengths,
)
from privcoal.cli import main as cli_main

from oracles import brute_force_minimal_count, determines_coefficient

HERE = pathlib.Path(__file__).parent
DEVIATION_FILE = HERE / "goldens_deviation.json"

GRID_T = (4, 5, 6, 7)
GRID_P = (7, 11, 13, 17, 19, 23, 29, 31)


def _ok(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: PASS{suffix}")


def _cli_json(tmp_path, *argv):
    out = tmp_path / "doc.json"
    code = cli_main([*argv, "--output", str(out)])
    assert code == 0, f"CLI exited {code} for {argv}"
    return json.loads(out.read_text())


# --------------------------------------------------------------------------
# criterion 1: golden coalition sets and shortest-length sweeps


def test_criterion_1_golden_coalition_sets(tmp_path):
    timings = []

    def timed(*argv):
        start = time.perf_counter()
        doc = _cli_json(tmp_path, *argv)
        timings.append(time.perf_counter() - start)
        return doc

    doc13 = timed("enumerate", "--t", "7", "--j", "3", "--r", "4", "--p", "13", "--N", "13")
    assert doc13["coalitions"] == [[1, 5, 8, 12], [2, 3, 10, 11], [4, 6, 7, 9]]
    doc17 = timed("enumerate", "--t", "7", "--j", "3", "--r", "4", "--p", "17", "--N", "13")
    assert doc17["coalitions"] == [[6, 7, 10, 11]]

    sweeps = {
        13: (4, None),
        17: (4, None),
        19: (5, [1, 3, 4, 5, 13]),
        31: (5, [1, 3, 5, 8, 9]),
        97: (5, [4, 5, 10, 11, 12]),
        113: (5, [2, 5, 7, 12, 13]),
        149: (5, [1, 5, 6, 10, 13]),
    }
    singletons = {31, 97, 113, 149}
    for p, (r_min, first) in sweeps.items():
        doc = timed("enumerate", "--t", "7", "--j", "3", "--p", str(p), "--N", "13")
        assert doc["r_min"] == r_min, (p, doc["r_min"])
        if first is not None:
            assert doc["coalitions"][0] == first, (p, doc["coalitions"][0])
        if p in singletons:
            assert doc["N_min"] == 1, (p, doc["N_min"])
    assert all(dt < 1.0 for dt in timings), timings
    _ok("criterion-1 golden-coalition-sets", f"max scan {max(timings)*1000:.0f} ms")


# --------------------------------------------------------------------------
# criterion 2: minimal-coalition count grid with fallback protocol


EXPECTED_ROW_13 = {1: 72, 2: 114, 3: 71, 4: 93, 5: 132}
EXPECTED_ROW_809 = {1: 1, 2: 2, 3: 3, 4: 0, 5: 0}


def _int_product(values):
    out = 1
    for v in values:
        out *= v
    return out


def _library_cell(t, j, p, n_max):
    report = minimal_privileged_coalitions(
        CoalitionQuery(t=t, j=j, field=PrimeField(p), n_max=n_max)
    )
    return report.count, report.per_length()


def test_criterion_2_minimal_count_grid():
    deviations = []

    def check_cell(p, j, expected, note_cause_zero_identity=False):
        count, per_length = _library_cell(7, j, p, 13)
        if count == expected:
            return True
        # fallback: per-length counts must match an independent brute force
        universe = range(1, min(13, p - 1) + 1)
        brute_total, brute_lengths = brute_force_minimal_count(7, j, p, universe)
        assert count == brute_total, (p, j, count, brute_total)
        for r in valid_lengths(7, j):
            assert per_length.get(r, 0) == brute_lengths.get(r, 0), (p, j, r)
        entry = {
            "p": p,
            "j": j,
            "expected": expected,
            "computed": count,
            "per_length": {str(r): per_length.get(r, 0) for r in valid_lengths(7, j)},
            "verified_by": "independent rank-oracle brute force over all subtracks",
        }
        if note_cause_zero_identity:
            # the reference run admitted identity 13, which is the zero
            # residue mod 13; replaying with that unsound universe must
            # reproduce its number exactly
            replay, _ = brute_force_minimal_count(7, j, p, range(1, 14))
            assert replay == expected, (p, j, replay, expected)
            entry["cause"] = (
                "the expected count admits identity 13, the zero residue mod 13; "
                "replaying the brute force with that identity included "
                "reproduces it exactly"
            )
            entry["replayed_with_zero_identity"] = replay
        else:
            # pin down the witnesses with plain integer arithmetic: the
            # window for these cells is a single symmetric function, so a
            # coalition exists iff some integer tau value is divisible by p
            witnesses = []
            for r in valid_lengths(7, j):
                for track in itertools.combinations(universe, r):
                    taus = [
                        sum(
                            _int_product(sub)
                            for sub in itertools.combinations(track, w)
                        )
                        for w in range(r - j, 7 - j)
                        if 0 <= w <= r
                    ]
                    if taus and all(v % p == 0 for v in taus):
                        witnesses.append({"coalition": list(track), "tau": taus})
            entry["cause"] = (
                "the expected value does not match any enumeration; the computed "
                "value is confirmed by exact integer arithmetic"
            )
            entry["integer_witnesses"] = witnesses
        deviations.append(entry)
        return False

    matched = 0
    for j in range(1, 6):
        if check_cell(13, j, EXPECTED_ROW_13[j], note_cause_zero_identity=True):
            matched += 1

    for p in (67, 71, 73):
        count, _ = _library_cell(7, 5, p, 13)
        assert count == 0, (p, count)

    for j in range(1, 6):
        check_cell(809, j, EXPECTED_ROW_809[j])

    for j in range(1, 6):
        count, _ = _library_cell(7, j, 725597, 13)
        assert count == 0, (725597, j, count)

    recorded = json.loads(DEVIATION_FILE.read_text())
    assert sorted(deviations, key=lambda e: (e["p"], e["j"])) == recorded["cells"]
    _ok(
        "criterion-2 minimal-count-grid",
        f"{matched}/5 reference p=13 cells exact, "
        f"{len(deviations)} deviations verified, as recorded",
    )


# --------------------------------------------------------------------------
# criterion 3: the six-participant access structure


def test_criterion_3_access_structure():
    cfg = SchemeConfig(t=5, field=PrimeField(7), identities=range(1, 7))
    structure = derive_access_structure(cfg)
    gamma0 = [a.members for a in structure.minimal_sets(0)]
    assert gamma0 == [tuple(c) for c in itertools.combinations(range(1, 7), 5)]
    gamma1 = [a.members for a in structure.minimal_sets(1)]
    gamma2 = [a.members for a in structure.minimal_sets(2)]
    gamma3 = [a.members for a in structure.minimal_sets(3)]
    assert gamma1 == gamma3 == [(1, 2, 5, 6), (1, 3, 4, 6), (2, 3, 4, 5)]
    assert gamma2 == [(1, 2, 4), (3, 5, 6)]
    for j in (1, 2, 3):
        assert all(a.kind == "privileged" for a in structure.minimal_sets(j)), \
            "this instance must report zero unextended tracks"
    _ok("criterion-3 six-participant-access-structure")


# --------------------------------------------------------------------------
# criterion 4: window test vs the from-scratch rank oracle over the whole grid


def test_criterion_4_window_vs_rank_oracle():
    start = time.perf_counter()
    checked = 0
    for t in GRID_T:
        for p in GRID_P:
            if t > p:
                continue
            field = PrimeField(p)
            n = min(13, p - 1)
            for j in range(1, t - 1):
                for r in valid_lengths(t, j):
                    if r > n:
                        continue
                    for track in itertools.combinations(range(1, n + 1), r):
                        checked += 1
                        assert is_privileged(track, t, j, field) == \
                            determines_coefficient(track, t, j, p), \
                            (track, t, j, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.1f}s exceeds the 1-minute budget"
    _ok("criterion-4 window-vs-rank-oracle", f"{checked} tracks in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 5: extension-condition equivalence for every admissible extension


def _extension_cell(task):
    t, p, j, r = task
    field = PrimeField(p)
    n = min(13, p - 1)
    checked = 0
    mismatches = []
    for track in itertools.combinations(range(1, n + 1), r):
        priv = is_privileged(track, t, j, field)
        pool = [x for x in range(1, p) if x not in track]
        for ext in itertools.combinations(pool, t - r):
            checked += 1
            if extension_condition(track, ext, t, j, field) != priv:
                mismatches.append((track, ext, t, j, p))
    return checked, mismatches


def test_criterion_5_extension_condition_equivalence():
    tasks = []
    for t in GRID_T:
        for p in GRID_P:
            if t > p:
                continue
            n = min(13, p - 1)
            for j in range(1, t - 1):
                for r in valid_lengths(t, j):
                    if r <= n:
                        tasks.append((t, p, j, r))
    # partitioned by (t, p, j, r) cell; results merge associatively
    start = time.perf_counter()
    with multiprocessing.Pool() as pool:
        results = pool.map(_extension_cell, tasks)
    checked = sum(c for c, _ in results)
    mismatches = [m for _, ms in results for m in ms]
    assert not mismatches, mismatches[:5]
    _ok(
        "criterion-5 extension-condition-equivalence",
        f"{checked} (track, extension) pairs in {time.perf_counter()-start:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 6: deal-then-recover round trips


def test_criterion_6_round_trip_exhaustive_small():
    field = PrimeField(7)
    cfg = SchemeConfig(t=5, field=field, identities=range(1, 7))
    structure = derive_access_structure(cfg)
    sets = [(j, a.members) for j in range(4) for a in structure.minimal_sets(j)]
    assert any(len(members) < 5 for _, members in sets)  # coalitions below t shares
    checked = 0
    start = time.perf_counter()
    for secrets in itertools.product(range(7), repeat=4):
        for blinding in range(1, 7):
            sv = SecretVector(secrets=secrets, blinding=blinding, field=field)
            table = deal(cfg, sv)
            for j, members in sets:
                assert recover(table.subset(members), j, cfg) == sv.coefficients[j], \
                    (secrets, blinding, j, members)
                checked += 1
    assert checked == 6 * 7**4 * len(sets)
    _ok(
        "criterion-6a round-trip-exhaustive",
        f"{checked} recoveries in {time.perf_counter()-start:.1f}s",
    )


_T7_STATE: dict = {}


def _t7_state():
    if not _T7_STATE:
        field = PrimeField(13)
        cfg = SchemeConfig(t=7, field=field, identities=range(1, 13))
        structure = derive_access_structure(cfg)
        _T7_STATE["field"] = field
        _T7_STATE["cfg"] = cfg
        _T7_STATE["sets"] = [
            (j, a.members) for j in range(6) for a in structure.minimal_sets(j)
        ]
    return _T7_STATE


def _roundtrip_batch(seeds):
    state = _t7_state()
    field, cfg, sets = state["field"], state["cfg"], state["sets"]
    checked = 0
    failures = []
    for seed in seeds:
        sv = SecretVector.random(field, 7, seed)
        table = deal(cfg, sv)
        for j, members in sets:
            checked += 1
            if recover(table.subset(members), j, cfg) != sv.coefficients[j]:
                failures.append((seed, j, members))
    return checked, failures


def test_criterion_6_round_trip_seeded_larger():
    # identities are 1..12: the residue 13 is 0 mod 13 and cannot be one
    n_sets = len(_t7_state()["sets"])
    seeds = list(range(1000))
    chunks = [seeds[i::8] for i in range(8)]
    start = time.perf_counter()
    with multiprocessing.Pool() as pool:
        results = pool.map(_roundtrip_batch, chunks)
    checked = sum(c for c, _ in results)
    failures = [f for _, fs in results for f in fs]
    assert not failures, failures[:5]
    assert checked == 1000 * n_sets
    _ok(
        "criterion-6b round-trip-seeded",
        f"1000 vectors x {n_sets} authorized sets in {time.perf_counter()-start:.1f}s",
    )


# --------------------------------------------------------------------------
# criterion 7: recovery is independent of the chosen extension track


def test_criterion_7_extension_independence():
    field7 = PrimeField(7)
    cfg7 = SchemeConfig(t=5, field=field7, identities=range(1, 7))
    sv7 = SecretVector(secrets=(1, 2, 3, 4), blinding=5, field=field7)
    table7 = deal(cfg7, sv7)
    pairs = table7.subset([1, 2, 4])
    pool7 = [x for x in range(1, 7) if x not in (1, 2, 4)]
    values = {
        recover_privileged(pairs, 5, 2, field7, extension=ext)
        for ext in itertools.combinations(pool7, 2)
    }
    assert values == {sv7.secrets[2]}
    checked = len(list(itertools.combinations(pool7, 2)))

    field13 = PrimeField(13)
    cfg13 = SchemeConfig(t=7, field=field13, identities=range(1, 13))
    sv13 = SecretVector.random(field13, 7, seed=2024)
    table13 = deal(cfg13, sv13)
    for coalition in [(1, 5, 8, 12), (2, 3, 10, 11), (4, 6, 7, 9)]:
        pairs = table13.subset(coalition)
        pool13 = [x for x in range(1, 13) if x not in coalition]
        got = {
            recover_privileged(pairs, 7, 3, field13, extension=ext)
            for ext in itertools.combinations(pool13, 3)
        }
        assert got == {sv13.secrets[3]}, coalition
        checked += len(list(itertools.combinations(pool13, 3)))
    _ok("criterion-7 extension-independence", f"{checked} extension choices")


# --------------------------------------------------------------------------
# criterion 8: perfectness audit (expected to FAIL: the auditor finds leaks)


def test_criterion_8_perfectness_audit():
    field7 = PrimeField(7)
    cfg7 = SchemeConfig(t=5, field=field7, identities=range(1, 7))
    sv7 = SecretVector(secrets=(1, 2, 3, 4), blinding=5, field=field7)
    report7 = perfectness_report(cfg7, secret_vector=sv7, domain=FULL_FIELD)

    cfg5 = SchemeConfig(t=4, field=PrimeField(5), identities=range(1, 5))
    report5 = perfectness_report(cfg5, domain=FULL_FIELD, seed=0)

    for label, report in (("t=5 p=7", report7), ("t=4 p=5", report5)):
        if report.passed:
            print(f"[acceptance] criterion-8 perfectness-audit [{label}]: PASS")
        else:
            examples = [
                (v.subset, v.j, v.known, v.verdict, v.histogram)
                for v in report.violations[:3]
            ]
            print(
                f"[acceptance] criterion-8 perfectness-audit [{label}]: FAIL - "
                f"{len(report.violations)} of {len(report.cells)} cells leak; "
                f"e.g. {examples}"
            )
    assert report7.passed and report5.passed, (
        "the audit criterion asserts no unauthorized cell deviates from "
        "uniform, but the exhaustive enumeration finds real leaks: a "
        "nonzero blinding coefficient lets some below-threshold subsets "
        "exclude one candidate value of a secret, and knowledge of enough "
        "sibling secrets substitutes for missing shares entirely "
        f"({len(report7.violations)} and {len(report5.violations)} "
        "violating cells in the two configurations)"
    )


# --------------------------------------------------------------------------
# criterion 9: ideality


def test_criterion_9_ideality(tmp_path):
    # ideal: every participant holds one residue mod p, like each secret
    doc = _cli_json(
        tmp_path, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
        "--secrets", "1,2,3,4", "--blinding", "5",
    )
    assert len(doc["participants"]) == 6
    for entry in doc["participants"]:
        assert set(entry) == {"id", "share"}
        assert isinstance(entry["share"], int) and 0 <= entry["share"] < 7
    _ok("criterion-9 ideality")
