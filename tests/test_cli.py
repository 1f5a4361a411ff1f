"""Command-line surface: documents, formats, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import privcoal
from privcoal.cli import _layout, build_parser, main

TESTS_DIR = pathlib.Path(__file__).parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--t", "7", "--j", "3", "--r", "4", "--p", "13", "--N", "13"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 3
    assert doc["coalitions"] == [[1, 5, 8, 12], [2, 3, 10, 11], [4, 6, 7, 9]]
    assert doc["query"] == {"t": 7, "j": 3, "r": 4, "p": 13, "N": 13}
    assert doc["manifest"]["subcommand"] == "enumerate"
    assert doc["r_min"] is None
    # document round-trips
    assert json.loads(json.dumps(doc)) == doc


def test_enumerate_minimal_and_descending(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--t", "5", "--j", "2", "--r", "3", "--p", "7",
        "--N", "6", "--minimal",
    )
    assert code == 0
    assert json.loads(out)["coalitions"] == [[1, 2, 4], [3, 5, 6]]
    code, out, _ = run(
        capsys, "enumerate", "--t", "7", "--j", "3", "--r", "4", "--p", "13",
        "--N", "13", "--descending",
    )
    assert json.loads(out)["coalitions"][0] == [12, 8, 5, 1]


def test_enumerate_sweep_reports_shortest_length(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--t", "7", "--j", "3", "--p", "19", "--N", "13"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["r_min"] == 5 and doc["N_min"] == 3
    assert doc["coalitions"][0] == [1, 3, 4, 5, 13]


def test_enumerate_parameter_error_names_inequality(capsys):
    code, _, err = run(
        capsys, "enumerate", "--t", "5", "--j", "1", "--r", "3", "--p", "7", "--N", "6"
    )
    assert code == 2
    assert "t - r <= j" in err


def test_enumerate_csv_and_text(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--t", "5", "--j", "2", "--r", "3", "--p", "7",
        "--N", "6", "--format", "csv",
    )
    assert out.splitlines() == ["elements", "1 2 4", "3 5 6"]
    code, out, _ = run(
        capsys, "enumerate", "--t", "5", "--j", "2", "--r", "3", "--p", "7",
        "--N", "6", "--format", "text",
    )
    assert "count: 2" in out


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--t", "7", "--N", "13", "--p", "67,71,73", "--j", "5")
    assert code == 0
    assert out.splitlines() == ["p,j=5", "67,0", "71,0", "73,0"]


def test_table_json_carries_detail(capsys):
    code, out, _ = run(
        capsys, "table", "--t", "7", "--N", "13", "--p", "17", "--j", "3",
        "--format", "json",
    )
    doc = json.loads(out)
    cell = doc["cells"]["17"]["3"]
    assert cell["r_min"] == 4 and cell["N_min"] == 1
    assert cell["per_length"]["4"] == 1


def test_table_per_length(capsys):
    code, out, _ = run(
        capsys, "table", "--t", "7", "--N", "13", "--p", "17", "--j", "3",
        "--per-length",
    )
    lines = out.splitlines()
    assert lines[0] == "p,j=3:r=4,j=3:r=5,j=3:r=6"
    assert lines[1] == "17,1,0,74"


def test_table_is_linear_in_t(capsys):
    """A cell's lengths come from their bounds, not from filtering every
    valid length, so a large t with N = 4 (no valid length) stays fast."""
    for extra in ([], ["--per-length"]):
        start = time.perf_counter()
        code, out, _ = run(capsys, "table", "--t", "8009", "--N", "4", "--p", "8009", *extra)
        assert time.perf_counter() - start < 2.0
        assert code == 0 and out.splitlines()[1].split(",")[0] == "8009"


def test_enumerate_minimal_at_fixed_r_filters_against_length_r_minus_1(capsys):
    """Length 5 is populated here, so the minimal walk at --r 6 drops the
    6-tracks containing a privileged 5-track, as the table's sweep does."""
    argv = ["enumerate", "--t", "7", "--j", "2", "--p", "17", "--N", "13", "--r", "6"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["count"] == 111
    code, out, _ = run(capsys, *argv, "--minimal")
    assert code == 0 and json.loads(out)["count"] == 63
    _, out, _ = run(
        capsys, "table", "--t", "7", "--N", "13", "--p", "17", "--j", "2", "--format", "json"
    )
    cell = json.loads(out)["cells"]["17"]["2"]
    assert cell["per_length"]["5"] > 0 and cell["per_length"]["6"] == 63


def test_table_rejects_composite(capsys):
    code, _, err = run(capsys, "table", "--t", "7", "--N", "13", "--p", "15")
    assert code == 2
    assert "not prime" in err


def test_access_structure(capsys):
    code, out, _ = run(
        capsys, "access-structure", "--t", "5", "--p", "7", "--identities", "1..6"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["structure"]["0"]) == 6
    assert [e["members"] for e in doc["structure"]["2"]] == [[1, 2, 4], [3, 5, 6]]
    assert doc["structure"]["1"] == doc["structure"]["3"]
    code, _, err = run(
        capsys, "access-structure", "--t", "5", "--p", "7", "--identities", "0..5"
    )
    assert code == 2


def test_malformed_identity_range_is_a_parameter_error(capsys):
    code, out, err = run(
        capsys, "access-structure", "--t", "5", "--p", "7", "--identities", "1..x"
    )
    assert code == 2 and out == ""
    assert "'x' in '1..x' is not an integer" in err
    code, out, err = run(
        capsys, "access-structure", "--t", "5", "--p", "7", "--identities", ","
    )
    assert code == 2 and out == ""
    assert "no identities in ','" in err


def test_malformed_prime_list_is_a_parameter_error(capsys):
    code, out, err = run(capsys, "table", "--t", "7", "--N", "13", "--p", "13,abc")
    assert code == 2 and out == ""
    assert "'abc' in '13,abc' is not an integer" in err


def test_modulus_beyond_the_primality_bound_is_a_parameter_error(capsys):
    code, out, err = run(
        capsys, "enumerate", "--t", "5", "--j", "2", "--p", "3317044064679887385961981",
        "--N", "6",
    )
    assert code == 2 and out == ""
    assert "parameter error:" in err and "exact only below" in err


TABLE_REFUSALS = [
    (["--t", "5", "--N", "6", "--p", ","], "no primes in ','"),
    (["--t", "1000003", "--N", "4", "--p", ""], "no primes in ''"),
    (["--t", "2305843009213693951", "--N", "0", "--p", "7"], "violates t <= p"),
    (["--t", "1" + "0" * 29, "--N", "0", "--p", "7"], "violates t <= p"),
]


@pytest.mark.parametrize("args, message", TABLE_REFUSALS)
def test_table_checks_primes_and_t_before_the_j_range(capsys, args, message):
    code, out, err = run(capsys, "table", *args)
    assert code == 2 and out == ""
    assert err.startswith("parameter error:") and message in err


WALK_REFUSALS = [
    (["enumerate", "--t", "5", "--j", "2", "--p", "2305843009213693951",
      "--N", "2305843009213693951"], "C(2305843009213693950, r - 1) over r = 3..4"),
    (["table", "--t", "2305843009213693951", "--N", "4", "--p", "2305843009213693951"],
     "t - 2 = 2305843009213693949"),
    (["enumerate", "--t", "7", "--j", "3", "--p", "10007", "--N", "10006"],
     "C(10006, r - 1) over r = 4..6"),
]


@pytest.mark.parametrize(
    "argv, message", WALK_REFUSALS, ids=["enumerate-N-2^61", "table-t-2^61", "enumerate-N-10006"]
)
def test_walks_beyond_the_enumeration_guard_are_refused_before_allocating(
    capsys, argv, message
):
    code, out, err = run(capsys, *argv)
    assert code == 4 and out == ""
    assert err.startswith("capacity error:") and message in err
    assert "100000000 enumeration guard" in err


P61 = "2305843009213693951"
HUGE_RANGE = "1..1000000000000"
IDENTITY_REFUSALS = [
    (["deal", "--t", "5", "--p", "7", "--identities", HUGE_RANGE, "--seed", "1"],
     2, "parameter error: identity 1000000000000 outside [1, 6]"),
    (["access-structure", "--t", "5", "--p", "7", "--identities", HUGE_RANGE],
     2, "parameter error: identity 1000000000000 outside [1, 6]"),
    (["audit", "--t", "4", "--p", "7", "--identities", HUGE_RANGE],
     2, "parameter error: identity 1000000000000 outside [1, 6]"),
    (["deal", "--t", "5", "--p", P61, "--identities", HUGE_RANGE, "--seed", "1"],
     4, "capacity error: 1000000000000 identities in '1..1000000000000' exceed"),
    (["access-structure", "--t", "5", "--p", P61, "--identities", HUGE_RANGE],
     4, "capacity error: 1000000000000 identities in '1..1000000000000' exceed"),
    (["audit", "--t", "4", "--p", P61, "--identities", HUGE_RANGE],
     4, "capacity error: 1000000000000 identities in '1..1000000000000' exceed"),
    (["audit", "--t", "4", "--p", P61, "--identities", "1..60000000,1..60000000"],
     4, "capacity error: 120000000 identities in '1..60000000,1..60000000' exceed"),
    (["access-structure", "--t", "8", "--p", "101", "--identities", "1..60"],
     4, "capacity error: C(60, 8) t-subsets exceed"),
    (["access-structure", "--t", "35", "--p", "41", "--identities", "1..40"],
     4, "capacity error: the sum of C(40, r - 1) over r = "),
]


@pytest.mark.parametrize(
    "argv, code, message",
    IDENTITY_REFUSALS,
    ids=[
        "deal-p7", "access-structure-p7", "audit-p7", "deal-p61", "access-structure-p61",
        "audit-p61", "audit-two-ranges", "access-structure-C(60,8)", "access-structure-walk",
    ],
)
def test_identity_ranges_and_access_structures_are_bounded_before_allocating(
    capsys, argv, code, message
):
    """Each of these once expanded a range, or walked C(n, t) subsets,
    until a MemoryError traceback ended it."""
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith(message)
    if code == 4:
        assert "100000000 enumeration guard" in err


def test_recover_bounds_subset_ranges_by_the_shares_files_field(tmp_path, capsys):
    shares = tmp_path / "shares.json"
    for p, code, message in [
        ("7", 2, "parameter error: identity 1000000000000 outside [1, 6]"),
        (P61, 4, "capacity error: 1000000000000 identities in '1..1000000000000' exceed"),
    ]:
        assert run(
            capsys, "deal", "--t", "2", "--p", p, "--identities", "1..3", "--seed", "1",
            "--output", str(shares),
        )[0] == 0
        got, out, err = run(
            capsys, "recover", "--shares", str(shares), "--subset", HUGE_RANGE, "--j", "0"
        )
        assert (got, out) == (code, "") and err.startswith(message)


def test_shares_file_that_is_not_json_is_a_parameter_error(tmp_path, capsys):
    shares = tmp_path / "shares.json"
    shares.write_text("{not json")
    code, out, err = run(capsys, "recover", "--shares", str(shares), "--subset", "1,2,4", "--j", "2")
    assert code == 2 and out == ""
    assert "is not JSON" in err


MALFORMED_SHARE_FIELDS = [
    ("share", 2, '"three"'),
    ("share", 2, "true"),
    ("share", 2, "2.5"),
    ("share", 2, "1e999"),
    ("share", 2, "Infinity"),
    ("id", 0, "1.5"),
    ("id", 0, '"1"'),
    ("p", None, "7.9"),
    ("p", None, "NaN"),
    ("t", None, "3.2"),
    ("t", None, "false"),
]


def test_non_integer_share_is_a_parameter_error(tmp_path, capsys):
    # only JSON integers are read: no truncation, no overflow traceback
    shares = tmp_path / "shares.json"
    for key, where, value in MALFORMED_SHARE_FIELDS:
        participants = [{"id": i, "share": 1} for i in range(1, 7)]
        doc = {"p": 7, "t": 5, "participants": participants}
        (doc if where is None else participants[where])[key] = "@"
        shares.write_text(json.dumps(doc).replace('"@"', value))
        code, out, err = run(
            capsys, "recover", "--shares", str(shares), "--subset", "1,2,4", "--j", "2"
        )
        assert code == 2 and out == "", (key, value)
        assert "malformed shares file" in err, (key, value)


def test_deal_recover_cycle(tmp_path, capsys):
    shares = tmp_path / "shares.json"
    code, _, err = run(
        capsys, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
        "--secrets", "1,2,3,4", "--blinding", "5", "--output", str(shares),
    )
    assert code == 0
    assert "sensitive" in err
    doc = json.loads(shares.read_text())
    assert doc["version"] == 1 and doc["p"] == 7 and doc["t"] == 5
    assert [e["share"] for e in doc["participants"]] == [1, 3, 1, 4, 1, 3]

    code, out, _ = run(capsys, "recover", "--shares", str(shares), "--subset", "1,2,4", "--j", "2")
    assert code == 0 and out.strip() == "3"
    code, out, err = run(
        capsys, "recover", "--shares", str(shares), "--subset", "1,2,4", "--j", "2",
        "--explain",
    )
    assert "route: full solve with identities [1, 2, 4]" in err and out.strip() == "3"
    code, out, _ = run(capsys, "recover", "--shares", str(shares), "--subset", "1..6", "--j", "0")
    assert code == 0 and out.strip() == "1"
    code, _, err = run(capsys, "recover", "--shares", str(shares), "--subset", "1,2", "--j", "2")
    assert code == 3
    assert "not authorized" in err
    code, out, err = run(capsys, "recover", "--shares", str(shares), "--subset", "1,2,9", "--j", "2")
    assert code == 2 and out == ""
    assert "identities [9] not present in the shares file" in err


def test_recover_refuses_a_shares_file_listing_an_identity_twice(tmp_path, capsys):
    shares = tmp_path / "shares.json"
    values = [1, 3, 1, 4, 1, 3]  # s = (1, 2, 3, 4), blinding 5, p = 7
    participants = [{"id": i, "share": y} for i, y in enumerate(values, start=1)]
    participants.append({"id": 3, "share": 2})
    shares.write_text(json.dumps({"p": 7, "t": 5, "participants": participants}))
    for subset in ("1,2,4", "1..6"):  # without the repeated identity, then with it
        code, out, err = run(
            capsys, "recover", "--shares", str(shares), "--subset", subset, "--j", "2"
        )
        assert code == 2 and out == ""
        assert err == "parameter error: duplicate identity among the supplied shares\n"


def test_recover_refuses_tampered_shares(tmp_path, capsys):
    shares = tmp_path / "shares.json"
    for tampered in (6, 2):  # outside the first t identities, then inside
        values = [1, 3, 1, 4, 1, 3]  # s = (1, 2, 3, 4), blinding 5, p = 7
        values[tampered - 1] = (values[tampered - 1] + 1) % 7
        participants = [{"id": i, "share": y} for i, y in enumerate(values, start=1)]
        shares.write_text(json.dumps({"p": 7, "t": 5, "participants": participants}))
        code, out, err = run(
            capsys, "recover", "--shares", str(shares), "--subset", "1..6", "--j", "0"
        )
        assert code == 2 and out == ""
        assert "do not lie on one polynomial" in err


def test_deal_seeded_is_deterministic(tmp_path, capsys):
    target = tmp_path / "shares.json"
    snapshots = []
    for _ in range(2):
        code, _, _ = run(
            capsys, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
            "--seed", "42", "--output", str(target),
        )
        assert code == 0
        snapshots.append(target.read_bytes())
    assert snapshots[0] == snapshots[1]
    assert json.loads(snapshots[0])["manifest"]["seed"] == 42


def test_deal_validation(capsys):
    code, _, err = run(
        capsys, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
        "--secrets", "1,2,3", "--blinding", "5",
    )
    assert code == 2
    code, _, err = run(
        capsys, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
        "--secrets", "1,2,3,4", "--blinding", "0",
    )
    assert code == 2
    code, _, err = run(
        capsys, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
        "--secrets", "1,2,3,4", "--blinding", "5", "--seed", "1",
    )
    assert code == 2
    code, out, err = run(
        capsys, "deal", "--t", "5", "--p", "7", "--identities", "1..6",
        "--secrets", "1,2,3,4",
    )
    assert code == 2 and out == ""
    assert "explicit dealing needs --secrets and --blinding" in err


def test_audit_exit_codes(tmp_path, capsys):
    out_path = tmp_path / "audit.json"
    code, _, _ = run(
        capsys, "audit", "--t", "4", "--p", "5", "--identities", "1..4",
        "--output", str(out_path),
    )
    doc = json.loads(out_path.read_text())
    assert code == (0 if doc["passed"] else 1)
    assert doc["domain"] == "full-field"
    assert doc["cells_checked"] > 0

    code, _, err = run(capsys, "audit", "--t", "7", "--p", "101", "--identities", "1..8")
    assert code == 4
    assert "guard" in err


# committed stdout of `privcoal audit`, held byte for byte
AUDIT_GOLDENS = [
    ("goldens_audit_t4_p7_seed3_full-field.json", ["--t", "4", "--seed", "3"], 1),
    (
        "goldens_audit_t4_p7_seed3_all-nonzero.json",
        ["--t", "4", "--seed", "3", "--domain", "all-nonzero"],
        0,
    ),
    ("goldens_audit_t5_p7_seed0_full-field.json", ["--t", "5", "--seed", "0"], 1),
]


@pytest.mark.parametrize("name, args, expected_code", AUDIT_GOLDENS)
def test_audit_output_matches_golden(capsys, name, args, expected_code):
    golden = (TESTS_DIR / name).read_text()
    code, out, err = run(capsys, "audit", "--p", "7", "--identities", "1..6", *args)
    assert (code, err) == (expected_code, "")
    assert out == golden


# committed stdout of `privcoal enumerate`, `table` and `access-structure`
EXPLORE_GOLDENS = json.loads((TESTS_DIR / "goldens_explore.json").read_text())


@pytest.mark.parametrize(
    "golden", EXPLORE_GOLDENS, ids=lambda g: "_".join(g["argv"]).replace("--", "")
)
def test_explore_output_matches_golden(capsys, golden):
    code, out, err = run(capsys, *golden["argv"])
    assert (code, err) == (0, "")
    assert out == golden["stdout"]


def test_one_parser_serves_calls_back_to_back(capsys):
    """main builds its parser once per process, so no call may see the
    options, defaults or error of the call before it: each prints what a
    call on a freshly built parser prints."""
    enum = ["enumerate", "--t", "7", "--j", "2", "--p", "13", "--N", "12"]
    table = ["table", "--t", "7", "--N", "13", "--p", "17,19"]
    missing_n = ["enumerate", "--t", "7", "--j", "2", "--p", "13"]
    sequence = [enum + ["--minimal"], enum, table + ["--per-length"], table, missing_n, enum]

    def call(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    lone = []
    for argv in sequence:
        build_parser.cache_clear()
        lone.append(call(argv))
    build_parser.cache_clear()
    assert [call(argv) for argv in sequence] == lone
    assert build_parser.cache_info().misses == 1
    assert lone[0][1] != lone[1][1] and lone[2][1] != lone[3][1]
    assert lone[4][:2] == (2, "") and "required: --N" in lone[4][2]
    for golden in EXPLORE_GOLDENS:
        assert call(golden["argv"]) == (0, golden["stdout"], "")


# JSON trees with every leaf kind the layout writes: bool beside int,
# 61-bit and negative ints, strings with quotes, backslashes, control
# characters and non-ASCII, and empty containers at any depth
JSON_TREES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**62), max_value=2**62)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=6),
    max_leaves=60,
)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
@example([True, 1, False, 0, None, [1, True], [0, 2**61 - 1, -(2**61)]])
@example({"": [[[{}]], [[]], {"a": {}}], '"\\\x00\x1f\u00e9\U0001f600': ["\ud800", "\n"]})
@example([(1, 2), ((3,), ()), {"t": (True, None)}])
def test_layout_matches_json_dumps_indent_2(doc):
    assert _layout(doc) == json.dumps(doc, indent=2)


def run_python(*args):
    """Run a fresh interpreter that imports this privcoal."""
    src = str(pathlib.Path(privcoal.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def test_module_entry_point_runs_the_cli(capsys):
    argv = ["audit", "--t", "3", "--p", "5", "--identities", "1..4"]
    proc = run_python("-m", "privcoal.cli", *argv)
    code, out, _ = run(capsys, *argv)
    assert out.startswith("{")
    assert (proc.returncode, proc.stdout) == (code, out)


SCRIPTS_DIR = TESTS_DIR.parent / "scripts"


def test_census_script_matches_table_command(capsys):
    proc = run_python(
        str(SCRIPTS_DIR / "coalition_census.py"), "--t", "5", "--N", "8", "--primes", "11,13"
    )
    code, out, _ = run(capsys, "table", "--t", "5", "--N", "8", "--p", "11,13")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert code == 0 and out.count("\n") == 3
    assert proc.stdout == out


def test_perfectness_demo_script_runs():
    demo = str(SCRIPTS_DIR / "perfectness_demo.py")
    # t=4 p=5 leaks (acceptance criterion 8), so the demo exits 1 and
    # shows both mechanisms
    proc = run_python(demo, "--t", "4", "--p", "5", "--n", "4")
    assert (proc.returncode, proc.stderr) == (1, "")
    assert "cells checked: 192" in proc.stdout
    assert "violating cells: 112" in proc.stdout
    assert "excluded-value: 56 cells" in proc.stdout
    assert "known-secrets-solve: 56 cells" in proc.stdout
    # identity 5 is the zero residue of F_5: a parameter error, not a traceback
    proc = run_python(demo, "--t", "4", "--p", "5", "--n", "5")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "parameter error: identity 5 outside [1, 4]\n"


def test_output_files_written_atomically(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, _, _ = run(
        capsys, "enumerate", "--t", "5", "--j", "2", "--r", "3", "--p", "7",
        "--N", "6", "--output", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["count"] == 2
    leftovers = [f for f in tmp_path.iterdir() if f.name.startswith(".privcoal-")]
    assert not leftovers


def test_output_naming_a_directory_is_an_io_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "enumerate", "--t", "5", "--j", "2", "--r", "3", "--p", "7",
        "--N", "6", "--output", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert err.startswith("i/o error:")
    assert not [f for f in tmp_path.iterdir() if f.name.startswith(".privcoal-")]


def test_missing_shares_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code, out, err = run(
        capsys, "recover", "--shares", str(missing), "--subset", "1,2", "--j", "0"
    )
    assert code == 2 and out == ""
    assert err.startswith("i/o error:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
