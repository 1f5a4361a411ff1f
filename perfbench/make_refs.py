"""Regenerate perfbench/refs.json from the benchmark's own oracle.

    python3 perfbench/make_refs.py

Covers every input the seeded streams in inputs.py can produce, for any
seed.  Uses only oracle.py (rank-definition privilege, brute-force audit
over F_p^t), never privcoal.  Takes a few minutes on one core.  Rerun it
whenever inputs.py changes what it can generate.
"""

from __future__ import annotations

import json
import os
import sys
import time

import inputs
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def explore_ref(argv: list[str]) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    t, p = int(opts["--t"]), int(opts["--p"])
    if argv[0] == "enumerate":
        return oracle.enumerate_ref(t, int(opts["--j"]), p, int(opts["--N"]))
    if argv[0] == "table":
        return oracle.table_ref(t, p, int(opts["--N"]))
    n = int(opts["--identities"].split("..")[1])
    return oracle.access_structure_ref(t, p, range(1, n + 1))


def audit_ref(argv: list[str]) -> dict:
    opts = dict(zip(argv[1::2], argv[2::2]))
    return oracle.audit_ref(
        int(opts["--t"]), int(opts["--p"]), inputs.AUDIT_IDS,
        opts["--domain"], int(opts["--seed"]),
    )


def main() -> None:
    started = time.time()
    refs = {
        "provenance": (
            "Generated by `python3 perfbench/make_refs.py` from perfbench/oracle.py "
            "alone: privilege by the rank definition over every candidate track, "
            "audits by brute force over all of F_p^t, audit secret vectors from "
            "stdlib random.Random(seed) as `audit --seed` documents.  Keys are the "
            "argv joined by spaces; digests are order-insensitive sha256 fingerprints."
        ),
        "explore": {},
        "audit": {},
    }
    for argv in inputs.explore_domain():
        refs["explore"][" ".join(argv)] = explore_ref(argv)
    print(f"explore: {len(refs['explore'])} refs", file=sys.stderr)
    for argv in inputs.audit_domain():
        refs["audit"][" ".join(argv)] = audit_ref(argv)
    print(f"audit: {len(refs['audit'])} refs", file=sys.stderr)
    refs["recover-repeat"] = oracle.access_structure_ref(
        inputs.REPEAT_T, inputs.REPEAT_P, inputs.REPEAT_IDS
    )
    with open(os.path.join(HERE, "refs.json"), "w") as handle:
        json.dump(refs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"done in {time.time() - started:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
