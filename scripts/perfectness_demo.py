#!/usr/bin/env python3
"""Audit small instances exhaustively and summarize what leaks.

Deals a polynomial over a desk-scale field, then computes the exact
distribution of each secret given every participant subset's shares
(and the secrets it is assumed to know) to classify each (subset,
secret, known-secrets) cell as determined, uniform, or leaky.  The
output shows the two leak mechanisms of this construction:

* a below-threshold subset whose kernel ties a secret to the nonzero
  blinding coefficient can exclude exactly one candidate value, and
* a subset that knows enough of the other secrets can solve for the
  rest outright, because all secrets ride one polynomial.

    python scripts/perfectness_demo.py --t 5 --p 7 --n 6

Exits 0 when the audit passes, 1 when it finds violating cells, and with
the CLI's codes on bad input: 2 for a parameter error (identities must
lie in 1..p-1, so n < p), 4 above the audit's size guard.
"""

import argparse
import sys
from collections import Counter

from privcoal import FULL_FIELD, PrimeField, SchemeConfig, cli, perfectness_report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=int, default=5)
    parser.add_argument("--p", type=int, default=7)
    parser.add_argument("--n", type=int, default=6, help="participant count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-examples", type=int, default=8)
    args = parser.parse_args(argv)
    return cli.run(lambda: summarize(args))


def summarize(args):
    cfg = SchemeConfig(t=args.t, field=PrimeField(args.p), identities=range(1, args.n + 1))
    report = perfectness_report(cfg, domain=FULL_FIELD, seed=args.seed)
    verdicts = Counter(cell.verdict for cell in report.cells)
    print(f"instance: t={args.t} p={args.p} identities=1..{args.n} seed={args.seed}")
    print(f"cells checked: {len(report.cells)}  verdicts: {dict(verdicts)}")
    print(f"audit passed: {report.passed}")
    if report.passed:
        return 0

    print(f"\nviolating cells: {len(report.violations)}; examples:")
    by_kind = {"excluded-value": [], "known-secrets-solve": [], "other": []}
    for cell in report.violations:
        hist = dict(cell.histogram or ())
        support = sum(1 for c in hist.values() if c)
        if cell.verdict == "determined" and not cell.authorized:
            by_kind["known-secrets-solve"].append(cell)
        elif support == args.p - 1:
            by_kind["excluded-value"].append(cell)
        else:
            by_kind["other"].append(cell)
    for kind, cells in by_kind.items():
        print(f"\n  {kind}: {len(cells)} cells")
        for cell in cells[: args.max_examples]:
            print(
                f"    subset={cell.subset} secret=s_{cell.j} known={cell.known} "
                f"verdict={cell.verdict} histogram={cell.histogram}"
            )
    return 1


if __name__ == "__main__":
    sys.exit(main())
