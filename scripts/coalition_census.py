#!/usr/bin/env python3
"""Sweep primes and tabulate minimal privileged coalition counts.

A front end to `privcoal table` that only chooses the primes.  Without
--primes it scans t..max-p: a scan wider than the identity bound exits 4,
one that finds no prime exits 2.  All else, exit codes included, is
`table`'s: a row per prime and a column per j = 1..t-2 of minimal-coalition
counts (`--format json` adds each cell's shortest length r_min and N_min).

    python scripts/coalition_census.py --t 7 --N 13 --max-p 200
    python scripts/coalition_census.py --t 7 --N 13 --primes 809,5231,31601
"""

import argparse
import sys

from privcoal import ParameterError, cli, is_prime
from privcoal.errors import bound_held


def scanned_primes(t, max_p):
    """The primes in t..max_p, comma-separated."""
    width = max_p - t + 1
    bound_held(width, lambda: f"the prime scan {t}..{max_p} of {width} integers exceeds")
    primes = [str(n) for n in range(t, max_p + 1) if is_prime(n)]
    if not primes:
        raise ParameterError(f"no primes between {t} and {max_p}")
    return ",".join(primes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=int, default=7)
    parser.add_argument("--N", type=int, default=13)
    parser.add_argument("--max-p", type=int, default=199)
    parser.add_argument("--primes", help="comma-separated primes (overrides --max-p)")
    args = parser.parse_args(argv)
    return cli.run(lambda: cli.main([
        "table", f"--t={args.t}", f"--N={args.N}",
        f"--p={args.primes or scanned_primes(args.t, args.max_p)}",
    ]))


if __name__ == "__main__":
    sys.exit(main())
