#!/usr/bin/env python3
"""Sweep primes and tabulate minimal privileged coalition counts.

Reproduces the count grid for a threshold and identity bound: one row per
prime, one column per coefficient index, each cell the number of minimal
privileged coalitions aggregated over every valid length.  Handy for
spotting the primes where below-threshold recovery stops existing.

    python scripts/coalition_census.py --t 7 --N 13 --max-p 200
    python scripts/coalition_census.py --t 7 --N 13 --primes 809,5231,31601

Its input is checked as `privcoal table` checks it, and bad input exits
with the CLI's codes: 2 for a parameter error (a prime list that is
empty, not integers or not prime, or t and N invalid for some prime), 4
for a capacity error (a walk beyond the enumeration guard, or more
identities than the identity bound), each before any row is printed.
"""

import argparse
import sys

from privcoal import (
    CapacityError,
    CoalitionQuery,
    ParameterError,
    PrimeField,
    is_prime,
    minimal_privileged_coalitions,
)
from privcoal.errors import bound_held, bound_work


def primes_between(lo, hi):
    return [n for n in range(lo, hi + 1) if is_prime(n)]


def parse_primes(raw):
    primes = []
    for token in filter(str.strip, raw.split(",")):
        try:
            primes.append(int(token))
        except ValueError:
            raise ParameterError(f"{token.strip()!r} in {raw!r} is not an integer") from None
    if not primes:
        raise ParameterError(f"no primes in {raw!r}")
    return primes


def census_queries(args):
    """One row of queries per prime, every cell checked before any is run."""
    primes = parse_primes(args.primes) if args.primes else primes_between(args.t, args.max_p)
    fields = [PrimeField(p) for p in primes]
    for field in fields:
        CoalitionQuery(t=args.t, j=1, field=field, n_max=args.N)
    bound_work(args.t - 2, lambda: f"t - 2 = {args.t - 2} exceeds")
    bound_held(args.t - 2, lambda: f"the default j range 1..{args.t - 2} exceeds")
    return [
        [CoalitionQuery(t=args.t, j=j, field=field, n_max=args.N) for j in range(1, args.t - 1)]
        for field in fields
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--t", type=int, default=7)
    parser.add_argument("--N", type=int, default=13)
    parser.add_argument("--max-p", type=int, default=199)
    parser.add_argument("--primes", default=None,
                        help="comma-separated primes (overrides --max-p)")
    parser.add_argument("--shortest", action="store_true",
                        help="also print r_min and the shortest-length count")
    args = parser.parse_args(argv)

    try:
        rows = census_queries(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4

    j_range = range(1, args.t - 1)
    header = ["p"] + [f"j={j}" for j in j_range]
    if args.shortest:
        header += [f"r_min(j={j})" for j in j_range]
    print(",".join(header))
    for queries in rows:
        counts, shortest = [], []
        for query in queries:
            report = minimal_privileged_coalitions(query)
            counts.append(str(report.count))
            shortest.append("" if report.r_min is None else f"{report.r_min}/{report.n_min}")
        row = [str(queries[0].field.p)] + counts + (shortest if args.shortest else [])
        print(",".join(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
