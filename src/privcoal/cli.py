"""Command-line interface.

Subcommands: enumerate, table, access-structure, deal, recover, audit.
Every document embeds a manifest (tool version plus fully resolved
parameters) so results are reproducible from the output alone; output
files are written atomically (temp file + rename).

JSON documents are written by `_layout`: the bytes of
json.dumps(doc, indent=2), built from C-encoded leaves.  The argument
parser is built once per process, on the first call to `main`.

Exit codes: 0 success, 2 parameter error, 3 authorization error,
4 capacity error (an audit, enumeration walk or table grid beyond the
enumeration guard).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from json.encoder import encode_basestring_ascii as _encode_string

from . import __version__
from .audit import DOMAINS, FULL_FIELD, perfectness_report
from .coalition import CoalitionQuery, minimal_privileged_coalitions, privileged_coalitions
from .errors import ENUMERATION_GUARD, AuthorizationError, CapacityError, ParameterError
from .field import PrimeField
from .scheme import (
    SchemeConfig,
    SecretVector,
    deal,
    derive_access_structure,
    recover,
)

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_PARAMETER = 2
EXIT_AUTHORIZATION = 3
EXIT_CAPACITY = 4

_INT = {int}  # the item types of a list written with one join; bool is not int


def _manifest(
    subcommand: str,
    params: dict,
    seed: int | None = None,
    output_path: str | None = None,
) -> dict:
    out = {
        "tool": "privcoal",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": params,
        "input": None,
        "output": output_path,
    }
    if seed is not None:
        out["seed"] = seed
    return out


def _leaf(value: object, pad: str) -> str | None:
    """The JSON text of a scalar, an empty container or a list of ints
    whose items start at `pad`; None for any other container."""
    if isinstance(value, str):
        return _encode_string(value)
    if isinstance(value, (dict, list, tuple)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        if isinstance(value, dict) or {*map(type, value)} != _INT:
            return None
        return "[" + pad + ("," + pad).join(map(int.__repr__, value)) + pad[:-2] + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return int.__repr__(value)


def _layout(doc: object) -> str:
    """The text of json.dumps(doc, indent=2), byte for byte.

    json.dumps lays out an indented document in pure Python.  Here every
    leaf comes from the C encoder (`_leaf`), and a container whose items
    are all leaves is written with one join; only deeper containers are
    descended, through an explicit stack of (items, closing text) pairs,
    so nesting depth is not bounded by recursion.
    """
    out: list[str] = []
    stack = [(iter((("", doc, _leaf(doc, "\n  ")),)), "")]
    while stack:
        items, close = stack[-1]
        for head, value, text in items:
            out.append(head)
            if text is not None:
                out.append(text)
                continue
            pad = "\n" + "  " * len(stack)
            inner = pad + "  "
            is_dict = isinstance(value, dict)
            values = value.values() if is_dict else value
            texts = [_leaf(v, inner) for v in values]
            heads = [pad] + ["," + pad] * (len(texts) - 1)
            if is_dict:
                heads = [h + _encode_string(k) + ": " for h, k in zip(heads, value)]
                opening, end = "{", pad[:-2] + "}"
            else:
                opening, end = "[", pad[:-2] + "]"
            if None not in texts:
                out.append(opening + "".join(map(str.__add__, heads, texts)) + end)
                continue
            out.append(opening)
            stack.append((zip(heads, values, texts), end))
            break
        else:
            stack.pop()
            out.append(close)
    return "".join(out)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".privcoal-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_int(token: str, raw: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParameterError(f"{token.strip()!r} in {raw!r} is not an integer") from None


def _parse_identities(raw: str, p: int) -> list[int]:
    """Accepts comma-separated values and a..b ranges, e.g. '1..6' or '1,2,9'.

    Range ends must be identities of F_p, and the ranges may list at most
    ENUMERATION_GUARD identities; both are checked before any range is
    expanded.
    """
    spans: list[range] = []
    for token in raw.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = (_parse_int(end, raw) for end in token.split("..", 1))
            for end in (lo, hi):
                if not 1 <= end <= p - 1:
                    raise ParameterError(f"identity {end} outside [1, {p - 1}]")
            spans.append(range(lo, hi + 1))
        elif token:
            value = _parse_int(token, raw)
            spans.append(range(value, value + 1))
    count = sum(max(0, span.stop - span.start) for span in spans)
    if count > ENUMERATION_GUARD:
        raise CapacityError(
            f"{count} identities in {raw!r} exceed the {ENUMERATION_GUARD} enumeration guard"
        )
    if not count:
        raise ParameterError(f"no identities in {raw!r}")
    return [i for span in spans for i in span]


def _parse_int_list(raw: str) -> list[int]:
    return [_parse_int(tok, raw) for tok in raw.split(",") if tok.strip()]


def _cmd_enumerate(args: argparse.Namespace) -> int:
    query = CoalitionQuery(
        t=args.t, j=args.j, field=PrimeField(args.p), n_max=args.N, r=args.r
    )
    report = (
        minimal_privileged_coalitions(query)
        if args.minimal
        else privileged_coalitions(query)
    )
    doc = report.to_dict()
    if args.descending:
        doc["coalitions"] = [sorted(c, reverse=True) for c in doc["coalitions"]]
    doc["manifest"] = _manifest(
        "enumerate",
        {
            "t": args.t,
            "j": args.j,
            "r": args.r,
            "p": args.p,
            "N": args.N,
            "minimal": bool(args.minimal),
            "descending": bool(args.descending),
            "format": args.format,
        },
        output_path=args.output,
    )
    if args.format == "json":
        _emit(_layout(doc), args.output)
    elif args.format == "csv":
        lines = ["elements"] + [" ".join(str(x) for x in c) for c in doc["coalitions"]]
        _emit("\n".join(lines), args.output)
    else:
        lines = [
            f"({query.t},{query.j})-privileged coalitions over F_{query.field.p}, "
            f"identities 1..{query.n_max}"
            + (" (minimal only)" if args.minimal else "")
        ]
        for c in doc["coalitions"]:
            lines.append("  {" + ", ".join(str(x) for x in c) + "}")
        lines.append(f"count: {doc['count']}")
        if doc["r_min"] is not None:
            lines.append(f"shortest length: {doc['r_min']} ({doc['N_min']} coalitions)")
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    primes = _parse_int_list(args.p)
    if not primes:
        raise ParameterError(f"no primes in {args.p!r}")
    fields = [PrimeField(p) for p in primes]
    for field in fields:
        # checks t and N against each prime before t sizes the default j range
        CoalitionQuery(t=args.t, j=1, field=field, n_max=args.N)
    if not args.j and args.t - 2 > ENUMERATION_GUARD:
        raise CapacityError(
            f"t - 2 = {args.t - 2} exceeds the {ENUMERATION_GUARD} enumeration guard"
        )
    j_list = _parse_int_list(args.j) if args.j else list(range(1, args.t - 1))
    grid: dict[int, dict[int, dict]] = {}
    for p, field in zip(primes, fields):
        grid[p] = {}
        for j in j_list:
            report = minimal_privileged_coalitions(
                CoalitionQuery(t=args.t, j=j, field=field, n_max=args.N)
            )
            grid[p][j] = {
                "count": report.count,
                "r_min": report.r_min,
                "N_min": report.n_min,
                "per_length": {str(r): c for r, c in sorted(report.per_length().items())},
            }
    manifest = _manifest(
        "table",
        {"t": args.t, "N": args.N, "p": primes, "j": j_list, "format": args.format},
        output_path=args.output,
    )
    if args.format == "json":
        doc = {
            "version": 1,
            "t": args.t,
            "N": args.N,
            "cells": {str(p): {str(j): grid[p][j] for j in j_list} for p in primes},
            "manifest": manifest,
        }
        _emit(_layout(doc), args.output)
        return EXIT_OK
    if args.per_length:
        # t <= p for every prime, so a cell's lengths do not depend on its prime
        lengths = {
            j: CoalitionQuery(t=args.t, j=j, field=fields[0], n_max=args.N).lengths
            for j in j_list
        }
        header = ["p"] + [f"j={j}:r={r}" for j in j_list for r in lengths[j]]
        lines = [",".join(header)]
        for p in primes:
            row = [str(p)]
            for j in j_list:
                for r in lengths[j]:
                    row.append(str(grid[p][j]["per_length"].get(str(r), 0)))
            lines.append(",".join(row))
    else:
        lines = [",".join(["p"] + [f"j={j}" for j in j_list])]
        for p in primes:
            lines.append(",".join([str(p)] + [str(grid[p][j]["count"]) for j in j_list]))
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def _cmd_access_structure(args: argparse.Namespace) -> int:
    field = PrimeField(args.p)
    cfg = SchemeConfig(
        t=args.t, field=field, identities=_parse_identities(args.identities, field.p)
    )
    structure = derive_access_structure(cfg)
    doc = structure.to_dict()
    doc["manifest"] = _manifest(
        "access-structure",
        {"t": args.t, "p": args.p, "identities": list(cfg.identities)},
        output_path=args.output,
    )
    if args.format == "text":
        lines = []
        for j in range(cfg.t - 1):
            sets = structure.minimal_sets(j)
            lines.append(f"minimal authorized sets for secret {j} ({len(sets)}):")
            for a in sets:
                lines.append(
                    "  {" + ", ".join(str(x) for x in a.members) + "} " + f"[{a.kind}]"
                )
        _emit("\n".join(lines), args.output)
    else:
        _emit(_layout(doc), args.output)
    return EXIT_OK


def _cmd_deal(args: argparse.Namespace) -> int:
    field = PrimeField(args.p)
    cfg = SchemeConfig(
        t=args.t, field=field, identities=_parse_identities(args.identities, field.p)
    )
    if args.seed is not None:
        if args.secrets or args.blinding is not None:
            raise ParameterError("give either --seed or explicit --secrets/--blinding")
        sv = SecretVector.random(field, args.t, args.seed)
    else:
        if not args.secrets or args.blinding is None:
            raise ParameterError("explicit dealing needs --secrets and --blinding")
        sv = SecretVector(
            secrets=tuple(_parse_int_list(args.secrets)),
            blinding=args.blinding,
            field=field,
        )
    table = deal(cfg, sv)
    doc = {
        "version": 1,
        "p": args.p,
        "t": args.t,
        "participants": [{"id": i, "share": y} for i, y in table.entries],
        "manifest": _manifest(
            "deal",
            {"t": args.t, "p": args.p, "identities": list(cfg.identities)},
            seed=args.seed,
            output_path=args.output,
        ),
    }
    print(
        "warning: shares are sensitive and this output is plaintext; "
        "distribute over a secure channel",
        file=sys.stderr,
    )
    _emit(_layout(doc), args.output)
    return EXIT_OK


def _json_int(value: object) -> int:
    """A JSON integer; bool, float and string values are refused."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _load_shares(path: str) -> tuple[SchemeConfig, dict[int, int]]:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            raise ParameterError(f"shares file {path} is not JSON: {exc}") from exc
    try:
        p = _json_int(doc["p"])
        t = _json_int(doc["t"])
        entries = [(_json_int(e["id"]), _json_int(e["share"])) for e in doc["participants"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed shares file {path}: {exc}") from exc
    pairs = dict(entries)
    if len(pairs) != len(entries):
        raise ParameterError("duplicate identity among the supplied shares")
    cfg = SchemeConfig(t=t, field=PrimeField(p), identities=tuple(pairs))
    return cfg, pairs


def _cmd_recover(args: argparse.Namespace) -> int:
    cfg, shares = _load_shares(args.shares)
    subset = sorted(set(_parse_identities(args.subset, cfg.field.p)))
    missing = [i for i in subset if i not in shares]
    if missing:
        raise ParameterError(f"identities {missing} not present in the shares file")
    pairs = [(i, shares[i]) for i in subset]
    value = recover(pairs, args.j, cfg)
    if args.explain:
        print(f"route: full solve with identities {subset[: cfg.t]}", file=sys.stderr)
    print(value)
    return EXIT_OK


def _cmd_audit(args: argparse.Namespace) -> int:
    field = PrimeField(args.p)
    cfg = SchemeConfig(
        t=args.t, field=field, identities=_parse_identities(args.identities, field.p)
    )
    report = perfectness_report(cfg, domain=args.domain, seed=args.seed)
    doc = report.to_dict()
    doc["manifest"] = _manifest(
        "audit",
        {
            "t": args.t,
            "p": args.p,
            "identities": list(cfg.identities),
            "domain": args.domain,
        },
        seed=args.seed,
        output_path=args.output,
    )
    _emit(_layout(doc), args.output)
    return EXIT_OK if report.passed else EXIT_AUDIT_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="privcoal",
        description=(
            "Privileged-coalition enumeration and multi-secret sharing "
            "over prime fields"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="list (t,j)-privileged coalitions")
    enum.add_argument("--t", type=int, required=True, help="threshold")
    enum.add_argument("--j", type=int, required=True, help="coefficient index")
    enum.add_argument(
        "--r", type=int, default=None, help="coalition length (omit to sweep all)"
    )
    enum.add_argument("--p", type=int, required=True, help="prime field order")
    enum.add_argument("--N", type=int, required=True, help="identity bound")
    enum.add_argument("--minimal", action="store_true", help="minimal coalitions only")
    enum.add_argument("--descending", action="store_true", help="print elements descending")
    enum.add_argument("--format", choices=("json", "csv", "text"), default="json")
    enum.add_argument("--output", default=None, help="write to file instead of stdout")
    enum.set_defaults(func=_cmd_enumerate)

    table = sub.add_parser("table", help="minimal-coalition count grid per (p, j)")
    table.add_argument("--t", type=int, required=True)
    table.add_argument("--N", type=int, required=True)
    table.add_argument("--p", required=True, help="comma-separated primes")
    table.add_argument("--j", default=None, help="comma-separated indices (default 1..t-2)")
    table.add_argument("--per-length", action="store_true", dest="per_length")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--output", default=None)
    table.set_defaults(func=_cmd_table)

    access = sub.add_parser("access-structure", help="minimal authorized sets per secret")
    access.add_argument("--t", type=int, required=True)
    access.add_argument("--p", type=int, required=True)
    access.add_argument("--identities", required=True, help="e.g. 1..6 or 1,2,9")
    access.add_argument("--format", choices=("json", "text"), default="json")
    access.add_argument("--output", default=None)
    access.set_defaults(func=_cmd_access_structure)

    deal_p = sub.add_parser("deal", help="evaluate shares for every participant")
    deal_p.add_argument("--t", type=int, required=True)
    deal_p.add_argument("--p", type=int, required=True)
    deal_p.add_argument("--identities", required=True)
    deal_p.add_argument("--secrets", default=None, help="comma-separated s_0..s_{t-2}")
    deal_p.add_argument("--blinding", type=int, default=None, help="nonzero top coefficient")
    deal_p.add_argument("--seed", type=int, default=None, help="derive coefficients from a seed")
    deal_p.add_argument("--output", default=None)
    deal_p.set_defaults(func=_cmd_deal)

    rec = sub.add_parser("recover", help="recover a secret from a share subset")
    rec.add_argument("--shares", required=True, help="shares JSON file")
    rec.add_argument("--subset", required=True, help="identities, e.g. 1,2,4")
    rec.add_argument("--j", type=int, required=True, help="secret index")
    rec.add_argument("--explain", action="store_true", help="describe the route used")
    rec.set_defaults(func=_cmd_recover)

    audit_p = sub.add_parser("audit", help="exhaustive perfectness audit")
    audit_p.add_argument("--t", type=int, required=True)
    audit_p.add_argument("--p", type=int, required=True)
    audit_p.add_argument("--identities", required=True)
    audit_p.add_argument("--domain", choices=DOMAINS, default=FULL_FIELD)
    audit_p.add_argument("--seed", type=int, default=0)
    audit_p.add_argument("--output", default=None)
    audit_p.set_defaults(func=_cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except AuthorizationError as exc:
        print(f"authorization error: {exc}", file=sys.stderr)
        return EXIT_AUTHORIZATION
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
