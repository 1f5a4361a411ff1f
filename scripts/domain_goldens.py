#!/usr/bin/env python3
"""Write tests/goldens_domain.json: one output digest per benchmark-domain argv.

The argvs are every one the explore and audit benchmark streams can
produce (`perfbench/inputs.py`, read only) and the argvs of the refusal
tables in `tests/test_cli.py`.  Each maps to the sha256 of its exit code,
stdout and stderr from `privcoal.cli.main`, run in process, so
`test_domain_argvs_keep_their_output_digests` can name every argv whose
output moved.  Prints those argvs when it rewrites an existing file.

    PYTHONPATH=src python scripts/domain_goldens.py
"""

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import sys

from privcoal import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens_domain.json"


def digest(argv):
    """sha256 of [exit code, stdout, stderr] as JSON."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def load():
    """The (argv, digest) pairs of the committed file, argv a tuple."""
    return [(tuple(argv), value) for argv, value in json.loads(GOLDENS.read_text())]


def domain_argvs():
    """The explore and audit domains, then the CLI refusal tables."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import inputs
    import test_cli

    return (
        inputs.explore_domain()
        + inputs.audit_domain()
        + [["table", *args] for args, _ in test_cli.TABLE_REFUSALS]
        + [argv for argv, _ in test_cli.WALK_REFUSALS]
        + [argv for argv, _, _ in test_cli.IDENTITY_REFUSALS]
        + [argv for argv, _ in test_cli.IDENTITY_BOUND_REFUSALS]
    )


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    old = dict(load()) if GOLDENS.exists() else {}
    rows = [(argv, digest(argv)) for argv in domain_argvs()]
    for argv, value in rows:
        if old.get(tuple(argv), value) != value:
            print(f"moved: {' '.join(argv)}")
    lines = ",\n".join(json.dumps(row, separators=(",", ":")) for row in rows)
    GOLDENS.write_text(f"[\n{lines}\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
