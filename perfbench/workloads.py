"""The four workloads: the op stream and each op's check.

A workload's stream yields blocks of steps.  A `Prep` step (building a config and
dealing, on the recover workloads) runs inside the timed wall time but is
not an op; an `Op` step is one call the caller waits for, followed by its
check, which runs outside the timed region.  Every call into privcoal
looks its function up on the module at call time, so the tracer's
rebinding takes effect.  The objects the ops use come from the
workload's set-up in setups.py.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import inputs
import oracle
import setups


@dataclass
class Prep:
    fn: Callable[[], Any]


@dataclass
class Op:
    fn: Callable[[], Any]
    check: Callable[[Any, BaseException | None], bool]
    label: str


class Workload:
    def __init__(self, name: str, refs: dict) -> None:
        self.refs = refs
        self.setup_ok = True
        self.cells_checked = 0
        self.env = setups.SETUPS[name]()

    def stream(self, seed: int):
        raise NotImplementedError


class CliWorkload(Workload):
    ref_key = ""

    def stream(self, seed: int):
        for block in self.blocks(seed):
            yield [self.op(argv) for argv in block]

    def run_cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.env["cli"].main(argv)
        return code, out.getvalue()

    def op(self, argv: list[str]) -> Op:
        ref = self.refs[self.ref_key].get(" ".join(argv))
        return Op(
            fn=lambda: self.run_cli(argv),
            check=lambda result, exc: ref is not None and exc is None and self.check(argv, ref, *result),
            label=" ".join(argv),
        )


class Explore(CliWorkload):
    """enumerate / table / access-structure queries through cli.main."""

    ref_key = "explore"
    blocks = staticmethod(inputs.explore_stream)

    @staticmethod
    def check(argv: list[str], ref: dict, code: int, text: str) -> bool:
        if code != 0:
            return False
        doc = json.loads(text)
        if argv[0] == "enumerate":
            return (
                doc["count"] == ref["count"]
                and oracle.digest(doc["coalitions"]) == ref["coalitions"]
                and doc["r_min"] == ref["r_min"]
                and doc["N_min"] == ref["N_min"]
            )
        if argv[0] == "table":
            return doc["cells"] == ref["cells"]
        structure = doc["structure"]
        return set(structure) == set(ref["structure"]) and all(
            len(structure[j]) == want["count"]
            and oracle.digest([[a["members"], a["kind"]] for a in structure[j]]) == want["digest"]
            for j, want in ref["structure"].items()
        )


class Audit(CliWorkload):
    """The exhaustive perfectness audit through cli.main.

    Exit code 1 with passed=false is the expected criterion-8 finding,
    not a failure: the reference says which instances leak.
    """

    ref_key = "audit"
    blocks = staticmethod(inputs.audit_stream)

    def check(self, argv: list[str], ref: dict, code: int, text: str) -> bool:
        if code != (0 if ref["passed"] else 1):
            return False
        doc = json.loads(text)
        self.cells_checked += doc["cells_checked"]
        keys = [[c["subset"], c["j"], c["known"]] for c in doc["violations"]]
        return (
            doc["passed"] == ref["passed"]
            and doc["cells_checked"] == ref["cells_checked"]
            and len(keys) == ref["violations"]["count"]
            and oracle.digest(keys) == ref["violations"]["digest"]
            and doc["secrets"] == ref["secrets"]
            and doc["blinding"] == ref["blinding"]
        )


class RecoverRepeat(Workload):
    """Minimal authorized sets of t=7, p=13, identities 1..12 recover their
    secret from each dealt vector; set-up derives the whole structure and
    the check covers all of it.

    The loop uses every coalition-route set (the 287 privileged ones) and
    a seeded sample of twice as many t-subsets (threshold and unextended
    sets, which all take the full-solve route).  With all 2,880 t-subsets
    the coalition route would be 9% of the ops, and the 90th percentile
    would sit on the edge between the two routes, where scheduler jitter
    moved it from 0.13 to 0.32 ms between runs; at a third it lies inside
    the coalition route.
    """

    def split_structure(self) -> tuple[list, list]:
        """(coalition-route, full-solve) pairs of the derived structure,
        which is checked against the reference (untimed)."""
        want = self.refs["recover-repeat"]["structure"]
        coalition_pairs, full_pairs = [], []
        for j in range(setups.REPEAT_T - 1):
            sets = self.env["structure"].minimal_sets(j)
            got = [[list(a.members), a.kind] for a in sets]
            if len(got) != want[str(j)]["count"] or oracle.digest(got) != want[str(j)]["digest"]:
                self.setup_ok = False
            for a in sets:
                pairs = full_pairs if len(a.members) >= setups.REPEAT_T else coalition_pairs
                pairs.append((tuple(a.members), j))
        return coalition_pairs, full_pairs

    def stream(self, seed: int):
        scheme, field, cfg = self.env["scheme"], self.env["field"], self.env["cfg"]
        state = {}

        def deal(secrets, blinding):
            sv = scheme.SecretVector(secrets=tuple(secrets), blinding=blinding, field=field)
            state["table"] = scheme.deal(cfg, sv)

        plan = inputs.repeat_stream(seed, *self.split_structure())
        for secrets, blinding, pairs in plan:
            block = [Prep(lambda s=secrets, b=blinding: deal(s, b))]
            for members, j in pairs:
                block.append(Op(
                    fn=lambda m=members, j=j: scheme.recover(state["table"].subset(m), j, cfg),
                    check=lambda value, exc, want=secrets[j]: exc is None and value == want,
                    label=f"recover {members} j={j}",
                ))
            yield block


class RecoverFresh(Workload):
    """Fresh identities per request set at a 16-bit prime: a privileged
    coalition, a t-subset, all shares, and a (t-1)-subset that the
    benchmark's own rank test normally refuses."""

    def stream(self, seed: int):
        scheme, field = self.env["scheme"], self.env["field"]
        refused = self.env["errors"].AuthorizationError
        state = {}

        def deal(rs):
            cfg = scheme.SchemeConfig(t=setups.FRESH_T, field=field, identities=rs.identities)
            sv = scheme.SecretVector(secrets=rs.secrets, blinding=rs.blinding, field=field)
            state["cfg"] = cfg
            state["table"] = scheme.deal(cfg, sv)

        def check(value, exc, req, rs) -> bool:
            if req.authorized:
                return exc is None and value == rs.secrets[req.j]
            return isinstance(exc, refused)

        for rs in inputs.fresh_stream(seed):
            yield [Prep(lambda rs=rs: deal(rs))] + [
                Op(
                    fn=lambda req=req: scheme.recover(
                        state["table"].subset(req.subset), req.j, state["cfg"]),
                    check=lambda value, exc, req=req, rs=rs: check(value, exc, req, rs),
                    label=f"recover {req.kind} {req.subset} j={req.j}",
                )
                for req in rs.requests
            ]


WORKLOADS = {
    "explore": Explore,
    "recover-repeat": RecoverRepeat,
    "recover-fresh": RecoverFresh,
    "audit": Audit,
}
