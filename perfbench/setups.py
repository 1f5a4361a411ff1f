"""Each workload's set-up: import privcoal and build what every op needs.

run.py calls these functions in its own process to get the objects its
ops use.  Run as a script, this file performs one workload's set-up in a
fresh interpreter and exits:

    python3 perfbench/setups.py recover-repeat

run.py times several such processes, from their start to their exit, and
reports the median as setup_s.  So every sample pays the interpreter's
start and a cold import of privcoal, with nothing of the benchmark loaded
before it but this file, which imports only os and sys.
"""

import os
import sys

# recover-repeat: the shape of acceptance criterion 6b.
REPEAT_T = 7
REPEAT_P = 13
REPEAT_IDS = tuple(range(1, 13))

# recover-fresh: fresh identities per request set, 16-bit prime.
FRESH_T = 7
FRESH_P = 65521


def cli() -> dict:
    from privcoal import cli

    return {"cli": cli}


def recover_repeat() -> dict:
    from privcoal import scheme
    from privcoal.field import PrimeField

    field = PrimeField(REPEAT_P)
    cfg = scheme.SchemeConfig(t=REPEAT_T, field=field, identities=REPEAT_IDS)
    return {"scheme": scheme, "field": field, "cfg": cfg,
            "structure": scheme.derive_access_structure(cfg)}


def recover_fresh() -> dict:
    from privcoal import errors, scheme
    from privcoal.field import PrimeField

    return {"scheme": scheme, "errors": errors, "field": PrimeField(FRESH_P)}


SETUPS = {
    "explore": cli,
    "recover-repeat": recover_repeat,
    "recover-fresh": recover_fresh,
    "audit": cli,
}

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    SETUPS[sys.argv[1]]()
    # skip the teardown of what set-up built: it is not part of set-up
    os._exit(0)
