"""Golden report digests for every seed the benchmark can use, plus a
held-out set that only selfcheck.py replays.

    python3 perfbench/golden.py          # rewrite perfbench/golden.json

Rewrite only for a change that is meant to alter simulated output, and say
so with the change: the digests are the gate that a speed-up kept every
report byte for byte.
"""

import json
import sys

from common import GOLDEN_PATH, SRC, WORKLOADS, held_out_seeds, pool_seeds, row_digest


def compute(workload, seeds) -> dict:
    """Digest of each seed's report row, run in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from steersim import Engine
    from sample import load

    scenario = load(workload)
    return {str(s): row_digest(Engine(scenario, s).run().report.to_row()) for s in seeds}


def main():
    golden = {
        name: {
            "pool": compute(name, pool_seeds(name)),
            "held_out": compute(name, held_out_seeds(name)),
        }
        for name in WORKLOADS
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
