"""Regenerate ``perfbench/expected.json``, the pinned simulated outputs.

Usage, from the root of the repository::

    PYTHONPATH=src python3 -m perfbench.pin

Runs every workload once per pinned seed (once in all for a workload whose
inputs do not depend on the seed), checks the invariants, and stores the
digest of the simulated outputs.  Only a change that means to alter the
simulated results should regenerate the file; a performance change must
leave it as it is.
"""

from __future__ import annotations

import json
import sys

from . import workloads
from .worker import EXPECTED, Repetitions

#: Seeds whose outputs are pinned; other seeds are checked for invariants and
#: for identical outputs across repetitions.
PINNED_SEEDS = range(16)


def main() -> int:
    pins = {}
    for workload in workloads.WORKLOADS.values():
        pins[workload.name] = {}
        for seed in PINNED_SEEDS if workload.seeded else (0,):
            reps = Repetitions(workload, workload.entries(seed), expected=None)
            try:
                reps.run()
            finally:
                reps.close()
            if reps.failed:
                print(f"{workload.name} seed {seed}: outputs break an invariant", file=sys.stderr)
                return 1
            key = str(seed) if workload.seeded else "any"
            pins[workload.name][key] = reps.expected
            print(f"{workload.name} {key} {reps.expected}", file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
