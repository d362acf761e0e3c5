"""Figure 16 at paper scale: a 256-qubit QFT on a 16x16 mesh.

Builds the ten Figure 16 specs (two layouts, each with a t = g = p = 1024
baseline and four t = g = {1, 2, 4, 8} x p allocations) with
:func:`repro.analysis.fig16.figure16_specs` and runs them through
:func:`repro.api.sweep` on two workers.  Every finished point is appended to
the journal ``.repro-cache/figure16_paper.jsonl``, so a killed run resumes
where it stopped; the sweep refuses a journal written by other package
sources, so delete it to rerun after editing ``repro``.  The flat records go
to stdout as JSON, the figure to stderr::

    PYTHONPATH=src python examples/figure16_paper.py > tests/analysis/figure16_paper.json

The committed records feed the paper-scale claims in
``tests/analysis/test_figures.py``.  On a 2-vCPU host the sweep takes 5–7
minutes and about 1.5 GB of memory per worker; the Home Base points
dominate.
"""

import json
import sys

from repro import api
from repro.analysis.fig16 import figure16_from_records, figure16_specs

JOURNAL = ".repro-cache/figure16_paper.jsonl"


def main() -> int:
    records = api.sweep(
        figure16_specs(grid_side=16), workers=2, journal=JOURNAL, use_cache=False
    )
    failed = [record for record in records if "error" in record]
    for record in failed:
        print(f"{record['name']}: {record['error']['message']}", file=sys.stderr)
    if failed:
        return 1
    figure, _ = figure16_from_records(records)
    print(figure.render(), file=sys.stderr)
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
