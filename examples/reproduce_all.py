"""Regenerate every (light) table and figure of the paper in one run.

Prints the full reproduction report: Tables 1/2, the derived text claims, and
Figures 8-12.  Figure 16 requires a contention simulation sweep: pass
``--heavy`` here to include it at 8x8, or run ``examples/figure16_paper.py``
for the paper's 16x16 machine.

Run with:  python examples/reproduce_all.py [--heavy]
"""

import sys

from repro.analysis.report import reproduction_report


def main() -> None:
    include_heavy = "--heavy" in sys.argv[1:]
    print(reproduction_report(include_heavy=include_heavy))


if __name__ == "__main__":
    main()
