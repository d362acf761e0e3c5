"""Benchmark harness configuration.

Each file here is a speed-ratio gate: it times two allocators on the same
work with ``time.perf_counter``, asserts the faster one's minimum speedup and
their bitwise or tolerance-bound parity, and prints the walls (run with
``-s``).  CI runs all three by path; tier-1 does not collect them.  The
paper's table and figure claims are tier-1 tests under ``tests/``.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
