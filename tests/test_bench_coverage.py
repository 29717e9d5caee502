"""Pre-flight of the benchmark's coverage guard.

`bench/run.py --trace 1` fails when a counter that `bench/layers.py`
expects on a workload records no calls, or when a traced worker cannot
install its tracer (for example on a renamed function).  This runs one
traced round of each workload on seed 1, as the benchmark does, and checks
the guard here, so either fault shows up in the test suite.  It reads
`bench/` and changes nothing there.
"""

import os
import sys
import time

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", layers.ALL)
def test_traced_round_satisfies_the_coverage_guard(workload):
    job = run.round_job(workload, workloads.cells_for(workload, 1), True)
    out = run.run_worker(job, time.monotonic() + 120)
    assert run.coverage_errors(workload, out["layers"]) == []
