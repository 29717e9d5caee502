"""Tests of the benchmark's own code: seeded inputs, the mpmath reference,
the output checks, span arithmetic and the tracer's coverage.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest
from mpmath import mp, mpf, pi

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---- seeded inputs ------------------------------------------------------

@pytest.mark.parametrize("make", [workloads.exact_grid, workloads.float_grid])
def test_same_seed_same_cells_other_seed_other_cells(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_exact_grid_has_integer_orders_and_tagged_out_of_domain_cells():
    cells = workloads.exact_grid(1)
    assert all(isinstance(c[5], int) for c in cells)
    assert any(not workloads.in_domain(c[0], c[1], c[3], c[5]) for c in cells)
    assert {c[2] for c in cells if c[2] >= 40} == set(workloads.RYDBERG_NS)


def test_float_grid_shape():
    cells = workloads.float_grid(1)
    assert len(cells) == workloads.FLOAT_CELLS
    assert all(isinstance(c[5], float) and not c[5].is_integer() for c in cells)
    assert all(workloads.in_domain(c[0], c[1], c[3], c[5]) for c in cells)
    momentum = sum(c[0] == "p" for c in cells)
    assert abs(2 * momentum - len(cells)) <= len(workloads.FLOAT_ANCHORS)
    for anchor in workloads.FLOAT_ANCHORS:
        assert list(anchor) in cells
    assert ["p", 2, 80, 0, 1.0, -1.999999] in cells
    near_edge = [c for c in cells if min(abs(c[5] - b) for b in workloads.momentum_interval(c[1], c[3])) < 1e-6]
    assert len(near_edge) >= workloads.FLOAT_CELLS * workloads.EDGE_SHARE
    assert max(c[2] for c in cells) > 100


# ---- reference ----------------------------------------------------------

def _ref(space, D, n, l, Z, alpha, digits=30):
    return reference.moment(space, D, n, l, Z, alpha, digits)


def test_reference_reproduces_known_values():
    with mp.workdps(40):
        assert abs(_ref("p", 3, 1, 0, 1.0, 1) - 8 / (3 * pi)) < mpf(10) ** -30
        assert abs(_ref("r", 3, 1, 0, 2.0, 1) - mpf(3) / 4) < mpf(10) ** -30
        assert abs(_ref("r", 3, 2, 1, 1.0, 1) - 5) < mpf(10) ** -30
        # <p^2> = Z^2 / eta^2, here eta = n + (D-3)/2 = 7/2
        assert abs(_ref("p", 4, 3, 1, 1.5, 2) - mpf(1.5) ** 2 / mpf(3.5) ** 2) < mpf(10) ** -30
        for space in ("r", "p"):
            assert abs(_ref(space, 5, 7, 2, 1.0, 0) - 1) < mpf(10) ** -30


def test_reference_real_order_matches_ground_state_closed_form():
    # <r^a> of the ground state: ((D-1)/(4Z))^a Gamma(D+a)/Gamma(D)
    import mpmath

    D, Z, a = 4, 1.25, 0.37
    with mp.workdps(40):
        want = (mpf(D - 1) / (4 * mpf(Z))) ** a * mpmath.gamma(D + mpf(a)) / mpmath.gamma(D)
        assert abs(_ref("r", D, 1, 0, Z, a) / want - 1) < mpf(10) ** -25


def test_reference_settles_on_large_n_with_cancellation():
    value = reference.moment("p", 2, 80, 0, 1.0, -1.999999, reference.FLOAT_REF_DIGITS)
    assert value > 0


# ---- checks -------------------------------------------------------------

def test_check_exact_values():
    cell = ["p", 3, 1, 0, 1.0, 1]
    with mp.workdps(60):
        ref = _ref(*cell, digits=45)
    assert not reference.check(cell, ["x", "8", "3", "-1", "1", "single_sum"], ref).failed
    bad = reference.check(cell, ["x", "8", "3", "-1", "2", "single_sum"], ref)
    assert bad.failed and bad.wrong


def test_check_float_bound_and_exceptions():
    cell = ["r", 3, 1, 0, 1.0, 0.5]
    ref = _ref(*cell, digits=20)
    value = float(ref) * (1 + 1e-12)
    ok = reference.check(cell, ["f", value, 1e-11 * value, "hyp3f2"], ref)
    assert not ok.failed and 11 < ok.digits < 13 and ok.err_over_bound < 1
    over = reference.check(cell, ["f", value, 1e-13 * value, "hyp3f2"], ref)
    assert over.failed and not over.wrong and over.err_over_bound > 1
    raised = reference.check(cell, ["e", "OverflowError", False, False], ref)
    assert raised.failed and not raised.wrong


def test_check_out_of_domain_cells():
    cell = ["p", 3, 1, 0, 1.0, 5]
    assert not reference.check(cell, ["e", "OrderOutOfDomain", True, True], None).failed
    assert reference.check(cell, ["x", "1", "1", "0", "1", "single_sum"], None).wrong
    assert reference.check(cell, ["e", "ValueError", False, False], None).wrong


# ---- span arithmetic ----------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_children():
    # A [0, 10] contains B [1, 4] (which contains C [2, 3]) and B [5, 7]
    tracer = spans.Tracer(FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    a = tracer.enter()
    b = tracer.enter()
    c = tracer.enter()
    assert tracer.exit(c, "C") == (1, 1)
    assert tracer.exit(b, "B") == (3, 2)
    b = tracer.enter()
    assert tracer.exit(b, "B") == (2, 2)
    assert tracer.exit(a, "A") == (10, 5)
    totals = tracer.totals()
    assert totals == {"A": [1, 5], "B": [2, 4], "C": [1, 1]}
    assert tracer.roots() == [(0, 10)]


def test_speed_probe_scales_near_probes_and_skips_probe_time():
    import worker

    # probes over [0, 0.008], [0.1, 0.104] and [1.0, 1.004]
    probe = worker.SpeedProbe(FakeClock([0, 0.008]))
    probe.clock = FakeClock([0.1, 0.104, 1.0, 1.004])
    probe.probe()
    probe.probe()
    scale = 2 * worker.PROBE_REF_S / (0.008 + 0.004)
    assert probe.reference_seconds(0.05, 0.102) == pytest.approx(0.05 * scale)
    assert probe.reference_seconds(0.104, 1.0) == pytest.approx(0.896)  # gap too long to scale
    assert probe.reference_seconds(0.05, 0.5) == pytest.approx(0.05 * scale + 0.396)


def test_union_length_merges_overlaps_and_clips():
    intervals = [(0, 2), (1, 3), (5, 6), (5.5, 8), (9, 20)]
    assert spans.union_length(intervals, 0, 10) == 3 + 3 + 1
    assert spans.union_length(intervals, 1.5, 5.5) == 1.5 + 0.5
    assert spans.union_length([], 0, 1) == 0


def test_log_slope():
    assert spans.log_slope([(k, 3e-6 * k ** 2) for k in range(10, 40)]) == pytest.approx(2)
    assert spans.log_slope([(12, 1.0)]) == 0.0


def test_weighted_quantile():
    pairs = [(5.0, 1), (1.0, 98), (3.0, 1)]
    assert run.weighted_quantile(pairs, 0.5) == 1.0
    assert run.weighted_quantile(pairs, 0.99) == 3.0
    assert run.weighted_quantile(pairs, 1.0) == 5.0


# ---- tracer coverage ----------------------------------------------------

def _worker(job):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_round_covers_imported_names():
    cells = [["p", 3, 15, 1, 1.0, 3], ["r", 3, 15, 1, 1.0, 2], ["p", 3, 9, 0, 1.0, 0.5], ["r", 4, 3, 1, 1.0, 1.5]]
    traced = _worker({"kind": "cells", "cells": cells, "trace": 1})
    plain = _worker({"kind": "cells", "cells": cells, "trace": 0})
    assert traced["outputs"] == plain["outputs"]
    lm = traced["layers"]
    assert lm["momom.p_moment.single.exact.calls"] == 1
    assert lm["momom.p_moment.float.calls"] == 1
    assert lm["posmom.r_moment.exact.calls"] == 1
    assert lm["posmom.r_moment.float.calls"] == 1
    # reached only through names imported into momom / posmom
    assert lm["specfun.pochhammer.calls"] > 0
    assert lm["specfun.gamma_exact.calls"] > 0
    assert lm["specfun.hyp_sum.exact.calls"] == 1
    assert lm["specfun.hyp_sum.float.calls"] >= 1
    assert lm["states.make_state.calls"] == len(cells)
    assert 0 < lm["momom.p_moment.single.exact.self_s"] < traced["busy_s"]


def test_coverage_guard_names_missing_layers():
    counts = {f"{c}.calls": 1 for c in layers.EXPECTED_CALLS}
    assert run.coverage_errors("cli_verify", counts) == []
    counts["momom.reflect.calls"] = 0
    assert run.coverage_errors("cli_verify", counts) == ["momom.reflect.calls recorded no calls on cli_verify"]
    assert run.coverage_errors("exact_grid", counts) == []


# ---- BENCHMARK.json -----------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.per_layer()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(math.isfinite(m["bound"]) for m in spec["end_to_end"])
