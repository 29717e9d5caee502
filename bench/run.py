"""hydromoments benchmark: speed and accuracy in one command.

    python3 bench/run.py --workload exact_grid --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``).  The parent process makes the workload's inputs from the seed,
computes their mpmath references, and then runs rounds, each in a fresh
interpreter (`worker.py`) so the library's process-level caches start cold:
a closed loop with one caller.  Rounds repeat until ``--seconds`` is spent.
Each call, suite or row is timed by its median over the rounds, in
reference seconds: wall time scaled by a speed probe that tracks how fast
the shared machine is running (`worker.SpeedProbe`).  Every output is
checked against the reference, and the rounds must agree with each other.

``--trace 0`` prints the end-to-end metrics of `layers.END_TO_END`.
``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of `layers.per_layer()`, and fails when a layer expected
on the workload recorded no calls.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines above it are a readable report and
a JSON line with the run's details (sample counts, failure reasons,
versions, the layer map).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
MIN_ROUNDS = 3
RUN_LIMIT_S = 170.0       # the whole run, references included, must end before this
# One caller and no hidden threads: numpy's BLAS pool would otherwise spin
# up a thread per CPU at import and compete with the caller.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
VERIFY_LINE = re.compile(r"^(\w+): (PASS|FAIL) \((\d+) checks, (\d+) failures, worst deviation (\S+)\)$")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
    }


def quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def weighted_quantile(pairs, q: float) -> float:
    """Nearest-rank quantile of values given as (value, multiplicity)."""
    pairs = sorted(pairs)
    rank = max(1, math.ceil(q * sum(w for _, w in pairs)))
    seen = 0
    for value, weight in pairs:
        seen += weight
        if seen >= rank:
            return value
    return pairs[-1][0]


def run_worker(job: dict, deadline: float) -> dict:
    """Run one worker.py job in a fresh interpreter; it is killed if it
    runs past `deadline` (a time.monotonic() value)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before a round could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=ROOT, env={**os.environ, **WORKER_ENV}, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the time limit ({job['kind']})") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout)


def round_job(workload: str, cells, trace: bool) -> dict:
    if workload == "cli_verify":
        return {"kind": "cli", "argv": list(workloads.VERIFY_ARGV), "trace": trace}
    return {"kind": "cells", "cells": cells, "trace": trace}


def run_rounds(workload: str, cells, seconds: float, traced: bool, deadline: float):
    """Rounds until `seconds` is spent: at least MIN_ROUNDS untraced rounds,
    or with `traced` one untraced and one traced round alternating.  In an
    untraced run each round follows a set-up probe, so the probes are
    spread over the run like the rounds."""
    plain, with_trace, setup = [], [], []
    start = time.monotonic()
    while True:
        if not traced:
            setup.append(run_worker({"kind": "setup"}, deadline)["setup_s"])
        for trace in ((False, True) if traced else (False,)):
            (with_trace if trace else plain).append(run_worker(round_job(workload, cells, trace), deadline))
        elapsed = time.monotonic() - start
        per_step = elapsed / len(plain)
        enough = len(plain) >= (1 if traced else MIN_ROUNDS)
        if enough and elapsed + per_step > seconds:
            break
    while not traced and len(setup) < SETUP_PROBES:
        setup.append(run_worker({"kind": "setup"}, deadline)["setup_s"])
    return plain, with_trace, setup


# ---- checking -----------------------------------------------------------

def verify_summary(out: dict) -> dict:
    """Checks, failures and per-suite times of one `verify` round, from its
    printed summary lines and their timestamps.  Its accuracy is the worst
    series-against-quadrature deviation that the oracle suite prints."""
    suites = []          # (name, status, checks, failures, worst deviation, seconds)
    for line, seconds in zip(out["stdout"].splitlines(), out["line_s"]):
        m = VERIFY_LINE.match(line)
        if m:
            name, status, checks, fails, worst = m.groups()
            suites.append((name, status, int(checks), int(fails), float(worst), seconds))
    if not suites:
        raise BenchError("verify printed no suite summaries")
    oracle = [s for s in suites if s[0] == "oracle"]
    if not oracle:
        raise BenchError("verify printed no oracle suite")
    worst = oracle[0][4]
    return {
        "attempted": sum(s[2] for s in suites),
        "failed": sum(s[3] for s in suites),
        "any_fail": any(s[1] == "FAIL" for s in suites) or out["exit_code"] != 0,
        "digits": 17.0 if worst == 0 else min(17.0, -math.log10(worst)),
        "rel_err_max": worst,
        "suites": [(name, checks, dur) for name, _, checks, _, _, dur in suites],
    }


# ---- metrics ------------------------------------------------------------

def timing(workload: str, rounds: list, ops: int) -> dict:
    """ops_per_s, op_ms_p50, op_ms_p99 and peak_rss_mb over rounds.

    Each library call or verify suite is timed by its median over the
    rounds, so a burst of machine noise during one round does not move the
    result.  Library throughput is calls over the summed call medians;
    verify's is checks over the summed suite medians, and each check gets
    its suite's time per check as its latency.
    """
    rss = statistics.median(r["peak_rss_mb"] for r in rounds)
    if workload == "cli_verify":
        runs = [verify_summary(r)["suites"] for r in rounds]
        per_suite = [(statistics.median(run[i][2] for run in runs), checks)
                     for i, (_, checks, _) in enumerate(runs[0])]
        busy = sum(d for d, _ in per_suite)
        pairs = [(d / checks, checks) for d, checks in per_suite if checks]
        p50, p99 = weighted_quantile(pairs, 0.5), weighted_quantile(pairs, 0.99)
    else:
        lat = sorted(statistics.median(call) for call in zip(*(r["latencies"] for r in rounds)))
        busy = sum(lat)
        p50, p99 = quantile(lat, 0.5), quantile(lat, 0.99)
    return {"ops_per_s": ops / busy, "op_ms_p50": p50 * 1e3, "op_ms_p99": p99 * 1e3, "peak_rss_mb": rss}


def median_dict(dicts: list) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def same_outputs(a: dict, b: dict) -> bool:
    key = "outputs" if "outputs" in a else "stdout"
    return a[key] == b[key]


def evaluate(workload, cells, refs, rounds) -> dict:
    """Correctness of the first round, and agreement of all rounds."""
    first = rounds[0]
    reasons: dict = {}
    if workload == "cli_verify":
        s = verify_summary(first)
        attempted, failed, wrong = s["attempted"], s["failed"], s["any_fail"]
        if wrong:
            failed = max(failed, 1)
            reasons["verify FAIL or nonzero exit"] = failed
        digits, rel_max, eob_max = s["digits"], s["rel_err_max"], None
    else:
        if len(first["outputs"]) != len(cells):
            raise BenchError(f"worker returned {len(first['outputs'])} outputs for {len(cells)} cells")
        verdicts = [reference.check(c, o, r) for c, o, r in zip(cells, first["outputs"], refs)]
        attempted = len(verdicts)
        failed = sum(v.failed for v in verdicts)
        wrong = any(v.wrong for v in verdicts)
        for cell, v in zip(cells, verdicts):
            if v.failed:
                entry = reasons.setdefault(v.why, {"count": 0, "first": cell})
                entry["count"] += 1
        digits = sorted(v.digits for v in verdicts if v.digits is not None)
        if not digits:
            raise BenchError("no output could be checked")
        digits = quantile(digits, 0.01)
        rel_max = max((v.rel_err for v in verdicts if v.err_over_bound is not None), default=None)
        eob_max = max((v.err_over_bound for v in verdicts if v.err_over_bound is not None), default=None)
    deterministic = all(same_outputs(first, r) for r in rounds[1:])
    if not deterministic:
        wrong = True
        reasons["rounds disagree"] = len(rounds)
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        "digits_p1": digits,
        "rel_err_max": rel_max,
        "err_over_bound_max": eob_max,
        "reasons": reasons,
    }


def _json_number(x):
    return x if x is None or math.isfinite(x) else str(x)


def coverage_errors(workload: str, layer_metrics: dict) -> list:
    return [
        f"{counter}.calls recorded no calls on {workload}"
        for counter, expected in layers.EXPECTED_CALLS.items()
        if workload in expected and not layer_metrics.get(f"{counter}.calls")
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "hydromoments", "__init__.py")):
        print(f"error: no hydromoments sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # SystemExit inside subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t_start = time.monotonic()
    try:
        cells = workloads.cells_for(args.workload, args.seed)
        t_ref = time.monotonic()
        refs = reference.references(cells)
        ref_s = time.monotonic() - t_ref

        plain, traced, setup = run_rounds(args.workload, cells, args.seconds, bool(args.trace), t_start + RUN_LIMIT_S)
        result = evaluate(args.workload, cells, refs, plain + traced)
        ops = result["attempted"]
        values = timing(args.workload, plain, ops)

        if args.trace:
            lm = median_dict([dict(r["layers"], **{"cli.bytes_out": r.get("bytes_out", 0)}) for r in traced])
            lm["trace.ops_per_s"] = timing(args.workload, traced, ops)["ops_per_s"]
            lm["trace.untraced_ops_per_s"] = values["ops_per_s"]
            lm["trace.slowdown"] = values["ops_per_s"] / lm["trace.ops_per_s"]
            errors = coverage_errors(args.workload, lm)
            if errors:
                raise BenchError("coverage guard: " + "; ".join(errors))
            metrics = {name: {"value": lm[name], "unit": unit} for name, unit, _ in layers.per_layer()}
        else:
            values["setup_s"] = statistics.median(setup)
            values["ok_frac"] = 1 - result["failed"] / result["attempted"]
            values["digits_p1"] = result["digits_p1"]
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    failed_frac = result["failed"] / result["attempted"]
    accuracy = {
        "failed_frac": (failed_frac, "frac"),
        "rel_err_max": (result["rel_err_max"], "1"),
        "err_over_bound_max": (result["err_over_bound_max"], "x"),
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced + {len(traced)} traced rounds, {len(setup)} setup probes  "
          f"references {ref_s:.2f} s  wall {time.monotonic() - t_start:.1f} s")
    print(f"  failed {result['failed']} of {result['attempted']} operations")
    for name, (value, unit) in accuracy.items():
        print(f"  {name:40s} {'n/a' if value is None else format(value, '.6g')} {unit}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": {"untraced": len(plain), "traced": len(traced), "setup_probes": len(setup)},
        "wall_clock_ops_per_s": ops / statistics.median(r["wall_busy_s"] for r in plain),
        "accuracy": {name: _json_number(value) for name, (value, _) in accuracy.items()},
        "failures": result["reasons"],
        "env": environment(),
        "layers": layers.LAYERS,
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
