"""One round of a workload, in a fresh interpreter.

Reads a JSON job on stdin and writes one JSON object on stdout.  Jobs:

  {"kind": "setup"}                                 `import hydromoments` plus a first p_moment call
  {"kind": "cells", "cells": [...], "trace": 0|1}   closed loop over library calls
  {"kind": "cli", "argv": [...], "trace": 0|1}      one in-process cli.main call, stdout captured

Times are reported in reference seconds (see `SpeedProbe`).  Every round
reports the process's peak RSS; traced rounds add per-layer metrics from
`spans`.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

# The probe's duration on an unloaded 2-CPU sandbox; times are scaled so the
# probe would take exactly this long.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.1
# A probe speaks only for time near it: a longer gap between two probes
# stays wall-clock.
PROBE_GAP_MAX_S = 0.5
SETUP_PROBE_REPEATS = 5


def _probe_kernel():
    """A fixed mix of int, Fraction and float work, like the library's."""
    s, f, x = 0, Fraction(1, 3), 1.0
    for i in range(1, 600):
        s += (i * i) % 7
        f = (f * (i % 5 + 1) + 1) / (i % 3 + 2)
        x = x * 1.0000001 + i * 0.5
    return s, f, x


class SpeedProbe:
    """Tracks the machine's speed while a round runs.

    The CPU speed a shared machine gives one process drifts by tens of
    percent over seconds.  The probe times `_probe_kernel` about every
    PROBE_EVERY_S; the time between two probes is scaled by PROBE_REF_S
    over their mean duration, and time spent probing is left out.  Library
    code slowed by the machine is slowed like the kernel, so scaled times
    drift far less than wall times.  Where no probe ran for a while, time
    stays wall-clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.probe()

    def probe(self):
        t0 = self.clock()
        _probe_kernel()
        t1 = self.clock()
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def maybe_probe(self):
        if self.clock() - self.ends[-1] > PROBE_EVERY_S:
            self.probe()

    def reference_seconds(self, start: float, end: float) -> float:
        """Scaled length of [start, end], which must lie between the first
        and the last probe."""
        total = 0.0
        i = max(0, bisect.bisect_right(self.ends, start) - 1)
        while i + 1 < len(self.starts) and self.ends[i] < end:
            lo, hi = max(start, self.ends[i]), min(end, self.starts[i + 1])
            if hi > lo:
                scale = 1.0
                if self.starts[i + 1] - self.ends[i] <= PROBE_GAP_MAX_S:
                    scale = 2 * PROBE_REF_S / (self.durations[i] + self.durations[i + 1])
                total += (hi - lo) * scale
            i += 1
        return total


def _setup() -> dict:
    """Import plus a first call, scaled by the median of SETUP_PROBE_REPEATS
    probes taken before and as many after: one probe on each side of a
    single interval is too noisy to scale it."""
    probe = SpeedProbe()
    for _ in range(SETUP_PROBE_REPEATS - 1):
        probe.probe()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import hydromoments

    hydromoments.p_moment(hydromoments.make_state(3, 2, 1, 1.0), 1)
    t1 = time.perf_counter()
    for _ in range(SETUP_PROBE_REPEATS):
        probe.probe()
    return {"setup_s": (t1 - t0) * PROBE_REF_S / statistics.median(probe.durations)}


def encode(result, exact_type) -> list:
    value = result.value
    if isinstance(value, exact_type):
        c, p = value.coeff, value.pi_pow
        return ["x", str(c.numerator), str(c.denominator), str(p.numerator), str(p.denominator), result.method.value]
    return ["f", float(value), float(result.error_estimate), result.method.value]


def run_cells(hm, cells) -> dict:
    """Closed loop: each call starts after the previous one returns.  Only
    the moment call itself is timed; states are built beforehand."""
    from hydromoments.errors import HydromomentsError, OrderOutOfDomain

    p_moment, r_moment, make_state = hm.p_moment, hm.r_moment, hm.make_state
    states = [make_state(D, n, l, Z) for _, D, n, l, Z, _ in cells]
    clock = time.perf_counter
    spans, outputs = [], []
    probe = SpeedProbe(clock)
    for (space, *_, alpha), state in zip(cells, states):
        fn = p_moment if space == "p" else r_moment
        t0 = clock()
        try:
            result = fn(state, alpha)
        except Exception as exc:  # every failure is recorded and checked by the caller
            t1 = clock()
            outputs.append(["e", type(exc).__name__, isinstance(exc, HydromomentsError), isinstance(exc, OrderOutOfDomain)])
        else:
            t1 = clock()
            outputs.append(encode(result, hm.ExactValue))
        spans.append((t0, t1))
        probe.maybe_probe()
    probe.probe()
    latencies = [probe.reference_seconds(t0, t1) for t0, t1 in spans]
    return {
        "busy_s": sum(latencies),
        "wall_busy_s": sum(t1 - t0 for t0, t1 in spans),
        "latencies": latencies,
        "outputs": outputs,
    }


class _StampedOutput(io.StringIO):
    """Captured stdout that remembers when each line was completed."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.stamps = []

    def write(self, s):
        n = super().write(s)
        for _ in range(s.count("\n")):
            self.stamps.append(self.clock())
        return n


def run_cli(hm, argv) -> dict:
    """One cli.main call with stdout captured.  The time of each printed
    line bounds the work before it (for `verify`, one suite per line).

    p_moment is wrapped wherever cli reaches it, so the speed probe can run
    between its calls; only on the main thread, since in a pool thread
    another thread would take the interpreter lock during the probe.
    """
    from hydromoments import cli
    import spans

    clock = time.perf_counter
    probe = SpeedProbe(clock)
    p_moment = hm.p_moment
    main_thread = threading.get_ident()

    def probing_p_moment(*args, **kwargs):
        try:
            return p_moment(*args, **kwargs)
        finally:
            if threading.get_ident() == main_thread:
                probe.maybe_probe()

    spans.replace_everywhere(p_moment, probing_p_moment)
    buf = _StampedOutput(clock)
    t0 = clock()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    t1 = clock()
    probe.probe()
    stamps = [t0] + buf.stamps
    text = buf.getvalue()
    return {
        "busy_s": probe.reference_seconds(t0, t1),
        "wall_busy_s": t1 - t0,
        "exit_code": code,
        "stdout": text,
        "line_s": [probe.reference_seconds(a, b) for a, b in zip(stamps, stamps[1:])],
        "bytes_out": len(text.encode()),
    }


def main() -> int:
    job = json.load(sys.stdin)
    if job["kind"] == "setup":
        out = _setup()
    else:
        sys.path.insert(0, SRC)
        import hydromoments as hm
        import spans

        tracer = None
        if job.get("trace"):
            tracer = spans.Tracer()
            spans.install(tracer)
        if job["kind"] == "cells":
            out = run_cells(hm, job["cells"])
        else:
            out = run_cli(hm, job["argv"])
        if tracer is not None:
            out["layers"] = spans.report(tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
