"""Outside-in tracing of the hydromoments modules.

`install` replaces the modules' public functions, in the benchmark's own
process, with wrappers that record a span per call; the library source is
not touched.  A function is replaced under every name that refers to it in
any loaded hydromoments module, so names imported into other modules
(``momom.hyp_sum``, ``uncertainty.p_moment`` ...) are covered too.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated as they close (calls, self time, and per-key extras),
so memory does not grow with the call count.  Each thread has its own span
stack; the outermost span intervals of every thread are kept so that the
CLI's own time can be computed as its span minus their union.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
import time
from fractions import Fraction

import layers

K_SLOPE_MIN_K = 10


class _ThreadState:
    __slots__ = ("stack", "stats", "roots", "samples")

    def __init__(self):
        self.stack = []      # [start, time covered by children]
        self.stats = {}      # key -> [calls, self_s]
        self.roots = []      # (start, end) of outermost spans
        self.samples = {}    # key -> [(k, duration)] for slope fits


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.cli_spans: list[tuple[float, float]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def enter(self) -> _ThreadState:
        st = self._state()
        st.stack.append([self.clock(), 0.0])
        return st

    def exit(self, st: _ThreadState, key: str) -> tuple[float, float]:
        """Close the innermost open span under `key`; returns (duration, self time)."""
        end = self.clock()
        start, covered = st.stack.pop()
        duration = end - start
        self_s = duration - covered
        if st.stack:
            st.stack[-1][1] += duration
        else:
            st.roots.append((start, end))
        rec = st.stats.get(key)
        if rec is None:
            rec = st.stats[key] = [0, 0.0]
        rec[0] += 1
        rec[1] += self_s
        return duration, self_s

    def add(self, st: _ThreadState, key: str, amount: float):
        rec = st.stats.get(key)
        if rec is None:
            rec = st.stats[key] = [0, 0.0]
        rec[1] += amount

    def sample(self, st: _ThreadState, key: str, k: int, duration: float):
        if k >= K_SLOPE_MIN_K:
            st.samples.setdefault(key, []).append((k, duration))

    def totals(self) -> dict:
        """key -> [calls, summed value] over all threads."""
        out: dict = {}
        for st in self._threads:
            for key, (calls, value) in st.stats.items():
                rec = out.setdefault(key, [0, 0.0])
                rec[0] += calls
                rec[1] += value
        return out

    def samples(self, key: str) -> list:
        return [s for st in self._threads for s in st.samples.get(key, ())]

    def roots(self) -> list:
        return [r for st in self._threads for r in st.roots]


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def log_slope(samples) -> float:
    """Least-squares slope of log(duration) against log(k); 0.0 when fewer
    than two distinct k are present."""
    pts = [(math.log(k), math.log(t)) for k, t in samples if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx


def _integral(x) -> bool:
    if isinstance(x, int):
        return True
    if isinstance(x, Fraction):
        return x.denominator == 1
    if isinstance(x, float):
        return x.is_integer()
    return False


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _resolved_mode(args, kwargs) -> str:
    mode = _arg(args, kwargs, 2, "mode", "auto")
    if mode == "auto":
        return "exact" if _integral(_arg(args, kwargs, 1, "alpha", None)) else "float"
    return "exact" if mode == "exact" else "float"


def _fell_back(result) -> bool:
    method = getattr(result, "method", None)
    return getattr(method, "value", None) == "quadrature"


def _wrap_simple(tracer, fn, key):
    def wrapper(*args, **kwargs):
        st = tracer.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(st, key)
    return wrapper


def _wrap_hyp_sum(tracer, fn):
    def wrapper(spec, mode="exact", *args, **kwargs):
        key = "specfun.hyp_sum.exact" if mode == "exact" else "specfun.hyp_sum.float"
        st = tracer.enter()
        try:
            return fn(spec, mode, *args, **kwargs)
        finally:
            duration, _ = tracer.exit(st, key)
            tracer.add(st, key + ".terms", spec.terms)
            if mode == "exact":
                tracer.sample(st, key, spec.terms - 1, duration)
    return wrapper


def _wrap_moment(tracer, fn, module, route_aware):
    """p_moment / r_moment: split by mode (and route), count fallbacks to
    quadrature and the self time those float attempts wasted."""
    def wrapper(*args, **kwargs):
        mode = _resolved_mode(args, kwargs)
        if mode == "exact":
            route = _arg(args, kwargs, 3, "route", "single") if route_aware else None
            key = f"{module}.{'p_moment.' + route if route_aware else 'r_moment'}.exact"
        else:
            key = f"{module}.{'p_moment' if route_aware else 'r_moment'}.float"
        st = tracer.enter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            duration, self_s = tracer.exit(st, key)
            if mode == "exact":
                if route_aware:
                    state = _arg(args, kwargs, 0, "state", None)
                    tracer.sample(st, key, state.n - state.l - 1, duration)
            elif _fell_back(result):
                tracer.add(st, f"{module}.fallbacks", 1)
                tracer.add(st, f"{module}.wasted_s", self_s)
    return wrapper


def _wrap_cli_main(tracer, fn):
    def wrapper(*args, **kwargs):
        start = tracer.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.cli_spans.append((start, tracer.clock()))
    return wrapper


ORACLE_FUNCTIONS = ("quad_p_moment", "quad_r_moment", "gauss_jacobi", "gegenbauer_orthonormal", "entropic_moment")
GROUPED_MODULES = ("asympt", "uncertainty")


def hydromoments_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "hydromoments" or name.startswith("hydromoments.")]


def replace_everywhere(original, replacement):
    """Rebind every hydromoments module attribute that is `original`."""
    for module in hydromoments_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def _function(module, name):
    fn = getattr(module, name, None)
    if not callable(fn):
        raise LookupError(f"traced function {module.__name__}.{name} not found")
    return fn


def install(tracer: Tracer):
    """Wrap the traced functions of the hydromoments package; raises
    LookupError when one of them no longer exists."""
    import hydromoments.cli  # noqa: F401  (the package imports every other module)

    mods = {m.__name__.rsplit(".", 1)[-1]: m for m in hydromoments_modules()}
    plan = [
        ("specfun", "gamma_exact", lambda f: _wrap_simple(tracer, f, "specfun.gamma_exact")),
        ("specfun", "pochhammer", lambda f: _wrap_simple(tracer, f, "specfun.pochhammer")),
        ("specfun", "hyp_sum", lambda f: _wrap_hyp_sum(tracer, f)),
        ("momom", "p_moment", lambda f: _wrap_moment(tracer, f, "momom", True)),
        ("momom", "reflect", lambda f: _wrap_simple(tracer, f, "momom.reflect")),
        ("posmom", "r_moment", lambda f: _wrap_moment(tracer, f, "posmom", False)),
        ("states", "make_state", lambda f: _wrap_simple(tracer, f, "states.make_state")),
        ("cli", "main", lambda f: _wrap_cli_main(tracer, f)),
    ]
    plan += [("oracle", name, lambda f, key=f"oracle.{name}": _wrap_simple(tracer, f, key)) for name in ORACLE_FUNCTIONS]
    for group in GROUPED_MODULES:
        module = mods[group]
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                plan.append((group, name, lambda f, key=group: _wrap_simple(tracer, f, key)))
    for module_name, name, make in plan:
        original = _function(mods[module_name], name)
        replace_everywhere(original, make(original))


def report(tracer: Tracer) -> dict:
    """Flat per-layer metrics from the recorded spans."""
    totals = tracer.totals()

    def calls(key):
        return totals.get(key, (0, 0.0))[0]

    def value(key):
        return totals.get(key, (0, 0.0))[1]

    out = {}
    for group in layers.LAYERS:
        for key in group["counters"]:
            out[f"{key}.calls"] = calls(key)
            out[f"{key}.self_s"] = value(key)
    for key in ("specfun.hyp_sum.exact", "specfun.hyp_sum.float"):
        out[f"{key}.terms"] = int(value(f"{key}.terms"))
    out["specfun.hyp_sum.exact.k_slope"] = log_slope(tracer.samples("specfun.hyp_sum.exact"))
    out["momom.p_moment.single.exact.k_slope"] = log_slope(tracer.samples("momom.p_moment.single.exact"))
    for module, fn in (("momom", "p_moment"), ("posmom", "r_moment")):
        attempts = calls(f"{module}.{fn}.float")
        out[f"{module}.fallback_frac"] = value(f"{module}.fallbacks") / attempts if attempts else 0.0
        out[f"{module}.wasted_s"] = value(f"{module}.wasted_s")
    cli_total = sum(end - start for start, end in tracer.cli_spans)
    covered = sum(union_length(tracer.roots(), start, end) for start, end in tracer.cli_spans)
    out["cli.calls"] = len(tracer.cli_spans)
    out["cli.self_s"] = cli_total - covered
    return out
