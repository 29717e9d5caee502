"""The benchmark's metrics and the reasoning that links them.

END_TO_END lists what a user sees; `per_layer()` what the traced run
records per module.  EXPECTED_CALLS says on which workloads each counter
must record calls (the coverage guard fails the run when one records none).
LAYERS groups the counters and says which end-to-end metric each group
should move on which workload ("metric@workload"), and which it should
leave unchanged.

End-to-end times are in reference seconds (see worker.SpeedProbe), as are
trace.ops_per_s and trace.untraced_ops_per_s; the per-layer self times are
wall-clock seconds of the traced rounds.
"""

from __future__ import annotations

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_p99", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
    ("digits_p1", "digits", "higher"),
)

ALL = ("exact_grid", "float_grid", "cli_verify")

# counter prefix -> workloads on which it must record at least one call
EXPECTED_CALLS = {
    "specfun.gamma_exact": ("exact_grid", "cli_verify"),
    "specfun.pochhammer": ALL,
    "specfun.hyp_sum.exact": ("exact_grid", "cli_verify"),
    "specfun.hyp_sum.float": ("float_grid", "cli_verify"),
    "momom.p_moment.single.exact": ("exact_grid", "cli_verify"),
    "momom.p_moment.hyp5f4.exact": ("cli_verify",),
    "momom.p_moment.double.exact": ("cli_verify",),
    "momom.p_moment.float": ("float_grid", "cli_verify"),
    "momom.reflect": ("cli_verify",),
    "posmom.r_moment.exact": ("exact_grid",),
    "posmom.r_moment.float": ("float_grid", "cli_verify"),
    "oracle.quad_p_moment": ("float_grid", "cli_verify"),
    "oracle.quad_r_moment": ("float_grid", "cli_verify"),
    "oracle.gauss_jacobi": ("float_grid", "cli_verify"),
    "oracle.gegenbauer_orthonormal": ("float_grid", "cli_verify"),
    "oracle.entropic_moment": ("cli_verify",),
    "states.make_state": ALL,
    "asympt": ("cli_verify",),
    "uncertainty": ("cli_verify",),
    "cli": ("cli_verify",),
}

LAYERS = (
    {
        "layer": "specfun",
        "counters": ("specfun.gamma_exact", "specfun.pochhammer", "specfun.hyp_sum.exact", "specfun.hyp_sum.float"),
        "extra": ("specfun.hyp_sum.exact.terms", "specfun.hyp_sum.float.terms", "specfun.hyp_sum.exact.k_slope"),
        "moves": ("ops_per_s@exact_grid", "op_ms_p99@exact_grid", "peak_rss_mb@exact_grid (gamma cache)"),
        "holds": ("ops_per_s@float_grid",),
    },
    {
        "layer": "momom exact routes",
        "counters": ("momom.p_moment.single.exact", "momom.p_moment.hyp5f4.exact", "momom.p_moment.double.exact"),
        "extra": ("momom.p_moment.single.exact.k_slope",),
        "moves": ("ops_per_s@exact_grid", "op_ms_p99@exact_grid (single)", "ops_per_s@cli_verify (double)"),
        "holds": ("ops_per_s@float_grid",),
    },
    {
        "layer": "momom float path and reflection",
        "counters": ("momom.p_moment.float", "momom.reflect"),
        "extra": ("momom.fallback_frac", "momom.wasted_s"),
        "moves": ("ops_per_s@float_grid", "op_ms_p50@float_grid"),
        "holds": ("ops_per_s@exact_grid",),
    },
    {
        "layer": "posmom",
        "counters": ("posmom.r_moment.exact", "posmom.r_moment.float"),
        "extra": ("posmom.fallback_frac", "posmom.wasted_s"),
        "moves": ("ops_per_s@exact_grid (small share)", "ops_per_s@float_grid"),
        "holds": (),
    },
    {
        "layer": "oracle",
        "counters": tuple(f"oracle.{f}" for f in (
            "quad_p_moment", "quad_r_moment", "gauss_jacobi", "gegenbauer_orthonormal", "entropic_moment")),
        "extra": (),
        "moves": ("ops_per_s@float_grid", "digits_p1@float_grid", "ok_frac@float_grid", "ops_per_s@cli_verify"),
        "holds": ("ops_per_s@exact_grid (no oracle calls)",),
    },
    {
        "layer": "states, asympt, uncertainty, cli",
        "counters": ("states.make_state", "asympt", "uncertainty"),
        "extra": ("cli.self_s", "cli.bytes_out"),
        "moves": ("ops_per_s@cli_verify",),
        "holds": ("ops_per_s@exact_grid", "ops_per_s@float_grid"),
    },
    {
        "layer": "tracing itself",
        "counters": (),
        "extra": ("trace.ops_per_s", "trace.untraced_ops_per_s", "trace.slowdown"),
        "moves": (),
        "holds": (),
    },
)


_UNITS = {
    "calls": ("count", "lower"),
    "terms": ("count", "lower"),
    "self_s": ("s", "lower"),
    "wasted_s": ("s", "lower"),
    "k_slope": ("slope", "lower"),
    "fallback_frac": ("frac", "lower"),
    "bytes_out": ("bytes", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "untraced_ops_per_s": ("1/s", "higher"),
    "slowdown": ("x", "lower"),
}


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for group in LAYERS:
        for counter in group["counters"]:
            names += [f"{counter}.calls", f"{counter}.self_s"]
        names += list(group["extra"])
    return [(name, *_UNITS[name.rsplit(".", 1)[-1]]) for name in names]
