"""Command-line interface.

Subcommands: compute (single values), table (grid sweeps), verify
(cross-route / oracle / inequality suites), limits (asymptotic comparisons).
JSON output is deterministic: fixed field order and 17-significant-digit
floats so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import asympt, momom, oracle, posmom, verify
from .errors import (
    DimensionTooSmall, HydromomentsError, NonpositiveCharge, OrderOutOfDomain, ParameterOutOfRange,
    QuantumNumberOutOfRange, UnsupportedArgument,
)
from .posmom import MomentResult
from .specfun import ExactValue, fraction_str, int_str
from .states import HydrogenicState, Space, make_state

SCHEMA_VERSION = "hydromoments/1"

CSV_COLUMNS = [
    "D", "n", "l", "Z", "space", "alpha", "mode",
    "value_decimal", "value_exact_coeff", "value_exact_pipow",
    "error_bound", "status",
]

EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3

# invalid input: every command exits EXIT_DOMAIN, and a table cell is out-of-domain;
# OrderOutOfRegime is an OrderOutOfDomain
_DOMAIN_ERRORS = (
    OrderOutOfDomain, UnsupportedArgument, DimensionTooSmall,
    QuantumNumberOutOfRange, NonpositiveCharge, ParameterOutOfRange,
)


def _failure(exc: HydromomentsError) -> tuple[int, str]:
    """The exit code and table status of a library error: invalid input is
    out of domain, anything else a numerical failure."""
    if isinstance(exc, _DOMAIN_ERRORS):
        return EXIT_DOMAIN, "out-of-domain"
    return EXIT_NUMERICAL, "numerical-failure"


def fmt_float(x: float) -> str:
    return format(x, ".17g")


def ratio_str(x) -> str:
    """A Fraction as "numerator/denominator", at any size."""
    return f"{int_str(x.numerator)}/{int_str(x.denominator)}"


def exact_to_dict(v: ExactValue) -> dict:
    return {
        "coeff": ratio_str(v.coeff),
        "piPow": ratio_str(v.pi_pow),
        "decimal": fmt_float(v.to_float()),
    }


def result_to_dict(res: MomentResult) -> dict:
    s = res.state
    out = {
        "schemaVersion": SCHEMA_VERSION,
        "state": {"D": s.D, "n": s.n, "l": s.l, "Z": fmt_float(s.Z)},
        "space": res.space.value,
        "alpha": fmt_float(res.alpha),
        "method": res.method.value,
        "mode": "exact" if res.is_exact else "float",
        "value": exact_to_dict(res.value) if res.is_exact else fmt_float(res.value),
        "errorBound": fmt_float(res.error_estimate),
    }
    return out


def result_to_csv_row(res: MomentResult, mode: str) -> list:
    s = res.state
    exact = res.value if res.is_exact else None
    return [
        s.D, s.n, s.l, fmt_float(s.Z), res.space.value, fmt_float(res.alpha), mode,
        fmt_float(res.as_float()),
        ratio_str(exact.coeff) if exact else "",
        ratio_str(exact.pi_pow) if exact else "",
        fmt_float(res.error_estimate),
        "ok",
    ]


def _compute_one(state: HydrogenicState, space: Space, alpha: float, mode: str) -> tuple[str, MomentResult]:
    """The resolved mode ("exact", "float" or "oracle") and the result of
    one cell; an exact order is passed on as an int."""
    if mode == "oracle":
        if space is Space.POSITION:
            return mode, oracle.quad_r_moment(state, alpha)
        return mode, oracle.quad_p_moment(state, alpha)
    mode = posmom.resolve_mode(alpha, mode)
    alpha = int(alpha) if mode == "exact" else float(alpha)
    if space is Space.POSITION:
        return mode, posmom.r_moment(state, alpha, mode=mode)
    return mode, momom.p_moment(state, alpha, mode=mode)


def cmd_compute(args) -> int:
    try:
        state = make_state(args.D, args.n, args.l, args.Z)
        mode, res = _compute_one(state, Space(args.space), args.alpha, args.mode)
        value = res.as_float()  # an exact value beyond the double range raises FloatOverflow
    except HydromomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _failure(exc)[0]
    if args.format == "json":
        print(json.dumps(result_to_dict(res)))
    elif args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_COLUMNS)
        w.writerow(result_to_csv_row(res, mode))
        sys.stdout.write(buf.getvalue())
    else:
        if res.is_exact:
            v = res.value
            pi = "" if v.pi_pow == 0 else f" * pi^{v.pi_pow}"
            print(f"<{res.space.value}^{res.alpha:g}> = {fraction_str(v.coeff)}{pi} = {value:.12g}")
        else:
            print(
                f"<{res.space.value}^{res.alpha:g}> = {value:.12g}"
                f" (+- {res.error_estimate:.3g}, {res.method.value})"
            )
    return 0


# argparse `type=` parsers: argparse turns their ValueError into a usage error

def _nonempty(values: list, spec: str) -> list:
    """values, or an argparse usage error if the list is empty, since a sweep
    over no cells would print only its header."""
    if not values:
        raise argparse.ArgumentTypeError(f"{spec!r} gives an empty list")
    return values


def int_list(spec: str) -> list[int]:
    """"lo:hi" (inclusive) or comma-separated integers, at least one."""
    if ":" in spec:
        lo, hi = spec.split(":")
        return _nonempty(list(range(int(lo), int(hi) + 1)), spec)
    return _nonempty([int(x) for x in spec.split(",") if x], spec)


def float_list(spec: str) -> list[float]:
    """Comma-separated floats, at least one."""
    return _nonempty([float(x) for x in spec.split(",") if x], spec)


def l_or_all(spec: str):
    return spec if spec == "all" else int(spec)


def _table_cell(D, n, l, Z, space: Space, alpha: float, mode: str) -> tuple[list, dict]:
    """The CSV row and JSON record of one cell; a cell that raises gets a
    status instead of a value."""
    try:
        mode_used, res = _compute_one(make_state(D, n, l, Z), space, alpha, mode)
        return result_to_csv_row(res, mode_used), result_to_dict(res)
    except HydromomentsError as exc:
        status, message = _failure(exc)[1], str(exc)
    row = [D, n, l, fmt_float(Z), space.value, fmt_float(alpha), mode, "", "", "", "", status]
    return row, {
        "schemaVersion": SCHEMA_VERSION,
        "state": {"D": D, "n": n, "l": l, "Z": fmt_float(Z)},
        "space": space.value, "alpha": fmt_float(alpha),
        "status": status, "message": message,
    }


def cmd_table(args) -> int:
    """Sweep the grid cell by cell."""
    Ds, ns, alphas = sorted(args.D_range), sorted(args.n_range), sorted(args.alpha_list)
    space = Space(args.space)
    cells = [
        _table_cell(D, n, l, args.Z, space, alpha, args.mode)
        for D in Ds
        for n in ns
        for l in (range(n) if args.l == "all" else [args.l])
        if l < n
        for alpha in alphas
    ]
    if args.format == "json":
        for _, rec in cells:
            print(json.dumps(rec))
    else:
        w = csv.writer(sys.stdout)
        w.writerow(CSV_COLUMNS)
        for row, _ in cells:
            w.writerow(row)
    return 0


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    states = verify.grid(args.grid)
    findings: list[str] = []
    hard_fail = False
    for name in names:
        res = verify.SUITES[name](states)
        status = "PASS" if res.fails == 0 else "FAIL"
        print(f"{name}: {status} ({res.checks} checks, {res.fails} failures, worst deviation {res.worst:.3g})")
        findings += res.findings
        hard_fail = hard_fail or res.fails > 0
    for f in findings:
        print(f"finding: {f}")
    return 1 if hard_fail else 0


def cmd_limits(args) -> int:
    """Each row compares the float moment with its asymptotic estimate.  A
    row takes its estimate before its moment, so an order outside the
    regime exits before a moment is computed."""
    space = Space(args.space)
    try:
        if args.regime == "rydberg":
            circular = args.family == "circular"
            cases = [(n, make_state(3, n, n - 1 if circular else 0, args.Z)) for n in args.n_seq]
        else:
            cases = [(D, make_state(D, args.n, args.l, args.Z)) for D in args.D_seq]
        rows = []
        for param, state in cases:
            if args.regime == "highd":
                est = asympt.highD(state, args.alpha, space)
            elif space is Space.POSITION:
                est = asympt.rydberg_r(state, args.alpha)
            elif args.family == "circular":
                est = asympt.rydberg_circular_p(state, args.alpha)
            else:
                est = asympt.rydberg_p(state, args.alpha)
            ex = _compute_one(state, space, args.alpha, "float")[1].as_float()
            rows.append((param, ex, est.leading, est.corrected, ex / est.corrected - 1))
    except HydromomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _failure(exc)[0]
    w = csv.writer(sys.stdout)
    w.writerow(["parameter", "exact", "leading", "corrected", "ratio_minus_1"])
    for row in rows:
        w.writerow([row[0]] + [fmt_float(v) for v in row[1:]])
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hydromoments",
        description="Radial position/momentum expectation values of D-dimensional hydrogenic states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute a single expectation value")
    c.add_argument("--space", choices=["r", "p"], required=True)
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--D", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--l", type=int, required=True)
    c.add_argument("--Z", type=float, default=1.0)
    c.add_argument("--mode", choices=["auto", "exact", "float", "oracle"], default="auto")
    c.add_argument("--format", choices=["json", "csv", "human"], default="human")
    c.set_defaults(func=cmd_compute)

    t = sub.add_parser("table", help="sweep a grid of states and orders")
    t.add_argument("--space", choices=["r", "p"], required=True)
    t.add_argument("--D-range", dest="D_range", type=int_list, required=True)
    t.add_argument("--n-range", dest="n_range", type=int_list, required=True)
    t.add_argument("--l", type=l_or_all, default="all")
    t.add_argument("--alpha-list", dest="alpha_list", type=float_list, required=True)
    t.add_argument("--Z", type=float, default=1.0)
    t.add_argument("--mode", choices=["auto", "exact", "float", "oracle"], default="auto")
    t.add_argument("--format", choices=["json", "csv"], default="csv")
    t.set_defaults(func=cmd_table)

    v = sub.add_parser("verify", help="run cross-checking suites")
    v.add_argument(
        "--suite",
        choices=[*verify.SUITES, "all"],
        default="all",
    )
    v.add_argument("--grid", choices=["small", "full"], default="small")
    v.set_defaults(func=cmd_verify)

    li = sub.add_parser("limits", help="compare exact values with asymptotic estimates")
    li.add_argument("--regime", choices=["rydberg", "highd"], required=True)
    li.add_argument("--alpha", type=float, required=True)
    li.add_argument("--space", choices=["r", "p"], default="p")
    li.add_argument("--family", choices=["nS", "circular"], default="nS")
    li.add_argument("--n-seq", dest="n_seq", type=int_list, default="20,40,80,160")
    li.add_argument("--D-seq", dest="D_seq", type=int_list, default="16,32,64,128")
    li.add_argument("--n", type=int, default=1)
    li.add_argument("--l", type=int, default=0)
    li.add_argument("--Z", type=float, default=1.0)
    li.set_defaults(func=cmd_limits)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
