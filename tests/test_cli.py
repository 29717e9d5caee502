"""CLI behavior: formats, determinism, exit codes, sweeps, verification."""

import csv
import io
import json
from fractions import Fraction

import pytest

from hydromoments import ExactValue, cli, momom, verify


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_exact_json(capsys):
    code, out, _ = run(capsys, [
        "compute", "--space", "p", "--alpha", "2", "--D", "3", "--n", "2", "--l", "0",
        "--format", "json",
    ])
    assert code == 0
    rec = json.loads(out)
    assert rec["schemaVersion"] == "hydromoments/1"
    assert rec["mode"] == "exact"
    assert rec["value"]["coeff"] == "1/4"
    assert rec["value"]["piPow"] == "0/1"


def test_compute_json_is_byte_deterministic(capsys):
    argv = [
        "compute", "--space", "r", "--alpha", "0.75", "--D", "4", "--n", "3", "--l", "1",
        "--format", "json",
    ]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_exact_and_float_modes_agree(capsys):
    base = ["compute", "--space", "p", "--alpha", "3", "--D", "5", "--n", "3", "--l", "1",
            "--format", "json"]
    _, out_e, _ = run(capsys, base + ["--mode", "exact"])
    _, out_f, _ = run(capsys, base + ["--mode", "float"])
    ve = float(json.loads(out_e)["value"]["decimal"])
    rec = json.loads(out_f)
    vf = float(rec["value"])
    assert abs(ve - vf) <= max(float(rec["errorBound"]), 1e-12 * abs(ve))


def test_compute_human_and_csv(capsys):
    code, out, _ = run(capsys, [
        "compute", "--space", "p", "--alpha", "1", "--D", "3", "--n", "1", "--l", "0",
    ])
    assert code == 0
    assert "8/3 * pi^-1" in out
    code, out, _ = run(capsys, [
        "compute", "--space", "p", "--alpha", "1", "--D", "3", "--n", "1", "--l", "0",
        "--format", "csv",
    ])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.CSV_COLUMNS
    assert rows[1][cli.CSV_COLUMNS.index("status")] == "ok"


def test_compute_oracle_mode(capsys):
    code, out, _ = run(capsys, [
        "compute", "--space", "r", "--alpha", "1.5", "--D", "3", "--n", "2", "--l", "1",
        "--mode", "oracle", "--format", "json",
    ])
    assert code == 0
    assert json.loads(out)["method"] == "quadrature"


def test_compute_out_of_domain_exit_code(capsys):
    code, _, err = run(capsys, [
        "compute", "--space", "p", "--alpha", "-3", "--D", "3", "--n", "1", "--l", "0",
    ])
    assert code == cli.EXIT_DOMAIN
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["compute", "--space", "p", "--alpha", "1", "--D", "3", "--n", "0", "--l", "0"],
    ["compute", "--space", "p", "--alpha", "1", "--D", "1", "--n", "1", "--l", "0"],
    ["compute", "--space", "p", "--alpha", "1", "--D", "3", "--n", "1", "--l", "0", "--Z", "-1"],
    ["compute", "--space", "r", "--alpha", "1", "--D", "3", "--n", "1", "--l", "0", "--Z", "inf"],
    ["limits", "--regime", "rydberg", "--alpha", "1", "--n-seq", "0,2"],
])
def test_invalid_input_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:")


def test_table_marks_an_invalid_dimension_out_of_domain(capsys):
    code, out, _ = run(capsys, [
        "table", "--space", "p", "--D-range", "1:2", "--n-range", "1", "--alpha-list", "1",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(r[0], r[-1]) for r in rows[1:]] == [("1", "out-of-domain"), ("2", "ok")]


def test_table_marks_out_of_domain_rows_and_continues(capsys):
    code, out, _ = run(capsys, [
        "table", "--space", "p", "--D-range", "3", "--n-range", "1:2", "--l", "all",
        "--alpha-list=-4,2",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    statuses = [r[-1] for r in rows[1:]]
    assert "out-of-domain" in statuses  # alpha=-4 invalid for l=0
    assert "ok" in statuses
    # every state/alpha pair appears exactly once
    assert len(rows) - 1 == 3 * 2  # (n,l) in {(1,0),(2,0),(2,1)} x 2 alphas


def test_table_marks_overflowing_cell_and_continues(capsys):
    code, out, _ = run(capsys, [
        "table", "--space", "r", "--D-range", "3:3", "--n-range", "100:100", "--l", "0",
        "--alpha-list=1.5,150.5", "--mode", "float",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[-1] for r in rows[1:]] == ["ok", "numerical-failure"]


@pytest.mark.parametrize("mode, alphas", [("exact", "1,150"), ("oracle", "1,300.5")])
def test_table_marks_a_value_beyond_the_double_range(capsys, mode, alphas):
    code, out, _ = run(capsys, [
        "table", "--space", "r", "--D-range", "3:3", "--n-range", "100:100", "--l", "0",
        f"--alpha-list={alphas}", "--mode", mode,
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[-1] for r in rows[1:]] == ["ok", "numerical-failure"]


@pytest.mark.parametrize("alpha, mode", [("150", "auto"), ("300.5", "oracle")])
def test_compute_beyond_the_double_range_is_a_numerical_failure(capsys, alpha, mode):
    code, out, err = run(capsys, [
        "compute", "--space", "r", "--alpha", alpha, "--D", "3", "--n", "100", "--l", "0",
        "--mode", mode, "--format", "json",
    ])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "double range" in err


def test_table_marks_a_value_below_the_double_range(capsys):
    code, out, _ = run(capsys, [
        "table", "--space", "r", "--D-range", "3:3", "--n-range", "150:150", "--l", "149",
        "--alpha-list=-300,1", "--mode", "exact",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[-1] for r in rows[1:]] == ["numerical-failure", "ok"]


def test_compute_below_the_double_range_is_a_numerical_failure(capsys):
    # the exact rational is about 2^-3909, far below the smallest double
    code, out, err = run(capsys, [
        "compute", "--space", "r", "--alpha=-300", "--D", "3", "--n", "150", "--l", "149", "--format", "json",
    ])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "below the double range" in err


@pytest.mark.parametrize("state, alpha, says", [
    (["--D", "12", "--n", "144", "--l", "47", "--Z", "0.768354"], "107.15642452101065", "exceeds the double range"),
    (["--D", "8", "--n", "113", "--l", "90"], "-159.3", "below the double range"),
])
def test_oracle_outside_the_double_range_is_a_numerical_failure(capsys, state, alpha, says):
    code, out, err = run(capsys, ["compute", "--space", "r", *state, f"--alpha={alpha}", "--mode", "oracle"])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and says in err


def test_exact_mode_with_real_order_is_an_input_error(capsys):
    code, out, _ = run(capsys, [
        "table", "--space", "p", "--D-range", "3", "--n-range", "2", "--l", "0",
        "--alpha-list=1,1.5", "--mode", "exact",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[-1] for r in rows[1:]] == ["ok", "out-of-domain"]
    code, _, err = run(capsys, [
        "compute", "--space", "p", "--alpha", "1.5", "--D", "3", "--n", "2", "--l", "0", "--mode", "exact",
    ])
    assert code == cli.EXIT_DOMAIN
    assert "integer order" in err


def test_table_parallel_matches_serial(capsys):
    argv = [
        "table", "--space", "r", "--D-range", "2:4", "--n-range", "1:3", "--l", "all",
        "--alpha-list=-1,1,2",
    ]
    _, serial, _ = run(capsys, argv)
    _, parallel, _ = run(capsys, argv + ["--parallel"])
    assert serial == parallel


def test_table_json_stream(capsys):
    code, out, _ = run(capsys, [
        "table", "--space", "p", "--D-range", "3", "--n-range", "1", "--l", "0",
        "--alpha-list=2", "--format", "json",
    ])
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 1
    assert recs[0]["schemaVersion"] == "hydromoments/1"


def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "routes", "--grid", "small"])
    assert code == 0
    assert "routes: PASS" in out
    code, out, _ = run(capsys, ["verify", "--suite", "reflection", "--grid", "small"])
    assert code == 0
    assert "reflection: PASS" in out


def test_verify_prints_what_each_suite_returns(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "all", "--grid", "small"])
    assert code == 0
    states = verify.grid("small")
    lines = []
    for name, suite in verify.SUITES.items():
        res = suite(states)
        assert res.fails == 0
        lines.append(f"{name}: PASS ({res.checks} checks, 0 failures, worst deviation {res.worst:.3g})")
    assert out.splitlines() == lines
    counts = [int(line.split("(")[1].split()[0]) for line in lines]
    assert counts == [536, 268, 144, 9, 165]


def test_oracle_suite_counts_only_independent_comparisons():
    res = verify.oracle(verify.grid("full"))
    assert (res.checks, res.fails) == (629, 0)
    assert res.findings == (
        "not compared: p at D=7 n=5 l=0 alpha=0.06077899690615052 fell back to the quadrature oracle",
    )


def test_verify_reports_a_wrong_route(capsys, monkeypatch):
    exact, float_route, method = momom._ROUTES["double"]

    def wrong(state, a):
        return exact(state, a) * ExactValue(Fraction(2)) if state.D == 3 else exact(state, a)

    monkeypatch.setitem(momom._ROUTES, "double", (wrong, float_route, method))
    code, out, _ = run(capsys, ["verify", "--suite", "routes", "--grid", "small"])
    assert code == 1
    assert out == "routes: FAIL (536 checks, 58 failures, worst deviation 0)\n"


def test_limits_rydberg(capsys):
    code, out, _ = run(capsys, [
        "limits", "--regime", "rydberg", "--alpha", "2", "--space", "p",
        "--n-seq", "10,20",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "parameter"
    assert len(rows) == 3
    # alpha = 2 momentum is reproduced exactly by the leading form
    assert abs(float(rows[1][4])) < 1e-12


def test_limits_highd(capsys):
    code, out, _ = run(capsys, [
        "limits", "--regime", "highd", "--alpha", "1", "--space", "r",
        "--n", "2", "--l", "1", "--D-seq", "16,32",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    devs = [abs(float(r[4])) for r in rows[1:]]
    assert devs[1] < devs[0]


def test_limits_domain_error(capsys):
    code, _, err = run(capsys, [
        "limits", "--regime", "rydberg", "--alpha", "3.5", "--space", "p",
        "--n-seq", "10",
    ])
    assert code == cli.EXIT_DOMAIN
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ["--regime", "highd", "--alpha", "300", "--space", "r", "--D-seq", "16"],
    ["--regime", "rydberg", "--alpha", "200", "--space", "r", "--n-seq", "100"],
    ["--regime", "rydberg", "--space", "r", "--alpha", "1100", "--n-seq", "1"],
])
def test_limits_overflow_is_a_numerical_failure(capsys, argv):
    code, out, err = run(capsys, ["limits", *argv])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error:") and "double range" in err


def test_limits_underflow_is_a_numerical_failure(capsys):
    # (eta^2/Z)^alpha = 1e-1800 is below the double range
    code, out, err = run(capsys, [
        "limits", "--regime", "rydberg", "--alpha", "300", "--space", "r", "--n-seq", "1", "--Z", "1e6",
    ])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error:") and "double range" in err
