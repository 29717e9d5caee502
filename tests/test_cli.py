"""CLI behavior: formats, determinism, exit codes, sweeps, verification."""

import csv
import dataclasses
import io
import json
import sys
from fractions import Fraction

import pytest

from hydromoments import ExactValue, asympt, cli, make_state, momom, verify
from hydromoments.momom import _momentum_prefactor


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


def test_compute_float_human(capsys):
    code, out, _ = run(capsys, [
        "compute", "--space", "p", "--alpha", "1.5", "--D", "3", "--n", "2", "--l", "0", "--mode", "float",
    ])
    assert code == 0
    assert out == "<p^1.5> = 0.265625 (+- 8.01e-15, single_sum)\n"


@pytest.mark.parametrize("alpha", ["1e160", "1e200", "1e300"])
def test_compute_at_a_huge_float_position_order_is_a_numerical_failure(capsys, alpha):
    # it printed "value": "nan" and exited 0
    code, out, err = run(capsys, [
        "compute", "--space", "r", "--D", "3", "--n", "5", "--l", "0", "--alpha", alpha, "--mode", "float",
        "--format", "json",
    ])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.startswith("error:") and "double range" in err


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


def test_oracle_mode_rejects_an_order_outside_the_domain_as_float_mode_does(capsys):
    # the oracle built its Gauss-Jacobi rule first and exited 3 with
    # "Jacobi exponents must exceed -1"
    argv = ["compute", "--space", "p", "--D", "3", "--n", "2", "--l", "0", "--alpha=-9", "--mode"]
    code, out, err = run(capsys, [*argv, "oracle"])
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert (code, out, err) == run(capsys, [*argv, "float"])
    assert err == "error: momentum order -9.0 outside (-3, 5) for D=3, l=0\n"
    code, out, _ = run(capsys, [
        "table", "--space", "p", "--D-range", "3", "--n-range", "2", "--l", "0", "--alpha-list=-9,1", "--mode", "oracle",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [(r[5], r[-1]) for r in rows[1:]] == [("-9", "out-of-domain"), ("1", "ok")]


@pytest.mark.parametrize("argv", [
    ["compute", "--space", "p", "--alpha", "1", "--D", "3", "--n", "0", "--l", "0"],
    ["compute", "--space", "p", "--alpha", "1", "--D", "1", "--n", "1", "--l", "0"],
    ["compute", "--space", "p", "--alpha", "1", "--D", "3", "--n", "1", "--l", "0", "--Z", "-1"],
    ["compute", "--space", "r", "--alpha", "1", "--D", "3", "--n", "1", "--l", "0", "--Z", "inf"],
    ["limits", "--regime", "rydberg", "--alpha", "1", "--n-seq", "0,2"],
    ["compute", "--space", "p", "--alpha", "0.5", "--D", "3", "--n", "2", "--l", "0", "--Z", "1e-320"],
])
def test_invalid_input_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("space, alpha, mode", [("r", "0.5", "float"), ("p", "1", "exact"), ("p", "0.5", "oracle")])
def test_compute_at_a_dimension_beyond_the_double_range_is_a_domain_error(capsys, space, alpha, mode):
    # each mode printed a traceback from a bare OverflowError
    code, out, err = run(capsys, [
        "compute", "--space", space, "--alpha", alpha, "--D", str(10 ** 309), "--n", "1", "--l", "0", "--mode", mode,
    ])
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "2 eta" in err


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


def test_compute_beyond_the_exact_size_budget_is_a_numerical_failure(capsys):
    code, out, err = run(capsys, [
        "compute", "--space", "r", "--D", "3", "--n", "2", "--l", "0", "--alpha", "100000000",
    ])
    assert code == cli.EXIT_NUMERICAL
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and 'mode="float"' in err


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


@pytest.fixture
def int_str_limit_640():
    """CPython's limit on int-to-str conversion, lowered from 4,300 to 640
    digits so that a cheap exact value crosses it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


# 3D nS, n = 800, l = 0: the coefficient of <p^3> has 690 digits over 697
BIG = ["--space", "p", "--alpha", "3", "--D", "3", "--n", "800", "--l", "0"]


def test_exact_values_beyond_the_int_str_limit_print(capsys, int_str_limit_640):
    coeff = momom.p_moment(make_state(3, 800, 0, 1.0), 3).value.coeff
    with pytest.raises(ValueError):  # the limit is in force
        str(coeff.numerator)
    sys.set_int_max_str_digits(0)
    num, den = str(coeff.numerator), str(coeff.denominator)
    sys.set_int_max_str_digits(640)
    assert len(num) > 640 and len(den) > 640
    assert repr(ExactValue(coeff, Fraction(-1))) == f"ExactValue({num}/{den} * pi^-1)"

    code, out, _ = run(capsys, ["compute", *BIG, "--format", "json"])
    assert code == 0 and json.loads(out)["value"]["coeff"] == f"{num}/{den}"
    code, out, _ = run(capsys, ["compute", *BIG, "--format", "csv"])
    assert code == 0 and list(csv.reader(io.StringIO(out)))[1][8] == f"{num}/{den}"
    code, out, _ = run(capsys, ["compute", *BIG])
    assert code == 0 and f" = {num}/{den} * pi^-1 = " in out
    code, out, _ = run(capsys, [
        "table", "--space", "p", "--D-range", "3", "--n-range", "2,800", "--l", "0", "--alpha-list=3",
    ])
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0 and [r[-1] for r in rows[1:]] == ["ok", "ok"]
    assert rows[2][8] == f"{num}/{den}"


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
    assert (res.checks, res.fails, res.findings) == (630, 0, ())


def test_verify_prints_each_finding_after_the_suites(capsys, monkeypatch):
    found = verify.SuiteResult(3, 0, 0.0, ("soft violation: one", "soft violation: two"))
    monkeypatch.setitem(verify.SUITES, "uncertainty", lambda states: found)
    code, out, _ = run(capsys, ["verify", "--suite", "uncertainty", "--grid", "small"])
    assert code == 0
    assert out == (
        "uncertainty: PASS (3 checks, 0 failures, worst deviation 0)\n"
        "finding: soft violation: one\nfinding: soft violation: two\n"
    )


def test_verify_reports_a_wrong_route(capsys, monkeypatch):
    exact, float_route, method = momom._ROUTES["double"]

    def wrong(state, a):
        num, den, two_pi = exact(state, a)
        return 2 * num if state.D == 3 else num, den, two_pi

    monkeypatch.setitem(momom._ROUTES, "double", (wrong, float_route, method))
    code, out, _ = run(capsys, ["verify", "--suite", "routes", "--grid", "small"])
    assert code == 1
    assert out == "routes: FAIL (536 checks, 58 failures, worst deviation 0)\n"


def _doubled_reflect(state, alpha, mode):
    res = momom.reflect(state, alpha, mode)
    return dataclasses.replace(res, value=res.value * ExactValue(Fraction(2)))


def _doubled_prefactor(state, a):
    num, den, two_pi = _momentum_prefactor(state, a)
    return 2 * num, den, two_pi


@pytest.mark.parametrize("target, name, wrong", [
    (verify, "reflect", _doubled_reflect),
    # shared by reflect and the single route, which therefore agree
    (momom, "_momentum_prefactor", _doubled_prefactor),
])
def test_verify_reports_a_wrong_reflection(capsys, monkeypatch, target, name, wrong):
    monkeypatch.setattr(target, name, wrong)
    code, out, _ = run(capsys, ["verify", "--suite", "reflection", "--grid", "small"])
    assert code == 1
    assert out == "reflection: FAIL (268 checks, 268 failures, worst deviation 0)\n"


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


def test_limits_rydberg_circular(capsys):
    code, out, _ = run(capsys, [
        "limits", "--regime", "rydberg", "--alpha", "1.5", "--space", "p", "--family", "circular",
        "--n-seq", "10,20",
    ])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [row[0] for row in rows] == ["parameter", "10", "20"]
    for row in rows[1:]:
        state = make_state(3, int(row[0]), int(row[0]) - 1, 1.0)
        est = asympt.rydberg_circular_p(state, 1.5)
        assert float(row[1]) == momom.p_moment(state, 1.5, mode="float").as_float()
        assert (float(row[2]), float(row[3])) == (est.leading, est.corrected)
    assert abs(float(rows[2][4])) < abs(float(rows[1][4]))


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


@pytest.mark.parametrize("argv, option", [
    (["table", "--space", "r", "--D-range", "3", "--n-range", "x", "--alpha-list", "1"], "--n-range"),
    (["table", "--space", "r", "--D-range", "3", "--n-range", "2", "--alpha-list", "1,abc"], "--alpha-list"),
    (["table", "--space", "r", "--D-range", "3", "--n-range", "2", "--alpha-list", "1", "--l", "q"], "--l"),
    (["limits", "--regime", "rydberg", "--alpha", "2", "--n-seq", "20,x"], "--n-seq"),
    (["table", "--space", "r", "--D-range", "3:2", "--n-range", "2", "--alpha-list", "1"], "--D-range"),
    (["table", "--space", "r", "--D-range", "3", "--n-range", "2", "--alpha-list", ","], "--alpha-list"),
    (["limits", "--regime", "rydberg", "--alpha", "2", "--n-seq", "5:3"], "--n-seq"),
])
def test_a_malformed_list_is_a_usage_error(capsys, argv, option):
    # the first four exited 1 with a bare ValueError traceback; the empty
    # lists of the last three printed only a header and exited 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: argument {option}:" in err and "Traceback" not in err
