"""Gauss-Jacobi rules: ?stemr on the Jacobi matrix (Golub-Welsch),
with the Christoffel function for the weights MRRR drops to 0.

Its nodes and weights, exponentiated from the log-weights it returns, are
checked against a 50-digit mpmath reference on the same Jacobi matrix, each
weight also to a relative tolerance, a LAPACK failure must surface as
QuadratureFailure, and no rule that the oracle builds on a wide sweep of
states may fail."""

import math

import mpmath
import numpy as np
import pytest

from hydromoments import make_state, quad_p_moment
from hydromoments.errors import FloatOverflow, FloatUnderflow, QuadratureFailure
from hydromoments.momom import appendix_integrals
from hydromoments import oracle
from hydromoments.oracle import entropic_moment, gauss_jacobi

EDGE = -1 + 5e-7  # the exponent of a momentum order 1e-6 inside its interval

# Largest deviations measured on these cases: 1.9e-15 in a node,
# 4.8e-15 mu0 in a weight and 4.3e-13 of a weight itself, down to weights
# of 5e-54 mu0.  The tolerances keep a margin under 10x.
NODE_TOL = 1e-14
WEIGHT_TOL = 2e-14  # in units of mu0, the weight's total mass
WEIGHT_REL_TOL = 2e-12


def _reference_rule(m, a, b):
    """Nodes, weights and mu0 at 50 digits.  The nodes are the mpmath.eigsy
    eigenvalues of the Jacobi matrix.  The eigenvector at a node x is
    (p_0(x), ..., p_m-1(x)) of the orthonormal recurrence, normalized, so its
    squared first component, the weight over mu0, is 1 / sum_j p_j(x)^2 for
    p_0 = 1; this is cheaper than asking eigsy for the vectors."""
    with mpmath.workdps(50):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        ab = a + b
        diag = [(b - a) / (ab + 2)]
        off = []
        for j in range(1, m):
            s = 2 * j + ab
            diag.append((b * b - a * a) / (s * (s + 2)))
            if j == 1:
                beta = 4 * (1 + a) * (1 + b) / ((ab + 2) ** 2 * (ab + 3))
            else:
                beta = 4 * j * (j + a) * (j + b) * (j + ab) / (s * s * (s + 1) * (s - 1))
            off.append(mpmath.sqrt(beta))
        J = mpmath.diag(diag)
        for j, e in enumerate(off):
            J[j, j + 1] = J[j + 1, j] = e
        nodes = sorted(mpmath.eigsy(J, eigvals_only=True))
        mu0 = 2 ** (ab + 1) * mpmath.gamma(a + 1) * mpmath.gamma(b + 1) / mpmath.gamma(ab + 2)
        weights = []
        for x in nodes:
            p_prev, p, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(1)
            for j in range(m - 1):
                p, p_prev = ((x - diag[j]) * p - (off[j - 1] * p_prev if j else 0)) / off[j], p
                total += p * p
            weights.append(mu0 / total)
        return nodes, weights, mu0


@pytest.mark.parametrize("m, a, b", [
    (8, 0.3, 0.7),
    (20, EDGE, 3.5),
    (33, 12.25, -0.75),
    (40, 45.2, 0.5),
    (60, 44.5, 44.5),
    (60, EDGE, 45.0),
])
def test_gauss_jacobi_matches_a_50_digit_reference(m, a, b):
    # MRRR's eigenvectors drop 7 weights of the last rule, from 3e-50 to 7e-37 mu0, to 0
    x, log_w = gauss_jacobi(m, a, b)
    w = np.exp(log_w)
    nodes, weights, mu0 = _reference_rule(m, a, b)
    dx = max(abs(float(x[i] - nodes[i])) for i in range(m))
    dw = max(abs(float((w[i] - weights[i]) / mu0)) for i in range(m))
    rel = max(abs(float(w[i] / weights[i] - 1)) for i in range(m))
    assert dx <= NODE_TOL and dw <= WEIGHT_TOL and rel <= WEIGHT_REL_TOL, (dx, dw, rel)


def test_a_lapack_error_raises_quadrature_failure(monkeypatch):
    def failing(d, e, *args, **kwargs):
        m = len(d)
        return m, np.zeros(m), np.eye(m), 7

    monkeypatch.setattr(oracle, "_STEMR", failing)
    with pytest.raises(QuadratureFailure, match="info=7"):
        gauss_jacobi(12, 0.5, 1.5)


def test_missing_eigenpairs_raise_quadrature_failure(monkeypatch):
    def short(d, e, *args, **kwargs):
        m = len(d)
        return m - 1, np.zeros(m), np.eye(m), 0

    monkeypatch.setattr(oracle, "_STEMR", short)
    with pytest.raises(QuadratureFailure, match="11 of 12"):
        gauss_jacobi(12, 0.5, 1.5)


def _checked_rules(monkeypatch):
    """Patch oracle.gauss_jacobi so that every rule it builds is checked:
    m increasing nodes inside (-1, 1) and nonnegative weights that sum to mu0."""
    built = []

    def checked(m, a, b):
        x, log_w = gauss_jacobi(m, a, b)
        w = np.exp(log_w)
        mu0 = math.exp((a + b + 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2))
        assert len(x) == len(w) == m, (m, a, b)
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1, (m, a, b)
        assert np.all(w > 0) and np.all(np.isfinite(w)), (m, a, b)
        assert math.fsum(w) == pytest.approx(mu0, rel=1e-12), (m, a, b)
        built.append((m, a, b))
        return x, log_w

    monkeypatch.setattr(oracle, "gauss_jacobi", checked)
    return built


def test_no_rule_build_fails_on_the_momentum_sweep(monkeypatch):
    built = _checked_rules(monkeypatch)
    overflows = underflows = 0
    for D in range(2, 13):
        for n in [*range(1, 41), 160]:
            for l in sorted({0, n // 2, n - 1}):
                s = make_state(D, n, l, 1.0)
                lo, hi = s.momentum_interval()
                for alpha in (lo + 1e-6, hi - 1e-6, 1.3):
                    try:
                        assert 0 < quad_p_moment(s, alpha).value < math.inf, (D, n, l, alpha)
                    except FloatOverflow:  # (Z/eta)^alpha near the lower edge at n = 160; its rules were built
                        overflows += 1
                    except FloatUnderflow:  # the same near the upper edge
                        underflows += 1
    assert len(built) == 2 * 3 * 11 * 120  # two rules per call, 120 states per D
    assert overflows < 50 and underflows < 50


def test_no_rule_build_fails_for_entropic_moments_and_appendix_integrals(monkeypatch):
    built = _checked_rules(monkeypatch)
    for D in range(2, 13):
        for n in (1, 2, 5, 12, 40):
            s = make_state(D, n, 0, 1.0)
            for q in (0.4, 1 + 2 / D, 3.0):
                assert math.isfinite(entropic_moment(s, q)), (D, n, q)
        for n in [*range(1, 41), 160]:
            for l in sorted({0, n // 2, n - 1}):
                assert all(map(math.isfinite, appendix_integrals(make_state(D, n, l, 1.0)))), (D, n, l)
    assert len(built) > 2000
