"""Seeded workload generators.

A cell is ``[space, D, n, l, Z, alpha]``: the only input the library sees.
``space`` is ``"p"`` (momentum) or ``"r"`` (position).  Integer orders are
Python ints, so ``mode="auto"`` takes the exact route; real orders are
floats that are never integral, so it takes the float route.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact_grid", "float_grid", "cli_verify")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "exact_grid": "integer orders: exact Fraction sums only, no quadrature; the O(k^2) single-route momentum sum dominates",
    "float_grid": "unique real-order cells: about half the momentum calls fall back to quadrature and every rule-cache lookup misses",
    "cli_verify": "verify --grid full: all integer orders of 105 states through every exact route, so per-state reuse pays",
}

EXACT_P_ALPHAS = (-3, -1, 1, 3, 5)
EXACT_R_ALPHAS = (-2, 1, 3)
EXACT_Z = (0.5, 1.0, 1.5, 2.0)

# Share of the bulk grid (D 2-8, n 1-30, all l, all orders) sampled per
# (D, n) stratum, evenly over l, so every seed has the same shape and about
# the same cost.
EXACT_BULK_SHARE = 0.06
# Rydberg tail of s-states: one momentum and one position cell per n.
RYDBERG_NS = (40, 80, 120, 160)

FLOAT_CELLS = 8000
EDGE_SHARE = 0.04        # alpha within 1e-6 of a domain edge
HIGH_N_SHARE = 0.004     # n 40-160; fewer than 1% of cells, so p99 stays off them
EDGE_WIDTH = 1e-6
# Fixed near-edge cells present for every seed.  The first is a known
# bound violation: p_moment returns quadrature with a relative error 238x
# its own error_estimate.
FLOAT_ANCHORS = tuple(
    ["p", D, n, 0, 1.0, alpha]
    for D in (2, 3)
    for n in (80, 160)
    for alpha in (-D + 1e-6, D + 2 - 1e-6)
)

VERIFY_ARGV = ("verify", "--suite", "all", "--grid", "full")


def momentum_interval(D: int, l: int) -> tuple[int, int]:
    return -D - 2 * l, D + 2 * l + 2


def in_domain(space: str, D: int, l: int, alpha) -> bool:
    lo, hi = momentum_interval(D, l)
    if space == "p":
        return lo < alpha < hi
    return alpha > lo


def exact_grid(seed: int) -> list[list]:
    """Integer orders through p_moment (single route) and r_moment.

    Out-of-domain orders stay in the grid; the library must reject them
    with OrderOutOfDomain.
    """
    rng = random.Random(f"exact_grid:{seed}")
    cells = []
    step = 1 / EXACT_BULK_SHARE
    for D in range(2, 9):
        for n in range(1, 31):
            for space, alphas in (("p", EXACT_P_ALPHAS), ("r", EXACT_R_ALPHAS)):
                # systematic sample of the stratum ordered by l; orders shuffled within each l
                stratum = []
                for l in range(n):
                    stratum += [(l, a) for a in rng.sample(alphas, len(alphas))]
                pos = rng.uniform(0, step)
                while pos < len(stratum):
                    l, a = stratum[int(pos)]
                    cells.append([space, D, n, l, rng.choice(EXACT_Z), a])
                    pos += step
    for n in RYDBERG_NS:
        D = rng.choice((3, 5))
        lo, hi = momentum_interval(D, 0)
        cells.append(["p", D, n, 0, rng.choice(EXACT_Z), rng.choice([a for a in EXACT_P_ALPHAS if lo < a < hi])])
        cells.append(["r", D, n, 0, rng.choice(EXACT_Z), rng.choice(EXACT_R_ALPHAS[1:])])
    rng.shuffle(cells)
    return cells


def _latin_hypercube(rng: random.Random, count: int, dims: int) -> list[list[float]]:
    """`count` points in [0, 1)^dims with exactly one point in each of the
    `count` equal slices of every axis, so that sums over the cells (cost,
    failures) do not swing with the seed."""
    perms = [rng.sample(range(count), count) for _ in range(dims)]
    return [[(perm[i] + rng.random()) / count for perm in perms] for i in range(count)]


def _float_cells(rng: random.Random, space: str, count: int, n_lo: int, n_hi: int, edge: bool) -> list:
    cells = []
    for u_D, u_n, u_l, u_a, u_Z in _latin_hypercube(rng, count, 5):
        D = 2 + int(11 * u_D)
        n = n_lo + int((n_hi - n_lo + 1) * u_n)
        l = int(n * u_l)
        lo, hi = momentum_interval(D, l)
        if edge:
            gap = EDGE_WIDTH * (0.1 + 0.9 * u_a)
            alpha = lo + gap if space == "r" or rng.random() < 0.5 else hi - gap
        else:
            # position orders are unbounded above; they share the momentum interval
            alpha = lo + (hi - lo) * u_a
            while not lo < alpha < hi or alpha.is_integer():
                alpha = rng.uniform(lo, hi)
        cells.append([space, D, n, l, round(0.5 + 3.5 * u_Z, 6), alpha])
    return cells


def float_grid(seed: int) -> list[list]:
    """Real orders, half momentum and half position, each (state, alpha)
    unique: orders over the whole domain on D 2-12, n 1-39, plus near-edge
    orders, a slice with n 40-160, and the fixed near-edge anchors.  Each
    slice is a Latin-hypercube sample over (D, n, l/n, alpha, Z)."""
    rng = random.Random(f"float_grid:{seed}")
    n_edge = round(FLOAT_CELLS * EDGE_SHARE) // 2
    n_high = round(FLOAT_CELLS * HIGH_N_SHARE) // 2
    n_main = (FLOAT_CELLS - len(FLOAT_ANCHORS)) // 2 - n_edge - n_high
    cells = [list(c) for c in FLOAT_ANCHORS]
    for space in ("p", "r"):
        cells += _float_cells(rng, space, n_main, 1, 39, edge=False)
        cells += _float_cells(rng, space, n_edge, 1, 39, edge=True)
        cells += _float_cells(rng, space, n_high, 40, 160, edge=False)
    rng.shuffle(cells)
    return cells


def cells_for(workload: str, seed: int) -> list[list]:
    """Library cells for a workload; cli_verify has a fixed argv, so its
    seed changes nothing."""
    if workload == "exact_grid":
        return exact_grid(seed)
    if workload == "float_grid":
        return float_grid(seed)
    if workload == "cli_verify":
        return []
    raise ValueError(f"unknown workload {workload!r}")
