"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  The flagship problem is the forced equation bundled as
hermite_forced; published reference values for its mean/variance tables are
frozen below.
"""

import math
import time
import warnings
from fractions import Fraction

import pytest

import randfrob as rf
from randfrob import McConfig, build_problem, compute_coeffs

from conftest import BUNDLED
from test_uqstats import enumerate_stats, finite_discrete_doc

GRID7 = [0.25 * k for k in range(7)]

TABLE_MEAN_N20 = [1.0, 1.14231, 1.28890, 1.49183, 1.85892, 2.62574, 4.34784]
TABLE_VAR_N20 = [0.5, 0.520298, 0.597008, 0.790556, 1.27425, 2.60694, 6.94100]
TABLE_MEAN_N19 = [1.0, 1.14231, 1.28890, 1.49183, 1.85892, 2.62573, 4.34772]
TABLE_VAR_N19 = [0.5, 0.520298, 0.597008, 0.790556, 1.27425, 2.60694, 6.94095]

TABLE_TOL = 5e-5


def _check(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def flagship_curves(hermite_forced, hf_solution, hf_moments):
    curves = {}
    start = time.monotonic()
    curves[20] = rf.stat_curves(hf_moments, GRID7, hermite_forced.t0)
    curves["elapsed20"] = time.monotonic() - start
    mm19 = rf.moment_matrix(compute_coeffs(hermite_forced, 19), hermite_forced.model)
    curves[19] = rf.stat_curves(mm19, GRID7, hermite_forced.t0)
    return curves


def test_table_reproduction(flagship_curves, hermite_forced, hf_solution):
    start = time.monotonic()
    sol = compute_coeffs(hermite_forced, 20)
    mm = rf.moment_matrix(sol, hermite_forced.model)
    curve = rf.stat_curves(mm, GRID7, hermite_forced.t0)
    elapsed = time.monotonic() - start
    worst = 0.0
    for i in range(7):
        worst = max(worst, abs(curve.mean[i] - TABLE_MEAN_N20[i]),
                    abs(curve.variance[i] - TABLE_VAR_N20[i]))
    _check(
        "table reproduction (N=20)",
        worst <= TABLE_TOL and elapsed < 120.0,
        f"max table deviation {worst:.2e} <= {TABLE_TOL:g}, runtime {elapsed:.2f}s < 120s",
    )


def test_truncation_agreement(flagship_curves):
    c19, c20 = flagship_curves[19], flagship_curves[20]
    dmean = max(abs(a - b) for a, b in zip(c19.mean, c20.mean))
    dvar = max(abs(a - b) for a, b in zip(c19.variance, c20.variance))
    table_dev = max(
        max(abs(c19.mean[i] - TABLE_MEAN_N19[i]) for i in range(7)),
        max(abs(c19.variance[i] - TABLE_VAR_N19[i]) for i in range(7)),
    )
    _check(
        "truncation agreement (N=19 vs N=20)",
        dmean <= 1.5e-4 and dvar <= 1e-4 and table_dev <= TABLE_TOL,
        f"mean gap {dmean:.2e} <= 1.5e-4, variance gap {dvar:.2e} <= 1e-4,"
        f" N=19 table deviation {table_dev:.2e} <= {TABLE_TOL:g}",
    )


def test_t0_exactness(hf_moments):
    mean, var = rf.exact_stats(hf_moments, 0, 0)
    _check(
        "exact statistics at the expansion point",
        mean == Fraction(1) and var == Fraction(1, 2),
        f"mean == 1 and variance == 1/2 exactly (got {mean}, {var})",
    )


def test_mc_consistency(hermite_forced, hf_solution, flagship_curves):
    exact = flagship_curves[20]
    mcs = rf.mc_series(hf_solution, GRID7, McConfig(samples=100_000, seed=20240501))
    mcr = rf.mc_rk4(hermite_forced, GRID7,
                    McConfig(samples=100_000, seed=20240502, rk4_step=1e-3))
    worst = 0.0
    var_rel = 0.0
    for curve in (mcs, mcr):
        report = rf.compare_curves(curve, exact)
        worst = max(worst, max(p.mean_sigmas for p in report.points))
        for i in range(7):
            denom = max(exact.variance[i], 1e-12)
            var_rel = max(var_rel, abs(curve.variance[i] - exact.variance[i]) / denom)
    _check(
        "Monte Carlo brackets the exact statistics",
        worst < 3.0 and var_rel < 0.05,
        f"max mean deviation {worst:.2f} sigma < 3 (100k samples, both methods);"
        f" variance within {var_rel:.1%}",
    )


def test_residuals_zero_everywhere(bundled_specs):
    bad = []
    for name in BUNDLED:
        sol = compute_coeffs(bundled_specs[name], 20)
        if any(r != rf.Poly.zero() for r in rf.residual_coefficients(sol)):
            bad.append(name)
    _check(
        "recursion residuals vanish identically",
        not bad,
        f"exact zero polynomials for all of {', '.join(BUNDLED)} at N=20",
    )


def test_majorant_domination(hermite_forced, hf_solution, hf_moments):
    maj = rf.majorant_sequence(hermite_forced, 1.6, 24)
    seed_exact = maj.h[2] == (maj.d_s / 2) * (maj.h[1] + maj.h[0] + 1)
    worst = -math.inf
    ok = True
    for n in range(21):
        norm = math.sqrt(float(hf_moments.second[n][n]))
        ok = ok and norm <= maj.h[n]
        worst = max(worst, norm / maj.h[n] if maj.h[n] else 0.0)
    _check(
        "majorant dominates coefficient norms",
        ok and seed_exact,
        f"max ||X_n||/H_n = {worst:.3f} <= 1 for n <= 20 at s=1.6; H_2 seed exact",
    )


def test_oracle_equivalence():
    worst = 0.0
    for order in (4, 6):
        spec = build_problem(finite_discrete_doc(with_multinomial=False))
        mm = rf.moment_matrix(compute_coeffs(spec, order), spec.model)
        for t in (0, Fraction(1, 4), Fraction(1, 2), 1):
            mean, var = rf.exact_stats(mm, t, spec.t0)
            oracle_mean, oracle_var = enumerate_stats(spec, order, t)
            worst = max(worst, abs(float(mean - oracle_mean)), abs(float(var - oracle_var)))
    _check(
        "finite-support enumeration equivalence",
        worst <= 1e-12,
        f"max |exact - enumeration| = {worst:.2e} <= 1e-12 for N <= 6",
    )


def test_airy_structure(bundled_specs):
    spec = bundled_specs["airy"]
    sol = compute_coeffs(spec, 20)
    a = rf.Poly.symbol(spec.table.id_of("A"))
    ok = sol.X[2] == rf.Poly.zero()
    for n in range(18):
        ok = ok and sol.X[n + 3] == Fraction(-1, (n + 3) * (n + 2)) * (a * sol.X[n])
    _check(
        "Airy-type third-step structure",
        ok,
        "X_2 = 0 and X_{n+3} = -A X_n / ((n+3)(n+2)) exactly for n <= N-3",
    )


def test_deterministic_reduction():
    doc = {
        "symbols": [
            {"name": "A0", "dist": "pointmass", "params": {"value": "1/2"}},
            {"name": "A1", "dist": "pointmass", "params": {"value": "-1/4"}},
            {"name": "B0", "dist": "pointmass", "params": {"value": 1}},
            {"name": "B1", "dist": "pointmass", "params": {"value": "1/3"}},
        ],
        "series": {
            "A": [{"n": 0, "value": "A0"}, {"n": 1, "value": "A1"}],
            "B": [{"n": 0, "value": "B0"}, {"n": 1, "value": "B1"}],
        },
        "initial": {"Y0": 1, "Y1": "-1/2"},
    }
    spec = build_problem(doc)
    grid = [Fraction(k, 10) for k in range(11)]
    sol = compute_coeffs(spec, 25)
    # point-mass model: the mean curve is the deterministic series value
    means = [spec.model.expect_poly(x) for x in sol.X]
    series_vals = []
    for t in grid:
        acc = Fraction(0)
        for c in reversed(means):
            acc = acc * t + c
        series_vals.append(float(acc))
    rk4 = rf.mc_rk4(spec, [float(t) for t in grid], McConfig(samples=1, seed=0, rk4_step=1e-4))
    worst = max(abs(a - b) for a, b in zip(series_vals, rk4.mean))
    _check(
        "point-mass reduction matches RK4",
        worst <= 1e-6,
        f"max |series - RK4(h=1e-4)| = {worst:.2e} <= 1e-6 on [0, 1]",
    )


def test_rk4_order():
    doc = {
        "symbols": [{"name": "b", "dist": "pointmass", "params": {"value": 4}}],
        "series": {"B": [{"n": 0, "value": "b"}]},
        "initial": {"Y0": 1, "Y1": 0},
    }
    spec = build_problem(doc)
    grid = [0.25 * k for k in range(13)]
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3):
        curve = rf.mc_rk4(spec, grid, McConfig(samples=1, seed=0, rk4_step=h))
        errors.append(max(abs(m - math.cos(2 * t)) for m, t in zip(curve.mean, grid)))
    ratios = [c / f for c, f in zip(errors, errors[1:])]
    _check(
        "RK4 fourth-order convergence",
        all(12 < r < 20 for r in ratios),
        "error shrink per halving: " + ", ".join(f"{r:.1f}x" for r in ratios)
        + " (accepted band 12x-20x)",
    )


@pytest.fixture(autouse=True)
def _quiet_single_draw():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        yield
