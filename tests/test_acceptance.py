"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte Carlo criteria
reuse a shared 500-replicate linear-design run (module-scoped fixture).
"""

import time

import numpy as np
import pytest

import confbands as cb
from confbands.core import empirical_quantile, substream
from confbands.functional import cma_max_stats, _multiplier_matrix, MAMMEN_VALUES
from confbands.plotting import PlotSpec, marching_squares, render_band_svg
from confbands.regions import ThresholdSpec, check_containment, invert_levels
from confbands.simulate import SimDesign, generate, run_coverage
from conftest import random_band
from gls_oracle import fit_gls_spot
from test_plotting import straddle_oracle
from test_regions import oracle_regions


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {detail}: {status}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def linear_bands():
    """500 replicates of the linear mean-outcome design with bands kept."""
    design = SimDesign("linear_outcome", n=100, seed=101)
    report_, bands = run_coverage(
        design, replicates=500, alpha=0.05, n_boot=1000, keep_bands=True
    )
    return report_, bands


def test_criterion_1_inversion_oracle_equivalence():
    rng = np.random.default_rng(20240601)
    start = time.perf_counter()
    violations = 0
    checked = 0
    for trial in range(1000):
        kind = "grid1d" if trial % 2 == 0 else "grid2d"
        band = random_band(rng, kind, max_len=200, max_side=30, masked=(kind == "grid2d"))
        thresholds = rng.uniform(band.scb_low[band.domain.mask_array()].min() - 1,
                                 band.scb_up[band.domain.mask_array()].max() + 1, 10)
        prev_upper = None
        for c in np.sort(thresholds):
            ru = cb.invert_upper(band, c)
            rl = cb.invert_lower(band, c)
            for r, st in ((ru, "upper"), (rl, "lower")):
                inner, outer, est = oracle_regions(band, c, st)
                if not (np.array_equal(r.inner, inner)
                        and np.array_equal(r.outer, outer)
                        and np.array_equal(r.estimate, est)):
                    violations += 1
                # sandwich
                if not (np.all(r.estimate[r.inner]) and np.all(r.outer[r.estimate])):
                    violations += 1
            # nestedness in c (thresholds visited in increasing order)
            if prev_upper is not None:
                if not (np.all(prev_upper.inner[ru.inner])
                        and np.all(prev_upper.outer[ru.outer])):
                    violations += 1
            prev_upper = ru
            # duality excluding tie cells
            ties = band.scb_up == c
            ok_cells = band.domain.mask_array() & ~ties
            if not np.array_equal(rl.inner[ok_cells], ~(band.scb_up > c)[ok_cells]):
                violations += 1
            checked += 1
        # interval intersection invariant
        a, b = np.sort(rng.uniform(band.scb_low[band.domain.mask_array()].min(),
                                   band.scb_up[band.domain.mask_array()].max(), 2))
        ri = cb.invert_interval(band, a, b)
        if not (np.array_equal(ri.inner, cb.invert_upper(band, a).inner
                               & cb.invert_lower(band, b).inner)
                and np.array_equal(ri.outer, cb.invert_upper(band, a).outer
                                   & cb.invert_lower(band, b).outer)):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(1, ok, f"{checked} inversions, {violations} violations, {elapsed:.1f}s")


def test_criterion_2_simultaneity_transfer(linear_bands):
    _, bands = linear_bands
    counterexamples = 0
    eligible = 0
    for entry in bands:
        if entry is None:
            continue
        band, truth = entry
        if not (np.all(band.scb_low <= truth) and np.all(truth <= band.scb_up)):
            continue
        eligible += 1
        levels = np.linspace(truth.min() - 0.5, truth.max() + 0.5, 50)
        regions = invert_levels(band, ThresholdSpec("upper", tuple(levels)))
        summary = check_containment(regions, truth, band.domain)
        if not summary.contain_all:
            counterexamples += 1
    ok = counterexamples == 0 and eligible > 0
    report(2, ok, f"{eligible} covering replicates, {counterexamples} counterexamples")


def test_criterion_3_linear_outcome_coverage(linear_bands):
    rep, _ = linear_bands
    ok = 0.92 <= rep.coverage <= 0.98 and rep.wall_time_s < 300
    report(3, ok, f"coverage {rep.coverage:.3f} (MCSE {rep.mc_se:.3f}), "
                  f"{rep.wall_time_s:.0f}s")


def test_criterion_4_logistic_outcome_coverage():
    design = SimDesign("logistic_outcome", n=100, seed=102)
    rep = run_coverage(design, replicates=500, alpha=0.05, n_boot=1000)
    ok = 0.90 <= rep.coverage <= 0.99
    report(4, ok, f"coverage {rep.coverage:.3f} (MCSE {rep.mc_se:.3f}), "
                  f"{len(rep.failures)} failed fits, {rep.wall_time_s:.0f}s")


def test_criterion_5_coefficient_coverage():
    lin = run_coverage(SimDesign("linear_coef", n=200, seed=103),
                       replicates=500, alpha=0.05, n_boot=1000)
    logi = run_coverage(SimDesign("logistic_coef", n=200, seed=104),
                        replicates=500, alpha=0.05, n_boot=1000)
    ok = 0.92 <= lin.coverage <= 0.98 and 0.90 <= logi.coverage <= 0.99
    report(5, ok, f"linear {lin.coverage:.3f}, logistic {logi.coverage:.3f} "
                  f"({len(logi.failures)} failed fits)")


def test_criterion_6_fosr_coverage_both_methods():
    start = time.perf_counter()
    design = SimDesign("fosr", n=100, seed=105)
    cov = {}
    for method in ("cma", "multiplier"):
        rep = run_coverage(design, replicates=200, alpha=0.05, method=method)
        cov[method] = rep.coverage
    # q agreement on identical data
    rng = substream(106)
    data, _ = generate(design, rng)
    fit = cb.fit_fosr(data, ("x",))
    q_cma = cb.scb_cma(fit, "x=1", "coefficient", n_boot=10000, seed=1).q_alpha
    q_mult = cb.scb_multiplier(data, fit, "x=1", "coefficient",
                               n_boot=5000, seed=2).q_alpha
    rel = abs(q_cma - q_mult) / q_cma
    elapsed = time.perf_counter() - start
    ok = (all(0.90 <= c <= 0.99 for c in cov.values()) and rel < 0.15
          and elapsed < 1200)
    report(6, ok, f"cma {cov['cma']:.3f}, multiplier {cov['multiplier']:.3f}, "
                  f"q rel diff {100 * rel:.1f}%, {elapsed:.0f}s")


def test_criterion_7_gls_reduction():
    rng = substream(107)
    worst = 0.0
    worst_scaled = 0.0
    for spot in range(100):
        n = 40
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        z = X @ rng.standard_normal(4) + rng.standard_normal(n)
        beta_gls, _ = fit_gls_spot(X, z, np.eye(n))
        beta_ols = np.linalg.lstsq(X, z, rcond=None)[0]
        worst = max(worst, float(np.abs(beta_gls - beta_ols).max()))
        beta_scaled, _ = fit_gls_spot(X, z, 3.0 * np.eye(n))
        worst_scaled = max(worst_scaled, float(np.abs(beta_scaled - beta_gls).max()))
    ok = worst < 1e-10 and worst_scaled < 1e-10
    report(7, ok, f"max |GLS-OLS| {worst:.2e}, max |V=3I shift| {worst_scaled:.2e}")


def test_criterion_7_gls_grid_reduction():
    # the same two checks through the grid fit that builds the bands
    rng = substream(107)
    n, nx, ny = 40, 10, 10
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    Z = np.einsum("np,pxy->nxy", X, rng.standard_normal((4, nx, ny)))
    Z += rng.standard_normal((n, nx, ny))
    data = cb.SpatialObservations(np.arange(nx), np.arange(ny), Z)
    w = np.ones(4)
    beta_none = cb.fit_gls_grid(data, X, w, cb.CorrelationSpec("none"))[0].beta
    beta_ols = np.linalg.lstsq(X, Z.reshape(n, -1), rcond=None)[0].T.reshape(nx, ny, 4)
    worst = float(np.abs(beta_none - beta_ols).max())
    beta_eye, beta_scaled = (
        cb.fit_gls_grid(data, X, w, cb.CorrelationSpec("explicit", V=c * np.eye(n)))[0].beta
        for c in (1.0, 3.0)
    )
    worst_scaled = float(np.abs(beta_scaled - beta_eye).max())
    ok = worst < 1e-10 and worst_scaled < 1e-10
    report(7, ok, f"grid: max |GLS-OLS| {worst:.2e}, max |V=3I shift| {worst_scaled:.2e}")


def test_criterion_8_multiplier_weight_moments():
    ok = True
    details = []
    for kind in ("rademacher", "gaussian", "mammen"):
        g = _multiplier_matrix(kind, (10**6,), substream(108))
        mean, var = g.mean(), g.var(ddof=1)
        ok &= abs(mean) < 4e-3 and abs(var - 1.0) < 1e-2
        details.append(f"{kind} mean {mean:+.4f} var {var:.4f}")
    mam = _multiplier_matrix("mammen", (1000,), substream(109))
    support_ok = set(np.unique(mam)) == set(MAMMEN_VALUES)
    exact = (MAMMEN_VALUES[0] == (1 - np.sqrt(5)) / 2
             and MAMMEN_VALUES[1] == (1 + np.sqrt(5)) / 2)
    ok &= support_ok and exact
    report(8, ok, "; ".join(details) + f"; mammen support exact: {support_ok}")


def test_criterion_9_quantile_oracle():
    rng = substream(110)
    mismatches = 0
    for _ in range(10**4):
        size = int(rng.integers(1, 200))
        samples = rng.standard_normal(size)
        level = float(rng.uniform(0.01, 0.99))
        got = empirical_quantile(samples, level)
        want = float(np.sort(samples)[int(np.ceil(level * size)) - 1])
        mismatches += got != want
    report(9, mismatches == 0, f"{mismatches} mismatches in 10^4 pairs")


def test_criterion_10_single_point_cma():
    rng = substream(111)
    d = cma_max_stats(np.eye(1), np.eye(1), np.ones(1), 10**5, rng)
    q = empirical_quantile(d, 0.95)
    target = 1.95996
    ok = abs(q - target) < 0.02
    report(10, ok, f"q {q:.4f} vs {target}")


def test_criterion_11_plot_goldens():
    # byte-identical SVG across two full pipeline runs with the same seed
    def build():
        rng = substream(112)
        kept = random_band(rng, "grid2d", max_side=15, masked=True)
        spec = PlotSpec(levels=(-0.5, 0.0, 0.5))
        return render_band_svg(kept, spec)

    svg_identical = build() == build()

    # marching-squares edge-straddle oracle on 100 random fields
    rng = np.random.default_rng(113)
    straddle_ok = True
    for _ in range(100):
        F = rng.standard_normal((15, 15))
        level = float(rng.standard_normal() * 0.5)
        try:
            straddle_oracle(F, level, marching_squares(F, level))
        except AssertionError:
            straddle_ok = False
            break

    # contour-region consistency: inner region mask inside outer region mask
    consistent = True
    rng2 = np.random.default_rng(114)
    for _ in range(20):
        band = random_band(rng2, "grid2d", max_side=12, masked=True)
        m = band.domain.mask_array()
        for level in rng2.standard_normal(3):
            inner = (band.scb_low >= level) & m
            outer = (band.scb_up >= level) & m
            consistent &= bool(np.all(outer[inner]))

    ok = svg_identical and straddle_ok and consistent
    report(11, ok, f"svg identical {svg_identical}, straddle {straddle_ok}, "
                   f"region consistency {consistent}")
