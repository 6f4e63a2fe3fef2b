import json

import numpy as np
import pytest

from confbands import functional
from confbands.core import band_to_json, substream
from confbands.simulate import OUTCOME_GRID, SimDesign, fosr_truth, generate, run_coverage


class TestGenerate:
    def test_fosr_truth_value(self):
        # sin(6 pi * 0.25) = sin(3 pi / 2) = -1
        assert fosr_truth(0.25) == pytest.approx(-1.0)

    def test_linear_truth_at_zero(self):
        design = SimDesign("linear_outcome", n=50, seed=1)
        _, truth = generate(design, substream(1, 0))
        mid = np.argmin(np.abs(OUTCOME_GRID))
        # grid of 100 points straddles 0; interpolate the two neighbors
        val = np.interp(0.0, OUTCOME_GRID, truth)
        assert val == pytest.approx(-1.0, abs=1e-4)
        assert truth[mid] == pytest.approx(-1.0, abs=0.02)

    def test_logistic_truth_at_zero(self):
        design = SimDesign("logistic_outcome", n=50, seed=1)
        _, truth = generate(design, substream(1, 0))
        val = np.interp(0.0, OUTCOME_GRID, truth)
        assert val == pytest.approx(1 / (1 + np.exp(1)), abs=1e-4)  # expit(-1)

    def test_coef_design_shapes(self):
        design = SimDesign("linear_coef", n=60, seed=2)
        table, truth = generate(design, substream(2, 0))
        assert table.names == ("x1", "x2", "x3", "x4", "x5", "y")
        assert truth.shape == (6,)
        assert truth[0] == 0.0  # intercept truth

    def test_coef_covariance_structure(self):
        design = SimDesign("linear_coef", n=50000, seed=3)
        table, _ = generate(design, substream(3, 0))
        X = np.column_stack([table.column(f"x{j}") for j in range(1, 6)])
        emp = np.corrcoef(X.T)
        want = 0.4 ** np.abs(np.subtract.outer(np.arange(5), np.arange(5)))
        np.testing.assert_allclose(emp, want, atol=0.02)

    def test_fosr_dataset_fields(self):
        design = SimDesign("fosr", n=20, seed=4)
        data, truth = generate(design, substream(4, 0))
        assert data.n_times == 50
        assert data.times[0] == 0.0 and data.times[-1] == 1.0
        assert set(np.unique(data.covariates["x"])) <= {0.0, 1.0}
        assert truth.shape == (50,)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown design"):
            SimDesign("weibull", n=50)


class TestRunCoverage:
    def test_single_replicate_is_zero_or_one(self):
        design = SimDesign("linear_outcome", n=50, seed=5)
        report = run_coverage(design, replicates=1, n_boot=100)
        assert report.coverage in (0.0, 1.0)
        assert report.replicates == 1

    def test_master_seed_determinism(self):
        design = SimDesign("linear_coef", n=50, seed=6)
        r1 = run_coverage(design, replicates=5, n_boot=100)
        r2 = run_coverage(design, replicates=5, n_boot=100)
        assert r1.contained == r2.contained
        assert r1.coverage == r2.coverage

    def test_phat_equals_count_over_R(self):
        design = SimDesign("linear_outcome", n=50, seed=7)
        report = run_coverage(design, replicates=8, n_boot=100)
        assert report.coverage == sum(report.contained) / 8

    def test_report_json_fields(self):
        design = SimDesign("linear_outcome", n=50, seed=8)
        report = run_coverage(design, replicates=3, n_boot=100)
        doc = json.loads(report.to_json())
        for key in ("design", "n", "replicates", "alpha", "coverage", "mc_se",
                    "wall_time_s", "contained", "failures"):
            assert key in doc
        assert len(doc["contained"]) == 3

    def test_mc_se_formula(self):
        design = SimDesign("linear_outcome", n=50, seed=9)
        report = run_coverage(design, replicates=10, n_boot=100)
        p = report.coverage
        assert report.mc_se == pytest.approx(np.sqrt(p * (1 - p) / 10))

    @pytest.mark.slow
    def test_alpha_sweep_monotone(self):
        # coverage is nonincreasing in alpha, up to 4 MCSE slack
        design = SimDesign("linear_outcome", n=100, seed=10)
        results = []
        for alpha in (0.05, 0.2, 0.5):
            rep = run_coverage(design, replicates=60, alpha=alpha, n_boot=200)
            results.append((alpha, rep.coverage, rep.mc_se))
        for (a1, p1, s1), (a2, p2, s2) in zip(results, results[1:]):
            slack = 4 * np.sqrt(s1**2 + s2**2)
            assert p2 <= p1 + slack, f"coverage rose from alpha={a1} to {a2}"

    @pytest.mark.slow
    def test_half_alpha_near_half_coverage(self):
        design = SimDesign("linear_outcome", n=100, seed=12)
        rep = run_coverage(design, replicates=80, alpha=0.5, n_boot=200)
        assert abs(rep.coverage - 0.5) <= 4 * max(rep.mc_se, 0.056)

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("data drawn or fit before the input was checked")

        monkeypatch.setattr("confbands.simulate.generate", refuse)
        monkeypatch.setattr(functional, "fit_fosr", refuse)

    @pytest.mark.parametrize("kind, n_boot, minimum", [("linear_coef", 5, 100),
                                                       ("linear_outcome", 99, 100),
                                                       ("fosr", 0, 1)])
    def test_n_boot_below_the_design_minimum_refused(self, no_fit, kind, n_boot, minimum):
        # used to fail every replicate and report a coverage of 0
        with pytest.raises(ValueError, match=f"^n_boot must be at least {minimum} "):
            run_coverage(SimDesign(kind, n=20, seed=1), replicates=2, n_boot=n_boot)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan")])
    def test_alpha_outside_unit_interval_refused(self, no_fit, alpha):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\)"):
            run_coverage(SimDesign("linear_outcome", n=20), replicates=1, alpha=alpha)

    @pytest.mark.parametrize("kind, method, default", [("linear_outcome", "cma", 1000),
                                                       ("linear_coef", "cma", 1000),
                                                       ("fosr", "cma", 10000),
                                                       ("fosr", "multiplier", 5000)])
    def test_default_n_boot_is_the_band_constructors(self, kind, method, default):
        design = SimDesign(kind, n=20, seed=3)
        runs = [run_coverage(design, replicates=1, method=method, n_boot=n_boot,
                             keep_bands=True)[1][0][0] for n_boot in (None, default)]
        assert band_to_json(runs[0]) == band_to_json(runs[1])
