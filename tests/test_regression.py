import tracemalloc

import numpy as np
import pytest
import scipy.stats

from confbands import regression
from confbands.core import substream
from confbands.regression import (
    SEPARATION_NORM,
    FormulaError,
    Table,
    Term,
    build_design,
    fit_logistic,
    fit_ols,
    parse_formula,
    predict_mean,
    scb_coef_bootstrap,
    scb_mean_bootstrap,
)
from confbands.simulate import SimDesign, generate


def expit(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestParseFormula:
    def test_powers(self):
        spec = parse_formula("y ~ x1 + I(x1^2) + I(x1^3)")
        assert spec.response == "y"
        assert spec.terms == (
            Term("main", "x1"),
            Term("power", "x1", 2),
            Term("power", "x1", 3),
        )

    def test_dot(self):
        spec = parse_formula("y ~ .")
        assert spec.terms == (Term("all"),)

    def test_double_tilde_rejected(self):
        with pytest.raises(FormulaError):
            parse_formula("y ~~ x")

    def test_whitespace_insensitive(self):
        assert parse_formula(" y~x1+ I( x1 ^ 2 ) ") == parse_formula("y ~ x1 + I(x1^2)")

    def test_duplicate_terms_rejected(self):
        with pytest.raises(FormulaError, match="duplicate"):
            parse_formula("y ~ x1 + x1")

    def test_response_as_predictor_rejected(self):
        with pytest.raises(FormulaError, match="response"):
            parse_formula("y ~ y")

    def test_power_must_be_at_least_two(self):
        with pytest.raises(FormulaError, match="power"):
            parse_formula("y ~ I(x^1)")

    def test_error_carries_position(self):
        with pytest.raises(FormulaError, match="position"):
            parse_formula("y ~ x +")

    def test_names_starting_with_I(self):
        spec = parse_formula("y ~ Iks")
        assert spec.terms == (Term("main", "Iks"),)

    def test_dot_expands_in_table_order(self, rng):
        t = Table.from_arrays(
            b=rng.standard_normal(20), y=rng.standard_normal(20), a=rng.standard_normal(20)
        )
        _, names, _ = build_design(t, parse_formula("y ~ ."))
        assert names == ["intercept", "b", "a"]


class TestFitOls:
    def test_exact_recovery(self, rng):
        x = rng.standard_normal(30)
        t = Table.from_arrays(x=x, y=2.0 + 3.0 * x)
        fit = fit_ols(t, parse_formula("y ~ x"))
        np.testing.assert_allclose(fit.beta, [2.0, 3.0], atol=1e-10)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-16)

    def test_overflowing_response_refused(self, rng):
        # one huge response cell used to give sigma2 = inf and an all-inf cov_beta
        y = rng.standard_normal(20)
        y[4] = 1e160
        t = Table.from_arrays(x=rng.standard_normal(20), y=y)
        with pytest.raises(ValueError, match="response 'y' overflows"):
            fit_ols(t, parse_formula("y ~ x"))

    def test_intercept_only_is_mean(self, rng):
        y = rng.standard_normal(25)
        t = Table.from_arrays(z=np.zeros(25), y=y)
        # intercept-only via a formula with one constant-free predictor is not
        # expressible; fit y ~ z with z == 0 is rank deficient, so use the
        # design directly: mean recovery through a trivial regression
        t2 = Table.from_arrays(x=rng.standard_normal(25), y=y)
        fit = fit_ols(t2, parse_formula("y ~ x"))
        ybar_model = fit.beta[0] + fit.beta[1] * t2.column("x").mean()
        assert ybar_model == pytest.approx(y.mean())

    def test_matches_pinv_oracle(self, rng):
        X = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        t = Table.from_arrays(a=X[:, 0], b=X[:, 1], c=X[:, 2], y=y)
        fit = fit_ols(t, parse_formula("y ~ a + b + c"))
        Xd = np.column_stack([np.ones(50), X])
        beta_oracle = np.linalg.pinv(Xd) @ y
        np.testing.assert_allclose(fit.beta, beta_oracle, atol=1e-8)

    def test_orthogonality_invariant(self, rng):
        X = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        t = Table.from_arrays(**{f"x{i}": X[:, i] for i in range(4)}, y=y)
        fit = fit_ols(t, parse_formula("y ~ x0 + x1 + x2 + x3"))
        Xd, _, _ = build_design(t, fit.spec)
        resid = y - Xd @ fit.beta
        scale = max(np.abs(Xd.T @ y).max(), 1.0)
        assert np.abs(Xd.T @ resid).max() < 1e-8 * scale

    def test_rank_deficiency_names_columns(self, rng):
        x = rng.standard_normal(30)
        t = Table.from_arrays(x=x, xx=2 * x, y=rng.standard_normal(30))
        with pytest.raises(ValueError) as info:
            fit_ols(t, parse_formula("y ~ x + xx"))
        assert str(info.value) == "design is rank deficient; collinear columns: x, xx"

    def test_constant_column_named_with_the_intercept(self, rng):
        # the larger column leads the pivoted QR, so only the intercept used to be named
        t = Table.from_arrays(x=rng.standard_normal(30), c=np.full(30, 3.0),
                              y=rng.standard_normal(30))
        with pytest.raises(ValueError) as info:
            fit_ols(t, parse_formula("y ~ x + c"))
        assert str(info.value) == "design is rank deficient; collinear columns: intercept, c"

    def test_needs_enough_rows(self, rng):
        t = Table.from_arrays(x=rng.standard_normal(2), y=rng.standard_normal(2))
        with pytest.raises(ValueError, match="rows"):
            fit_ols(t, parse_formula("y ~ x"))


class TestFitLogistic:
    def test_balanced_intercept_zero(self, rng):
        y = np.array([0.0, 1.0] * 20)
        t = Table.from_arrays(x=rng.standard_normal(40), y=y)
        fit = fit_logistic(t, parse_formula("y ~ x"))
        # covariate is noise; intercept should be near logit(0.5) = 0
        assert abs(fit.beta[0]) < 0.8

    def test_intercept_recovers_logit_rate(self):
        # symmetric x design with success rate exactly 0.73: the MLE slope is
        # 0 by symmetry and the intercept is logit(0.73)
        y = np.concatenate([np.ones(146), np.zeros(54)])
        x = np.concatenate([np.tile([1.0, -1.0], 73), np.tile([1.0, -1.0], 27)])
        fit = fit_logistic(Table.from_arrays(x=x, y=y), parse_formula("y ~ x"))
        assert fit.beta[0] == pytest.approx(np.log(0.73 / 0.27), abs=1e-8)
        assert fit.beta[1] == pytest.approx(0.0, abs=1e-8)

    def test_score_condition_at_convergence(self, rng):
        x = rng.standard_normal(80)
        p = expit(0.3 - 0.7 * x)
        y = (rng.random(80) < p).astype(float)
        t = Table.from_arrays(x=x, y=y)
        fit = fit_logistic(t, parse_formula("y ~ x"))
        X, _, yv = build_design(t, fit.spec)
        score = X.T @ (yv - expit(X @ fit.beta))
        assert np.abs(score).max() < 1e-8

    def test_response_must_be_binary(self, rng):
        t = Table.from_arrays(x=rng.standard_normal(20), y=rng.standard_normal(20))
        with pytest.raises(ValueError, match="values in"):
            fit_logistic(t, parse_formula("y ~ x"))

    def test_separation_detected(self):
        # perfectly separated with a razor-thin margin, so the coefficient
        # diverges past the monitor before the score can converge
        x = np.concatenate([np.linspace(-2, -0.001, 20), np.linspace(0.001, 2, 20)])
        y = (x > 0).astype(float)
        with pytest.raises(ValueError, match="quasi-separation|IRLS failed"):
            fit_logistic(Table.from_arrays(x=x, y=y), parse_formula("y ~ x"))


class TestPredictMean:
    def test_saturated_noiseless(self, rng):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = 1.0 - 2.0 * x
        t = Table.from_arrays(x=x, y=y)
        fit = fit_ols(t, parse_formula("y ~ x"))
        eta, _ = predict_mean(fit, Table.from_arrays(x=x))
        np.testing.assert_allclose(eta, y, atol=1e-10)

    def test_intercept_only_se(self, rng):
        # a zero-coefficient covariate leaves the intercept SE near
        # sqrt(sigma2/n) at the covariate mean
        n = 200
        x = rng.standard_normal(n)
        y = 5.0 + rng.standard_normal(n)
        fit = fit_ols(Table.from_arrays(x=x, y=y), parse_formula("y ~ x"))
        _, se = predict_mean(fit, Table.from_arrays(x=np.array([x.mean()])))
        assert se[0] == pytest.approx(np.sqrt(fit.sigma2 / n), rel=1e-10)

    def test_matrix_product_oracle(self, rng):
        X = rng.standard_normal((40, 2))
        y = rng.standard_normal(40)
        t = Table.from_arrays(a=X[:, 0], b=X[:, 1], y=y)
        fit = fit_ols(t, parse_formula("y ~ a + b"))
        grid = Table.from_arrays(a=rng.standard_normal(7), b=rng.standard_normal(7))
        eta, se = predict_mean(fit, grid)
        G = np.column_stack([np.ones(7), grid.column("a"), grid.column("b")])
        np.testing.assert_allclose(eta, G @ fit.beta, atol=1e-12)
        np.testing.assert_allclose(
            se, np.sqrt(np.diag(G @ fit.cov_beta @ G.T)), atol=1e-12
        )

    def test_missing_columns_error(self, rng):
        t = Table.from_arrays(x=rng.standard_normal(20), y=rng.standard_normal(20))
        fit = fit_ols(t, parse_formula("y ~ x"))
        with pytest.raises(ValueError, match="missing columns"):
            predict_mean(fit, Table.from_arrays(z=np.zeros(3)))

    def test_non_finite_grid_rejected(self, rng):
        # a NaN grid cell used to reach the bootstrap, whose every replicate
        # then failed: "bootstrap exceeded the retry budget"
        t = Table.from_arrays(x=rng.standard_normal(20), y=rng.standard_normal(20))
        with pytest.raises(ValueError, match="non-finite values in modeled columns of the grid"):
            scb_mean_bootstrap(t, parse_formula("y ~ x"), Table.from_arrays(x=[0.0, np.nan]),
                               n_boot=100)

    def test_dot_is_expanded_at_fit_time(self, rng):
        t = Table.from_arrays(a=rng.standard_normal(20), b=rng.standard_normal(20),
                              y=rng.standard_normal(20))
        fit = fit_ols(t, parse_formula("y ~ ."))
        assert fit.spec.terms == (Term("main", "a"), Term("main", "b"))
        with pytest.raises(ValueError, match="grid is missing columns: b"):
            predict_mean(fit, Table.from_arrays(a=np.zeros(3)))

    def test_column_named_like_a_power_term(self, rng):
        # with "y ~ .", a data column named "I(a^2)" is a plain column: the
        # grid's "I(a^2)" column is used, not a**2
        a, other = rng.standard_normal(40), rng.standard_normal(40)
        t = Table.from_arrays(**{"a": a, "I(a^2)": other, "y": a - other + rng.standard_normal(40)})
        fit = fit_ols(t, parse_formula("y ~ ."))
        assert fit.term_names == ("intercept", "a", "I(a^2)")
        ga, gother = np.linspace(-2, 2, 9), np.linspace(3, -3, 9)
        eta, se = predict_mean(fit, Table.from_arrays(**{"a": ga, "I(a^2)": gother}))
        G = np.column_stack([np.ones(9), ga, gother])
        np.testing.assert_allclose(eta, G @ fit.beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(se, np.sqrt(np.diag(G @ fit.cov_beta @ G.T)), rtol=0, atol=1e-12)


class TestMeanBootstrap:
    def test_zero_noise_degenerate(self, rng):
        x = rng.standard_normal(40)
        t = Table.from_arrays(x=x, y=1.0 + 2.0 * x)
        grid = Table.from_arrays(x=np.linspace(-1, 1, 11))
        with pytest.warns(UserWarning, match="degenerate"):
            band = scb_mean_bootstrap(t, parse_formula("y ~ x"), grid, n_boot=100, seed=0)
        np.testing.assert_allclose(band.scb_low, band.scb_up, atol=1e-10)

    def test_seed_determinism(self, rng):
        x = rng.standard_normal(60)
        y = x + rng.standard_normal(60)
        t = Table.from_arrays(x=x, y=y)
        grid = Table.from_arrays(x=np.linspace(-2, 2, 15))
        b1 = scb_mean_bootstrap(t, parse_formula("y ~ x"), grid, n_boot=150, seed=9)
        b2 = scb_mean_bootstrap(t, parse_formula("y ~ x"), grid, n_boot=150, seed=9)
        assert np.array_equal(b1.scb_low, b2.scb_low)
        assert b1.q_alpha == b2.q_alpha

    def test_simultaneous_contains_pointwise(self, rng):
        x = rng.standard_normal(80)
        y = 1 + x - 0.5 * x**2 + rng.standard_normal(80)
        t = Table.from_arrays(x=x, y=y)
        grid = Table.from_arrays(x=np.linspace(-2, 2, 40))
        band = scb_mean_bootstrap(
            t, parse_formula("y ~ x + I(x^2)"), grid, n_boot=400, alpha=0.05, seed=3
        )
        z = scipy.stats.norm.ppf(0.975)
        assert band.q_alpha >= z

    def test_logistic_band_is_expit_image(self, rng):
        x = rng.standard_normal(90)
        p = expit(0.5 * x)
        y = (rng.random(90) < p).astype(float)
        t = Table.from_arrays(x=x, y=y)
        grid = Table.from_arrays(x=np.linspace(-1.5, 1.5, 21))
        band = scb_mean_bootstrap(
            t, parse_formula("y ~ x"), grid, family="binomial", n_boot=200, seed=4
        )
        assert band.link == "logit"
        assert np.all(band.scb_low > 0) and np.all(band.scb_up < 1)
        assert np.all(band.scb_low <= band.eta_hat) and np.all(band.eta_hat <= band.scb_up)
        # monotone transform preserves ordering: width shrinks toward 0/1
        assert np.all(band.scb_low < band.scb_up)

    def test_grid_boot_used_for_max(self, rng):
        x = rng.standard_normal(70)
        y = x + rng.standard_normal(70)
        t = Table.from_arrays(x=x, y=y)
        grid = Table.from_arrays(x=np.linspace(-1, 1, 5))
        wide = Table.from_arrays(x=np.linspace(-3, 3, 25))
        b_default = scb_mean_bootstrap(t, parse_formula("y ~ x"), grid, n_boot=200, seed=5)
        b_wide = scb_mean_bootstrap(
            t, parse_formula("y ~ x"), grid, n_boot=200, grid_boot=wide, seed=5
        )
        # maximizing over a wider grid cannot shrink the critical value
        assert b_wide.q_alpha >= b_default.q_alpha

    def test_min_boot_enforced(self, rng):
        t = Table.from_arrays(x=rng.standard_normal(30), y=rng.standard_normal(30))
        with pytest.raises(ValueError, match="n_boot"):
            scb_mean_bootstrap(t, parse_formula("y ~ x"), Table.from_arrays(x=np.zeros(1)), n_boot=10)


class TestCoefBootstrap:
    def test_domain_labels(self, rng):
        x = rng.standard_normal(50)
        t = Table.from_arrays(x=x, y=x + rng.standard_normal(50))
        band = scb_coef_bootstrap(t, parse_formula("y ~ x"), n_boot=150, seed=1)
        assert band.domain.labels == ("intercept", "x")

    def test_width_is_2_a_se(self, rng):
        x = rng.standard_normal(50)
        t = Table.from_arrays(x=x, y=x + rng.standard_normal(50))
        band = scb_coef_bootstrap(t, parse_formula("y ~ x"), n_boot=150, seed=1)
        np.testing.assert_allclose(
            band.scb_up - band.scb_low, 2 * band.q_alpha * band.se
        )

    def test_column_permutation_equivariance(self, rng):
        X = rng.standard_normal((60, 3))
        y = X @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(60)
        t1 = Table.from_arrays(a=X[:, 0], b=X[:, 1], c=X[:, 2], y=y)
        t2 = Table.from_arrays(c=X[:, 2], a=X[:, 0], b=X[:, 1], y=y)
        b1 = scb_coef_bootstrap(t1, parse_formula("y ~ a + b + c"), n_boot=150, seed=2)
        b2 = scb_coef_bootstrap(t2, parse_formula("y ~ a + b + c"), n_boot=150, seed=2)
        # same term order in the formula: identical bands regardless of table order
        np.testing.assert_array_equal(b1.scb_low, b2.scb_low)
        # permuted formula order permutes rows identically
        b3 = scb_coef_bootstrap(t1, parse_formula("y ~ c + a + b"), n_boot=150, seed=2)
        order = [b3.domain.labels.index(lbl) for lbl in b1.domain.labels]
        np.testing.assert_allclose(np.asarray(b3.eta_hat)[order], b1.eta_hat)

    def test_logistic_coefs_stay_log_odds(self, rng):
        x = rng.standard_normal(120)
        y = (rng.random(120) < expit(2.0 + x)).astype(float)
        t = Table.from_arrays(x=x, y=y)
        band = scb_coef_bootstrap(t, parse_formula("y ~ x"), family="binomial",
                                  n_boot=150, seed=3)
        assert band.link == "identity"
        assert band.scb_up.max() > 1.0  # log-odds scale, not probabilities


class TestTable:
    def test_csv_round_trip(self, tmp_path, rng):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        t = Table.from_csv(path)
        assert t.names == ("x", "y")
        assert t.n_rows == 2
        np.testing.assert_array_equal(t.column("y"), [2.0, 4.0])

    def test_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            Table(("a", "a"), {"a": [1.0]})

    def test_non_finite_modeled_columns_rejected(self):
        t = Table.from_arrays(x=np.array([1.0, np.nan]), y=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            build_design(t, parse_formula("y ~ x"))


class TestAlphaRefused:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    @pytest.mark.parametrize("band", ["mean", "coef"])
    def test_refused_before_fit(self, monkeypatch, band, alpha):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before alpha was checked")

        monkeypatch.setattr(regression, "_fit", no_fit)
        t = Table.from_arrays(x=np.arange(10.0), y=np.arange(10.0))
        spec = parse_formula("y ~ x")
        with pytest.raises(ValueError) as info:
            if band == "mean":
                scb_mean_bootstrap(t, spec, t, alpha=alpha)
            else:
                scb_coef_bootstrap(t, spec, alpha=alpha)
        assert str(info.value) == f"alpha must lie in (0, 1), got {alpha}"


class TestRefusedBeforeFit:
    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the input was checked")

        monkeypatch.setattr(regression, "_fit", no_fit)

    @pytest.mark.parametrize("band", ["mean", "coef"])
    def test_n_boot_floor(self, band):
        t = Table.from_arrays(x=np.arange(10.0), y=np.arange(10.0))
        spec = parse_formula("y ~ x")
        with pytest.raises(ValueError) as info:
            if band == "mean":
                scb_mean_bootstrap(t, spec, t, n_boot=99)
            else:
                scb_coef_bootstrap(t, spec, n_boot=99)
        assert str(info.value) == "n_boot must be at least 100, got 99"

    def test_empty_grid_boot(self):
        # an empty grid_boot used to give q_alpha = 0 and a zero-width band
        t = Table.from_arrays(x=np.arange(10.0), y=np.arange(10.0))
        with pytest.raises(ValueError) as info:
            scb_mean_bootstrap(t, parse_formula("y ~ x"), t,
                               grid_boot=Table.from_arrays(x=np.zeros(0)))
        assert str(info.value) == "grid_boot must be nonempty"


class TestBootstrapRedraw:
    def test_redraw_prone_design_still_deterministic(self, rng):
        # a covariate with two nonzero entries: many resamples are rank
        # deficient and must be redrawn
        n = 25
        x = rng.standard_normal(n)
        z = np.zeros(n)
        z[3], z[17] = 1.0, -1.0
        y = x + z + rng.standard_normal(n)
        t = Table.from_arrays(x=x, z=z, y=y)
        grid = Table.from_arrays(x=np.linspace(-1, 1, 5), z=np.zeros(5))
        b1 = scb_mean_bootstrap(t, parse_formula("y ~ x + z"), grid, n_boot=120, seed=6)
        b2 = scb_mean_bootstrap(t, parse_formula("y ~ x + z"), grid, n_boot=120, seed=6)
        assert b1.q_alpha == b2.q_alpha
        assert np.isfinite(b1.q_alpha)

    def test_zero_se_replicate_is_flagged_for_redraw(self):
        # a refit on two rows is an exact line: sigma2 = 0, so se = 0
        # against a nonzero deviation from the point fit
        x = np.arange(6.0)
        X = np.column_stack([np.ones(6), x])
        y = np.array([1.0, 3.0, 4.0, 8.0, 8.5, 12.0])
        C = np.array([[3.0, 3.0, 0.0, 0.0, 0.0, 0.0], [2.0, 1.0, 1.0, 1.0, 1.0, 0.0]])
        G = np.column_stack([np.ones(4), np.linspace(0.0, 5.0, 4)])
        center = G @ np.linalg.lstsq(X, y, rcond=None)[0]
        stats, ok = regression._replicate_max_stats(X, y, "gaussian", C, G, center)
        assert ok.tolist() == [False, True]
        assert np.isfinite(stats[1]) and stats[1] > 0


def redraw_prone_table(rng, binary=False):
    """A covariate with two nonzero entries: many resamples drop both and
    leave a rank-deficient refit."""
    n = 25
    x = rng.standard_normal(n)
    z = np.zeros(n)
    z[3], z[17] = 1.0, -1.0
    y = x + z + rng.standard_normal(n)
    return Table.from_arrays(x=x, z=z, y=(y > 0).astype(float) if binary else y)


def gather_refit(family, X, y, idx, max_iter=50, tol=1e-8):
    """Reference: an explicit refit on the resampled rows X[idx], y[idx].
    Returns (beta, cov), or None when the refit fails."""
    Xb, yb = X[idx], y[idx]
    n, p = Xb.shape
    try:
        if family == "gaussian":
            XtX = Xb.T @ Xb
            beta = np.linalg.solve(XtX, Xb.T @ yb)
            resid = yb - Xb @ beta
            return beta, (resid @ resid) / (n - p) * np.linalg.inv(XtX)
        beta = np.zeros(p)
        for _ in range(max_iter):
            prob = expit(Xb @ beta)
            score = Xb.T @ (yb - prob)
            info = (Xb * np.maximum(prob * (1.0 - prob), 1e-12)[:, None]).T @ Xb
            if np.abs(score).max() < tol:
                return beta, np.linalg.inv(info)
            beta = beta + np.linalg.solve(info, score)
            if not np.linalg.norm(beta) <= SEPARATION_NORM:
                return None
    except np.linalg.LinAlgError:
        return None
    return None


class TestCountWeightedRefits:
    """Bootstrap refits weight the original rows by their resampling counts
    instead of gathering the resampled rows."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("design", ["cubic", "redraw_prone"])
    def test_counts_match_gather_oracle(self, rng, family, design):
        binary = family == "binomial"
        if design == "redraw_prone":
            t = redraw_prone_table(rng, binary)
            spec = parse_formula("y ~ x + z")
        else:
            x = rng.standard_normal(80)
            mu = 0.3 + x - 0.4 * x**2
            y = (rng.random(80) < expit(mu)).astype(float) if binary else mu + rng.standard_normal(80)
            t = Table.from_arrays(x=x, y=y)
            spec = parse_formula("y ~ x + I(x^2)")
        X, _, y = build_design(t, spec)
        n = len(y)
        C = regression._resample_counts(substream(11, 0), 60, n)
        idx = [np.repeat(np.arange(n), c.astype(int)) for c in C]
        if family == "gaussian":
            beta, cov, ok, _ = regression._ols_refit(X, y, C)
        else:
            beta, cov, ok = regression._irls_refit(X, y, C)
        refs = [gather_refit(family, X, y, i) for i in idx]
        np.testing.assert_array_equal(ok, [r is not None for r in refs])
        assert ok.any()
        if design == "redraw_prone":
            assert not ok.all()
        for b in np.flatnonzero(ok):
            np.testing.assert_allclose(beta[b], refs[b][0], rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(cov[b], refs[b][1], rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_chunk_budget_does_not_change_results(self, rng, monkeypatch, family):
        t = redraw_prone_table(rng, binary=family == "binomial")
        spec = parse_formula("y ~ x + z")
        grid = Table.from_arrays(x=np.linspace(-1, 1, 5), z=np.zeros(5))
        n = t.n_rows

        def bands():
            return (
                scb_mean_bootstrap(t, spec, grid, family=family, n_boot=150, seed=6),
                scb_coef_bootstrap(t, spec, family=family, n_boot=150, seed=6),
            )

        results = []
        for budget in (8 * n, 8 * n * 7, 8 * n * 64):  # chunks of 1, 7 and 64 replicates
            monkeypatch.setattr(regression, "_CHUNK_BYTES", budget)
            results.append(bands())
        for one, *others in zip(*results):
            for other in others:
                assert one.q_alpha == other.q_alpha
                np.testing.assert_array_equal(one.scb_low, other.scb_low)

    def test_large_n_memory_is_bounded(self):
        # gathering the resampled rows alone would take n_boot * n * p * 8
        # bytes, about 640 MB here
        rng = np.random.default_rng(3)
        n = 200_000
        x = rng.standard_normal((n, 3))
        t = Table.from_arrays(a=x[:, 0], b=x[:, 1], c=x[:, 2],
                              y=x @ [1.0, -0.5, 0.25] + rng.standard_normal(n))
        grid = Table.from_arrays(a=np.linspace(-1, 1, 11), b=np.zeros(11), c=np.zeros(11))
        tracemalloc.start()
        try:
            band = scb_mean_bootstrap(t, parse_formula("y ~ a + b + c"), grid, n_boot=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(band.q_alpha)
        assert peak < 256 * 2**20

    @pytest.mark.parametrize("family, per_row_mib", [("gaussian", 32.2), ("binomial", 62.7)])
    def test_large_n_bootstrap_memory(self, family, per_row_mib):
        # fixed-width padded blocks must not outgrow the chunk budget at
        # large n: at most twice the tracemalloc peak of this call when
        # _rowwise made one BLAS call per replicate (per_row_mib)
        rng = np.random.default_rng(3)
        n = 200_000
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        eta = X @ [0.2, 1.0, -0.5, 0.25]
        if family == "gaussian":
            y = eta + rng.standard_normal(n)
        else:
            y = (rng.random(n) < expit(eta)).astype(float)
        G = np.column_stack([np.ones(11), np.linspace(-1, 1, 11), np.zeros((11, 2))])
        center = G @ np.linalg.lstsq(X, y, rcond=None)[0]
        tracemalloc.start()
        try:
            r_max = regression._bootstrap_max_stats(X, y, family, G, center, 20, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(r_max))
        assert peak < 2 * per_row_mib * 2**20


def cubic_logistic(rng, n=80):
    """(X, y) of a binary response on a cubic in one covariate."""
    x = rng.standard_normal(n)
    y = (rng.random(n) < expit(0.3 + x - 0.4 * x**2)).astype(float)
    X, _, y = build_design(Table.from_arrays(x=x, y=y), parse_formula("y ~ x + I(x^2)"))
    return X, y


class TestWarmStartedIrls:
    """Bootstrap IRLS refits start at the point fit's beta; a refit that fails
    from there is rerun from beta = 0, and that rerun's result is kept."""

    @staticmethod
    def recording_reruns(monkeypatch):
        """The count matrices of the zero-start reruns, in call order."""
        reruns = []
        irls = regression._irls_refit

        def recording(X, y, C, beta0=None):
            if beta0 is None:
                reruns.append(C)
            return irls(X, y, C, beta0)

        monkeypatch.setattr(regression, "_irls_refit", recording)
        return reruns

    def test_flags_equal_the_zero_start_on_redraw_prone_design(self, rng):
        fit, X, y = regression._fit(redraw_prone_table(rng, binary=True),
                                    parse_formula("y ~ x + z"), "binomial")
        C = regression._resample_counts(substream(11, 0), 300, len(y))
        ok_warm = regression._refit("binomial", X, y, C, fit.beta)[2]
        ok_zero = regression._refit("binomial", X, y, C)[2]
        np.testing.assert_array_equal(ok_warm, ok_zero)
        assert ok_zero.any() and not ok_zero.all()

    @pytest.mark.parametrize("design", ["redraw_prone", "logistic_outcome"])
    def test_warm_failure_takes_the_zero_start_result(self, monkeypatch, rng, design):
        # redraw-prone: the refits that drop both of z's nonzero rows fail
        # from either start. logistic_outcome: two refits diverge from the
        # point fit and converge from zero. Each rerun must come back exactly
        # as the zero start leaves it: flag, beta and covariance.
        if design == "redraw_prone":
            table, spec = redraw_prone_table(rng, binary=True), parse_formula("y ~ x + z")
        else:
            table = generate(SimDesign(design, n=100), substream(7, 1))[0]
            spec = parse_formula("y ~ x1 + I(x1^2) + I(x1^3)")
        fit, X, y = regression._fit(table, spec, "binomial")
        C = regression._resample_counts(substream(12 if design == "redraw_prone" else 3, 0),
                                        300, len(y))
        zero = regression._irls_refit(X, y, C)
        reruns = self.recording_reruns(monkeypatch)
        warm = regression._irls_refit(X, y, C, fit.beta)
        assert len(reruns) == 1 and len(reruns[0])
        rows = [int(np.flatnonzero((C == c).all(axis=1))[0]) for c in reruns[0]]
        np.testing.assert_array_equal(warm[2][rows], design == "logistic_outcome")
        for got, want in zip(warm, zero):
            np.testing.assert_array_equal(got[rows], want[rows])

    def test_diverging_start_gives_the_zero_start_exactly(self, monkeypatch, rng):
        # a start far out on the logit scale saturates every probability, so
        # Newton's method leaves the separation norm from it; every refit is
        # rerun and the whole result is the zero start's
        X, y = cubic_logistic(rng)
        C = regression._resample_counts(substream(11, 0), 60, len(y))
        zero = regression._irls_refit(X, y, C)
        assert zero[2].all()
        reruns = self.recording_reruns(monkeypatch)
        warm = regression._irls_refit(X, y, C, np.full(X.shape[1], 40.0))
        assert len(reruns) == 1 and len(reruns[0]) == len(C)
        for got, want in zip(warm, zero):
            np.testing.assert_array_equal(got, want)

    def test_warm_refits_match_gather_oracle(self, rng):
        # both starts stop at max |score| < 1e-8, from different sides, so
        # they agree to the score tolerance rather than to rounding
        X, y = cubic_logistic(rng)
        beta0 = regression._irls_refit(X, y, np.ones((1, len(y))))[0][0]
        C = regression._resample_counts(substream(11, 0), 60, len(y))
        beta, cov, ok = regression._irls_refit(X, y, C, beta0)
        assert ok.all()
        for b, c in enumerate(C):
            ref = gather_refit("binomial", X, y, np.repeat(np.arange(len(y)), c.astype(int)))
            np.testing.assert_allclose(beta[b], ref[0], rtol=1e-7, atol=1e-7)
            np.testing.assert_allclose(cov[b], ref[1], rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("kind", ["logistic_outcome", "logistic_coef"])
    def test_bootstrap_maxima_move_by_the_score_tolerance_only(self, kind):
        n = 100 if kind == "logistic_outcome" else 200
        table, _ = generate(SimDesign(kind, n=n), substream(7, 0))
        spec = parse_formula("y ~ x1 + I(x1^2) + I(x1^3)" if kind == "logistic_outcome"
                             else "y ~ .")
        fit, X, y = regression._fit(table, spec, "binomial")
        D = X[:20] if kind == "logistic_outcome" else np.eye(X.shape[1])
        warm = regression._bootstrap_max_stats(X, y, "binomial", D, D @ fit.beta, 300, 3,
                                               fit.beta)
        zero = regression._bootstrap_max_stats(X, y, "binomial", D, D @ fit.beta, 300, 3)
        np.testing.assert_allclose(warm, zero, rtol=1e-8, atol=0)


def design_products(n, p, g, rng):
    """Every (n, k) right-hand side that a bootstrap of a design with n rows,
    p coefficients and a g-point statistic grid hands to _rowwise, in the
    layout it has there: the Gram outer products, X, the F-ordered X.T and
    stat_design.T, and the transposed outer products of stat_design."""
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
    D = np.eye(p) if g == p else np.column_stack([np.ones(g), rng.standard_normal((g, p - 1))])
    outer = (X[:, :, None] * X[:, None, :]).reshape(n, p * p)
    DD = (D[:, :, None] * D[:, None, :]).reshape(g, p * p)
    return [outer, X, X.T, D.T, DD.T]


class TestRowwise:
    """A row's product does not depend on its block-mates, its padding or its
    position in a block, so a bootstrap's result does not depend on its chunk
    size. This is a property of the BLAS kernels that no API promises."""

    # (n, p, grid) of the mean-outcome (n = 100, 100-point grid) and the
    # coefficient designs (n = 200, p = 6, identity statistic)
    DESIGNS = [(100, 4, 100), (200, 6, 6)]

    @pytest.mark.parametrize("n, p, g", DESIGNS, ids=["outcome", "coef"])
    def test_row_independent_of_block(self, n, p, g):
        rng = np.random.default_rng(n + p)
        width = regression._BLOCK
        products = design_products(n, p, g, rng)
        assert any(M.flags.f_contiguous and not M.flags.c_contiguous for M in products)
        for M in products:
            inner = M.shape[0]
            assert 8 * width * sum(M.shape) <= regression._BLOCK_BYTES  # full width
            mates = rng.standard_normal((2 * width, inner)) * rng.uniform(0.1, 100, (2 * width, 1))
            for b, bad in enumerate([np.nan, np.inf, -np.inf, 1e308, -1e308]):
                mates[7 * b + 1] = bad  # failed replicates keep such rows
                mates[width + 5 * b] = bad
            row = rng.standard_normal(inner) * 3.0
            with np.errstate(over="ignore", invalid="ignore"):
                alone = regression._rowwise(row[None], M)[0]
                np.testing.assert_allclose(alone, row @ M, rtol=1e-12, atol=1e-12)
                for pos in range(width):
                    block = mates[:width].copy()
                    block[pos] = row
                    for got in (regression._rowwise(block, M)[pos],
                                regression._rowwise(block[:pos + 1], M)[pos],
                                regression._rowwise(np.vstack([mates[width:], block]),
                                                    M)[width + pos]):
                        assert got.tobytes() == alone.tobytes()

    def test_rows_match_one_product(self, rng):
        # a chunk that is not a multiple of the block width: the padded last
        # block's rows equal one product of the whole chunk, within rounding
        A = rng.standard_normal((150, 36))
        M = rng.standard_normal((36, 6))
        got = regression._rowwise(A, M)
        assert got.shape == (150, 6)
        np.testing.assert_allclose(got, A @ M, rtol=1e-12, atol=1e-12)
        assert regression._rowwise(A[:0], M).shape == (0, 6)


class LargestUniform:
    """A stand-in Generator whose every uniform is 1 - 2**-53, the largest
    that ``Generator.random`` returns."""

    def random(self, shape):
        return np.full(shape, 1.0 - 2.0**-53)


class TestResampleCounts:
    """Round ``attempt`` of a bootstrap reads ``substream(seed, attempt)``
    front to back, and each replicate takes the next n uniforms."""

    def counts(self, count, n, seed=5, attempt=0):
        return regression._resample_counts(substream(seed, attempt), count, n)

    def test_rows_match_generator_random_at_offset(self):
        # replicate b's indices are floor(n * u) over Generator.random after
        # b * n draws of the round's stream
        n = 37
        C = self.counts(41, n)
        for b in [0, 1, 2, 9, 40]:
            rng = substream(5, 0)
            rng.random(b * n)
            idx = np.floor(n * rng.random(n)).astype(int)
            np.testing.assert_array_equal(C[b], np.bincount(idx, minlength=n))

    def test_round_in_pieces_equals_round_at_once(self):
        n = 23
        at_once = self.counts(40, n)
        for sizes in ([1] * 40, [7, 7, 7, 7, 7, 5], [13, 1, 26]):
            rng = substream(5, 0)
            pieces = [regression._resample_counts(rng, k, n) for k in sizes]
            np.testing.assert_array_equal(np.concatenate(pieces), at_once)

    def test_rows_sum_to_n(self):
        for n in (1, 2, 3, 50, 1001):
            C = self.counts(45, n)
            assert C.shape == (45, n)
            assert np.all(C >= 0)
            np.testing.assert_array_equal(C.sum(axis=1), n)

    def test_attempts_draw_different_counts(self):
        first, second = self.counts(20, 30, attempt=0), self.counts(20, 30, attempt=1)
        assert not np.any(np.all(first == second, axis=1))
        assert not np.array_equal(self.counts(20, 30, seed=6), first)

    @pytest.mark.parametrize("n", [2, 3, 2**7 - 1, 2**7, 2**7 + 1,
                                   2**20 - 1, 2**20, 2**20 + 1, 200_000])
    def test_largest_raw_output_maps_below_n(self, n):
        # the raw output 2**64 - 1 gives u = 1 - 2**-53; n * u must not round
        # up to n
        C = regression._resample_counts(LargestUniform(), 2, n)
        assert C.shape == (2, n)
        np.testing.assert_array_equal(C[:, -1], n)

    def test_first_replicates_independent_of_n_boot(self, rng, monkeypatch):
        # the counts of replicates 0..199 are the same whether 200 or 1000
        # are drawn, and whatever the chunk size
        t = Table.from_arrays(x=rng.standard_normal(40), y=rng.standard_normal(40))
        grid = Table.from_arrays(x=np.linspace(-1, 1, 5))
        drawn = []
        resample_counts = regression._resample_counts

        def record(rng, count, n):
            C = resample_counts(rng, count, n)
            drawn[-1].append(C)
            return C

        monkeypatch.setattr(regression, "_resample_counts", record)
        for n_boot, budget in [(200, regression._CHUNK_BYTES), (1000, 8 * 40 * 64)]:
            monkeypatch.setattr(regression, "_CHUNK_BYTES", budget)
            drawn.append([])
            scb_mean_bootstrap(t, parse_formula("y ~ x"), grid, n_boot=n_boot, seed=2)
        first, second = (np.concatenate(d) for d in drawn)
        assert len(first) == 200 and len(second) == 1000
        np.testing.assert_array_equal(first, second[:200])

    def test_one_stream_per_round(self, rng, monkeypatch):
        # every replicate of a round shares the round's stream; a redraw-prone
        # design needs more rounds, each keyed by its attempt number
        keys = []

        def spy(seed, *key):
            keys.append((seed, *key))
            return substream(seed, *key)

        monkeypatch.setattr(regression, "substream", spy)
        t = redraw_prone_table(rng)
        scb_coef_bootstrap(t, parse_formula("y ~ x + z"), n_boot=150, seed=6)
        assert len(keys) > 1
        assert keys == [(6, attempt) for attempt in range(len(keys))]
        keys.clear()
        t = Table.from_arrays(x=rng.standard_normal(40), y=rng.standard_normal(40))
        scb_coef_bootstrap(t, parse_formula("y ~ x"), n_boot=300, seed=3)
        assert keys == [(3, 0)]
