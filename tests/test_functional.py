import copy
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from confbands import functional
from confbands.core import substream
from confbands.functional import (
    _SPOT_BLOCK,
    _SUBJECT_BLOCK,
    MAMMEN_PROBS,
    MAMMEN_VALUES,
    FunctionalDataset,
    SubsetSpec,
    bspline_basis,
    cma_max_stats,
    difference_penalty,
    _multiplier_matrix,
    fit_fosr,
    multiplier_max_stats,
    predict_target,
    scb_cma,
    scb_multiplier,
)
from confbands.simulate import SimDesign, generate
from conftest import ONE_CELL_FOSR_ERROR, one_cell_fosr


def make_dataset(rng, n=20, T=40, beta1=None, noise=0.0, subject_fns=None):
    t = np.linspace(0.0, 1.0, T)
    x = (rng.random(n) < 0.5).astype(float)
    if beta1 is None:
        beta1 = np.zeros(T)
    Y = beta1[None, :] * x[:, None]
    if subject_fns is not None:
        scores = rng.standard_normal((n, subject_fns.shape[1]))
        Y = Y + scores @ subject_fns.T
    if noise:
        Y = Y + rng.standard_normal((n, T)) * noise
    return FunctionalDataset(tuple(range(n)), t, Y, {"x": x})


@pytest.mark.parametrize("times, message", [
    ([[0.0, 1.0]], "times must be a nonempty 1-D sequence"),
    ([], "times must be a nonempty 1-D sequence"),
    ([0.0, 1.0, 1.0], "times must be strictly increasing"),
])
def test_times_checked_as_an_axis(times, message):
    Y = np.zeros((1, np.size(times)))
    with pytest.raises(ValueError) as info:
        FunctionalDataset((0,), times, Y, {})
    assert str(info.value) == message


class TestBasis:
    def test_partition_of_unity(self):
        t = np.linspace(0, 1, 50)
        B = bspline_basis(t, 30)
        assert B.shape == (50, 30)
        np.testing.assert_allclose(B.sum(axis=1), 1.0, atol=1e-10)

    def test_penalty_psd(self):
        P = difference_penalty(12)
        vals = np.linalg.eigvalsh(P)
        assert vals.min() > -1e-12
        # second-order: constants and linears are unpenalized
        assert np.allclose(P @ np.ones(12), 0.0, atol=1e-12)


class TestFitFosr:
    def test_noise_free_recovery(self, rng):
        t = np.linspace(0, 1, 40)
        B = bspline_basis(t, 12)
        coef = rng.standard_normal(12)
        beta1 = B @ coef  # exactly representable target
        data = make_dataset(rng, n=20, T=40, beta1=beta1)
        with pytest.warns(UserWarning, match="residuals are zero"):
            fit = fit_fosr(data, ("x",), k_basis=12)
        eta, _, _ = predict_target(fit, "x=1", "coefficient")
        assert np.max(np.abs(eta - beta1)) < 1e-6
        # every leave-out is the exact least-squares fit too (K = 0), not an
        # FPCA of the ladder-floor residue
        assert np.max(np.abs(fit.contributions)) < 1e-8

    def test_planted_rank_two_fpca(self, rng):
        t = np.linspace(0, 1, 40)
        fns = np.column_stack([np.sqrt(2) * np.sin(2 * np.pi * t),
                               np.sqrt(2) * np.cos(2 * np.pi * t)])
        data = make_dataset(rng, n=30, T=40, subject_fns=fns)
        fit = fit_fosr(data, ("x",), k_basis=15, pve=0.99)
        assert fit.eigenfunctions.shape[1] == 2
        # estimated eigenfunctions span the construction
        proj = fns - fit.eigenfunctions @ (
            np.linalg.pinv(fit.eigenfunctions) @ fns
        )
        assert np.max(np.abs(proj)) < 1e-2

    def test_orthonormal_eigenfunctions(self, rng):
        fns = np.column_stack([np.sin(2 * np.pi * np.linspace(0, 1, 40)),
                               np.linspace(-1, 1, 40)])
        data = make_dataset(rng, n=25, T=40, subject_fns=fns, noise=0.2)
        fit = fit_fosr(data, ("x",), k_basis=12)
        Phi = fit.eigenfunctions
        dt = 1.0 / 39
        gram = Phi.T @ Phi * dt
        np.testing.assert_allclose(gram, np.eye(Phi.shape[1]), atol=1e-8)
        # variances nonincreasing
        assert np.all(np.diff(fit.score_variances) <= 1e-12)

    def test_cov_coef_psd(self, rng):
        data = make_dataset(rng, n=15, T=25, noise=0.3)
        fit = fit_fosr(data, ("x",), k_basis=8)
        vals = np.linalg.eigvalsh(fit.cov_coef)
        assert vals.min() > -1e-10

    @pytest.mark.parametrize("missing, n_components",
                             [(True, None), (False, 0), (True, 0), (False, None)])
    def test_refit_matches_dense_oracle(self, rng, missing, n_components):
        # the whole pipeline solved directly on dense designs: the refit on
        # W = [Z | U], with one block of score columns per subject, at the
        # fit's own FPCA, and every leave-one-subject-out pipeline (penalized
        # mean model at the fit's lambda, FPCA, refit) without subject i
        t = np.linspace(0, 1, 25)
        fns = np.column_stack([np.sqrt(2) * np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        data = make_dataset(rng, n=24, T=25, beta1=np.sin(2 * np.pi * t), noise=0.3,
                            subject_fns=fns)
        Y = data.outcomes.copy()
        if missing:
            # about 10% of the cells, in every other subject, so that fully
            # and partly observed subjects mix
            Y[(rng.random(Y.shape) < 0.2) & (np.arange(24) % 2 == 0)[:, None]] = np.nan
            data = FunctionalDataset(data.ids, data.times, Y, data.covariates)
        fit = fit_fosr(data, ("x",), k_basis=8, n_components=n_components)
        assert np.isnan(Y).any() == missing
        if n_components is None:
            assert fit.eigenfunctions.shape[1] > 0 and fit.noise_variance > 0.01

        n, T, kb = Y.shape[0], Y.shape[1], 8
        p = 2 * kb
        B = fit.basis.matrix
        Xc = np.column_stack([np.ones(n), data.covariates["x"]])
        S = np.kron(np.eye(2), difference_penalty(kb))

        def design(keep):  # observed outcomes of subjects keep, their Z rows
            rows, cols = np.nonzero(~np.isnan(Y[keep]))
            subject = np.flatnonzero(keep)[rows]
            Z = (Xc[subject][:, :, None] * B[cols][:, None, :]).reshape(len(rows), p)
            return rows, cols, Y[subject, cols], Z

        def dense_refit(keep, Phi, score_variances, noise_variance):
            rows, cols, y, Z = design(keep)
            K = Phi.shape[1]
            U = np.zeros((len(y), keep.sum() * K))
            U[np.arange(len(y))[:, None], rows[:, None] * K + np.arange(K)] = Phi[cols]
            W = np.hstack([Z, U])
            ridge = noise_variance / np.maximum(score_variances, 1e-10)
            A = W.T @ W + scipy.linalg.block_diag(1e-6 * S, np.kron(np.eye(keep.sum()), np.diag(ridge)))
            return np.linalg.solve(A, W.T @ y), y, W, A

        everyone = np.ones(n, dtype=bool)
        b, y, W, A = dense_refit(everyone, fit.eigenfunctions, fit.score_variances,
                                 fit.noise_variance)
        K = fit.eigenfunctions.shape[1]
        np.testing.assert_allclose(fit.coef.ravel(), b[:p], rtol=0, atol=1e-9)
        np.testing.assert_allclose(fit.scores, b[p:].reshape(n, K), rtol=0, atol=1e-9)
        edf = np.trace(np.linalg.solve(A, W.T @ W))
        sigma2 = np.sum((y - W @ b) ** 2) / (len(y) - edf)
        assert abs(fit.sigma2 - sigma2) < 1e-9

        for i in range(n):
            keep = everyone.copy()
            keep[i] = False
            rows, cols, y_i, Z_i = design(keep)
            mean_coef = np.linalg.solve(Z_i.T @ Z_i + fit.basis.lambda_ * S, Z_i.T @ y_i)
            E = np.full((n - 1, T), np.nan)
            E[rows, cols] = y_i - Z_i @ mean_coef
            b_i = dense_refit(keep, *fpca_oracle(E, t[1] - t[0], 0.95, n_components))[0]
            np.testing.assert_allclose(fit.contributions[i], (n - 1) / n * (b[:p] - b_i[:p]),
                                       rtol=0, atol=1e-9)

    def test_fpca_pools_every_observed_pair(self, rng):
        # exactly two complete rows: the FPCA used to take its covariance
        # from those two alone, which left K = 1 and noise_variance ~ 1e-15
        t = np.linspace(0, 1, 25)
        fns = np.column_stack([np.sqrt(2) * np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)])
        data = make_dataset(rng, n=24, T=25, noise=0.3, subject_fns=fns)
        Y = data.outcomes.copy()
        Y[rng.random(Y.shape) < 0.1] = np.nan
        Y[np.arange(2, 24), rng.integers(0, 25, 22)] = np.nan
        Y[:2] = data.outcomes[:2]
        assert (~np.isnan(Y).any(axis=1)).sum() == 2
        fit = fit_fosr(FunctionalDataset(data.ids, data.times, Y, data.covariates),
                       ("x",), k_basis=8)
        assert fit.noise_variance > 0.01
        assert fit.eigenfunctions.shape[1] >= 2

    @pytest.mark.parametrize("k_basis", [4, 6])
    def test_singular_score_block_names_subjects(self, k_basis):
        # used to raise a bare LinAlgError from the full fit's score blocks
        with pytest.raises(ValueError) as info:
            fit_fosr(one_cell_fosr(), ("x",), k_basis=k_basis)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert str(info.value) == ONE_CELL_FOSR_ERROR

    @pytest.mark.parametrize("names, named", [
        (("x", "x"), "x, x"),
        (("x", "site"), "intercept, site"),
        (("x", "u", "v"), "intercept, x, u, v"),
    ], ids=["duplicate", "constant", "combination"])
    def test_collinear_covariates_refused(self, rng, names, named):
        # all three used to fit without complaint, the duplicate and the
        # constant with cov_coef entries thousands of times those of the fit
        # on x alone
        data = make_dataset(rng, n=40, T=20, noise=0.3)
        x, u = data.covariates["x"], rng.standard_normal(40)
        covariates = {"x": x, "site": np.full(40, 5.0), "u": u, "v": 2.0 - x + 3.0 * u}
        data = FunctionalDataset(data.ids, data.times, data.outcomes, covariates)
        with pytest.raises(ValueError) as info:
            fit_fosr(data, names, k_basis=8)
        assert str(info.value) == f"design is rank deficient; collinear columns: {named}"

    def test_one_covariate_name(self, rng):
        # a name used to be taken as a sequence: "unknown covariate 'a'"
        data = make_dataset(rng, n=20, T=20, noise=0.3)
        covariates = {"x": data.covariates["x"], "age": rng.uniform(20, 60, 20)}
        data = FunctionalDataset(data.ids, data.times, data.outcomes, covariates)
        fit = fit_fosr(data, "age", k_basis=8)
        assert fit.covariate_names == ("age",)
        np.testing.assert_array_equal(fit.coef, fit_fosr(data, ("age",), k_basis=8).coef)

    def test_needs_ten_subjects(self, rng):
        data = make_dataset(rng, n=12, T=10, noise=0.1)
        small = FunctionalDataset(data.ids[:5], data.times, data.outcomes[:5],
                                  {"x": data.covariates["x"][:5]})
        with pytest.raises(ValueError, match="10 subjects"):
            fit_fosr(small, ("x",), k_basis=6)

    @pytest.mark.parametrize("setting, message", [
        ({"pve": 2.0}, "pve must lie in (0, 1], got 2.0"),
        ({"pve": np.nan}, "pve must lie in (0, 1], got nan"),
        ({"pve": 0.0}, "pve must lie in (0, 1], got 0.0"),
        ({"pve": -1.0}, "pve must lie in (0, 1], got -1.0"),
        ({"n_components": -1}, "n_components must be at least 0, got -1"),
    ])
    def test_refuses_nonsense_component_rule(self, rng, setting, message):
        # pve = 2 or nan used to take every positive component with noise 0,
        # pve = -1 one component, and n_components = -1 all but the last
        data = make_dataset(rng, n=30, T=20, noise=0.3)
        with pytest.raises(ValueError) as info:
            fit_fosr(data, ("x",), k_basis=6, **setting)
        assert str(info.value) == message


class TestPredictTarget:
    @pytest.fixture
    def fit(self, rng):
        t = np.linspace(0, 1, 30)
        n = 20
        x = rng.random(n)
        age = rng.uniform(20, 60, n)
        Y = (1 + x[:, None]) * np.sin(2 * np.pi * t)[None, :] + rng.standard_normal((n, 30)) * 0.3
        data = FunctionalDataset(tuple(range(n)), t, Y, {"x": x, "age": age})
        return fit_fosr(data, ("x", "age"), k_basis=8)

    def test_reference_group(self, fit):
        eta0, _, _ = predict_target(fit, None, "fitted_mean")
        B = fit.basis.matrix
        np.testing.assert_allclose(eta0, B @ fit.coef[0], atol=1e-12)

    def test_linearity_in_subset_values(self, fit):
        eta0, _, _ = predict_target(fit, None, "fitted_mean")
        eta1, _, _ = predict_target(fit, "x=1", "fitted_mean")
        coef, _, _ = predict_target(fit, "x=1", "coefficient")
        np.testing.assert_allclose(eta1 - eta0, coef, atol=1e-10)
        eta3, _, _ = predict_target(fit, "x=3", "fitted_mean")
        np.testing.assert_allclose(eta3 - eta0, 3 * coef, atol=1e-10)

    def test_se_matches_contrast_oracle(self, fit):
        _, se, C = predict_target(fit, "x=2,age=40", "fitted_mean")
        oracle = np.sqrt(np.diag(C @ fit.cov_coef @ C.T))
        np.testing.assert_allclose(se, oracle, atol=1e-12)

    def test_unknown_variable(self, fit):
        with pytest.raises(ValueError, match="unknown variable"):
            predict_target(fit, "bmi=1", "fitted_mean")

    def test_coefficient_multi_subset_warns(self, fit):
        with pytest.warns(UserWarning, match="first subset variable"):
            eta, _, _ = predict_target(fit, "x=1,age=40", "coefficient")
        direct, _, _ = predict_target(fit, "x=1", "coefficient")
        np.testing.assert_array_equal(eta, direct)

    @pytest.mark.parametrize("subset", ["x=nan", "age=inf", ["x=1", "age=-inf"]])
    def test_non_finite_subset_refused(self, fit, subset):
        # these used to reach the draws and fail there as "non-finite statistic"
        name = "x" if subset == "x=nan" else "age"
        with pytest.raises(ValueError, match=f"subset value of '{name}' must be finite"):
            scb_cma(fit, subset, "fitted_mean", n_boot=50)
        with pytest.raises(ValueError, match=f"subset value of '{name}' must be finite"):
            predict_target(fit, subset)

    def test_subset_forms_agree(self, fit):
        spec = SubsetSpec.parse("x=1, age=40")
        assert SubsetSpec.parse(spec) is spec
        for subset in ("x=1, age=40", ["x=1", "age=40"]):
            np.testing.assert_array_equal(predict_target(fit, subset)[0], predict_target(fit, spec)[0])
        np.testing.assert_array_equal(predict_target(fit, None)[0], predict_target(fit, "")[0])


class TestCma:
    def test_zero_covariance_zero_width(self, rng):
        C = np.eye(3)
        d = cma_max_stats(C, np.zeros((3, 3)), np.ones(3), 200, rng)
        assert np.all(d == 0.0)

    def test_single_point_matches_normal_quantile(self):
        # |N(0,1)| at one grid point: q -> z_{0.975}
        rng = substream(123)
        d = cma_max_stats(np.eye(1), np.eye(1), np.ones(1), 20000, rng)
        from confbands.core import empirical_quantile

        q = empirical_quantile(d, 0.95)
        assert abs(q - scipy.stats.norm.ppf(0.975)) < 0.03

    def test_two_point_independent_oracle(self):
        # independent equal-SE pair: P(max |Z| <= q) = (2 Phi(q) - 1)^2
        rng = substream(456)
        d = cma_max_stats(np.eye(2), np.eye(2), np.ones(2), 40000, rng)
        from confbands.core import empirical_quantile

        q = empirical_quantile(d, 0.95)
        target = scipy.stats.norm.ppf((1 + np.sqrt(0.95)) / 2)
        assert abs(q - target) < 0.03

    def test_band_symmetric_about_estimate(self, rng):
        data = make_dataset(rng, n=15, T=20, noise=0.4)
        fit = fit_fosr(data, ("x",), k_basis=8)
        band = scb_cma(fit, "x=1", "coefficient", n_boot=500, seed=1)
        np.testing.assert_allclose(
            band.scb_up - band.eta_hat, band.eta_hat - band.scb_low, atol=1e-12
        )

    def test_zero_se_cell_contributes_zero(self):
        # cell 0 has zero variance under cov = v v', but the PSD-projected
        # draws put rounding error on it; it must give 0, not raise
        v = np.array([0.3, 0.7, 0.1])
        cov = np.outer(v, v)
        C = np.array([[0.7, -0.3, 0.0], [1.0, 0.0, 0.0]])
        assert cma_max_stats(C[:1], cov, [1e-300], 500, substream(1)).max() > 0
        both = cma_max_stats(C, cov, [0.0, 0.3], 500, substream(1))
        alone = cma_max_stats(C[1:], cov, [0.3], 500, substream(1))
        np.testing.assert_allclose(both, alone, rtol=1e-14)

    def test_eigenvector_sign_does_not_change_draws(self, rng, monkeypatch):
        # LAPACK may return -v for an eigenvector v; the draws must not follow
        A = rng.standard_normal((5, 5))
        cov = A @ A.T
        C = rng.standard_normal((7, 5))
        se = np.sqrt(np.einsum("gp,pq,gq->g", C, cov, C))
        want = cma_max_stats(C, cov, se, 300, substream(2))
        eigh = np.linalg.eigh
        for flip in ([-1.0] * 5, [1.0, -1.0, 1.0, -1.0, -1.0]):
            monkeypatch.setattr(np.linalg, "eigh",
                                lambda a, flip=flip: (eigh(a)[0], eigh(a)[1] * flip))
            np.testing.assert_array_equal(cma_max_stats(C, cov, se, 300, substream(2)), want)

    def test_q_monotone_in_alpha_same_draws(self, rng):
        from confbands.core import empirical_quantile

        d = cma_max_stats(np.eye(4), np.eye(4), np.ones(4), 2000, rng)
        assert empirical_quantile(d, 0.99) >= empirical_quantile(d, 0.9)


class TestMultipliers:
    def test_mammen_population_moments(self):
        v = np.array(MAMMEN_VALUES)
        p = np.array(MAMMEN_PROBS)
        assert p.sum() == pytest.approx(1.0)
        assert (v * p).sum() == pytest.approx(0.0, abs=1e-15)
        assert (v**2 * p).sum() == pytest.approx(1.0, abs=1e-14)
        # third moment 1 pins the two-point law uniquely
        assert (v**3 * p).sum() == pytest.approx(1.0, abs=1e-13)

    def test_rademacher_sample_mean(self):
        rng = substream(7)
        g = _multiplier_matrix("rademacher", (10**6,), rng)
        assert set(np.unique(g)) == {-1.0, 1.0}
        assert abs(g.mean()) < 0.004

    def test_fixed_seed_reproducible(self):
        for kind in ("rademacher", "gaussian", "mammen"):
            a = _multiplier_matrix(kind, (100,), substream(3))
            b = _multiplier_matrix(kind, (100,), substream(3))
            assert np.array_equal(a, b)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown multiplier"):
            _multiplier_matrix("webb", (10,), substream(0))


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
@pytest.mark.parametrize("method", ["cma", "multiplier"])
def test_alpha_refused_before_any_work(method, alpha):
    # no fit and no data: a constructor that read either before checking
    # alpha would fail with some other error
    with pytest.raises(ValueError) as info:
        if method == "cma":
            scb_cma(None, alpha=alpha)
        else:
            scb_multiplier(None, None, alpha=alpha)
    assert str(info.value) == f"alpha must lie in (0, 1), got {alpha}"


class TestMultiplierBootstrap:
    def test_rng_is_required(self, rng):
        # every draw comes from a keyed stream; there is no unseeded fallback
        with pytest.raises(TypeError, match="rng"):
            multiplier_max_stats(rng.standard_normal((5, 3)), 10)

    def test_zero_residuals_zero_stats(self, rng):
        samples = np.zeros((10, 6))
        stats = multiplier_max_stats(samples, 100, rng=rng)
        assert np.all(stats == 0.0)

    def test_gaussian_single_point_clt(self):
        from confbands.core import empirical_quantile

        rng = substream(11)
        samples = rng.standard_normal((400, 1))
        stats = multiplier_max_stats(samples, 20000, weights="gaussian", rng=substream(12))
        q = empirical_quantile(stats, 0.95)
        assert abs(q - scipy.stats.norm.ppf(0.975)) < 0.05

    def test_zero_residual_spot_in_later_block_gives_zero(self, rng):
        # a constant spot has num == 0 and eps == 0 in every replicate: it
        # contributes 0, so dropping it leaves every maximum as it was
        samples = rng.standard_normal((20, 2 * _SPOT_BLOCK + 10))
        j = _SPOT_BLOCK + 3
        samples[:, j] = 5.0
        for weights in ("rademacher", "gaussian", "mammen"):
            for sd_method in ("t", "regular"):
                args = (200, weights, sd_method)
                stats = multiplier_max_stats(samples, *args, rng=substream(4))
                without = multiplier_max_stats(np.delete(samples, j, axis=1), *args, rng=substream(4))
                np.testing.assert_allclose(stats, without, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sd_method", ["t", "regular"])
    @pytest.mark.parametrize("weights", ["rademacher", "gaussian", "mammen"])
    @pytest.mark.parametrize("value", [5.0, 0.3, 0.1, 0.7])
    def test_constant_spot_of_three_subjects(self, weights, sd_method, value):
        # three copies of 5.0 or 0.3 have an exact mean; those of 0.1 or 0.7
        # do not, and used to leave equal residuals of rounding size that the
        # power-of-two rescale blew up (Rademacher-t raised "degenerate SE",
        # Mammen-t gave maxima of 1e8). A constant spot contributes 0 either way
        varying = substream(1).standard_normal((3, 5))
        samples = np.column_stack([varying, np.full(3, value)])

        def run(x):
            return multiplier_max_stats(x, 100, weights, sd_method, rng=substream(2))

        np.testing.assert_array_equal(run(samples), run(varying))

    def test_degenerate_spot_in_last_partial_block_raises(self, rng):
        # R proportional to the multipliers (1, 1, -1, -1) makes the perturbed
        # sample constant and nonzero: eps == 0 against a nonzero numerator
        samples = rng.standard_normal((4, 2 * _SPOT_BLOCK + 7))
        samples[:, -1] = [1.0, 1.0, -1.0, -1.0]
        multiplier_max_stats(samples[:, :-1], 100, rng=substream(5))
        with pytest.raises(ValueError, match="degenerate SE"):
            multiplier_max_stats(samples, 100, rng=substream(5))

    @pytest.mark.parametrize("n_boot", [0, -3])
    def test_n_boot_must_be_positive(self, rng, n_boot):
        with pytest.raises(ValueError, match=f"n_boot must be at least 1, got {n_boot}"):
            multiplier_max_stats(rng.standard_normal((5, 3)), n_boot, rng=rng)
        with pytest.raises(ValueError, match=f"n_boot must be at least 1, got {n_boot}"):
            cma_max_stats(np.eye(2), np.eye(2), np.ones(2), n_boot, rng)

    def test_zero_sd_against_nonzero_numerator_raises(self):
        # N = 2: multipliers (1, -1) give eps == 0 with a nonzero numerator
        with pytest.raises(ValueError, match="degenerate SE"):
            multiplier_max_stats(np.array([[1.0], [3.0]]), 100, "rademacher", "t", rng=substream(0))

    def test_needs_two_subjects(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            multiplier_max_stats(np.ones((1, 4)), 10, rng=rng)

    def test_q_agreement_with_cma(self, rng):
        data = make_dataset(
            rng, n=40, T=30,
            beta1=np.sin(2 * np.pi * np.linspace(0, 1, 30)),
            noise=0.4,
            subject_fns=np.column_stack([np.cos(2 * np.pi * np.linspace(0, 1, 30))]),
        )
        fit = fit_fosr(data, ("x",), k_basis=10)
        bc = scb_cma(fit, "x=1", "coefficient", n_boot=4000, seed=5)
        bm = scb_multiplier(data, fit, "x=1", "coefficient", n_boot=4000, seed=6)
        assert abs(bc.q_alpha - bm.q_alpha) / bc.q_alpha < 0.15

    def test_zero_segment_precondition(self, rng):
        data = make_dataset(rng, n=12, T=10, noise=0.3)
        Y = data.outcomes.copy()
        Y[:, 3] = 0.0
        bad = FunctionalDataset(data.ids, data.times, Y, data.covariates)
        fit = fit_fosr(data, ("x",), k_basis=6)
        with pytest.raises(ValueError, match="identically zero"):
            scb_multiplier(bad, fit, None, "fitted_mean", n_boot=100, seed=0)

    def test_zero_at_index_zero_allowed(self, rng):
        data = make_dataset(rng, n=12, T=10, noise=0.3)
        Y = data.outcomes.copy()
        Y[:, 0] = 0.0
        ok = FunctionalDataset(data.ids, data.times, Y, data.covariates)
        fit = fit_fosr(ok, ("x",), k_basis=6)
        scb_multiplier(ok, fit, None, "fitted_mean", n_boot=100, seed=0)


# fixed before the first run; the replicates are not chosen by their outcome
MISSING_CELLS_SEED = 2026


def unblocked_multiplier_max(samples, n_boot, weights, sd_method, rng):
    """The multiplier-t maxima over every spot at once, as one pair of GEMMs."""
    N = samples.shape[0]
    flat = samples.reshape(N, -1)
    R = np.sqrt(N / (N - 1.0)) * (flat - flat.mean(axis=0))
    g = _multiplier_matrix(weights, (n_boot * N,), rng).reshape(n_boot, N)
    num = g @ R
    if sd_method == "regular":
        eps = flat.std(axis=0, ddof=1)
    else:
        eps = np.sqrt((N / (N - 1.0)) * np.abs((g**2 @ R**2) / N - (num / N) ** 2))
    return np.max(np.abs(num / np.sqrt(N)) / eps, axis=1)


def blocked_multiplier_max(samples, n_boot, weights, rng):
    """The Gaussian and Mammen multiplier-t maxima over blocks of _SPOT_BLOCK
    spots, with eps as one expression and the masked studentized max on
    every replicate."""
    N = samples.shape[0]
    flat = samples.reshape(N, -1)
    R = flat - flat.mean(axis=0)
    R *= np.sqrt(N / (N - 1.0))
    g = _multiplier_matrix(weights, (n_boot, N), rng)
    maxima = np.zeros(n_boot)
    for start in range(0, R.shape[1], _SPOT_BLOCK):
        Rb = R[:, start:start + _SPOT_BLOCK]
        num = g @ Rb
        m2 = (g**2 @ Rb**2) / N
        eps = np.sqrt((N / (N - 1.0)) * np.abs(m2 - (num / N) ** 2))
        num /= np.sqrt(N)
        ratio = np.zeros(num.shape)
        np.divide(np.abs(num), eps, out=ratio, where=eps != 0)
        maxima = np.maximum(maxima, ratio.max(axis=1, initial=0.0))
    return maxima


def scaled_gemm_multiplier_max(samples, n_boot, weights, sd_method, rng):
    """The Rademacher-t and regular multiplier maxima by the scaled-GEMM
    rule, block by block without buffers: each spot's residuals over a power
    of two and then over sqrt(m2), the maximum of |R_blk' g'| down each
    block, and the per-replicate map of the maximum M."""
    N = samples.shape[0]
    flat = samples.reshape(N, -1)
    R = np.sqrt(N / (N - 1.0)) * (flat - flat.mean(axis=0))
    R = R * 2.0 ** -np.frexp(np.abs(R).max(axis=0))[1]
    root = np.sqrt(np.sum(R * R, axis=0) / N)
    R = R / np.where(root > 0, root, 1.0)
    g = _multiplier_matrix(weights, (n_boot, N), rng)
    M = np.zeros(n_boot)
    for start in range(0, R.shape[1], _SPOT_BLOCK):
        M = np.maximum(M, np.abs(R[:, start:start + _SPOT_BLOCK].T @ g.T).max(axis=0))
    if sd_method == "regular":
        return M / np.sqrt(N)
    s = M / N
    assert np.all((1.0 - s) * (1.0 + s) > 0)
    return np.sqrt(N - 1.0) * s / np.sqrt((1.0 - s) * (1.0 + s))


class TestBlockedMultiplier:
    """The reduction over fixed-width blocks of spots against the whole
    (n_boot, spots) computation, on spot counts that end in a partial block."""

    @pytest.mark.parametrize("sd_method", ["t", "regular"])
    @pytest.mark.parametrize("weights", ["rademacher", "gaussian", "mammen"])
    def test_matches_unblocked_reference(self, weights, sd_method):
        samples = substream(30).standard_normal((30, 3 * _SPOT_BLOCK + 17))
        got = multiplier_max_stats(samples, 300, weights, sd_method, rng=substream(31))
        want = unblocked_multiplier_max(samples, 300, weights, sd_method, substream(31))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("sd_method", ["t", "regular"])
    @pytest.mark.parametrize("weights", ["rademacher", "gaussian", "mammen"])
    def test_equals_blocked_reference_exactly(self, weights, sd_method):
        # Gaussian and Mammen t: eps is built one operation at a time in a
        # reused buffer, the studentized max divides without a mask and the
        # residuals are scaled by powers of two; none of these changes a bit.
        # The rest: the GEMM into a reused buffer and the in-place abs give
        # the bits of the plain scaled-GEMM rule
        samples = substream(36).standard_normal((30, 3 * _SPOT_BLOCK + 17))
        got = multiplier_max_stats(samples, 300, weights, sd_method, rng=substream(37))
        if sd_method == "t" and weights != "rademacher":
            want = blocked_multiplier_max(samples, 300, weights, substream(37))
        else:
            want = scaled_gemm_multiplier_max(samples, 300, weights, sd_method, substream(37))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("weights", ["rademacher", "gaussian", "mammen"])
    def test_width_never_changes_a_result(self, monkeypatch, weights):
        # N = 30: a replicate whose N multipliers are all equal has a
        # maximum of pure rounding error, which no relative bound can compare
        samples = substream(32).standard_normal((30, 2, 150))
        for sd_method in ("t", "regular"):
            runs = []
            for width in (1, 7, _SPOT_BLOCK):
                monkeypatch.setattr(functional, "_SPOT_BLOCK", width)
                runs.append(multiplier_max_stats(samples, 200, weights, sd_method, rng=substream(33)))
            for other in runs[:-1]:
                np.testing.assert_allclose(other, runs[-1], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    @pytest.mark.parametrize("sd_method", ["t", "regular"])
    @pytest.mark.parametrize("weights", ["rademacher", "gaussian", "mammen"])
    def test_extreme_scales_give_the_unit_scale_maxima(self, weights, sd_method, scale):
        # squares of residuals this large overflow and this small lose their
        # digits; the statistic does not change under a per-spot scale
        samples = substream(38).standard_normal((30, _SPOT_BLOCK + 9))
        want = multiplier_max_stats(samples, 200, weights, sd_method, rng=substream(39))
        got = multiplier_max_stats(samples * scale, 200, weights, sd_method, rng=substream(39))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_memory_does_not_grow_with_replicates_times_spots(self):
        # 200 x 200 spots, N = 60, n_boot = 2000: one (n_boot, spots) array
        # alone would take 610 MiB
        samples = substream(34).standard_normal((60, 200, 200))
        tracemalloc.start()
        try:
            multiplier_max_stats(samples, 2000, rng=substream(35))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


@pytest.fixture(scope="module")
def fosr_missing_cells():
    """The fosr coverage design at n=100 with 10% of the outcome cells
    missing at random: one dataset per replicate (200) and the true
    coefficient function."""
    datasets = []
    for b in range(200):
        rng = substream(MISSING_CELLS_SEED, b)
        data, truth = generate(SimDesign("fosr", n=100), rng)
        Y = data.outcomes.copy()
        Y[rng.random(Y.shape) < 0.1] = np.nan
        datasets.append(FunctionalDataset(data.ids, data.times, Y, data.covariates))
    return datasets, truth


class TestMissingCells:
    def test_coverage_both_methods(self, fosr_missing_cells):
        # both calibrations perturb the fit's leave-one-out contributions,
        # which need no complete subjects and no imputation
        datasets, truth = fosr_missing_cells
        covered = {"cma": 0, "multiplier": 0}
        worst = 0.0
        for b, data in enumerate(datasets):
            fit = fit_fosr(data, ("x",))
            bands = {
                "cma": scb_cma(fit, "x=1", "coefficient", n_boot=2000, seed=b),
                "multiplier": scb_multiplier(data, fit, "x=1", "coefficient", n_boot=2000, seed=b),
            }
            for method, band in bands.items():
                covered[method] += bool(np.all((band.scb_low <= truth) & (truth <= band.scb_up)))
            q_cma, q_mult = bands["cma"].q_alpha, bands["multiplier"].q_alpha
            worst = max(worst, abs(q_cma - q_mult) / q_cma)
        for method, hits in covered.items():
            assert 0.90 <= hits / len(datasets) <= 0.99, (method, hits)
        assert worst < 0.15


def pairwise_covariance(E):
    """The pairwise-complete covariance of one (n, T) residual matrix."""
    obs = ~np.isnan(E)
    Z = np.where(obs, E, 0.0)
    Z = np.where(obs, Z - Z.sum(axis=0) / obs.sum(axis=0), 0.0)
    return (Z.T @ Z) / np.maximum(obs.T @ obs.astype(float) - 1, 1)


def fpca_oracle(E, dt, pve, n_components):
    """The FPCA of one (n, T) residual matrix, one matrix at a time:
    (Phi, score variances, noise variance)."""
    T = E.shape[1]
    vals, vecs = np.linalg.eigh(pairwise_covariance(E))
    vals, vecs = vals[::-1], vecs[:, ::-1]
    pos = vals > max(vals[0], 0.0) * 1e-12
    if vals[pos].sum() <= 0:
        return np.zeros((T, 0)), np.zeros(0), 0.0
    if n_components is not None:
        K = min(int(n_components), int(pos.sum()))
    else:
        floor = float(np.median(np.clip(vals, 0.0, None)))
        excess = np.clip(vals[pos] - floor, 0.0, None)
        if excess.sum() <= 0:
            excess = vals[pos]
        K = min(int(np.searchsorted(np.cumsum(excess) / excess.sum(), pve) + 1), int(pos.sum()))
    tail = vals[K:][vals[K:] > 0].sum()
    return vecs[:, :K] / np.sqrt(dt), vals[:K] * dt, float(tail / max(T - K, 1))


def leave_out_oracle(data, fit, pve=0.95, n_components=None, refit=True):
    """Every leave-one-subject-out pipeline of ``fit`` run on its own, one
    subject at a time: the mean model at the fit's lambda from the full
    moments minus subject i's, the FPCA of the other subjects' residuals,
    and the score-augmented refit in Kronecker form. Returns the
    contributions (None without the refit) and each leave-out's K."""
    Y = data.outcomes
    n, T = Y.shape
    B, S1 = fit.basis.matrix, difference_penalty(fit.basis.matrix.shape[1])
    kb = B.shape[1]
    Xc = np.column_stack([np.ones(n)] + [data.covariates[c] for c in fit.covariate_names])
    J1 = Xc.shape[1]
    p = J1 * kb
    S = np.kron(np.eye(J1), S1)
    obs = ~np.isnan(Y)
    Y0 = np.where(obs, Y, 0.0)
    complete = obs.all(axis=1)
    BOB = np.einsum("nt,tk,tl->nkl", obs.astype(float), B, B)
    ZtZ_i = np.einsum("ni,nj,nkl->nikjl", Xc, Xc, BOB).reshape(n, p, p)
    Zty_i = np.einsum("nj,nk->njk", Xc, Y0 @ B).reshape(n, p)
    ZtZ, Zty = ZtZ_i.sum(axis=0), Zty_i.sum(axis=0)
    XX = Xc[:, :, None] * Xc[:, None, :]
    YX = Y0[:, :, None] * Xc[:, None, :]

    def mean_curves(theta):
        return Xc @ (theta.reshape(J1, kb) @ B.T)

    theta_ls = np.linalg.lstsq(ZtZ, Zty, rcond=None)[0]
    degenerate = (np.abs(np.where(obs, Y - mean_curves(theta_ls), 0.0)).max()
                  < 1e-8 * max(1.0, np.abs(Y0).max()))
    dt = data.times[1] - data.times[0]

    def solve(M, rhs):
        if degenerate:
            return np.linalg.lstsq(M, rhs, rcond=None)[0]
        return np.linalg.solve(M + 1e-6 * S, rhs)

    thetas, Ks = [], []
    for i in range(n):
        th1 = np.linalg.solve(ZtZ - ZtZ_i[i] + fit.basis.lambda_ * S, Zty - Zty_i[i])
        if degenerate:
            Phi, sk2, noise = np.zeros((T, 0)), np.zeros(0), 0.0
        else:
            Phi, sk2, noise = fpca_oracle(np.delete(Y - mean_curves(th1), i, axis=0), dt, pve,
                                          n_components)
        Ks.append(Phi.shape[1])
        if not refit:
            continue
        ridge = noise / np.maximum(sk2, 1e-10)
        own = ~complete & (np.arange(n) != i)
        xx0, yx0 = XX[complete].sum(axis=0), YX[complete].sum(axis=0)
        if complete[i]:
            xx0, yx0 = xx0 - XX[i], yx0 - YX[i]
        BtPhi = B.T @ Phi
        H = BtPhi @ np.linalg.inv(Phi.T @ Phi + np.diag(ridge))
        M = ZtZ - ZtZ_i[i] - np.kron(xx0, H @ BtPhi.T)
        rhs = Zty - Zty_i[i] - (H @ (Phi.T @ yx0)).T.ravel()
        for j in np.flatnonzero(own):
            C = B.T @ (obs[j][:, None] * Phi)
            Hj = C @ np.linalg.inv(Phi.T @ (obs[j][:, None] * Phi) + np.diag(ridge))
            M -= np.kron(XX[j], Hj @ C.T)
            rhs -= (Hj @ (Phi.T @ YX[j])).T.ravel()
        thetas.append(solve(0.5 * (M + M.T), rhs))
    if not refit:
        return None, np.array(Ks)
    return (n - 1.0) / n * (fit.coef.ravel() - np.array(thetas)), np.array(Ks)


def fit_recording_k(monkeypatch, data, **kwargs):
    """fit_fosr, with the K of the fit and of every leave-out, in order, as
    the stacked FPCA reports them."""
    Ks = []
    stack = functional._fpca_stack

    def recording(*args):
        out = stack(*args)
        Ks.extend(out[2].tolist())
        return out

    monkeypatch.setattr(functional, "_fpca_stack", recording)
    fit = fit_fosr(data, ("x",), **kwargs)
    return fit, np.array(Ks)


def fosr_data(n, seed, missing=0.0):
    rng = substream(seed)
    data, _ = generate(SimDesign("fosr", n=n), rng)
    if not missing:
        return data
    Y = data.outcomes.copy()
    Y[rng.random(Y.shape) < missing] = np.nan
    return FunctionalDataset(data.ids, data.times, Y, data.covariates)


def leading_positive(V):
    """V with each column's largest-magnitude entry made positive."""
    lead = V[np.abs(V).argmax(axis=0), np.arange(V.shape[1])]
    return V * np.where(lead < 0, -1.0, 1.0)


def low_rank_stack(rng, count, n=40, T=30, rank=6, missing=0.0):
    """``count`` residual matrices of a few smooth components plus noise,
    with a share ``missing`` of the cells set to NaN."""
    t = np.linspace(0.0, 1.0, T)
    basis = np.array([np.sin((k + 1) * np.pi * t) for k in range(rank)])
    E = (rng.standard_normal((count, n, rank)) * np.linspace(3.0, 0.5, rank)) @ basis
    E += 0.2 * rng.standard_normal(E.shape)
    E[rng.random(E.shape) < missing] = np.nan
    return E


class TestFpcaStack:
    """_fpca_stack takes all eigenvalues of each covariance but only its top-K
    eigenvectors, from one tridiagonal reduction; every matrix must agree
    with np.linalg.eigh run on it alone, with the sign rule applied."""

    @staticmethod
    def check(E, pve=0.95, n_components=None, repeated=1):
        """Compare with the oracle; the top ``repeated`` eigenvalues are equal,
        so their vectors are compared as a projector, being defined only up
        to a rotation."""
        vals, vecs, K, noise = functional._fpca_stack(E, pve, n_components)
        assert vecs.shape == (len(E), E.shape[-1], K.max(initial=0))
        for i, e in enumerate(E):
            oracle = np.linalg.eigvalsh(pairwise_covariance(e))[::-1]
            np.testing.assert_allclose(vals[i], oracle, rtol=0, atol=1e-13 * np.abs(oracle).max())
            Phi, _, noise_oracle = fpca_oracle(e, 1.0, pve, n_components)
            k = Phi.shape[1]
            assert K[i] == k
            V = vecs[i, :, :k]
            assert not vecs[i, :, k:].any()
            np.testing.assert_allclose(V.T @ V, np.eye(k), rtol=0, atol=1e-12)
            np.testing.assert_array_equal(leading_positive(V), V)
            r = min(repeated, k)
            np.testing.assert_allclose(V[:, r:], leading_positive(Phi[:, r:]), rtol=0, atol=1e-12)
            np.testing.assert_allclose(V[:, :r] @ V[:, :r].T, Phi[:, :r] @ Phi[:, :r].T,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(noise[i], noise_oracle, rtol=1e-12, atol=0)
        return K

    def test_complete_data(self, rng):
        K = self.check(low_rank_stack(rng, 6))
        assert (K > 1).all()

    def test_missing_cells(self, rng):
        E = low_rank_stack(rng, 6, missing=0.15)
        # the pairwise-complete covariance is indefinite
        assert any(np.linalg.eigvalsh(pairwise_covariance(e))[0] < 0 for e in E)
        self.check(E)

    def test_repeated_top_eigenvalue(self, rng):
        # E = sqrt(n - 1) Q diag(sqrt(lam)) V' with centered orthonormal Q has
        # the sample covariance V diag(lam) V', whose top eigenvalue is double
        n, T = 40, 30
        A = rng.standard_normal((n, T))
        Q = np.linalg.qr(A - A.mean(axis=0))[0]
        V = np.linalg.qr(rng.standard_normal((T, T)))[0]
        lam = np.concatenate([[5.0, 5.0, 2.0, 1.0], np.full(T - 4, 0.01)])
        E = np.sqrt(n - 1.0) * (Q * np.sqrt(lam)) @ V.T
        top = np.linalg.eigvalsh(pairwise_covariance(E))[::-1][:3]
        assert top[0] - top[1] < 1e-12 * top[0] < top[1] - top[2]
        K = self.check(E[None], repeated=2)
        assert K[0] >= 2

    def test_split_tridiagonal_falls_back_to_eigh(self, rng):
        # a zero first grid column zeroes the first off-diagonal entry; the
        # stack mixes it with matrices that take the tridiagonal route
        E = low_rank_stack(rng, 4)
        E[1, :, 0] = 0.0
        E[2, :, 7] = 0.0  # a zero middle column leaves a rounding-sized entry above the test
        routes = [functional._tridiagonal(pairwise_covariance(e)) is None for e in E]
        assert routes == [False, True, False, False]
        self.check(E)

    def test_failed_inverse_iteration_falls_back_to_eigh(self, monkeypatch, rng):
        E = low_rank_stack(rng, 3)
        dstein = functional.lapack.dstein
        calls = []

        def failing(*args):
            calls.append(1)
            z, info = dstein(*args)
            return z, info if len(calls) != 2 else 1

        monkeypatch.setattr(functional.lapack, "dstein", failing)
        self.check(E)
        assert len(calls) == 3

    @pytest.mark.parametrize("n_components", [0, 3])
    def test_fixed_number_of_components(self, rng, n_components):
        E = low_rank_stack(rng, 4, missing=0.1)
        K = self.check(E, n_components=n_components)
        np.testing.assert_array_equal(K, n_components)

    def test_zero_residuals_keep_no_component(self):
        vals, vecs, K, noise = functional._fpca_stack(np.zeros((3, 20, 10)), 0.95, None)
        assert vecs.shape == (3, 10, 0) and not K.any() and not noise.any() and not vals.any()

    def test_fit_eigenfunctions_follow_the_sign_rule(self):
        Phi = fit_fosr(fosr_data(40, 43), ("x",), k_basis=12).eigenfunctions
        assert Phi.shape[1] > 0
        np.testing.assert_array_equal(leading_positive(Phi), Phi)


class TestBlockedLeaveOuts:
    """The leave-outs of fit_fosr run in blocks of _SUBJECT_BLOCK subjects;
    each must equal the same pipeline run for that subject alone."""

    @pytest.mark.parametrize("missing, n_components", [(0.0, None), (0.1, None), (0.0, 0),
                                                       (0.1, 0)])
    def test_matches_per_subject_oracle(self, monkeypatch, missing, n_components):
        # 2 full blocks and a partial one
        data = fosr_data(2 * _SUBJECT_BLOCK + 5, 40, missing)
        fit, Ks = fit_recording_k(monkeypatch, data, k_basis=12, n_components=n_components)
        u, K_oracle = leave_out_oracle(data, fit, n_components=n_components)
        np.testing.assert_array_equal(Ks[1:], K_oracle)
        np.testing.assert_allclose(fit.contributions, u, rtol=0,
                                   atol=1e-11 * np.abs(u).max())

    def test_degenerate_data_match_per_subject_oracle(self, rng):
        t = np.linspace(0, 1, 30)
        beta1 = bspline_basis(t, 10) @ rng.standard_normal(10)
        data = make_dataset(rng, n=2 * _SUBJECT_BLOCK + 3, T=30, beta1=beta1)
        with pytest.warns(UserWarning, match="residuals are zero"):
            fit = fit_fosr(data, ("x",), k_basis=10)
        u, K_oracle = leave_out_oracle(data, fit)
        assert not K_oracle.any()
        np.testing.assert_allclose(fit.contributions, u, rtol=0, atol=1e-10)

    def test_degenerate_fit_and_leave_outs_share_the_fpca_rule(self, monkeypatch, rng):
        # the fit and every leave-out run the stacked FPCA, all at K = 0
        t = np.linspace(0, 1, 30)
        beta1 = bspline_basis(t, 10) @ rng.standard_normal(10)
        n = 2 * _SUBJECT_BLOCK + 3
        data = make_dataset(rng, n=n, T=30, beta1=beta1)
        with pytest.warns(UserWarning, match="residuals are zero"):
            fit, Ks = fit_recording_k(monkeypatch, data, k_basis=10)
        np.testing.assert_array_equal(Ks, np.zeros(n + 1))
        assert fit.eigenfunctions.shape == (30, 0) and fit.noise_variance == 0.0

    @pytest.mark.parametrize("missing", [0.0, 0.1])
    def test_width_never_changes_a_result(self, monkeypatch, missing):
        data = fosr_data(2 * _SUBJECT_BLOCK + 5, 41, missing)
        runs = []
        for width in (1, 7, _SUBJECT_BLOCK):
            monkeypatch.setattr(functional, "_SUBJECT_BLOCK", width)
            runs.append(fit_fosr(data, ("x",), k_basis=12))
        # every product of a leave-out is taken on its own, so the width
        # does not even move the rounding
        for other in runs[:-1]:
            np.testing.assert_array_equal(other.contributions, runs[-1].contributions)

    @pytest.mark.parametrize("design", ["criterion_6", "missing_cells"])
    def test_k_unchanged_on_coverage_seeds(self, monkeypatch, design):
        # the first 20 replicates of criterion 6's and TestMissingCells' datasets:
        # every leave-out's K as the per-subject pipeline picks it
        for b in range(20):
            if design == "criterion_6":
                data, _ = generate(SimDesign("fosr", n=100, seed=105), substream(105, b))
            else:
                rng = substream(MISSING_CELLS_SEED, b)
                data, _ = generate(SimDesign("fosr", n=100), rng)
                Y = data.outcomes.copy()
                Y[rng.random(Y.shape) < 0.1] = np.nan
                data = FunctionalDataset(data.ids, data.times, Y, data.covariates)
            fit, Ks = fit_recording_k(monkeypatch, data)
            assert Ks[0] == fit.eigenfunctions.shape[1]
            np.testing.assert_array_equal(Ks[1:], leave_out_oracle(data, fit, refit=False)[1])

    def test_memory_does_not_hold_a_p_by_p_matrix_per_subject(self):
        # the per-subject (n, p, p) moment stack alone took 27.5 MiB at n = 1000
        data = fosr_data(1000, 42)
        tracemalloc.start()
        try:
            fit_fosr(data, ("x",))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestGcvSelection:
    """fit_fosr's lambda against GCV scores of a dense design, solved one
    lambda at a time."""

    @staticmethod
    def dense_scores(data, fit, ladder):
        Y = data.outcomes
        rows, cols = np.nonzero(~np.isnan(Y))
        Xc = np.column_stack([np.ones(len(Y)), data.covariates["x"]])
        B = fit.basis.matrix
        Z = (Xc[rows][:, :, None] * B[cols][:, None, :]).reshape(len(rows), -1)
        y = Y[rows, cols]
        S = np.kron(np.eye(2), fit.basis.penalty)
        scores = []
        for lam in ladder:
            A = Z.T @ Z + lam * S
            theta = np.linalg.solve(A, Z.T @ y)
            edf = np.trace(np.linalg.solve(A, Z.T @ Z))
            scores.append(len(y) * np.sum((y - Z @ theta) ** 2) / (len(y) - edf) ** 2)
        return np.array(scores)

    @pytest.mark.parametrize("seed, missing", [(60, 0.0), (63, 0.0), (67, 0.1), (70, 0.3)])
    def test_lambda_is_the_first_gcv_minimizer(self, seed, missing):
        data = fosr_data(30, seed, missing)
        fit = fit_fosr(data, ("x",), k_basis=12)
        ladder = np.logspace(-6, 4, 21)
        scores = self.dense_scores(data, fit, ladder)
        assert 0 < np.argmin(scores) < len(ladder) - 1  # an interior minimum
        assert fit.basis.lambda_ == ladder[np.argmin(scores)]

    def test_nan_score_is_never_picked(self, monkeypatch):
        # np.argmin takes a NaN as the minimum; a NaN lambda gives a NaN score
        ladder = np.array([1e-6, np.nan, 0.1, 0.3, 1.0])
        monkeypatch.setattr(functional, "_GCV_LADDER", ladder)
        data = fosr_data(30, 63)
        fit = fit_fosr(data, ("x",), k_basis=12)
        finite = ladder[~np.isnan(ladder)]
        assert fit.basis.lambda_ == finite[np.argmin(self.dense_scores(data, fit, finite))]

    def test_every_lambda_failing_is_refused(self, monkeypatch):
        # at lambda = 0 the B-splines that no grid time reaches leave Z'Z singular
        monkeypatch.setattr(functional, "_GCV_LADDER", np.array([0.0]))
        rng = np.random.default_rng(5)
        data = make_dataset(rng, n=12, T=5, noise=0.3)
        assert (bspline_basis(data.times, 30) == 0).all(axis=0).any()
        with pytest.raises(ValueError) as info:
            fit_fosr(data, ("x",), k_basis=30)
        assert not isinstance(info.value, np.linalg.LinAlgError)
        assert str(info.value) == "penalized mean-model fit failed for every lambda"


class TestSubsetSpec:
    def test_parse_string(self):
        s = SubsetSpec.parse("use=1, age = 40")
        assert s.pairs == (("use", 1.0), ("age", 40.0))

    def test_parse_list(self):
        s = SubsetSpec.parse(["use = 1"])
        assert s.pairs == (("use", 1.0),)

    def test_malformed(self):
        with pytest.raises(ValueError, match="form"):
            SubsetSpec.parse("use")
        with pytest.raises(ValueError, match="numeric"):
            SubsetSpec.parse("use=male")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_refused(self, value):
        message = f"subset value of 'use' must be finite, got {float(value)}"
        with pytest.raises(ValueError) as info:
            SubsetSpec.parse(f"age=40, use = {value}")
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            SubsetSpec((("use", float(value)),))
        assert str(info.value) == message


    def test_repeated_name_refused(self):
        # the two values used to add up: "x=1, x=2" banded the mean at x = 3
        message = "subset variable 'use' is given more than once"
        with pytest.raises(ValueError) as info:
            SubsetSpec.parse("use=1, age=40, use = 2")
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            SubsetSpec((("use", 1.0), ("use", 1.0)))
        assert str(info.value) == message

    def test_repeated_name_refused_by_predict_target(self, rng):
        fit = fit_fosr(make_dataset(rng, n=12, T=15, noise=0.3), ("x",), k_basis=8)
        with pytest.raises(ValueError, match="'x' is given more than once"):
            predict_target(fit, "x=1, x=2")


class TestDataset:
    def test_arrays_read_only_and_unshared(self, rng):
        # a subject emptied by the caller after construction used to reach
        # fit_fosr, though the constructor refuses such a subject
        t, Y, x = np.linspace(0.0, 1.0, 12), rng.standard_normal((12, 12)), np.arange(12.0)
        data = FunctionalDataset(tuple(range(12)), t, Y, {"x": x})
        for arr in (data.times, data.outcomes, data.covariates["x"]):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        before = (data.times.copy(), data.outcomes.copy(), data.covariates["x"].copy())
        Y[3, :] = np.nan
        t[0], x[0] = -1.0, 9.0
        for got, want in zip((data.times, data.outcomes, data.covariates["x"]), before):
            np.testing.assert_array_equal(got, want)
        assert np.isfinite(fit_fosr(data, k_basis=6).contributions).all()

    def test_covariates_read_only(self, rng):
        # a covariate replaced after construction used to reach fit_fosr,
        # which then failed for every lambda; the constructor refuses it
        data = FunctionalDataset(tuple(range(12)), np.linspace(0.0, 1.0, 12),
                                 rng.standard_normal((12, 12)), {"x": np.arange(12.0)})
        with pytest.raises(TypeError):
            data.covariates["x"] = np.full(12, np.nan)
        with pytest.raises(TypeError):
            del data.covariates["x"]
        with pytest.raises(ValueError, match="covariate 'x' contains non-finite values"):
            FunctionalDataset(data.ids, data.times, data.outcomes, {"x": np.full(12, np.nan)})

    @pytest.mark.parametrize("clone", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_copies_keep_data_and_read_only(self, rng, clone):
        data = FunctionalDataset(("a", "b", "c"), np.linspace(0.0, 1.0, 5),
                                 rng.standard_normal((3, 5)), {"x": [0.0, 1.0, 0.5]})
        twin = clone(data)
        assert twin.ids == data.ids and list(twin.covariates) == ["x"]
        for got, want in ((twin.times, data.times), (twin.outcomes, data.outcomes),
                          (twin.covariates["x"], data.covariates["x"])):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        with pytest.raises(TypeError):
            twin.covariates["x"] = np.zeros(3)

    def test_from_long_pivots(self):
        ids = ["a", "a", "b", "b"]
        times = [0.0, 1.0, 0.0, 1.0]
        vals = [1.0, 2.0, 3.0, 4.0]
        data = FunctionalDataset.from_long(ids, times, vals, {"x": [1, 1, 0, 0]})
        assert data.ids == ("a", "b")
        np.testing.assert_array_equal(data.outcomes, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(data.covariates["x"], [1, 0])

    @pytest.mark.parametrize("x, subject", [
        ([1, np.nan, 0, 0], "a"), ([1, 1, 0, 2], "b"), ([np.inf, np.inf, 0, 0], "a"),
    ])
    def test_from_long_rejects_conflicting_covariate(self, x, subject):
        # the covariate used to be taken from each subject's last row
        with pytest.raises(ValueError, match=f"subject '{subject}' .* covariate 'x'"):
            FunctionalDataset.from_long(["a", "a", "b", "b"], [0.0, 1.0, 0.0, 1.0],
                                        [1.0, 2.0, 3.0, 4.0], {"x": x})

    def test_from_long_refuses_repeated_record(self):
        # the later record used to overwrite the earlier one without a word
        with pytest.raises(ValueError) as info:
            FunctionalDataset.from_long(["a", "a", "b", "a"], [0.0, 1.0, 1.0, 1.0],
                                        [2.0, 2.0, 3.0, 99.0], {"x": [1, 1, 0, 1]})
        assert str(info.value) == "subject 'a' has more than one record at time 1.0"

    def test_missing_cells_become_nan(self):
        data = FunctionalDataset.from_long(
            ["a", "b", "b"], [0.0, 0.0, 1.0], [1.0, 2.0, 3.0], {}
        )
        assert np.isnan(data.outcomes[0, 1])

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            FunctionalDataset((0,), [0.0, 0.0], np.zeros((1, 2)), {})
