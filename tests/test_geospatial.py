import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from confbands import geospatial
from confbands.core import substream
from confbands.geospatial import (
    CorrelationSpec,
    SpatialObservations,
    _estimate_rho,
    fit_gls_grid,
    scb_gls,
)
from confbands.regions import check_containment, invert_levels, ThresholdSpec
from gls_oracle import build_correlation, fit_gls_spot


def planted_field(nx=8, ny=6, n_obs=40, rho=0.4, noise=0.6, seed=0, mask=None):
    """Observations z = X beta(s) + AR(1) noise with a known group-effect
    surface carrying a central bump."""
    rng = substream(seed)
    x = np.arange(nx, dtype=float)
    y = np.arange(ny, dtype=float)
    gx, gy = np.meshgrid(x, y, indexing="ij")
    bump = 2.5 * np.exp(-(((gx - nx / 2) / (nx / 4)) ** 2 + ((gy - ny / 2) / (ny / 4)) ** 2))
    group = np.repeat([0.0, 1.0], n_obs // 2)
    tc = np.concatenate([np.linspace(-1, 1, n_obs // 2), np.zeros(n_obs // 2)])
    tf = np.concatenate([np.zeros(n_obs // 2), np.linspace(-1, 1, n_obs // 2)])
    X = np.column_stack([group, np.ones(n_obs), tc, tf])
    beta = np.stack([bump, np.full((nx, ny), 10.0), np.full((nx, ny), 0.3),
                     np.full((nx, ny), -0.2)], axis=-1)
    mean = np.einsum("op,xyp->oxy", X, beta)
    eps = rng.standard_normal((n_obs, nx, ny))
    z = np.empty_like(eps)
    z[0] = eps[0]
    for tstep in range(1, n_obs):
        z[tstep] = rho * z[tstep - 1] + np.sqrt(1 - rho**2) * eps[tstep]
    data = SpatialObservations(x, y, mean + noise * z, mask)
    return data, X, bump


class TestBuildCorrelation:
    def test_ar1_zero_is_identity(self):
        R = build_correlation(CorrelationSpec("ar1", rho=0.0), 4)
        np.testing.assert_array_equal(R, np.eye(4))

    def test_ar1_direct_formula(self):
        R = build_correlation(CorrelationSpec("ar1", rho=0.5), 3)
        np.testing.assert_allclose(
            R, [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]
        )

    def test_comp_symm_eigenvalues(self):
        R = build_correlation(CorrelationSpec("comp_symm", rho=0.3), 4)
        vals = np.sort(np.linalg.eigvalsh(R))
        np.testing.assert_allclose(vals, [0.7, 0.7, 0.7, 1.9], atol=1e-12)

    def test_rho_bounds(self):
        with pytest.raises(ValueError, match="rho"):
            CorrelationSpec("ar1", rho=1.0)

    def test_comp_symm_pd_bound(self):
        with pytest.raises(ValueError, match="positive definite"):
            build_correlation(CorrelationSpec("comp_symm", rho=-0.5), 4)

    def test_comp_symm_pd_bound_is_exclusive(self):
        # rho = -1/(m-1) makes the block singular, so the boundary itself is refused
        with pytest.raises(ValueError) as info:
            build_correlation(CorrelationSpec("comp_symm", rho=-1 / 3), 4)
        assert str(info.value) == (
            f"compound symmetry with rho={-1 / 3} is not positive definite for group size 4"
        )
        np.linalg.cholesky(build_correlation(CorrelationSpec("comp_symm", rho=-1 / 3 + 1e-9), 4))

    def test_groups_block_structure(self):
        groups = np.array([0, 0, 1, 1])
        R = build_correlation(CorrelationSpec("ar1", rho=0.5, groups=groups), 4)
        assert R[0, 1] == 0.5 and R[1, 2] == 0.0 and R[2, 3] == 0.5

    def test_none_is_identity(self):
        np.testing.assert_array_equal(
            build_correlation(CorrelationSpec("none"), 3), np.eye(3)
        )


class TestWhiten:
    """The closed-form whitening is L^-1 for L the Cholesky factor of the
    correlation that build_correlation writes out."""

    @pytest.mark.parametrize("labels", [
        np.repeat([0, 1, 2], 4),
        np.arange(12) % 3,
        np.where(np.arange(12) == 5, 3, np.repeat([0, 1, 2], 4)),  # observation 5 alone
    ], ids=["contiguous", "interleaved", "singleton"])
    @pytest.mark.parametrize("kind, rho", [
        ("comp_symm", "bound"), ("comp_symm", 0.0), ("comp_symm", 0.99),
        ("ar1", -0.99), ("ar1", 0.0), ("ar1", 0.99),
    ])
    def test_is_inverse_cholesky_factor(self, labels, kind, rho):
        if rho == "bound":  # just inside the positive-definite range of the largest group
            rho = -1.0 / (np.bincount(labels).max() - 1) + 1e-3
        spec = CorrelationSpec(kind, rho=rho, groups=labels)
        Linv = np.linalg.inv(np.linalg.cholesky(build_correlation(spec, 12)))
        earlier, k = geospatial._lower_pattern(kind, labels, 12, rho)
        b, d = geospatial._innovation_weights(rho, k)
        np.testing.assert_allclose(geospatial._whiten(np.eye(12), earlier, b, d), Linv,
                                   rtol=0, atol=1e-12 * np.abs(Linv).max())


class TestFitGlsSpot:
    def test_identity_covariance_equals_ols(self, rng):
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        z = X @ np.array([1.0, -0.5, 2.0]) + rng.standard_normal(30)
        beta, cov = fit_gls_spot(X, z, np.eye(30))
        beta_ols = np.linalg.lstsq(X, z, rcond=None)[0]
        np.testing.assert_allclose(beta, beta_ols, atol=1e-10)

    def test_scale_invariance(self, rng):
        X = np.column_stack([np.ones(25), rng.standard_normal(25)])
        z = rng.standard_normal(25)
        b1, _ = fit_gls_spot(X, z, np.eye(25))
        b2, _ = fit_gls_spot(X, z, 3.0 * np.eye(25))
        np.testing.assert_allclose(b1, b2, atol=1e-10)

    def test_explicit_inverse_oracle(self, rng):
        n = 20
        A = rng.standard_normal((n, n))
        V = A @ A.T + n * np.eye(n)
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        z = rng.standard_normal(n)
        beta, cov = fit_gls_spot(X, z, V)
        Vinv = np.linalg.inv(V)
        M = np.linalg.inv(X.T @ Vinv @ X)
        oracle = M @ (X.T @ Vinv @ z)
        np.testing.assert_allclose(beta, oracle, atol=1e-8)
        # covariance scaled by whitened RSS / (n - p)
        L = np.linalg.cholesky(V)
        rw = np.linalg.solve(L, z - X @ beta)
        sigma2 = rw @ rw / (n - 2)
        np.testing.assert_allclose(cov, sigma2 * M, atol=1e-8)

    def test_singular_covariance(self, rng):
        X = np.column_stack([np.ones(5), rng.standard_normal(5)])
        with pytest.raises(ValueError, match="positive definite"):
            fit_gls_spot(X, np.zeros(5), np.zeros((5, 5)))


class TestScbGls:
    def test_zero_noise_zero_width(self):
        data, X, bump = planted_field(noise=0.0)
        band = scb_gls(data, X, [1.0, 0, 0, 0], CorrelationSpec("none"),
                       n_boot=200, seed=0)
        np.testing.assert_allclose(band.scb_up - band.scb_low, 0.0, atol=1e-8)
        np.testing.assert_allclose(band.eta_hat, bump, atol=1e-8)

    def test_w_selects_first_coefficient(self):
        data, X, bump = planted_field(noise=0.3, seed=2)
        fit, _ = fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("none"))
        np.testing.assert_allclose(fit.eta, fit.beta[:, :, 0], atol=1e-12)

    def test_masked_spots_carry_no_values(self):
        mask = np.ones((8, 6), dtype=bool)
        mask[0, :] = False
        data, X, _ = planted_field(noise=0.3, seed=3, mask=mask)
        band = scb_gls(data, X, [1.0, 0, 0, 0], n_boot=200, seed=1)
        assert np.isnan(band.eta_hat[0]).all()
        assert np.isfinite(band.eta_hat[1:][mask[1:]]).all()

    def test_all_masked_errors(self):
        with pytest.raises(ValueError) as info:
            planted_field(mask=np.zeros((8, 6), dtype=bool))
        assert str(info.value) == "mask excludes every cell"

    def test_arrays_read_only_and_unshared(self):
        # the caller's arrays stay writeable; zeroing the caller's mask once
        # reached fit_gls_grid with no spot left
        x, y, mask = np.arange(3.0), np.arange(2.0), np.ones((3, 2), dtype=bool)
        values = substream(0).standard_normal((5, 3, 2))
        data = SpatialObservations(x, y, values, mask)
        assert data.domain.mask is data.mask and data.domain.coords1 is data.x
        for arr in (data.x, data.y, data.values, data.mask):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        before = data.values.copy()
        for arr in (x, y, values, mask):
            arr[...] = 0
        np.testing.assert_array_equal(data.values, before)
        np.testing.assert_array_equal(data.x, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(data.y, [0.0, 1.0])
        assert data.mask.all()
        fit, _ = fit_gls_grid(data, np.ones((5, 1)), [1.0])
        assert np.isfinite(fit.eta).all()

    def test_seed_determinism(self):
        data, X, _ = planted_field(noise=0.4, seed=4)
        b1 = scb_gls(data, X, [1.0, 0, 0, 0], n_boot=300, seed=11)
        b2 = scb_gls(data, X, [1.0, 0, 0, 0], n_boot=300, seed=11)
        assert b1.q_alpha == b2.q_alpha
        np.testing.assert_array_equal(b1.scb_low, b2.scb_low)

    def test_gls_reduces_to_ols_on_grid(self):
        data, X, _ = planted_field(noise=0.5, seed=5)
        f_id, _ = fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("none"))
        f_scaled, _ = fit_gls_grid(
            data, X, [1.0, 0, 0, 0],
            CorrelationSpec("explicit", V=3.0 * np.eye(data.n_obs)),
        )
        np.testing.assert_allclose(f_id.beta, f_scaled.beta, atol=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_refused_before_fit(self, monkeypatch, alpha):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before alpha was checked")

        monkeypatch.setattr(geospatial, "fit_gls_grid", no_fit)
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, seed=9)
        with pytest.raises(ValueError) as info:
            scb_gls(data, X, [1.0, 0, 0, 0], alpha=alpha)
        assert str(info.value) == f"alpha must lie in (0, 1), got {alpha}"

    def test_rho_estimated_when_absent(self):
        data, X, _ = planted_field(noise=0.5, rho=0.6, seed=6)
        band = scb_gls(data, X, [1.0, 0, 0, 0], CorrelationSpec("ar1"),
                       n_boot=200, seed=2)
        band.validate()


@pytest.mark.slow
def test_planted_exceedance_containment():
    """Monte Carlo: inner <= true set <= outer for levels {1.5, 2, 2.5} in at
    least 90% - 3 MCSE of replicates at alpha = 0.1."""
    reps = 120
    hits = 0
    for r in range(reps):
        data, X, bump = planted_field(nx=10, ny=8, n_obs=60, rho=0.4,
                                      noise=0.8, seed=1000 + r)
        band = scb_gls(data, X, [1.0, 0, 0, 0], CorrelationSpec("ar1", rho=0.4),
                       n_boot=500, alpha=0.1, seed=2000 + r)
        regions = invert_levels(band, ThresholdSpec("upper", (1.5, 2.0, 2.5)))
        summary = check_containment(regions, bump, band.domain)
        hits += summary.contain_all
    p = hits / reps
    mcse = np.sqrt(max(p * (1 - p), 1e-4) / reps)
    assert p >= 0.90 - 3 * mcse, f"containment {p:.3f}"


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_observation_copies_keep_data_and_read_only(clone):
    # a copy is built again through the constructor; numpy alone would
    # restore writeable arrays
    mask = np.ones((8, 6), bool)
    mask[:2, :3] = False
    data, _, _ = planted_field(mask=mask)
    twin = clone(data)
    for got, want in ((twin.x, data.x), (twin.y, data.y), (twin.values, data.values),
                      (twin.mask, data.mask)):
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable
    assert twin.domain.mask is twin.mask and twin.domain.coords1 is twin.x
    with pytest.raises(ValueError, match="read-only"):
        twin.values[0, 0, 0] = 99.0


class TestRefusedInput:
    @pytest.mark.parametrize("axis, coords, message", [
        ("x", [0.0, 2.0, 1.0], "x must be strictly increasing"),
        ("y", [1.0, 1.0], "y must be strictly increasing"),
        ("x", [[0.0, 1.0, 2.0]], "x must be a nonempty 1-D sequence"),
        ("y", [], "y must be a nonempty 1-D sequence"),
    ], ids=["x_unsorted", "y_repeated", "x_2d", "y_empty"])
    def test_grid_axes(self, axis, coords, message):
        axes = {"x": np.arange(3.0), "y": np.arange(2.0), axis: coords}
        with pytest.raises(ValueError) as info:
            SpatialObservations(axes["x"], axes["y"], np.zeros((4, 3, 2)))
        assert str(info.value) == message

    @pytest.mark.parametrize("field, kind", [
        ("rho", "none"), ("rho", "explicit"), ("V", "none"), ("V", "ar1"),
        ("V", "comp_symm"), ("groups", "none"), ("groups", "explicit"),
    ])
    def test_field_the_kind_does_not_read(self, field, kind):
        fields = {"V": np.eye(3)} if kind == "explicit" else {}
        fields[field] = {"rho": 0.4, "V": np.eye(3), "groups": [0, 0, 1]}[field]
        with pytest.raises(ValueError) as info:
            CorrelationSpec(kind, **fields)
        assert str(info.value) == f"correlation kind {kind!r} takes no {field}"

    @pytest.mark.parametrize("spec", [CorrelationSpec("none"), CorrelationSpec("ar1", rho=0.4),
                                      CorrelationSpec("ar1"), CorrelationSpec("comp_symm")],
                             ids=["none", "ar1", "ar1_estimated", "comp_symm_estimated"])
    @pytest.mark.parametrize("field", ["design", "w"])
    def test_non_finite_design_or_w(self, spec, field):
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        X, w = X.copy(), np.array([1.0, 0, 0, 0])
        if field == "design":
            X[3, 1] = np.nan
        else:
            w[2] = np.inf
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, w, spec)
        assert str(info.value) == f"{field} must be finite"

    def test_non_finite_V(self):
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        V = np.broadcast_to(np.eye(20), (3, 2, 20, 20)).copy()
        V[1, 1, 4, 4] = np.inf
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("explicit", V=V))
        assert str(info.value) == "V must be finite at unmasked spots"

    def test_comp_symm_rho_below_bound(self):
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        groups = np.repeat([0, 1], [4, 16])
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("comp_symm", rho=-0.1, groups=groups))
        assert str(info.value) == "compound symmetry with rho=-0.1 is not positive definite for group size 16"

    @pytest.mark.parametrize("label", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("rho", [0.3, None], ids=["fixed", "estimated"])
    @pytest.mark.parametrize("kind", ["ar1", "comp_symm"])
    def test_non_finite_group_labels(self, kind, rho, label):
        # a NaN label equals no label, not even itself: its observations once
        # fell into no group and were fitted as uncorrelated singletons
        groups = np.repeat([0.0, 1.0, 2.0], [4, 6, 10])
        groups[4:6] = label
        with pytest.raises(ValueError) as info:
            CorrelationSpec(kind, rho, groups=groups)
        assert str(info.value) == "groups must be finite labels"
        groups[4:6] = 1.0
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        fit, _ = fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec(kind, rho, groups=groups))
        assert np.all(np.isfinite(fit.se))


class TestExplicitPerSpotCovariance:
    def test_per_spot_array(self):
        data, X, _ = planted_field(nx=4, ny=3, n_obs=20, noise=0.5, seed=9)
        n = data.n_obs
        V = np.empty((4, 3, n, n))
        for i in range(4):
            for j in range(3):
                V[i, j] = build_correlation(
                    CorrelationSpec("ar1", rho=0.1 * (i + 1) / 4), n
                )
        band = scb_gls(data, X, [1.0, 0, 0, 0],
                       CorrelationSpec("explicit", V=V), n_boot=150, seed=3)
        band.validate()

    def test_per_spot_array_off_grid_rejected(self):
        data, X, _ = planted_field(nx=4, ny=3, n_obs=20, noise=0.5, seed=9)
        V = np.broadcast_to(np.eye(20), (2, 2, 20, 20))
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("explicit", V=V))
        assert str(info.value) == (
            "V must have shape (20, 20) or (4, 3, 20, 20), got (2, 2, 20, 20)"
        )

    def test_shared_matrix_wrong_size_rejected(self):
        data, X, _ = planted_field(nx=4, ny=3, n_obs=20, noise=0.5, seed=9)
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("explicit", V=np.eye(21)))
        assert str(info.value) == "V must have shape (20, 20) or (4, 3, 20, 20), got (21, 21)"


def _per_spot_rho(resid, kind, groups):
    """Moment estimate of rho for one spot's residual vector: the lag-1
    Yule-Walker estimate for AR(1); for compound symmetry the mean product
    over distinct same-group pairs divided by the mean square."""
    den = float(resid @ resid)
    if den == 0:
        return 0.0
    num = pairs = 0.0
    for g in dict.fromkeys(groups.tolist()):
        e = resid[groups == g]
        if kind == "ar1":
            num += float(e[:-1] @ e[1:])
        else:
            products = np.outer(e, e)
            num += float(products.sum() - np.trace(products))
            pairs += e.size * (e.size - 1)
    if kind == "ar1":
        return float(np.clip(num / den, -0.99, 0.99))
    return float(np.clip((num / pairs) / (den / resid.size), 0.0, 0.99))


class TestEstimatedCompoundSymmetry:
    @pytest.mark.parametrize("groups", [None, np.repeat(np.arange(6), 10)])
    def test_white_noise_fits(self, groups):
        # iid noise has no within-group correlation, so every spot's estimate
        # must stay in the positive-definite range of compound symmetry
        n = 60
        X = np.column_stack([np.ones(n), np.linspace(-1.0, 1.0, n)])
        data = SpatialObservations(np.arange(6.0), np.arange(5.0),
                                   substream(31).standard_normal((n, 6, 5)))
        fit, _ = fit_gls_grid(data, X, [0.0, 1.0], CorrelationSpec("comp_symm", groups=groups))
        assert np.all(np.isfinite(fit.se)) and np.all(fit.se > 0)

    def test_shared_group_effect_is_recovered(self):
        # a within-group effect of variance 1 over unit noise: rho = 0.5
        rng = substream(32)
        groups = np.repeat(np.arange(1000), 5)
        resid = rng.standard_normal((5000, 8)) + np.repeat(rng.standard_normal((1000, 8)), 5, axis=0)
        np.testing.assert_allclose(_estimate_rho(resid, "comp_symm", groups), 0.5, atol=0.03)


class TestGridMatchesSpotOracle:
    """Every spot of fit_gls_grid against fit_gls_spot with that spot's V."""

    @pytest.mark.parametrize(
        "case", ["none", "ar1", "ar1_groups", "ar1_interleaved", "explicit_2d", "explicit_per_spot",
                 "ar1_estimated", "ar1_estimated_interleaved", "ar1_estimated_singleton",
                 "ar1_estimated_clipped", "comp_symm", "comp_symm_estimated", "comp_symm_interleaved",
                 "comp_symm_estimated_interleaved", "comp_symm_negative"]
    )
    def test_every_spot_matches(self, case, rng):
        mask = np.ones((5, 4), dtype=bool)
        mask[0, :2] = False
        # the clipped case needs room for a residual whose lag-1
        # autocorrelation exceeds +0.99 outside the design's column space
        n = 120 if case == "ar1_estimated_clipped" else 24
        data, X, _ = planted_field(nx=5, ny=4, n_obs=n, noise=0.5, seed=21, mask=mask)
        w = np.array([1.0, 0.5, 0.0, -1.0])
        groups = np.repeat([0, 1, 2], n // 3)
        interleaved = np.arange(n) % 3
        A = rng.standard_normal((n, n))
        per_spot = np.empty((5, 4, n, n))
        for i in range(5):
            for j in range(4):
                per_spot[i, j] = build_correlation(CorrelationSpec("ar1", rho=0.1 * i - 0.05 * j), n)
        spec = {
            "none": CorrelationSpec("none"),
            "ar1": CorrelationSpec("ar1", rho=0.4),
            "ar1_groups": CorrelationSpec("ar1", rho=0.4, groups=groups),
            "ar1_interleaved": CorrelationSpec("ar1", rho=0.4, groups=interleaved),
            "explicit_2d": CorrelationSpec("explicit", V=A @ A.T + n * np.eye(n)),
            "explicit_per_spot": CorrelationSpec("explicit", V=per_spot),
            "ar1_estimated": CorrelationSpec("ar1", groups=groups),
            "ar1_estimated_interleaved": CorrelationSpec("ar1", groups=interleaved),
            # one observation alone in group 3, inside group 0's run
            "ar1_estimated_singleton": CorrelationSpec("ar1", groups=np.where(np.arange(n) == 5, 3, groups)),
            "ar1_estimated_clipped": CorrelationSpec("ar1"),
            "comp_symm": CorrelationSpec("comp_symm", rho=0.3),
            "comp_symm_estimated": CorrelationSpec("comp_symm", groups=groups),
            "comp_symm_interleaved": CorrelationSpec("comp_symm", rho=0.3, groups=interleaved),
            "comp_symm_estimated_interleaved": CorrelationSpec("comp_symm", groups=interleaved),
            # groups of 8: positive definite down to rho = -1/7
            "comp_symm_negative": CorrelationSpec("comp_symm", rho=-0.12, groups=groups),
        }[case]
        if case.startswith("comp_symm_estimated"):
            # a shared effect per group and spot keeps every estimated rho
            # inside the positive-definite range of compound symmetry
            shared = 2.0 * rng.standard_normal((3, 5, 4))[spec.groups]
            data = SpatialObservations(data.x, data.y, data.values + shared, mask)
        if case == "ar1_estimated_clipped":
            # residuals along the extreme eigenvectors of the lag-1 product
            # restricted to the residual space: autocorrelation 0.992 and
            # -0.999, so the estimate clips at +0.99 and -0.99 there
            resid_space = np.eye(n) - X @ np.linalg.pinv(X)
            lag1 = np.diag(np.full(n - 1, 0.5), 1)
            vecs = np.linalg.eigh(resid_space @ (lag1 + lag1.T) @ resid_space)[1]
            values = data.values.copy()
            values[:, 1, 0] = 10.0 * vecs[:, -1]
            values[:, 2, 1] = 10.0 * vecs[:, 0]
            data = SpatialObservations(data.x, data.y, values, mask)
        labels = np.zeros(n) if spec.groups is None else spec.groups
        fit, contrib = fit_gls_grid(data, X, w, spec)
        ols = np.linalg.pinv(X)
        rhos = []
        for k, (i, j) in enumerate(np.argwhere(mask)):
            z = data.values[:, i, j]
            if case == "none":
                V = np.eye(n)
            elif case.startswith(("ar1_estimated", "comp_symm_estimated")):
                rhos.append(_per_spot_rho(z - X @ (ols @ z), spec.kind, labels))
                V = build_correlation(CorrelationSpec(spec.kind, rho=rhos[-1], groups=spec.groups), n)
            elif spec.kind == "explicit":
                V = spec.V if spec.V.ndim == 2 else spec.V[i, j]
            else:
                V = build_correlation(spec, n)
            beta, cov = fit_gls_spot(X, z, V)
            np.testing.assert_allclose(fit.beta[i, j], beta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fit.eta[i, j], w @ beta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fit.se[i, j], np.sqrt(w @ cov @ w), rtol=0, atol=1e-12)
            # whitened per-observation contributions n * (Xw (Xw'Xw)^-1 w) * rw
            L = np.linalg.cholesky(V)
            Xw = np.linalg.solve(L, X)
            expected = n * (Xw @ np.linalg.solve(Xw.T @ Xw, w)) * np.linalg.solve(L, z - X @ beta)
            np.testing.assert_allclose(contrib[:, k], expected, rtol=0, atol=1e-10)
        assert np.isnan(fit.eta[~mask]).all() and np.isnan(fit.beta[~mask]).all()
        assert contrib.shape == (n, mask.sum())
        if case == "ar1_estimated_clipped":
            assert rhos.count(0.99) == 1 and rhos.count(-0.99) == 1

    def test_one_non_pd_spot_is_listed_alone(self):
        data, X, _ = planted_field(nx=4, ny=3, n_obs=20, noise=0.5, seed=9)
        n = data.n_obs
        V = np.broadcast_to(np.eye(n), (4, 3, n, n)).copy()
        V[2, 1] = 0.0
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("explicit", V=V))
        assert str(info.value) == (
            "GLS fit failed at spots: (2, 1): covariance V is singular or not positive definite"
        )

    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular_design"])
    @pytest.mark.parametrize("bad", [[(18, 10)], [(2, 3), (18, 10)]], ids=["later_block", "two_blocks"])
    def test_non_pd_spot_in_a_later_block(self, bad, singular):
        # 300 spots span two blocks; spot (18, 10) is the 281st. Every non-PD
        # spot is listed, and before a singular design
        assert geospatial._GLS_BLOCK < 18 * 15 + 10 < 2 * geospatial._GLS_BLOCK
        data, X, _ = planted_field(nx=20, ny=15, n_obs=20, noise=0.5, seed=9)
        V = np.broadcast_to(np.eye(20), (20, 15, 20, 20)).copy()
        for i, j in bad:
            V[i, j, 3, 3] = -1.0
        X = X.copy()
        if singular:
            X[:, 2] = 0.0
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("explicit", V=V))
        assert str(info.value) == "GLS fit failed at spots: " + "; ".join(
            f"({i}, {j}): covariance V is singular or not positive definite" for i, j in bad
        )

    def test_closed_form_kinds_build_no_correlation_matrix(self, monkeypatch):
        # no (n, n) correlation is written out, so none is factored either
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda *args: calls.append(args) or cholesky(*args))
        data, X, _ = planted_field(nx=4, ny=3, n_obs=24, noise=0.5, seed=9)
        fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("none"))
        for kind in ("ar1", "comp_symm"):
            for groups in (None, np.arange(24) % 3):
                for rho in (None, 0.3):
                    fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec(kind, rho, groups=groups))
        assert calls == []

    def test_estimated_ar1_singular_design_lists_every_spot(self):
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        X = X.copy()
        X[:, 2] = 0.0
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("ar1"))
        assert str(info.value) == "GLS fit failed at spots: " + "; ".join(
            f"({i}, {j}): design matrix is singular" for i in range(3) for j in range(2)
        )

    @pytest.mark.parametrize("spec", [CorrelationSpec("none"), CorrelationSpec("comp_symm", rho=0.3),
                                      CorrelationSpec("explicit", V=2.0 * np.eye(20))],
                             ids=["none", "comp_symm", "explicit_2d"])
    def test_shared_singular_design_lists_every_spot(self, spec):
        # one Gram matrix serves every spot, so its failure names them all
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        X = X.copy()
        X[:, 2] = 0.0
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0], spec)
        assert str(info.value) == "GLS fit failed at spots: " + "; ".join(
            f"({i}, {j}): design matrix is singular" for i in range(3) for j in range(2)
        )

    def test_shared_non_pd_lists_every_spot(self):
        data, X, _ = planted_field(nx=3, ny=2, n_obs=20, noise=0.5, seed=9)
        with pytest.raises(ValueError) as info:
            fit_gls_grid(data, X, [1.0, 0, 0, 0],
                         CorrelationSpec("explicit", V=np.zeros((20, 20))))
        assert str(info.value).count("not positive definite") == 6


class TestSpotIndependence:
    """A spot's fit does not depend on its block-mates, its position in a
    block, the padding of a short last block or the number of spots, so no
    result depends on the grid size. Like TestRowwise, part of this rests on
    the BLAS kernels giving a column of a fixed-shape product the same bits
    wherever it sits, which no API promises."""

    N = 20
    # none, ar1_fixed and explicit_shared give every spot of a block one shared design
    CASES = ["ar1_estimated_groups", "ar1_fixed", "comp_symm_estimated", "explicit_per_spot",
             "explicit_shared", "none"]

    def own_V(self):  # the tested spot's covariance; every spot's under explicit_shared
        return build_correlation(
            CorrelationSpec("comp_symm", rho=0.3, groups=np.arange(self.N) % 4), self.N)

    def spec(self, case, V):
        if case == "explicit_per_spot":
            return CorrelationSpec("explicit", V=V)
        if case == "explicit_shared":
            return CorrelationSpec("explicit", V=self.own_V())
        if case == "none":
            return CorrelationSpec("none")
        if case == "ar1_fixed":
            return CorrelationSpec("ar1", rho=0.4)
        return CorrelationSpec(case.split("_estimated")[0], groups=np.repeat([0, 1, 2, 3], 5))

    def fit(self, case, X, w, columns, V, spot):
        # the spots lie on an (S, 1) grid in the order of the columns
        S = columns.shape[1]
        data = SpatialObservations(np.arange(S, dtype=float), np.zeros(1), columns[:, :, None])
        fit, contrib = fit_gls_grid(data, X, w, self.spec(case, V[:, None]))
        return [fit.beta[spot, 0], fit.eta[spot, 0], fit.se[spot, 0], contrib[:, spot]]

    @pytest.mark.parametrize("case", CASES)
    def test_spot_independent_of_block(self, case):
        rng = np.random.default_rng(41)
        n, width = self.N, geospatial._GLS_BLOCK
        X = np.column_stack([np.ones(n), np.linspace(-1, 1, n), rng.standard_normal((n, 2))])
        w = np.array([1.0, 0.5, 0.0, -1.0])
        shared = np.repeat(rng.standard_normal((4, 1)), 5, axis=0)  # a group effect per spot
        mates = (rng.standard_normal((n, 2 * width)) + shared) * rng.uniform(0.01, 100, 2 * width)
        mate_V = np.stack([build_correlation(CorrelationSpec("ar1", rho=r), n)
                           for r in rng.uniform(-0.9, 0.9, 2 * width)])
        z = rng.standard_normal(n) * 3.0 + shared[:, 0]
        Vz = self.own_V()
        alone = self.fit(case, X, w, z[:, None], Vz[None], 0)
        if case.startswith("explicit"):
            V = Vz
        elif case == "none":
            V = np.eye(n)
        elif case == "ar1_fixed":
            V = build_correlation(CorrelationSpec("ar1", rho=0.4), n)
        else:  # the spot's own rho estimate, from the oracle of the spot rule
            spec = self.spec(case, None)
            rho = _per_spot_rho(z - X @ (np.linalg.pinv(X) @ z), spec.kind, spec.groups)
            V = build_correlation(CorrelationSpec(spec.kind, rho=rho, groups=spec.groups), n)
        beta, cov = fit_gls_spot(X, z, V)
        np.testing.assert_allclose(alone[0], beta, rtol=0, atol=1e-12)
        np.testing.assert_allclose(alone[2], np.sqrt(w @ cov @ w), rtol=0, atol=1e-12)
        for pos in (0, 1, 37, width - 1):
            # in the first block, in the second, and last in a short last
            # block padded from its end; pos = 0 leaves a last block of one spot
            for spot, count in ((pos, width), (width + pos, 2 * width), (width + pos, width + pos + 1)):
                columns, V = mates[:, :count].copy(), mate_V[:count].copy()
                columns[:, spot], V[spot] = z, Vz
                got = self.fit(case, X, w, columns, V, spot)
                for g, a in zip(got, alone):
                    assert g.tobytes() == a.tobytes()


def test_estimated_fit_memory():
    # 200 x 200 spots, n = 60, p = 4: the whitened design as one (S, n, p)
    # stack alone took 73 MiB, and this call's tracemalloc peak was 220.8 MiB
    # when the design was whitened and fitted as such stacks. In fixed-width
    # blocks, little more than the (n, S) contributions is left
    n = 60
    rng = substream(40)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
    data = SpatialObservations(np.arange(200.0), np.arange(200.0), rng.standard_normal((n, 200, 200)))
    tracemalloc.start()
    try:
        fit, contrib = fit_gls_grid(data, X, [1.0, 0, 0, 0], CorrelationSpec("ar1"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(fit.se)) and contrib.shape == (n, 40_000)
    assert peak < 0.5 * 220.8 * 2**20
    assert peak < contrib.nbytes + 16 * 2**20
