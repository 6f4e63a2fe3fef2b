"""Function-on-scalar regression on a common time grid with FPCA subject
effects, and simultaneous bands for fitted mean-outcome and coefficient
functions.

Fitting is a three-step scheme: (1) penalized B-spline least squares for the
mean model with GCV-selected smoothing, (2) FPCA of the residual process by
eigendecomposition of its pairwise-complete covariance, (3) a refit that adds
per-subject score terms as ridge-penalized coefficients (the random-effect
equivalent). The coefficient covariance comes from leave-one-subject-out
contributions: each leave-out reruns all three steps without the subject,
through the same refit as the fit itself, for any pattern of missing cells.

Two critical-value estimators are provided, both on those contributions: a
parametric simulation from their covariance (:func:`scb_cma`) and a
multiplier-t bootstrap (:func:`scb_multiplier`). Neither imputes missing
cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

from .core import (
    Domain,
    SCBand,
    _studentized_max,
    assemble_band,
    empirical_quantile,
    substream,
)

__all__ = [
    "FunctionalDataset",
    "BasisModel",
    "FoSRFit",
    "SubsetSpec",
    "bspline_basis",
    "difference_penalty",
    "fit_fosr",
    "predict_target",
    "scb_cma",
    "scb_multiplier",
    "draw_multipliers",
    "cma_max_stats",
    "multiplier_max_stats",
]

# smoothing parameters tried by the mean model's GCV, smallest first
_GCV_LADDER = np.logspace(-6, 4, 21)

# Mammen two-point distribution: the unique mean-0, variance-1,
# third-moment-1 two-point law.
_SQRT5 = np.sqrt(5.0)
MAMMEN_VALUES = ((1.0 - _SQRT5) / 2.0, (1.0 + _SQRT5) / 2.0)
MAMMEN_PROBS = ((1.0 + _SQRT5) / (2.0 * _SQRT5), (_SQRT5 - 1.0) / (2.0 * _SQRT5))

# spots per block of the multiplier-t reduction; a constant, so no result
# depends on the problem size
_SPOT_BLOCK = 128


@dataclass(frozen=True)
class FunctionalDataset:
    """Functional outcomes on a shared time grid with scalar covariates.

    ``outcomes`` is (n_subjects, n_times) with NaN marking missing cells.
    """

    ids: tuple
    times: np.ndarray
    outcomes: np.ndarray
    covariates: dict

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("times must be a nonempty 1-D grid")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        Y = np.asarray(self.outcomes, dtype=float)
        if Y.shape != (len(self.ids), t.size):
            raise ValueError(f"outcomes must have shape (n_subjects, {t.size})")
        if np.any(np.all(np.isnan(Y), axis=1)):
            raise ValueError("every subject needs at least one observed time point")
        cov = {k: np.asarray(v, dtype=float) for k, v in self.covariates.items()}
        for name, v in cov.items():
            if v.shape != (len(self.ids),):
                raise ValueError(f"covariate {name!r} must have one value per subject")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"covariate {name!r} contains non-finite values")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "outcomes", Y)
        object.__setattr__(self, "covariates", cov)

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_times(self) -> int:
        return self.times.size

    @classmethod
    def from_long(cls, ids, times, values, covariates: dict) -> "FunctionalDataset":
        """Pivot long-format records (one row per observation) onto the
        common grid of unique times; covariates are per-subject constants."""
        ids = np.asarray(ids)
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        values = np.asarray(values, dtype=float)
        uniq_ids = list(dict.fromkeys(ids.tolist()))
        grid = np.unique(times)
        Y = np.full((len(uniq_ids), grid.size), np.nan)
        row = {s: i for i, s in enumerate(uniq_ids)}
        col = {t: j for j, t in enumerate(grid.tolist())}
        for s, t, v in zip(ids.tolist(), times.tolist(), values.tolist()):
            Y[row[s], col[t]] = v
        subject = np.array([row[s] for s in ids.tolist()], dtype=int)
        cov = {}
        for name, vals in covariates.items():
            vals = np.asarray(vals, dtype=float)
            per = np.full(len(uniq_ids), np.nan)
            per[subject] = vals
            bad = ~np.isfinite(vals) | (vals != per[subject])
            if bad.any():
                raise ValueError(f"subject {uniq_ids[subject[bad.argmax()]]!r} needs one finite "
                                 f"value of covariate {name!r} on all its rows")
            cov[name] = per
        return cls(tuple(uniq_ids), grid, Y, cov)


def bspline_basis(times, n_basis: int) -> np.ndarray:
    """Cubic B-spline evaluation matrix (T x n_basis) on [t0, t1] with
    equally spaced interior knots. Columns form a partition of unity."""
    t = np.asarray(times, dtype=float)
    if n_basis < 4:
        raise ValueError("need at least 4 cubic B-spline basis functions")
    lo, hi = t[0], t[-1]
    if hi <= lo:
        hi = lo + 1.0
    interior = np.linspace(lo, hi, n_basis - 2)[1:-1]
    knots = np.concatenate([np.full(4, lo), interior, np.full(4, hi)])
    x = np.minimum(t, hi - 1e-12 * max(1.0, abs(hi)))
    return BSpline.design_matrix(x, knots, 3).toarray()


def difference_penalty(n_basis: int) -> np.ndarray:
    """Squared second-difference penalty D'D (PSD)."""
    D = np.diff(np.eye(n_basis), n=2, axis=0)
    return D.T @ D


@dataclass(frozen=True)
class BasisModel:
    """Spline basis over the grid plus its roughness penalty."""

    matrix: np.ndarray  # (T, K_b)
    penalty: np.ndarray  # (K_b, K_b)
    lambda_: float


@dataclass(frozen=True)
class SubsetSpec:
    """Covariate values pinning down the target function, parsed from
    "<var> = <value>" fragments."""

    pairs: tuple

    @classmethod
    def parse(cls, spec) -> "SubsetSpec":
        if spec is None:
            return cls(())
        if isinstance(spec, str):
            fragments = [s for s in spec.split(",") if s.strip()]
        else:
            fragments = list(spec)
        pairs = []
        for frag in fragments:
            if "=" not in frag:
                raise ValueError(f"subset entry {frag!r} is not of the form '<var> = <value>'")
            name, _, value = frag.partition("=")
            try:
                pairs.append((name.strip(), float(value)))
            except ValueError:
                raise ValueError(f"subset value in {frag!r} is not numeric") from None
        return cls(tuple(pairs))


@dataclass(frozen=True)
class FoSRFit:
    """Fitted function-on-scalar model.

    ``coef`` holds the spline coefficient blocks (one row per covariate,
    intercept first); ``cov_coef`` is their sampling covariance, the
    between-subject sandwich of the per-subject ``contributions`` (leave-one-
    subject-out pseudo-values, with or without missing cells), which the
    multiplier bootstrap perturbs.
    """

    times: np.ndarray
    covariate_names: tuple[str, ...]
    basis: BasisModel
    coef: np.ndarray  # (J+1, K_b)
    cov_coef: np.ndarray  # (p, p), p = (J+1) K_b
    eigenfunctions: np.ndarray  # (T, K)
    scores: np.ndarray  # (n, K)
    score_variances: np.ndarray  # (K,)
    noise_variance: float
    sigma2: float
    residuals: np.ndarray  # mean-model residuals, (n, T), NaN at missing
    contributions: np.ndarray  # (n, p): per-subject coefficient contributions

    @property
    def n_subjects(self) -> int:
        return self.residuals.shape[0]


def _fpca_from_residuals(E: np.ndarray, dt: float, pve: float, n_components):
    """Eigendecomposition of the pairwise-complete residual covariance:
    entry (s, t) pools every row observed at both s and t, as PACE does
    (Yao, Mueller & Wang, JASA 2005). On complete rows it is the sample
    covariance.

    Returns (Phi, sigma_k2, noise_var); eigenfunctions are scaled to be
    orthonormal under the grid inner product (Phi' Phi * dt = I).
    """
    obs = ~np.isnan(E)
    Z = np.where(obs, E, 0.0)
    Z = np.where(obs, Z - Z.sum(axis=0) / obs.sum(axis=0), 0.0)
    C = (Z.T @ Z) / np.maximum(obs.T @ obs.astype(float) - 1, 1)
    T = E.shape[1]
    vals, vecs = np.linalg.eigh(C)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    pos = vals > max(vals[0], 0.0) * 1e-12 if vals.size else np.zeros(0, bool)
    total = vals[pos].sum()
    if total <= 0:
        return np.zeros((T, 0)), np.zeros(0), 0.0
    if n_components is not None:
        K = min(int(n_components), int(pos.sum()))
    else:
        # proportion of variance explained, measured above the noise floor:
        # the median of all T eigenvalues estimates the white-noise level
        # (zero for genuinely low-rank residuals), which would otherwise
        # force in dozens of pure-noise components
        floor = float(np.median(np.clip(vals, 0.0, None)))
        excess = np.clip(vals[pos] - floor, 0.0, None)
        if excess.sum() <= 0:
            excess = vals[pos]
        frac = np.cumsum(excess) / excess.sum()
        K = int(np.searchsorted(frac, pve) + 1)
        K = min(K, int(pos.sum()))
    Phi = vecs[:, :K] / np.sqrt(dt)
    sigma_k2 = vals[:K] * dt
    tail = vals[K:][vals[K:] > 0].sum()
    noise = tail / max(T - K, 1)
    return Phi, sigma_k2, float(noise)


def fit_fosr(
    data: FunctionalDataset,
    covariates=None,
    k_basis: int = 30,
    pve: float = 0.95,
    n_components: int | None = None,
) -> FoSRFit:
    """Fit the mean model, FPCA the residuals, then refit with subject
    score terms.

    The mean model smoothing parameter is chosen by GCV over a fixed
    log-spaced ladder of 21 points spanning 1e-6..1e4. Score terms carry
    ridge penalty noise_variance / score_variance, the random-effect
    equivalent, with score variances floored at 1e-10. The coefficient
    covariance is the between-subject sandwich of leave-one-subject-out
    contributions, which tracks the extra variability from estimating the
    FPCA weights themselves (a model-posterior covariance does not).
    """
    if data.n_subjects < 10:
        raise ValueError("need at least 10 subjects")
    if covariates is None:
        covariates = tuple(data.covariates.keys())
    names = tuple(covariates)
    for name in names:
        if name not in data.covariates:
            raise ValueError(f"unknown covariate {name!r}")
    n, T = data.n_subjects, data.n_times
    t = data.times
    B = bspline_basis(t, k_basis)
    P = difference_penalty(k_basis)
    J1 = len(names) + 1
    p = J1 * k_basis
    Xc = np.column_stack([np.ones(n)] + [data.covariates[c] for c in names])
    S = np.kron(np.eye(J1), P)

    # Subject i's design rows are Z_i = kron(x_i, B[t]) at its observed
    # times. Every per-subject quantity is stacked over subjects, missing
    # cells zeroed through the 0/1 observation mask O_i (the rows of obs);
    # Y0 is the outcome matrix with 0 at missing cells.
    Y = data.outcomes
    obs = ~np.isnan(Y)
    Y0 = np.where(obs, Y, 0.0)

    def masked_gram(o, F, G):  # F' O G for each row O of the 0/1 weights o, one product
        K1, K2 = F.shape[1], G.shape[1]
        return (o @ (F[:, :, None] * G[:, None, :]).reshape(T, K1 * K2)).reshape(len(o), K1, K2)

    def kron_x(blocks):  # (n, kb, ...) -> (n, p, ...): kron(x_i, blocks[i])
        return np.einsum("nj,nk...->njk...", Xc, blocks).reshape((n, p) + blocks.shape[2:])

    def mean_curves(theta):  # (n, T) mean-model fit x_i' Theta B'
        return Xc @ (theta.reshape(J1, k_basis) @ B.T)

    ZtZ_i = np.einsum("ni,nj,nkl->nikjl", Xc, Xc, masked_gram(obs, B, B)).reshape(n, p, p)
    Zty_i = kron_x(Y0 @ B)
    ZtZ = ZtZ_i.sum(axis=0)
    Zty = Zty_i.sum(axis=0)
    yty = float(np.sum(Y0**2))
    n_obs = int(obs.sum())
    best = (np.inf, _GCV_LADDER[0], None)
    for lam in _GCV_LADDER:
        A = ZtZ + lam * S
        try:
            Ainv = np.linalg.inv(A)
        except np.linalg.LinAlgError:
            continue
        theta = Ainv @ Zty
        rss = max(yty - 2.0 * theta @ Zty + theta @ ZtZ @ theta, 0.0)
        edf = float(np.trace(Ainv @ ZtZ))
        denom = n_obs - edf
        score = np.inf if denom <= 0 else n_obs * rss / denom**2
        if score < best[0]:
            best = (score, lam, theta)
    _, lam, theta1 = best
    if theta1 is None:
        raise ValueError("penalized mean-model fit failed for every lambda")

    # degeneracy is judged once, on the full data, against an unpenalized
    # fit: the ladder-floor penalty leaves a small bias residue even on
    # exactly representable data. Degenerate data skip the FPCA (K = 0) in
    # the fit and in every leave-out, and every refit is least squares.
    theta_ls = np.linalg.lstsq(ZtZ, Zty, rcond=None)[0]
    resid_ls = np.where(obs, Y - mean_curves(theta_ls), 0.0)
    degenerate = float(np.abs(resid_ls).max()) < 1e-8 * max(1.0, float(np.abs(Y0).max()))
    if degenerate:
        warnings.warn("all residuals are zero; skipping FPCA (K = 0)")
    dt = (t[-1] - t[0]) / (T - 1) if T > 1 else 1.0

    def fpca(E):  # (Phi, score variances, noise variance) of residuals E
        if degenerate:
            return np.zeros((T, 0)), np.zeros(0), 0.0
        return _fpca_from_residuals(E, dt, pve, n_components)

    def score_blocks(o, Phi, ridge):  # B' O Phi and (Phi' O Phi + ridge)^-1 for each row O of o
        return masked_gram(o, B, Phi), np.linalg.inv(masked_gram(o, Phi, Phi) + np.diag(ridge))

    # Refit with per-subject score columns U_i = O_i Phi (zero width when
    # K = 0), solved through the Schur complement of the block-diagonal score
    # block. The coefficient blocks are left unpenalized here (ladder-floor
    # roughness penalty only, as a numerical stabilizer): the mean model's
    # GCV lambda was tuned against a residual scale that included the subject
    # effects, and carrying it over both biases the coefficient functions and
    # understates their variance once the score terms absorb that variation.
    lam_refit = float(_GCV_LADDER[0])
    complete = obs.all(axis=1)
    XX = Xc[:, :, None] * Xc[:, None, :]  # (n, J1, J1): x_i x_i'
    YX = Y0[:, :, None] * Xc[:, None, :]  # (n, T, J1): y_i x_i'
    pooled_xx, pooled_yx = XX[complete].sum(axis=0), YX[complete].sum(axis=0)

    def solve(M, rhs):  # least squares on degenerate data
        if degenerate:
            return np.linalg.lstsq(M, rhs, rcond=None)[0]
        return np.linalg.solve(M + lam_refit * S, rhs)

    def refit(Phi, ridge, drop=None):
        """Score-augmented refit on every subject but ``drop``: returns the
        coefficients and the Schur complement M (system matrix minus the
        roughness penalty).

        Fully observed subjects share one score block and enter in Kronecker
        form through their x x' and y x' sums; the others are visited one by
        one.
        """
        ZtZ_k, Zty_k, xx0, yx0, own = ZtZ, Zty, pooled_xx, pooled_yx, ~complete
        if drop is not None:
            ZtZ_k, Zty_k = ZtZ - ZtZ_i[drop], Zty - Zty_i[drop]
            own &= np.arange(n) != drop
            if complete[drop]:
                xx0, yx0 = xx0 - XX[drop], yx0 - YX[drop]
        BtPhi = B.T @ Phi
        H = BtPhi @ np.linalg.inv(Phi.T @ Phi + np.diag(ridge))
        M = ZtZ_k - np.kron(xx0, H @ BtPhi.T)
        rhs = Zty_k - (H @ (Phi.T @ yx0)).T.ravel()
        if own.any():
            C, A22inv = score_blocks(obs[own], Phi, ridge)
            H = C @ A22inv  # (subjects, kb, K)
            D = np.tensordot(XX[own], H @ C.transpose(0, 2, 1), axes=(0, 0))  # (J1, J1, kb, kb)
            M -= D.transpose(0, 2, 1, 3).reshape(p, p)
            rhs -= (H @ (Phi.T @ YX[own])).sum(axis=0).T.ravel()
        M = 0.5 * (M + M.T)
        return solve(M, rhs), M

    Phi, sigma_k2, noise = fpca(Y - mean_curves(theta1))
    K = Phi.shape[1]
    ridge = noise / np.maximum(sigma_k2, 1e-10)
    try:
        theta, M = refit(Phi, ridge)
        Sinv = solve(M, np.eye(p))
        C, A22inv = score_blocks(obs, Phi, ridge)
    except np.linalg.LinAlgError:
        # with zero noise the ridge is 0, and Phi' O_i Phi has rank below K
        # for a subject with fewer than K observed cells
        short = ", ".join(repr(data.ids[i]) for i in np.flatnonzero(obs.sum(axis=1) < K))
        if noise > 0 or not short:
            raise
        raise ValueError(
            f"the score block Phi' O_i Phi + ridge is singular for subject(s) {short}: "
            f"fewer observed cells than K = {K}, with zero noise variance"
        ) from None
    A12 = kron_x(C)  # (n, p, K): Z_i' U_i
    G = A12 @ A22inv
    xi = np.einsum("nkl,nl->nk", A22inv, Y0 @ Phi - theta @ A12)

    R0 = np.where(obs, Y - mean_curves(theta), 0.0)  # mean-model residuals
    rss = float(np.sum(np.where(obs, R0 - xi @ Phi.T, 0.0) ** 2))
    # edf = tr(A^-1 W'W) for the full design W = [Z | U] and system matrix A
    edf = (np.trace(Sinv @ M) + n * K - np.einsum("nkk,k->", A22inv, ridge)
           - np.einsum("npk,npk,k->", G, Sinv @ G, ridge))
    sigma2 = rss / max(n_obs - edf, 1.0)

    # per-subject contributions: leave-one-out pseudo-values, each from the
    # whole pipeline without subject i (mean model at the selected lambda,
    # FPCA, refit)
    def leave_out(i):
        try:
            th1 = np.linalg.solve(ZtZ - ZtZ_i[i] + lam * S, Zty - Zty_i[i])
            Phi_i, sk2, noise_i = fpca(np.delete(Y - mean_curves(th1), i, axis=0))
            return refit(Phi_i, noise_i / np.maximum(sk2, 1e-10), i)[0]
        except np.linalg.LinAlgError:
            raise ValueError(f"the fit without subject {data.ids[i]!r} is singular") from None

    u = ((n - 1.0) / n) * (theta[None, :] - np.array([leave_out(i) for i in range(n)]))
    uc = u - u.mean(axis=0)
    Vbeta = (n / (n - 1.0)) * (uc.T @ uc)
    Vbeta = 0.5 * (Vbeta + Vbeta.T)
    return FoSRFit(
        times=t,
        covariate_names=names,
        basis=BasisModel(B, P, float(lam)),
        coef=theta.reshape(J1, k_basis),
        cov_coef=Vbeta,
        eigenfunctions=Phi,
        scores=xi,
        score_variances=np.asarray(sigma_k2),
        noise_variance=float(noise),
        sigma2=float(sigma2),
        residuals=np.where(obs, R0, np.nan),
        contributions=u,
    )


def predict_target(
    fit: FoSRFit, subset: SubsetSpec | None, target: str = "fitted_mean"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Target function estimate, pointwise SE, and the contrast matrix
    mapping spline coefficients to grid values.

    ``fitted_mean``: intercept function plus each subset covariate's
    coefficient function times its value (empty subset = reference group).
    ``coefficient``: the coefficient function of the (first) subset variable.
    """
    subset = subset if subset is not None else SubsetSpec(())
    if isinstance(subset, (list, tuple, str)):
        subset = SubsetSpec.parse(subset)
    for name, _ in subset.pairs:
        if name not in fit.covariate_names:
            raise ValueError(f"unknown variable {name!r} in subset")
    B = fit.basis.matrix
    T, kb = B.shape
    J1 = len(fit.covariate_names) + 1
    C = np.zeros((T, J1 * kb))
    if target == "fitted_mean":
        C[:, :kb] = B
        for name, value in subset.pairs:
            j = fit.covariate_names.index(name) + 1
            C[:, j * kb:(j + 1) * kb] += value * B
    elif target == "coefficient":
        if not subset.pairs:
            raise ValueError("coefficient target needs a subset variable")
        if len(subset.pairs) > 1:
            warnings.warn("coefficient target uses the first subset variable only")
        j = fit.covariate_names.index(subset.pairs[0][0]) + 1
        C[:, j * kb:(j + 1) * kb] = B
    else:
        raise ValueError(f"unknown target {target!r}")
    eta = C @ fit.coef.ravel()
    se = np.sqrt(np.maximum(np.einsum("tp,pq,tq->t", C, fit.cov_coef, C), 0.0))
    return eta, se, C


def cma_max_stats(C, cov, se, n_boot: int, rng) -> np.ndarray:
    """Max standardized deviations of parametric coefficient draws.

    Draws coefficient vectors from N(0, cov), maps them through the contrast
    C, standardizes by the pointwise SE elementwise, and returns the per-draw
    grid maxima of the absolute values.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    cov = 0.5 * (np.asarray(cov, dtype=float) + np.asarray(cov, dtype=float).T)
    vals, vecs = np.linalg.eigh(cov)
    if vals.min(initial=0.0) < -1e-8 * max(vals.max(initial=1.0), 1.0):
        warnings.warn("covariance is not PSD; projecting negative eigenvalues to 0")
    root = vecs * np.sqrt(np.clip(vals, 0.0, None))
    z = rng.standard_normal((n_boot, cov.shape[0]))
    disp = z @ root.T  # draws of (beta_b - beta_hat)
    field = disp @ np.asarray(C, dtype=float).T
    # flag ignored: PSD-projected draws put only rounding error on a zero-SE cell, so it gives 0
    return _studentized_max(field, np.asarray(se, dtype=float))[0]


def scb_cma(
    fit: FoSRFit,
    subset=None,
    target: str = "fitted_mean",
    alpha: float = 0.05,
    n_boot: int = 10000,
    seed: int = 0,
) -> SCBand:
    """Correlation- and multiplicity-adjusted band by parametric simulation
    from the coefficient posterior."""
    eta, se, C = predict_target(fit, subset, target)
    rng = substream(seed)
    d = cma_max_stats(C, fit.cov_coef, se, n_boot, rng)
    q = empirical_quantile(d, 1.0 - alpha)
    return assemble_band(eta, se, q, 1.0, alpha, Domain.grid1d(fit.times))


def draw_multipliers(kind: str, n: int, rng) -> np.ndarray:
    """Mean-0, variance-1 multiplier draws of the named law."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _multiplier_matrix(kind, (int(n),), rng)


def _multiplier_matrix(kind: str, shape, rng) -> np.ndarray:
    if kind == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "mammen":
        pick = rng.random(shape) < MAMMEN_PROBS[0]
        return np.where(pick, MAMMEN_VALUES[0], MAMMEN_VALUES[1])
    raise ValueError(f"unknown multiplier kind {kind!r}")


def multiplier_max_stats(
    samples: np.ndarray,
    n_boot: int,
    weights: str = "rademacher",
    sd_method: str = "t",
    rng=None,
) -> np.ndarray:
    """Multiplier-t max statistics for an (N, grid) sample of contributions.

    Residuals are R_n = sqrt(N/(N-1)) (sample_n - mean); each replicate draws
    multipliers g and evaluates T*(s) = N^{-1/2} sum_n g_n R_n(s) / eps*(s).
    ``sd_method="regular"`` uses the sample SD of the original residuals,
    constant across replicates; ``"t"`` recomputes the SD from the perturbed
    sample {g_n R_n} per replicate (absolute value inside the square root for
    numerical stability). Under Rademacher weights g_n^2 = 1, so the second
    moment of the perturbed sample is the same for every replicate and is
    taken once per spot. Cells where both numerator and SD vanish
    contribute 0.

    The multipliers are drawn once; the spots are then reduced in blocks of
    the fixed width ``_SPOT_BLOCK``, keeping a running maximum per replicate.
    Memory is O(n_boot (N + width) + N spots), not n_boot x spots, and since
    a replicate's maximum is the maximum of its block maxima the width never
    changes a result: it depends only on the multipliers, hence on the seed.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    N = samples.shape[0]
    if N < 2:
        raise ValueError("multiplier bootstrap needs at least 2 subjects")
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    if sd_method not in ("t", "regular"):
        raise ValueError(f"unknown sd_method {sd_method!r}")
    if rng is None:
        rng = np.random.default_rng()
    flat = samples.reshape(N, -1)
    R = flat - flat.mean(axis=0)
    R *= np.sqrt(N / (N - 1.0))
    g = _multiplier_matrix(weights, (n_boot, N), rng)
    g2 = None if weights == "rademacher" else g**2
    sd = flat.std(axis=0, ddof=1) if sd_method == "regular" else None
    maxima = np.zeros(n_boot)
    for start in range(0, R.shape[1], _SPOT_BLOCK):
        blk = slice(start, start + _SPOT_BLOCK)
        num = g @ R[:, blk]
        if sd is None:
            R2 = R[:, blk] ** 2
            m2 = R2.sum(axis=0) / N if g2 is None else (g2 @ R2) / N
            eps = np.sqrt((N / (N - 1.0)) * np.abs(m2 - (num / N) ** 2))
        else:
            eps = sd[blk]
        num /= np.sqrt(N)
        block_max, degenerate = _studentized_max(num, eps)
        if degenerate.any():
            raise ValueError("degenerate SE")
        np.maximum(maxima, block_max, out=maxima)
    return maxima


def scb_multiplier(
    data: FunctionalDataset,
    fit: FoSRFit,
    subset=None,
    target: str = "fitted_mean",
    alpha: float = 0.05,
    n_boot: int = 5000,
    weights: str = "rademacher",
    sd_method: str = "t",
    seed: int = 0,
) -> SCBand:
    """Multiplier-t bootstrap band for a FoSR target.

    The procedure runs on per-subject contributions to the estimator,
    psi_n(s) = N * (contrast @ contribution_n), which for a plain mean
    target reduce to the subjects' curve residuals. They are the fit's own,
    for any pattern of missing cells: nothing is imputed or refit. The band
    is eta_hat +/- q * zeta(s)/sqrt(N) with zeta the pointwise sample SD of
    the contributions.
    """
    Y = data.outcomes
    # domain values identically zero (beyond the first index) break the
    # studentization, mirroring the documented precondition
    seg_zero = (~np.isnan(Y)).any(axis=0) & np.all((Y == 0) | np.isnan(Y), axis=0)
    if seg_zero[1:].any():
        raise ValueError("outcome is identically zero within a domain segment")
    eta, _, C = predict_target(fit, subset, target)
    N = fit.n_subjects
    psi = N * (fit.contributions @ C.T)  # (N, grid)
    rng = substream(seed)
    maxima = multiplier_max_stats(psi, n_boot, weights, sd_method, rng)
    q = empirical_quantile(maxima, 1.0 - alpha)
    zeta = psi.std(axis=0, ddof=1)
    return assemble_band(eta, zeta / np.sqrt(N), q, 1.0, alpha, Domain.grid1d(fit.times))
