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
The leave-outs run in blocks of the fixed width ``_SUBJECT_BLOCK``: one
stack of mean-model solves, one stack of covariance eigendecompositions, and
one refit per group of leave-outs that keep the same number of components.
Each leave-out's products are taken on their own, so the width never changes
a result.

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
    _axis,
    _check_alpha,
    _frozen,
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

# leave-one-subject-out refits per block of fit_fosr, and partly observed
# subjects per block of a refit's score terms; constants, so no result
# depends on the number of subjects
_SUBJECT_BLOCK = 8
_SCORE_BLOCK = 32


@dataclass(frozen=True)
class FunctionalDataset:
    """Functional outcomes on a shared time grid with scalar covariates.

    ``outcomes`` is (n_subjects, n_times) with NaN marking missing cells.
    Times, outcomes and covariates are kept as read-only copies.
    """

    ids: tuple
    times: np.ndarray
    outcomes: np.ndarray
    covariates: dict

    def __post_init__(self):
        t = _frozen(_axis("times", self.times))
        Y = _frozen(self.outcomes)
        if Y.shape != (len(self.ids), t.size):
            raise ValueError(f"outcomes must have shape (n_subjects, {t.size})")
        if np.any(np.all(np.isnan(Y), axis=1)):
            raise ValueError("every subject needs at least one observed time point")
        cov = {k: _frozen(v) for k, v in self.covariates.items()}
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
        common grid of unique times; covariates are per-subject constants.
        A subject may have at most one record per time."""
        ids = np.asarray(ids)
        times = np.asarray(times, dtype=float)
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        values = np.asarray(values, dtype=float)
        uniq_ids = list(dict.fromkeys(ids.tolist()))
        grid = np.unique(times)
        row = {s: i for i, s in enumerate(uniq_ids)}
        subject = np.array([row[s] for s in ids.tolist()], dtype=int)
        cell = subject * grid.size + np.searchsorted(grid, times)
        first = np.unique(cell, return_index=True)[1]
        if first.size < cell.size:
            k = np.setdiff1d(np.arange(cell.size), first)[0]
            raise ValueError(f"subject {uniq_ids[subject[k]]!r} has more than one record "
                             f"at time {float(times[k])!r}")
        Y = np.full((len(uniq_ids), grid.size), np.nan)
        Y.flat[cell] = values
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


def _fpca_stack(E: np.ndarray, pve: float, n_components):
    """Eigendecomposition of the pairwise-complete residual covariance of
    each (n, T) matrix in the stack E (NaN at missing cells): entry (s, t)
    pools every row observed at both s and t, as PACE does (Yao, Mueller &
    Wang, JASA 2005). On complete rows it is the sample covariance.

    Returns, for every matrix, the eigenvalues (..., T) and eigenvectors
    (..., T, T) in descending order, the number of components K (...) and
    the noise variance (...), the mean of the positive eigenvalues past K.
    """
    obs = ~np.isnan(E)
    Z = np.where(obs, E, 0.0)
    Z -= Z.sum(axis=-2, keepdims=True) / obs.sum(axis=-2, keepdims=True)
    np.copyto(Z, 0.0, where=~obs)
    o = obs.astype(np.float32)  # exact counts up to 2**24 rows
    C = (Z.swapaxes(-1, -2) @ Z) / np.maximum(o.swapaxes(-1, -2) @ o - 1, 1)
    vals, vecs = np.linalg.eigh(C)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    T = vals.shape[-1]
    # the positive eigenvalues are a leading run; K = 0 when there are none
    n_pos = (vals > np.maximum(vals[..., :1], 0.0) * 1e-12).sum(axis=-1)
    rank = np.arange(T)
    if n_components is not None:
        K = np.minimum(int(n_components), n_pos)
    else:
        # proportion of variance explained, measured above the noise floor:
        # the median of all T eigenvalues estimates the white-noise level
        # (zero for genuinely low-rank residuals), which would otherwise
        # force in dozens of pure-noise components
        pos = rank < n_pos[..., None]
        floor = np.median(np.clip(vals, 0.0, None), axis=-1, keepdims=True)
        excess = np.where(pos, np.clip(vals - floor, 0.0, None), 0.0)
        flat = excess.sum(axis=-1, keepdims=True) <= 0
        excess = np.where(flat & pos, vals, excess)
        total = excess.sum(axis=-1, keepdims=True)
        frac = np.cumsum(excess, axis=-1) / np.where(total > 0, total, 1.0)
        K = np.minimum((frac < pve).sum(axis=-1) + 1, n_pos)
    tail = np.where((rank >= K[..., None]) & (vals > 0), vals, 0.0).sum(axis=-1)
    return vals, vecs, K, tail / np.maximum(T - K, 1)


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
    FPCA weights themselves (a model-posterior covariance does not). The
    leave-outs run in blocks of the fixed width ``_SUBJECT_BLOCK``, each
    block as one stack of solves and eigendecompositions; every leave-out is
    still computed on its own, so the width never changes a result.
    """
    if data.n_subjects < 10:
        raise ValueError("need at least 10 subjects")
    if not 0.0 < pve <= 1.0:
        raise ValueError(f"pve must lie in (0, 1], got {pve}")
    if n_components is not None and n_components < 0:
        raise ValueError(f"n_components must be at least 0, got {n_components}")
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
    # times, missing cells zeroed through the 0/1 observation mask O_i (the
    # rows of obs); Y0 is the outcome matrix with 0 at missing cells. A
    # leading axis g, where there is one, runs over leave-outs.
    Y = data.outcomes
    obs = ~np.isnan(Y)
    Y0 = np.where(obs, Y, 0.0)
    XX = Xc[:, :, None] * Xc[:, None, :]  # (n, J1, J1): x_i x_i'

    def outer(F, G):  # (..., T, k1, k2): F[t] G[t]' at every time t
        return F[..., :, :, None] * G[..., :, None, :]

    def masked_gram(o, FG):  # F' O G for each row O of the 0/1 weights o, from FG = outer(F, G)
        out = o @ FG.reshape(FG.shape[:-2] + (-1,))
        return out.reshape(out.shape[:-1] + FG.shape[-2:])

    def kron_x(x, blocks):  # kron(x[i], blocks[i]) for each row i
        return np.einsum("nj,nk...->njk...", x, blocks).reshape((len(x), p) + blocks.shape[2:])

    def kron_xx(xx, blocks):  # kron(xx[g], blocks[g]) for each g, as (p, p)
        return np.einsum("gab,gkl->gakbl", xx, blocks).reshape(-1, p, p)

    def mean_curves(theta):  # (..., n, T) mean-model fits x_i' Theta B'
        return Xc @ (theta.reshape(theta.shape[:-1] + (J1, k_basis)) @ B.T)

    BB = outer(B, B)
    ZtZ = (XX.reshape(n, -1).T @ obs @ BB.reshape(T, -1)).reshape(J1, J1, k_basis, k_basis)
    ZtZ = ZtZ.transpose(0, 2, 1, 3).reshape(p, p)
    YB = Y0 @ B  # (n, kb): B' y_i
    Zty = (Xc.T @ YB).ravel()
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
    # exactly representable data. Degenerate data keep K = 0 in the fit and
    # in every leave-out, and every refit is least squares.
    theta_ls = np.linalg.lstsq(ZtZ, Zty, rcond=None)[0]
    resid_ls = np.where(obs, Y - mean_curves(theta_ls), 0.0)
    degenerate = float(np.abs(resid_ls).max()) < 1e-8 * max(1.0, float(np.abs(Y0).max()))
    if degenerate:
        warnings.warn("all residuals are zero; skipping FPCA (K = 0)")
    dt = (t[-1] - t[0]) / (T - 1) if T > 1 else 1.0

    def diag(ridge):  # (..., K) -> (..., K, K)
        return ridge[..., None, :] * np.eye(ridge.shape[-1])

    def score_blocks(o, BPhi, PhiPhi, ridge):  # B' O Phi and Phi' O Phi + ridge for each row O of o
        return masked_gram(o, BPhi), masked_gram(o, PhiPhi) + diag(ridge)[..., None, :, :]

    # Refit with per-subject score columns U_i = O_i Phi (zero width when
    # K = 0), solved through the Schur complement of the block-diagonal score
    # block. The coefficient blocks are left unpenalized here (ladder-floor
    # roughness penalty only, as a numerical stabilizer): the mean model's
    # GCV lambda was tuned against a residual scale that included the subject
    # effects, and carrying it over both biases the coefficient functions and
    # understates their variance once the score terms absorb that variation.
    lam_refit = float(_GCV_LADDER[0])
    complete = obs.all(axis=1)
    partial = np.flatnonzero(~complete)

    def solve(M, rhs):  # stacked; minimum-norm least squares on degenerate data
        if degenerate:
            return np.linalg.pinv(M, np.finfo(float).eps * p) @ rhs
        return np.linalg.solve(M + lam_refit * S, rhs)

    def refit(Phi, ridge, ZtZ_k, Zty_k, keep):
        """Score-augmented refit of each leave-out g on the subjects
        keep[g], with FPCA Phi[g] (T, K), score ridge ridge[g] and mean-model
        moments ZtZ_k[g], Zty_k[g] of those subjects: returns the
        coefficients (g, p) and the Schur complements M (g, p, p), the
        system matrices minus the roughness penalty.

        Fully observed subjects share one score block per leave-out and
        enter in Kronecker form through their x x' and y x' sums; every
        other subject enters through its own score block.
        """
        pooled = (keep & complete)[:, :, None] * Xc  # (g, n, J1)
        BtPhi = B.T @ Phi
        H = BtPhi @ np.linalg.inv(Phi.swapaxes(-1, -2) @ Phi + diag(ridge))
        M = ZtZ_k - kron_xx(Xc.T @ pooled, H @ BtPhi.swapaxes(-1, -2))
        rhs = Zty_k - (H @ (Phi.swapaxes(-1, -2) @ (Y0.T @ pooled))).swapaxes(-1, -2).reshape(-1, p)
        if partial.size:  # partly observed subjects, a block of them at a time
            D = np.zeros((len(keep), J1 * J1, k_basis * k_basis))
            BPhi, PhiPhi = outer(B, Phi), outer(Phi, Phi)
            for lo in range(0, partial.size, _SCORE_BLOCK):
                j = partial[lo:lo + _SCORE_BLOCK]
                w = keep[:, j]  # (g, m)
                C, A22 = score_blocks(obs[j], BPhi, PhiPhi, ridge)
                A22[~w] += np.eye(Phi.shape[-1])  # a dropped subject's block is unused
                H = C @ np.linalg.inv(A22)  # (g, m, kb, K)
                D += (w[:, :, None] * XX[j].reshape(len(j), -1)).swapaxes(-1, -2) @ (
                    H @ C.swapaxes(-1, -2)).reshape(len(w), len(j), -1)
                Hy = (H @ (Y0[j] @ Phi)[..., None])[..., 0]  # (g, m, kb): H_j Phi' y_j
                rhs -= ((w[:, :, None] * Xc[j]).swapaxes(-1, -2) @ Hy).reshape(-1, p)
            M -= D.reshape(-1, J1, J1, k_basis, k_basis).transpose(0, 1, 3, 2, 4).reshape(-1, p, p)
        M = 0.5 * (M + M.swapaxes(-1, -2))
        return solve(M, rhs[..., None])[..., 0], M

    # the fit's FPCA: the leave-outs' call and component rule, with zero noise
    # on degenerate data; Phi is orthonormal under the grid inner product
    vals, vecs, Ks, noises = _fpca_stack((Y - mean_curves(theta1))[None], pve,
                                         0 if degenerate else n_components)
    K = int(Ks[0])
    Phi, sigma_k2 = vecs[0, :, :K] / np.sqrt(dt), vals[0, :K] * dt
    noise = 0.0 if degenerate else float(noises[0])
    ridge = noise / np.maximum(sigma_k2, 1e-10)
    try:
        theta, M = (a[0] for a in refit(Phi[None], ridge[None], ZtZ, Zty, np.ones((1, n), bool)))
        Sinv = solve(M, np.eye(p))
        C, A22 = score_blocks(obs, outer(B, Phi), outer(Phi, Phi), ridge)
        A22inv = np.linalg.inv(A22)
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
    A12 = kron_x(Xc, C)  # (n, p, K): Z_i' U_i
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
    # FPCA, refit), for a block of subjects i at a time. Subject i's row is
    # dropped from its leave-out's residuals through the observation mask.
    theta_out = np.empty((n, p))
    for start in range(0, n, _SUBJECT_BLOCK):
        out = np.arange(start, min(start + _SUBJECT_BLOCK, n))
        keep = np.arange(n) != out[:, None]  # (g, n)
        # subject i's own moments, one row at a time so that no product depends on the width
        ZtZ_k = ZtZ - kron_xx(XX[out], masked_gram(obs[out, None], BB)[:, 0])
        Zty_k = Zty - kron_x(Xc[out], YB[out])
        try:
            E = mean_curves(np.linalg.solve(ZtZ_k + lam * S, Zty_k[..., None])[..., 0])
            np.subtract(Y, E, out=E)
            E[np.arange(len(out)), out] = np.nan
            # degenerate data keep K = 0, where the noise variance is unused
            vals, vecs, Ks, noises = _fpca_stack(E, pve, 0 if degenerate else n_components)
            for k in np.unique(Ks):  # one refit for the leave-outs that share K
                g = Ks == k
                ridge_g = noises[g, None] / np.maximum(vals[g, :k] * dt, 1e-10)
                theta_out[out[g]] = refit(vecs[g, :, :k] / np.sqrt(dt), ridge_g, ZtZ_k[g],
                                          Zty_k[g], keep[g])[0]
        except np.linalg.LinAlgError:
            who = ", ".join(repr(data.ids[i]) for i in out)
            raise ValueError(f"the fit without one of the subjects {who} is singular") from None

    u = ((n - 1.0) / n) * (theta[None, :] - theta_out)
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
    grid maxima of the absolute values. The draws use the eigenvectors of
    ``cov`` with each one's largest-magnitude entry positive, so they do not
    depend on the sign ``eigh`` returns.
    """
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    cov = 0.5 * (np.asarray(cov, dtype=float) + np.asarray(cov, dtype=float).T)
    vals, vecs = np.linalg.eigh(cov)
    if vals.min(initial=0.0) < -1e-8 * max(vals.max(initial=1.0), 1.0):
        warnings.warn("covariance is not PSD; projecting negative eigenvalues to 0")
    # LAPACK returns either sign of an eigenvector; taking each one with its
    # largest-magnitude entry positive keeps the draws from jumping with cov
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    root = vecs * np.where(lead < 0, -1.0, 1.0) * np.sqrt(np.clip(vals, 0.0, None))
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
    _check_alpha(alpha)
    eta, se, C = predict_target(fit, subset, target)
    rng = substream(seed)
    d = cma_max_stats(C, fit.cov_coef, se, n_boot, rng)
    q = empirical_quantile(d, 1.0 - alpha)
    return assemble_band(eta, se, q, 1.0, alpha, Domain.grid1d(fit.times))


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
    *,
    rng,
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

    The multipliers are drawn once, from the caller's keyed ``rng``; the
    spots are then reduced in blocks of the fixed width ``_SPOT_BLOCK``,
    keeping a running maximum per replicate.
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
    flat = samples.reshape(N, -1)
    R = flat - flat.mean(axis=0)
    R *= np.sqrt(N / (N - 1.0))
    g = _multiplier_matrix(weights, (n_boot, N), rng)
    g2 = None if weights == "rademacher" else g**2
    sd = flat.std(axis=0, ddof=1) if sd_method == "regular" else None
    maxima = np.zeros(n_boot)
    buf = np.empty((n_boot, min(_SPOT_BLOCK, R.shape[1]))) if sd is None else None
    for start in range(0, R.shape[1], _SPOT_BLOCK):
        blk = slice(start, start + _SPOT_BLOCK)
        num = g @ R[:, blk]
        if sd is None:
            R2 = R[:, blk] ** 2
            m2 = R2.sum(axis=0) / N if g2 is None else (g2 @ R2) / N
            # sqrt((N/(N-1)) * |m2 - (num/N)**2|), one operation at a time in one buffer
            eps = buf[:, :num.shape[1]]
            np.divide(num, N, out=eps)
            np.square(eps, out=eps)
            np.subtract(m2, eps, out=eps)
            np.abs(eps, out=eps)
            np.multiply(N / (N - 1.0), eps, out=eps)
            np.sqrt(eps, out=eps)
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
    _check_alpha(alpha)
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
    maxima = multiplier_max_stats(psi, n_boot, weights, sd_method, rng=rng)
    q = empirical_quantile(maxima, 1.0 - alpha)
    zeta = psi.std(axis=0, ddof=1)
    return assemble_band(eta, zeta / np.sqrt(N), q, 1.0, alpha, Domain.grid1d(fit.times))
