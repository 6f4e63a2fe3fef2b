"""Spot-wise generalized least squares over a masked 2D grid and a
multiplier bootstrap band for a linear functional of the coefficients.

Each spot is fit under a within-spot error covariance (AR(1), compound
symmetry, an explicit matrix, or none) by one whitened GLS solve; spots
that share one covariance are solved together in a single call. AR(1) with
rho estimated per spot is whitened in closed form, by the inverse of each
spot's Cholesky factor, for all spots at once. The band for
eta(s) = w'beta(s) reuses the multiplier-t machinery on whitened
per-observation contributions, with one multiplier draw per observation
shared across spots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import Domain, SCBand, assemble_band, empirical_quantile, substream
from .functional import multiplier_max_stats

__all__ = [
    "SpatialObservations",
    "CorrelationSpec",
    "GLSFit",
    "build_correlation",
    "fit_gls_spot",
    "fit_gls_grid",
    "scb_gls",
]


@dataclass(frozen=True)
class SpatialObservations:
    """Repeated observations on a 2D grid: value cube of shape
    (n_obs, n_x, n_y) plus an optional inclusion mask over (n_x, n_y)."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        Z = np.asarray(self.values, dtype=float)
        if Z.ndim != 3 or Z.shape[1] != x.size or Z.shape[2] != y.size:
            raise ValueError(
                f"values must have shape (n_obs, {x.size}, {y.size}), got {Z.shape}"
            )
        m = self.mask
        if m is not None:
            m = np.asarray(m, dtype=bool)
            if m.shape != (x.size, y.size):
                raise ValueError("mask shape must match the grid")
            if not m.any():
                raise ValueError("mask excludes every spot")
        if not np.all(np.isfinite(Z[:, m] if m is not None else Z)):
            raise ValueError("non-finite values at unmasked spots")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "values", Z)
        object.__setattr__(self, "mask", m)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    def mask_array(self) -> np.ndarray:
        if self.mask is None:
            return np.ones((self.x.size, self.y.size), dtype=bool)
        return self.mask


@dataclass(frozen=True)
class CorrelationSpec:
    """Within-spot error correlation: ar1(rho), comp_symm(rho), an explicit
    per-spot (or shared) covariance, or none. ``rho=None`` requests
    estimation from lag-1 OLS residual autocorrelation, held fixed
    afterwards. ``groups`` partitions the observation axis; correlation is
    zero across groups."""

    kind: str = "none"
    rho: float | None = None
    V: np.ndarray | None = None
    groups: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("ar1", "comp_symm", "explicit", "none"):
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        if self.kind == "explicit" and self.V is None:
            raise ValueError("explicit correlation needs V")
        if self.rho is not None and not (-1.0 < self.rho < 1.0):
            raise ValueError("rho must lie in (-1, 1)")
        if self.groups is not None:
            object.__setattr__(self, "groups", np.asarray(self.groups))


def _group_slices(groups, n):
    if groups is None:
        return [np.arange(n)]
    groups = np.asarray(groups)
    if groups.shape != (n,):
        raise ValueError("groups must assign one label per observation")
    return [np.flatnonzero(groups == g) for g in dict.fromkeys(groups.tolist())]


def build_correlation(spec: CorrelationSpec, n: int) -> np.ndarray:
    """Correlation matrix for n observations under the given structure.

    ar1: R_ij = rho^|i-j| within each group; comp_symm: rho off-diagonal
    within group; cross-group entries are zero; none: identity.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if spec.kind == "none":
        return np.eye(n)
    if spec.kind == "explicit":
        raise ValueError("explicit covariance has no correlation structure to build")
    rho = spec.rho
    if rho is None:
        raise ValueError("rho is required (or estimated upstream)")
    R = np.eye(n)
    for idx in _group_slices(spec.groups, n):
        m = idx.size
        if m <= 1:
            continue
        if spec.kind == "ar1":
            block = rho ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        else:
            if rho < -1.0 / (m - 1):
                raise ValueError(
                    f"compound symmetry with rho={rho} is not positive definite "
                    f"for group size {m}"
                )
            block = np.full((m, m), rho)
            np.fill_diagonal(block, 1.0)
        R[np.ix_(idx, idx)] = block
    return R


@dataclass(frozen=True)
class GLSFit:
    """Per-spot GLS results over the grid: coefficient fields, the weighted
    functional eta = w'beta, and its pointwise SE."""

    beta: np.ndarray  # (n_x, n_y, p), NaN at masked spots
    eta: np.ndarray  # (n_x, n_y)
    se: np.ndarray  # (n_x, n_y)


def _gls_solve(V, X, Z):
    """Whiten by the Cholesky factor of V and solve GLS for every column of
    Z (or for a single vector z).

    Returns (beta, XtX_inv, Xw, resid): the coefficients, one column per
    column of Z, the inverse whitened Gram matrix, the whitened design and
    the whitened residuals.
    """
    n, p = X.shape
    if n <= p:
        raise ValueError("need more observations than design columns")
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise ValueError("covariance V is singular or not positive definite") from None
    Xw = scipy.linalg.solve_triangular(L, X, lower=True)
    Zw = scipy.linalg.solve_triangular(L, Z, lower=True)
    try:
        XtX_inv = np.linalg.inv(Xw.T @ Xw)
    except np.linalg.LinAlgError:
        raise ValueError("design matrix is singular") from None
    beta = XtX_inv @ (Xw.T @ Zw)
    return beta, XtX_inv, Xw, Zw - Xw @ beta


def fit_gls_spot(X, z, V) -> tuple[np.ndarray, np.ndarray]:
    """GLS at one spot via whitening: beta = (X'V^-1 X)^-1 X'V^-1 z, with
    the coefficient covariance scaled by the whitened residual variance
    RSS/(n - p)."""
    X = np.asarray(X, dtype=float)
    z = np.asarray(z, dtype=float)
    beta, XtX_inv, _, resid = _gls_solve(np.asarray(V, dtype=float), X, z)
    sigma2 = float(resid @ resid) / (X.shape[0] - X.shape[1])
    return beta, sigma2 * XtX_inv


def _ar1_whiten(A, rho, groups):
    """L^-1 A along axis -2 (the observations), L being the Cholesky factor
    of the AR(1) correlation with parameter rho (which broadcasts against A)
    within each group.

    Within each group, in index order, the first observation is kept and a
    later one becomes (a_t - rho a_prev) / sqrt(1 - rho^2), a_prev the
    group's previous observation. a_prev has the lower index, so for any
    group labels the map is lower triangular: it is L^-1, not just any
    square root of the inverse correlation.
    """
    n = A.shape[-2]
    prev = np.arange(n)  # a first observation is its own "previous", at weight 0
    later = np.zeros((n, 1), dtype=bool)
    for idx in _group_slices(groups, n):
        prev[idx[1:]] = idx[:-1]
        later[idx[1:]] = True
    r = np.where(later, rho, 0.0)
    return (A - r * A[..., prev, :]) / np.sqrt(1.0 - r**2)


def _fit_ar1_whitened(X, Z, w, rho, groups):
    """GLS at every spot (column of Z) under AR(1) correlation with the
    spot's own rho: X and Z whitened for all spots at once, then one stack
    of p x p solves.

    Returns (beta, se, contrib, singular): the (p, S) coefficients, the SE
    of w'beta, the (n, S) whitened per-observation contributions, and the
    indices of the spots whose whitened design is singular (when there are
    any, the other three are None).
    """
    n, p = X.shape
    Xw = _ar1_whiten(X, rho[:, None, None], groups)  # (S, n, p)
    Zw = _ar1_whiten(Z, rho, groups)  # (n, S)
    gram = Xw.transpose(0, 2, 1) @ Xw
    try:
        XtX_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        # det and inv share one LU factorization: det is 0 where inv meets a zero pivot
        return None, None, None, np.flatnonzero(np.linalg.det(gram) == 0.0)
    beta = (XtX_inv @ np.einsum("snp,ns->sp", Xw, Zw)[:, :, None])[:, :, 0]  # (S, p)
    resid = Zw - np.einsum("snp,sp->ns", Xw, beta)
    c = XtX_inv @ w  # (S, p)
    sigma2 = np.einsum("ns,ns->s", resid, resid) / (n - p)
    se = np.sqrt(np.maximum(sigma2 * (c @ w), 0.0))
    contrib = n * np.einsum("snp,sp->ns", Xw, c) * resid
    return beta.T, se, contrib, []


def _estimate_rho(resid: np.ndarray, kind: str, groups) -> np.ndarray:
    """Moment estimate of rho for each column of an (n, S) residual matrix,
    from pairs within groups only; 0 for a zero column.

    ar1: the lag-1 autocorrelation (Yule-Walker), clipped to [-0.99, 0.99].
    comp_symm: the mean product over distinct same-group pairs divided by
    the mean square, clipped to [0, 0.99], since a shared within-group
    effect has nonnegative variance.
    """
    n = resid.shape[0]
    num = np.zeros(resid.shape[1])
    pairs = 0
    for idx in _group_slices(groups, n):
        e = resid[idx]
        if kind == "ar1":
            num += np.einsum("ns,ns->s", e[:-1], e[1:])
        else:
            num += e.sum(axis=0) ** 2 - np.einsum("ns,ns->s", e, e)
            pairs += idx.size * (idx.size - 1)
    den = np.einsum("ns,ns->s", resid, resid)
    den = np.where(den > 0, den, np.inf)
    if kind == "ar1":
        return np.clip(num / den, -0.99, 0.99)
    return np.clip((num / max(pairs, 1)) / (den / n), 0.0, 0.99)


def fit_gls_grid(
    data: SpatialObservations, design, w, corr: CorrelationSpec | None = None
) -> tuple[GLSFit, np.ndarray]:
    """Fit GLS at every unmasked spot.

    Spots that share one covariance (none, fixed rho, an (n, n) explicit V)
    are solved together. AR(1) with rho estimated per spot is whitened in
    closed form for all spots at once, followed by one stack of p x p
    solves. Any other per-spot covariance (estimated compound symmetry, an
    (nx, ny, n, n) explicit V) is solved spot by spot. Returns the per-spot
    fit fields together with the (n_obs, n_spots) matrix of whitened
    per-observation contributions to eta_hat, used by the multiplier
    bootstrap. Any spot failure aborts with the offending coordinates listed.
    """
    X = np.asarray(design, dtype=float)
    w = np.asarray(w, dtype=float)
    n, p = X.shape
    if n != data.n_obs:
        raise ValueError("design rows must match the number of observations")
    if w.shape != (p,):
        raise ValueError("w must have one weight per design column")
    if n <= p:
        raise ValueError("need more observations than design columns")
    corr = corr or CorrelationSpec("none")
    mask = data.mask_array()
    spots = np.argwhere(mask)
    if spots.size == 0:
        raise ValueError("all spots are masked")
    Z = data.values[:, mask]  # (n, n_spots), spots in the order of ``spots``

    V = None
    if corr.kind == "none":
        V = np.eye(n)
    elif corr.kind == "explicit":
        V = np.asarray(corr.V, dtype=float)
        if V.shape not in ((n, n), mask.shape + (n, n)):
            raise ValueError(
                f"V must have shape ({n}, {n}) or {mask.shape + (n, n)}, got {V.shape}"
            )
    elif corr.rho is not None:
        V = build_correlation(corr, n)
    else:
        rho = _estimate_rho(Z - X @ (np.linalg.pinv(X) @ Z), corr.kind, corr.groups)
    shared = V is not None and V.ndim == 2

    def covariance(k):
        if V is None:
            return build_correlation(CorrelationSpec(corr.kind, float(rho[k]), groups=corr.groups), n)
        return V if shared else V[tuple(spots[k])]

    def failed(cols, reason):  # one "(x, y): reason" entry per spot in cols
        return [f"({data.x[i]:g}, {data.y[j]:g}): {reason}" for i, j in spots[cols]]

    failures = []
    if V is None and corr.kind == "ar1":
        beta, se, contrib, singular = _fit_ar1_whitened(X, Z, w, rho, corr.groups)
        failures = failed(singular, "design matrix is singular")
    else:
        beta = np.empty((p, len(spots)))
        se = np.empty(len(spots))
        contrib = np.empty_like(Z)
        for cols in [slice(None)] if shared else [slice(k, k + 1) for k in range(len(spots))]:
            try:
                beta[:, cols], XtX_inv, Xw, resid = _gls_solve(covariance(cols.start), X, Z[:, cols])
            except ValueError as exc:
                failures += failed(cols, exc)
                continue
            c = XtX_inv @ w
            sigma2 = np.einsum("ns,ns->s", resid, resid) / (n - p)
            se[cols] = np.sqrt(np.maximum(sigma2 * (w @ c), 0.0))
            contrib[:, cols] = n * (Xw @ c)[:, None] * resid
    if failures:
        raise ValueError("GLS fit failed at spots: " + "; ".join(failures))

    def on_grid(values):  # unmasked spots' values on the grid, NaN elsewhere
        out = np.full(mask.shape + values.shape[1:], np.nan)
        out[mask] = values
        return out

    return GLSFit(on_grid(beta.T), on_grid(w @ beta), on_grid(se)), contrib


def scb_gls(
    data: SpatialObservations,
    design,
    w,
    corr: CorrelationSpec | None = None,
    n_boot: int = 1000,
    alpha: float = 0.1,
    seed: int = 0,
) -> SCBand:
    """Simultaneous band for eta(s) = w'beta(s) over the unmasked grid.

    Fits GLS per spot, then runs the Rademacher multiplier-t procedure on
    whitened per-observation contributions to eta_hat (one multiplier per
    observation, shared across spots) to calibrate the max statistic. Masked
    spots carry no band values.
    """
    fit, contrib = fit_gls_grid(data, design, w, corr)
    rng = substream(seed)
    maxima = multiplier_max_stats(contrib, n_boot, rng=rng)
    q = empirical_quantile(maxima, 1.0 - alpha)
    mask = data.mask_array()
    domain = Domain.grid2d(data.x, data.y, mask=None if data.mask is None else mask)
    return assemble_band(fit.eta, fit.se, q, 1.0, alpha, domain)
