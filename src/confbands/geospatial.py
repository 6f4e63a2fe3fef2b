"""Spot-wise generalized least squares over a masked 2D grid and a
multiplier bootstrap band for a linear functional of the coefficients.

Every spot is fit by one rule, whatever its within-spot error correlation
(AR(1), compound symmetry, an explicit covariance, or none): the design and
the data are whitened by the inverse Cholesky factor of the spot's
correlation, then one stack of p x p Gram inverses fits every spot. The
inverse factor has a closed form for AR(1) and compound symmetry (none is
AR(1) with rho = 0); an explicit covariance is factored as one stack. Spots
that share one correlation share one whitened design and one Gram inverse.
The band for eta(s) = w'beta(s) reuses the multiplier-t machinery on
whitened per-observation contributions, with one multiplier draw per
observation shared across spots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    Domain, SCBand, _axis, _check_alpha, _frozen, assemble_band, empirical_quantile,
    substream,
)
from .functional import multiplier_max_stats

__all__ = [
    "SpatialObservations",
    "CorrelationSpec",
    "GLSFit",
    "fit_gls_grid",
    "scb_gls",
]


@dataclass(frozen=True)
class SpatialObservations:
    """Repeated observations on a 2D grid: a read-only value cube of shape
    (n_obs, n_x, n_y) over ``domain``, the grid and optional inclusion mask
    that the band gets; ``x``, ``y`` and ``mask`` are the domain's arrays."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    mask: np.ndarray | None = None
    domain: Domain = field(init=False)

    def __post_init__(self):
        domain = Domain.grid2d(_axis("x", self.x), _axis("y", self.y), self.mask)
        Z, (nx, ny) = _frozen(self.values), domain.shape
        if Z.ndim != 3 or Z.shape[1:] != (nx, ny):
            raise ValueError(f"values must have shape (n_obs, {nx}, {ny}), got {Z.shape}")
        if not np.all(np.isfinite(Z[:, domain.mask_array()])):
            raise ValueError("non-finite values at unmasked spots")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "x", domain.coords1)
        object.__setattr__(self, "y", domain.coords2)
        object.__setattr__(self, "values", Z)
        object.__setattr__(self, "mask", domain.mask)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CorrelationSpec:
    """Within-spot error correlation: ar1(rho), comp_symm(rho), an explicit
    per-spot (or shared) covariance V, or none. ``rho=None`` requests
    estimation from lag-1 OLS residual autocorrelation, held fixed
    afterwards. ``groups`` partitions the observation axis; correlation is
    zero across groups. rho and groups apply to ar1 and comp_symm only, V
    to explicit only."""

    kind: str = "none"
    rho: float | None = None
    V: np.ndarray | None = None
    groups: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("ar1", "comp_symm", "explicit", "none"):
            raise ValueError(f"unknown correlation kind {self.kind!r}")
        for name, kinds in (("rho", ("ar1", "comp_symm")), ("V", ("explicit",)),
                            ("groups", ("ar1", "comp_symm"))):
            if getattr(self, name) is not None and self.kind not in kinds:
                raise ValueError(f"correlation kind {self.kind!r} takes no {name}")
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


@dataclass(frozen=True)
class GLSFit:
    """Per-spot GLS results over the grid: coefficient fields, the weighted
    functional eta = w'beta, and its pointwise SE."""

    beta: np.ndarray  # (n_x, n_y, p), NaN at masked spots
    eta: np.ndarray  # (n_x, n_y)
    se: np.ndarray  # (n_x, n_y)


def _whiten(A, rho, kind, groups):
    """L^-1 A along axis -2 (the observations), L being the Cholesky factor
    of the AR(1) or compound-symmetry correlation with parameter rho (which
    broadcasts against A) within each group.

    Each observation, in index order, becomes its standardized innovation
    given the earlier ones: (a_t - b_t s_t) / sqrt(1 - k_t rho b_t), where
    s_t sums the k_t earlier observations of a_t's group that a_t depends on
    (the previous one for AR(1), all of them for compound symmetry) and
    b_t = rho / (1 + (k_t - 1) rho). Those have lower indices, so for any
    group labels the map is lower triangular: it is L^-1, not just any
    square root of the inverse correlation.
    """
    n = A.shape[-2]
    earlier = np.zeros((n, n))  # earlier[t, u] = 1 where a_u is part of s_t
    for idx in _group_slices(groups, n):
        if kind == "ar1":
            earlier[idx[1:], idx[:-1]] = 1.0
        elif np.any(rho * (idx.size - 1) <= -1.0):
            raise ValueError(
                f"compound symmetry with rho={rho} is not positive definite "
                f"for group size {idx.size}"
            )
        else:
            earlier[np.ix_(idx, idx)] = np.tri(idx.size, k=-1)
    k = earlier.sum(axis=1)[:, None]
    b = rho / (1.0 + (k - 1.0) * rho)
    return (A - b * (earlier @ A)) / np.sqrt(1.0 - k * rho * b)


def _fit_whitened(Xw, Zw, w):
    """GLS at every spot (column of the (n, S) whitened data Zw) from its
    whitened design: Xw holds one (n, p) design per spot, or a single one
    that every spot shares. One stack of p x p Gram inverses, one per design.

    Returns (beta, se, contrib, singular): the (p, S) coefficients, the SE
    of w'beta, the (n, S) whitened per-observation contributions, and one
    flag per spot whose whitened design is singular (when any is set, the
    other three are None).
    """
    n, S = Zw.shape
    XwT = Xw.transpose(0, 2, 1)
    gram = XwT @ Xw
    try:
        XtX_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        # det and inv share one LU factorization: det is 0 where inv meets a zero pivot
        return None, None, None, np.broadcast_to(np.linalg.det(gram) == 0.0, (S,))
    beta = (XtX_inv @ (XwT @ Zw.T[:, :, None]))[:, :, 0]  # (S, p)
    resid = Zw - (Xw @ beta[:, :, None])[:, :, 0].T
    c = XtX_inv @ w  # (S, p), or (1, p) for a shared design
    sigma2 = np.einsum("ns,ns->s", resid, resid) / (n - Xw.shape[-1])
    se = np.sqrt(np.maximum(sigma2 * (c @ w), 0.0))
    contrib = n * (Xw @ c[:, :, None])[:, :, 0].T * resid
    return beta.T, se, contrib, np.zeros(S, dtype=bool)


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

    Every correlation kind takes one path: the design and the data are
    whitened by the inverse Cholesky factor of each spot's correlation (in
    closed form for none, AR(1) and compound symmetry, with rho fixed or
    estimated per spot and any group labels; by one stacked Cholesky
    factorization for an explicit V), then one stack of p x p solves fits
    every spot. Spots that share one correlation (none, a fixed rho, an
    (n, n) V) share one whitened design and one Gram inverse. Returns the
    per-spot fit fields together with the (n_obs, n_spots) matrix of
    whitened per-observation contributions to eta_hat, used by the
    multiplier bootstrap. Any spot failure aborts with the offending
    coordinates listed.
    """
    X = np.asarray(design, dtype=float)
    w = np.asarray(w, dtype=float)
    n, p = X.shape
    if n != data.n_obs:
        raise ValueError("design rows must match the number of observations")
    if w.shape != (p,):
        raise ValueError("w must have one weight per design column")
    for name, values in (("design", X), ("w", w)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    if n <= p:
        raise ValueError("need more observations than design columns")
    corr = corr or CorrelationSpec("none")
    mask = data.domain.mask_array()
    spots = np.argwhere(mask)
    Z = data.values[:, mask]  # (n, n_spots), spots in the order of ``spots``

    def fail(bad, reason):  # one "(x, y): reason" entry per flagged spot; one flag may stand for all
        bad = np.broadcast_to(bad, len(spots))
        entries = [f"({data.x[i]:g}, {data.y[j]:g}): {reason}" for i, j in spots[bad]]
        raise ValueError("GLS fit failed at spots: " + "; ".join(entries))

    if corr.kind == "explicit":
        V = np.asarray(corr.V, dtype=float)
        if V.shape not in ((n, n), mask.shape + (n, n)):
            raise ValueError(
                f"V must have shape ({n}, {n}) or {mask.shape + (n, n)}, got {V.shape}"
            )
        V = V[None] if V.ndim == 2 else V[mask]  # one V for all spots, or one per spot
        if not np.all(np.isfinite(V)):
            raise ValueError("V must be finite at unmasked spots")
        try:
            Linv = np.linalg.inv(np.linalg.cholesky(V))
        except np.linalg.LinAlgError:  # the stack fails as a whole: factor it V by V
            not_pd = [scipy.linalg.lapack.dpotrf(v, lower=True)[1] != 0 for v in V]
            fail(not_pd, "covariance V is singular or not positive definite")
        Xw, Zw = Linv @ X, (Linv @ Z.T[:, :, None])[:, :, 0].T
    else:
        kind = "ar1" if corr.kind == "none" else corr.kind  # none is AR(1) with rho = 0
        rho = 0.0 if corr.kind == "none" else corr.rho
        if rho is None:
            rho = _estimate_rho(Z - X @ (np.linalg.pinv(X) @ Z), kind, corr.groups)
        Zw = _whiten(Z, rho, kind, corr.groups)  # before X, so a bad fixed rho is named as given
        Xw = _whiten(X, np.reshape(rho, (-1, 1, 1)), kind, corr.groups)
    beta, se, contrib, singular = _fit_whitened(Xw, Zw, w)
    if singular.any():
        fail(singular, "design matrix is singular")

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
    _check_alpha(alpha)
    if n_boot < 1:
        raise ValueError(f"n_boot must be at least 1, got {n_boot}")
    fit, contrib = fit_gls_grid(data, design, w, corr)
    rng = substream(seed)
    maxima = multiplier_max_stats(contrib, n_boot, rng=rng)
    q = empirical_quantile(maxima, 1.0 - alpha)
    return assemble_band(fit.eta, fit.se, q, 1.0, alpha, data.domain)
