"""Spot-wise generalized least squares over a masked 2D grid and a
multiplier bootstrap band for a linear functional of the coefficients.

Every spot is fit by one rule, whatever its within-spot error correlation
(AR(1), compound symmetry, an explicit covariance, or none): the design and
the data are whitened by the inverse Cholesky factor of the spot's
correlation, then one kernel fits the spots in blocks of the fixed width
``_GLS_BLOCK``, from each block's spot-last (p, n, width) whitened design.
The inverse factor has a closed form for AR(1) and compound symmetry (none
is AR(1) with rho = 0); an explicit covariance is factored block by block.
Spots that share one correlation share one (p, n, 1) whitened design and one
Gram inverse. A short last block is padded with copies of its last spot, so
no spot's result depends on its block-mates or on the number of spots, and
the fit holds O(p n width + n S) memory for S spots.
The band for eta(s) = w'beta(s) reuses the multiplier-t machinery on
whitened per-observation contributions, with one multiplier draw per
observation shared across spots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .core import (
    Domain, SCBand, _axis, _check_alpha, _frozen, _reduce_through_init, assemble_band,
    empirical_quantile, substream,
)
from .functional import multiplier_max_stats

# spots per block of the GLS fit; a constant, so no spot's result depends on
# the number of spots
_GLS_BLOCK = 256

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

    __reduce__ = _reduce_through_init

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CorrelationSpec:
    """Within-spot error correlation: ar1(rho), comp_symm(rho), an explicit
    per-spot (or shared) covariance V, or none. ``rho=None`` requests
    estimation from lag-1 OLS residual autocorrelation, held fixed
    afterwards. ``groups`` partitions the observation axis, one label per
    observation (numeric labels must be finite); correlation is zero across
    groups. rho and groups apply to ar1 and comp_symm only, V to explicit
    only."""

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
            groups = np.asarray(self.groups)
            # a NaN label equals no other label, so its observations would fall in no group
            if groups.dtype.kind in "fc" and not np.all(np.isfinite(groups)):
                raise ValueError("groups must be finite labels")
            object.__setattr__(self, "groups", groups)


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


def _lower_pattern(kind, groups, n, rho):
    """The pattern of the whitening map of :func:`_whiten` for n observations:
    ``earlier[t, u]`` = 1 where a_u is part of s_t, and k_t, its row sums, as
    an (n, 1) column. Refuses a compound-symmetry rho (which may be an array)
    outside the positive-definite range of a group."""
    earlier = np.zeros((n, n))
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
    return earlier, earlier.sum(axis=1)[:, None]


def _innovation_weights(rho, k):
    """b = rho / (1 + (k - 1) rho) and sqrt(1 - k rho b), the weights that
    make a_t's standardized innovation (a_t - b_t s_t) / sqrt(1 - k_t rho b_t),
    for k from :func:`_lower_pattern`."""
    b = rho / (1.0 + (k - 1.0) * rho)
    return b, np.sqrt(1.0 - k * rho * b)


def _whiten(A, earlier, b, d):
    """L^-1 A along axis -2 (the observations), L being the Cholesky factor
    of the AR(1) or compound-symmetry correlation within each group, from
    the pattern ``earlier`` of :func:`_lower_pattern` and the weights b, d
    of :func:`_innovation_weights` for its parameter rho (which broadcasts
    against A).

    Each observation, in index order, becomes its standardized innovation
    given the earlier ones: (a_t - b_t s_t) / sqrt(1 - k_t rho b_t), where
    s_t sums the k_t earlier observations of a_t's group that a_t depends on
    (the previous one for AR(1), all of them for compound symmetry) and
    b_t = rho / (1 + (k_t - 1) rho). Those have lower indices, so for any
    group labels the map is lower triangular: it is L^-1, not just any
    square root of the inverse correlation.
    """
    return (A - b * (earlier @ A)) / d


def _gram_inverse(U):
    """Inverse Gram matrix of each spot of a block from its spot-last
    whitened design U, (p, n, width), as a (p, p, width) array, and None; or
    None and one flag per spot whose Gram matrix is singular. The p(p+1)/2
    distinct entries are elementwise products summed over the observations."""
    p = U.shape[0]
    gram = np.empty((p, p, U.shape[2]))
    for i in range(p):
        for j in range(i + 1):
            gram[i, j] = gram[j, i] = np.add.reduce(U[i] * U[j], axis=0)
    gram = gram.transpose(2, 0, 1)
    try:
        return np.ascontiguousarray(np.linalg.inv(gram).transpose(1, 2, 0)), None
    except np.linalg.LinAlgError:
        # det and inv share one LU factorization: det is 0 where inv meets a zero pivot
        return None, np.linalg.det(gram) == 0.0


def _fit_block(U, G, zw, w):
    """GLS at each spot (column) of a block of whitened data zw, (n, width),
    from its spot-last whitened design U, (p, n, width), and inverse Gram
    matrix G, (p, p, width); U of shape (p, n, 1) and G of (p, p, 1) are one
    design that every spot of the block shares.

    For spots of their own designs, every product is elementwise and every
    sum runs over one axis of length n or p; a shared design's products are
    GEMMs of a fixed shape. Either way a spot's results do not depend on its
    block-mates. Returns the (p, width) coefficients, the value and SE of
    w'beta, and the (n, width) whitened per-observation contributions.
    """
    p, n = U.shape[:2]
    if U.shape[2] == 1:  # one design for the whole block: its products are GEMMs
        D, Gs = U[:, :, 0], G[:, :, 0]
        beta = Gs @ (D @ zw)
        resid = zw - D.T @ beta
        c = (Gs @ w)[:, None]
    else:
        beta = np.add.reduce(G * np.add.reduce(U * zw, axis=1), axis=1)  # G X'z
        resid = zw - np.add.reduce(U * beta[:, None], axis=0)
        c = np.add.reduce(G * w[:, None], axis=1)  # G w
    sigma2 = np.add.reduce(resid * resid, axis=0) / (n - p)
    se = np.sqrt(np.maximum(sigma2 * np.add.reduce(c * w[:, None], axis=0), 0.0))
    contrib = n * np.add.reduce(U * c[:, None], axis=0) * resid
    return beta, np.add.reduce(beta * w[:, None], axis=0), se, contrib


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

    Every correlation kind takes one path, in blocks of ``_GLS_BLOCK`` spots:
    the design and the data are whitened by the inverse Cholesky factor of
    each spot's correlation (in closed form for none, AR(1) and compound
    symmetry, with rho fixed or estimated per spot and any group labels; by
    a Cholesky factorization per spot of the block for an explicit V), then
    one kernel fits the block from its spot-last (p, n, width) whitened
    design. Spots that share one correlation (none, a fixed rho, an (n, n)
    V) share one (p, n, 1) whitened design and one Gram inverse. Beyond its
    outputs, a fit holds O(p n width) memory. Returns the per-spot fit
    fields together with the (n_obs, n_spots) matrix of whitened
    per-observation contributions to eta_hat, used by the multiplier
    bootstrap. Any spot failure aborts with the offending coordinates
    listed: every spot whose V is not positive definite, else every spot
    whose whitened design is singular.
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
    spots = np.argwhere(mask)  # row-major, as ``cells`` orders them
    cells = np.flatnonzero(mask)
    S = cells.size
    cube = data.values.reshape(n, -1)

    def fail(bad, reason):  # one "(x, y): reason" entry per flagged spot; one flag may stand for all
        bad = np.broadcast_to(bad, len(spots))
        entries = [f"({data.x[i]:g}, {data.y[j]:g}): {reason}" for i, j in spots[bad]]
        raise ValueError("GLS fit failed at spots: " + "; ".join(entries))

    not_pd = np.zeros(S, dtype=bool)
    shared = None  # the (p, n, 1) whitened design of spots that share one correlation
    if corr.kind == "explicit":
        V = np.asarray(corr.V, dtype=float)
        if V.shape not in ((n, n), mask.shape + (n, n)):
            raise ValueError(
                f"V must have shape ({n}, {n}) or {mask.shape + (n, n)}, got {V.shape}"
            )
        if V.ndim == 2:
            if not np.all(np.isfinite(V)):
                raise ValueError("V must be finite at unmasked spots")
            try:
                Linv = np.linalg.inv(np.linalg.cholesky(V))
            except np.linalg.LinAlgError:
                fail(True, "covariance V is singular or not positive definite")
            shared = np.ascontiguousarray((Linv @ X).T)[:, :, None]
        else:
            V = V.reshape(-1, n, n)

        def whiten(cols, z):
            if shared is not None:
                return shared, Linv @ z
            Vb = V[cells[cols]]
            if not np.all(np.isfinite(Vb)):
                raise ValueError("V must be finite at unmasked spots")
            try:
                Linv_b = np.linalg.inv(np.linalg.cholesky(Vb))
            except np.linalg.LinAlgError:  # the block fails as a whole: factor it V by V
                not_pd[cols] = [scipy.linalg.lapack.dpotrf(v, lower=True)[1] != 0 for v in Vb]
                return None, None
            U = np.ascontiguousarray((Linv_b @ X).transpose(2, 1, 0))
            return U, np.ascontiguousarray((Linv_b @ z.T[:, :, None])[:, :, 0].T)
    else:
        kind = "ar1" if corr.kind == "none" else corr.kind  # none is AR(1) with rho = 0
        rho = 0.0 if corr.kind == "none" else corr.rho
        # before any fit, so a bad fixed rho is named as given; an estimated
        # compound-symmetry rho lies in [0, 0.99], inside every group's range
        earlier, k = _lower_pattern(kind, corr.groups, n, 0.0 if rho is None else rho)
        XT = np.ascontiguousarray(X.T)[:, :, None]
        YT = np.ascontiguousarray((earlier @ X).T)[:, :, None]
        if rho is None:
            ols = np.linalg.pinv(X)
        else:
            b, d = _innovation_weights(rho, k)
            shared = (XT - b * YT) / d

        def whiten(cols, z):
            if shared is not None:
                return shared, _whiten(z, earlier, b, d)
            bb, db = _innovation_weights(_estimate_rho(z - X @ (ols @ z), kind, corr.groups), k)
            return (XT - bb * YT) / db, _whiten(z, earlier, bb, db)

    if shared is not None:
        G, singular = _gram_inverse(shared)
        if G is None:
            fail(singular, "design matrix is singular")  # one Gram matrix serves every spot
    beta, eta, se, contrib = np.empty((p, S)), np.empty(S), np.empty(S), np.empty((n, S))
    singular = np.zeros(S, dtype=bool)
    for first in range(0, S, _GLS_BLOCK):
        # a block of fixed width; copies of the last spot pad a short last
        # block, and their flags, the same as that spot's, land on it
        cols = np.minimum(np.arange(first, first + _GLS_BLOCK), S - 1)
        m = min(_GLS_BLOCK, S - first)
        U, zw = whiten(cols, cube[:, cells[cols]])
        if U is None:  # not positive definite at some spot of the block
            continue
        if shared is None:
            G, bad = _gram_inverse(U)
            if G is None:
                singular[cols] = bad
                continue
        for out, values in zip((beta, eta, se, contrib), _fit_block(U, G, zw, w)):
            out[..., first:first + m] = values[..., :m]
    if not_pd.any():
        fail(not_pd, "covariance V is singular or not positive definite")
    if singular.any():
        fail(singular, "design matrix is singular")

    def on_grid(values):  # unmasked spots' values on the grid, NaN elsewhere
        out = np.full(mask.shape + values.shape[1:], np.nan)
        out[mask] = values
        return out

    return GLSFit(on_grid(beta.T), on_grid(eta), on_grid(se)), contrib


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
