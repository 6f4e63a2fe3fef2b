"""Dense within-spot correlation matrices and the GLS fit of one spot, the
oracles that the closed-form GLS whitening and the stacked grid fit in
:mod:`confbands.geospatial` are tested against."""

import numpy as np
import scipy.linalg

from confbands.geospatial import CorrelationSpec


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
    groups = np.zeros(n) if spec.groups is None else np.asarray(spec.groups)
    if groups.shape != (n,):
        raise ValueError("groups must assign one label per observation")
    R = np.eye(n)
    for label in dict.fromkeys(groups.tolist()):
        idx = np.flatnonzero(groups == label)
        m = idx.size
        if m <= 1:
            continue
        if spec.kind == "ar1":
            block = rho ** np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        else:
            if rho * (m - 1) <= -1.0:
                raise ValueError(
                    f"compound symmetry with rho={rho} is not positive definite "
                    f"for group size {m}"
                )
            block = np.full((m, m), rho)
            np.fill_diagonal(block, 1.0)
        R[np.ix_(idx, idx)] = block
    return R


def fit_gls_spot(X, z, V) -> tuple[np.ndarray, np.ndarray]:
    """GLS at one spot via whitening: beta = (X'V^-1 X)^-1 X'V^-1 z, with
    the coefficient covariance scaled by the whitened residual variance
    RSS/(n - p)."""
    X = np.asarray(X, dtype=float)
    z = np.asarray(z, dtype=float)
    n, p = X.shape
    if n <= p:
        raise ValueError("need more observations than design columns")
    try:
        L = np.linalg.cholesky(np.asarray(V, dtype=float))
    except np.linalg.LinAlgError:
        raise ValueError("covariance V is singular or not positive definite") from None
    Xw = scipy.linalg.solve_triangular(L, X, lower=True)
    zw = scipy.linalg.solve_triangular(L, z, lower=True)
    try:
        XtX_inv = np.linalg.inv(Xw.T @ Xw)
    except np.linalg.LinAlgError:
        raise ValueError("design matrix is singular") from None
    beta = XtX_inv @ (Xw.T @ zw)
    resid = zw - Xw @ beta
    sigma2 = float(resid @ resid) / (n - p)
    return beta, sigma2 * XtX_inv
