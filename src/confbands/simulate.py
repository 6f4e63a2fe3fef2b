"""Simulation designs and repeated-replicate coverage experiments.

Five data-generating designs are built in: a function-on-scalar design with a
sinusoidal coefficient function, cubic-in-x linear and logistic mean-outcome
designs, and AR-correlated coefficient designs for linear and logistic fits.
``run_coverage`` repeats generate -> fit -> band -> containment-check and
reports the empirical simultaneous coverage with its Monte Carlo SE.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import functional, regression
from .core import _check_alpha, _expit, emit_json, substream

__all__ = ["SimDesign", "CoverageReport", "generate", "run_coverage"]

log = logging.getLogger(__name__)

_KINDS = ("fosr", "linear_outcome", "logistic_outcome", "linear_coef", "logistic_coef")

# Coefficient-function design: 50 equally spaced points on [0, 1], a
# sinusoidal group effect, Bernoulli(0.6) group membership, five smooth
# random-effect components with geometrically decaying variances, and
# N(0, 0.25)-variance noise.
FOSR_N_TIMES = 50
FOSR_GROUP_PROB = 0.6
FOSR_NOISE_VAR = 0.25
FOSR_SCORE_VARS = 2.0 * 0.5 ** np.arange(1, 6)

# Mean-outcome designs: y (or the log-odds) is -1 + x + 0.5 x^2 - 1.1 x^3
# with standard normal x; linear noise SD sqrt(2).
CUBIC_COEFS = (-1.0, 1.0, 0.5, -1.1)
LINEAR_NOISE_SD = np.sqrt(2.0)
OUTCOME_GRID = np.linspace(-1.0, 1.0, 100)

# Coefficient designs: M = 5 covariates, AR-type covariance rho^|i-j|.
COEF_M = 5
COEF_RHO = 0.4


def _cubic(x):
    b0, b1, b2, b3 = CUBIC_COEFS
    return b0 + b1 * x + b2 * x**2 + b3 * x**3


def fosr_truth(t):
    return np.sin(6.0 * np.pi * np.asarray(t, dtype=float))


def fosr_eigenfunctions(t):
    """Orthonormal Fourier pairs on [0, 1] used for the subject effects
    (cos-leading order, so none coincides with the sinusoidal coefficient
    function)."""
    t = np.asarray(t, dtype=float)
    return np.column_stack(
        [
            np.sqrt(2.0) * np.cos(2.0 * np.pi * t),
            np.sqrt(2.0) * np.sin(2.0 * np.pi * t),
            np.sqrt(2.0) * np.cos(4.0 * np.pi * t),
            np.sqrt(2.0) * np.sin(4.0 * np.pi * t),
            np.sqrt(2.0) * np.cos(6.0 * np.pi * t),
        ]
    )


@dataclass(frozen=True)
class SimDesign:
    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.n < 10:
            raise ValueError("n must be at least 10")


def generate(design: SimDesign, rng) -> tuple[object, np.ndarray]:
    """Draw one dataset from the design; returns (data, truth).

    fosr: (FunctionalDataset, coefficient function on the grid);
    *_outcome: (Table, true mean curve on OUTCOME_GRID);
    *_coef: (Table, true coefficient vector with leading intercept 0).
    """
    n = design.n
    if design.kind == "fosr":
        t = np.linspace(0.0, 1.0, FOSR_N_TIMES)
        x = (rng.random(n) < FOSR_GROUP_PROB).astype(float)
        Phi = fosr_eigenfunctions(t)
        scores = rng.standard_normal((n, 5)) * np.sqrt(FOSR_SCORE_VARS)
        eps = rng.standard_normal((n, FOSR_N_TIMES)) * np.sqrt(FOSR_NOISE_VAR)
        Y = fosr_truth(t)[None, :] * x[:, None] + scores @ Phi.T + eps
        data = functional.FunctionalDataset(tuple(range(n)), t, Y, {"x": x})
        return data, fosr_truth(t)
    if design.kind in ("linear_outcome", "logistic_outcome"):
        x1 = rng.standard_normal(n)
        mu = _cubic(x1)
        if design.kind == "linear_outcome":
            y = mu + rng.standard_normal(n) * LINEAR_NOISE_SD
            truth = _cubic(OUTCOME_GRID)
        else:
            y = (rng.random(n) < _expit(mu)).astype(float)
            truth = _expit(_cubic(OUTCOME_GRID))
        table = regression.Table.from_arrays(x1=x1, y=y)
        return table, truth
    # coefficient designs
    M = COEF_M
    cov = COEF_RHO ** np.abs(np.subtract.outer(np.arange(M), np.arange(M)))
    Lc = np.linalg.cholesky(cov)
    X = rng.standard_normal((n, M)) @ Lc.T
    beta = rng.standard_normal(M)
    mu = X @ beta
    if design.kind == "linear_coef":
        y = mu + rng.standard_normal(n)
    else:
        y = (rng.random(n) < _expit(mu)).astype(float)
    named = {f"x{j + 1}": X[:, j] for j in range(M)}
    named["y"] = y
    table = regression.Table(tuple(named.keys()), named)
    # the fitted model carries an intercept whose true value is 0
    return table, np.concatenate([[0.0], beta])


@dataclass(frozen=True)
class CoverageReport:
    """Empirical simultaneous coverage over replicates."""

    design: str
    n: int
    replicates: int
    alpha: float
    coverage: float
    mc_se: float
    contained: tuple
    failures: tuple
    wall_time_s: float
    method: str = ""

    def to_json(self) -> str:
        return emit_json(
            {
                "design": self.design,
                "n": self.n,
                "replicates": self.replicates,
                "alpha": self.alpha,
                "method": self.method,
                "coverage": self.coverage,
                "mc_se": self.mc_se,
                "wall_time_s": self.wall_time_s,
                "failures": list(self.failures),
                "contained": [bool(c) for c in self.contained],
            }
        )


def _band_for_replicate(design, data, method, n_boot, alpha, seed):
    boot = {} if n_boot is None else {"n_boot": n_boot}
    if design.kind == "fosr":
        fit = functional.fit_fosr(data, ("x",))
        if method == "multiplier":
            return functional.scb_multiplier(
                data, fit, subset="x=1", target="coefficient", alpha=alpha, seed=seed, **boot
            )
        return functional.scb_cma(
            fit, subset="x=1", target="coefficient", alpha=alpha, seed=seed, **boot
        )
    if design.kind in ("linear_outcome", "logistic_outcome"):
        spec = regression.parse_formula("y ~ x1 + I(x1^2) + I(x1^3)")
        family = "gaussian" if design.kind == "linear_outcome" else "binomial"
        grid = regression.Table.from_arrays(x1=OUTCOME_GRID)
        return regression.scb_mean_bootstrap(
            data, spec, grid, family=family, alpha=alpha, seed=seed, **boot
        )
    spec = regression.parse_formula("y ~ .")
    family = "gaussian" if design.kind == "linear_coef" else "binomial"
    return regression.scb_coef_bootstrap(
        data, spec, family=family, alpha=alpha, seed=seed, **boot
    )


def run_coverage(
    design: SimDesign,
    replicates: int = 500,
    alpha: float = 0.05,
    method: str = "cma",
    n_boot: int | None = None,
    keep_bands: bool = False,
):
    """Repeat generate -> fit -> band -> simultaneous containment check.

    A replicate whose fit or band construction fails counts as non-coverage
    and is logged, never dropped; an alpha or n_boot that no replicate could
    use is refused before the first. ``n_boot=None`` takes the band
    constructor's default. Deterministic for a fixed design seed: replicate
    b uses substream (seed, b).
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    if design.kind == "fosr" and method not in ("cma", "multiplier"):
        raise ValueError(f"unknown fosr method {method!r}")
    _check_alpha(alpha)
    min_boot = 1 if design.kind == "fosr" else regression._MIN_N_BOOT
    if n_boot is not None and n_boot < min_boot:
        raise ValueError(f"n_boot must be at least {min_boot} for the {design.kind} design, "
                         f"got {n_boot}")
    contained = []
    failures = []
    bands = []
    start = time.perf_counter()
    for b in range(replicates):
        rng = substream(design.seed, b)
        data, truth = generate(design, rng)
        # independent seed for the replicate's bootstrap, mixed from (seed, b)
        rep_seed = int(
            np.random.SeedSequence(design.seed, spawn_key=(b, 1)).generate_state(
                1, dtype=np.uint64
            )[0]
        )
        try:
            band = _band_for_replicate(design, data, method, n_boot, alpha, rep_seed)
        except Exception as exc:  # noqa: BLE001 - any failure counts as a miss
            log.warning("replicate %d failed: %s", b, exc)
            failures.append(b)
            contained.append(False)
            if keep_bands:
                bands.append(None)
            continue
        ok = bool(np.all(band.scb_low <= truth) and np.all(truth <= band.scb_up))
        contained.append(ok)
        if keep_bands:
            bands.append((band, truth))
    elapsed = time.perf_counter() - start
    p_hat = float(np.mean(contained))
    mc_se = float(np.sqrt(p_hat * (1.0 - p_hat) / replicates))
    report = CoverageReport(
        design=design.kind,
        n=design.n,
        replicates=replicates,
        alpha=alpha,
        coverage=p_hat,
        mc_se=mc_se,
        contained=tuple(contained),
        failures=tuple(failures),
        wall_time_s=elapsed,
        method=method if design.kind == "fosr" else "bootstrap",
    )
    if keep_bands:
        return report, bands
    return report
