"""Formula-driven linear and logistic fitting, and nonparametric-bootstrap
simultaneous bands for fitted mean outcomes and coefficient sets.

The bootstrap resamples rows with replacement, refits, and studentizes the
deviation of each replicate's prediction (or coefficient vector) by that
replicate's own standard error; the band half-width is the empirical
(1 - alpha)-quantile of the per-replicate maxima times the original fit's
standard error. Logistic mean-outcome bands are built on the linear-predictor
scale and mapped through the inverse link.

Resampling rows is the same as weighting the original rows by multinomial
counts, so replicate b is a count-weighted refit on the original design with
weights ``bincount(idx_b, minlength=n)``. Each redraw round reads its own
keyed generator, ``substream(seed, attempt)``, front to back: the round's
k-th replicate takes the next n uniforms u and draws the rows ``floor(n * u)``.
The point fits are the same weighted kernels with unit weights, so there is
one least-squares and one IRLS solver. The point fit's IRLS starts at
beta = 0 and every logistic replicate's at the point fit's beta; a replicate
that fails from there is rerun from beta = 0, and the rerun's result is
kept. Replicates are drawn and refit in chunks whose size follows from the
fixed memory budget ``_CHUNK_BYTES``.
Every per-replicate product is taken over blocks of a fixed number of
replicates, the last block padded with zero rows, so every BLAS call of a
bootstrap has one shape and the chunk size never changes a result; each
replicate is then solved on its own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Domain,
    SCBand,
    _check_alpha,
    _check_rank,
    _expit,
    _read_csv,
    _studentized_max,
    assemble_band,
    empirical_quantile,
    substream,
)

__all__ = [
    "Table",
    "Term",
    "ModelSpec",
    "FittedGLM",
    "FormulaError",
    "parse_formula",
    "build_design",
    "fit_ols",
    "fit_logistic",
    "predict_mean",
    "scb_mean_bootstrap",
    "scb_coef_bootstrap",
]

SEPARATION_NORM = 1e3


class FormulaError(ValueError):
    """Malformed model formula; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Table:
    """Named, equal-length numeric columns."""

    names: tuple[str, ...]
    columns: dict

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("column names must be unique")
        lengths = {len(np.asarray(self.columns[n])) for n in self.names}
        if len(lengths) > 1:
            raise ValueError("columns must have equal length")
        cols = {n: np.asarray(self.columns[n], dtype=float) for n in self.names}
        object.__setattr__(self, "columns", cols)

    @property
    def n_rows(self) -> int:
        return len(self.columns[self.names[0]]) if self.names else 0

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"unknown column {name!r}")
        return self.columns[name]

    @classmethod
    def from_arrays(cls, **named) -> "Table":
        return cls(tuple(named.keys()), dict(named))

    @classmethod
    def from_csv(cls, path) -> "Table":
        header, columns = _read_csv(path)
        return cls(tuple(header), columns)


@dataclass(frozen=True)
class Term:
    kind: str  # "main" | "power" | "all"
    name: str = ""
    power: int = 0

    def label(self) -> str:
        if self.kind == "main":
            return self.name
        if self.kind == "power":
            return f"I({self.name}^{self.power})"
        return "."


@dataclass(frozen=True)
class ModelSpec:
    """Parsed formula: response plus predictor terms (intercept implicit)."""

    response: str
    terms: tuple[Term, ...]


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise FormulaError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            raise FormulaError("expected a column name", self.pos)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise FormulaError("expected an integer exponent", start)
        return int(self.text[start:self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_formula(text: str) -> ModelSpec:
    """Parse ``response ~ term (+ term)*`` with terms NAME, I(NAME^INT), or '.'.

    Whitespace-insensitive; the intercept is always implicit. Powers must be
    integers >= 2; duplicate terms and a response reused as a predictor are
    rejected.
    """
    sc = _Scanner(text)
    response = sc.name()
    sc.expect("~")
    if sc.peek() == "~":
        raise FormulaError("unexpected '~'", sc.pos)
    terms: list[Term] = []
    while True:
        if sc.peek() == ".":
            sc.pos += 1
            terms.append(Term("all"))
        else:
            name = sc.name()
            if name == "I" and sc.peek() == "(":
                sc.expect("(")
                var = sc.name()
                sc.expect("^")
                k = sc.integer()
                sc.expect(")")
                if k < 2:
                    raise FormulaError("power must be >= 2", sc.pos)
                terms.append(Term("power", var, k))
            else:
                terms.append(Term("main", name))
        if sc.done():
            break
        sc.expect("+")
    if len(set(terms)) != len(terms):
        raise FormulaError("duplicate terms", 0)
    for t in terms:
        if t.name == response:
            raise FormulaError("response cannot appear as a predictor", 0)
    return ModelSpec(response, tuple(terms))


def _expand(spec: ModelSpec, table: Table) -> ModelSpec:
    """``spec`` with '.' replaced by one main term per non-response column
    of ``table``, in table order."""
    terms: list[Term] = []
    for term in spec.terms:
        if term.kind == "all":
            terms += [Term("main", name) for name in table.names if name != spec.response]
        else:
            terms.append(term)
    return ModelSpec(spec.response, tuple(terms))


def _design(terms, table: Table, what: str) -> np.ndarray:
    """Design matrix with a leading intercept and one column per expanded
    term: the term's column of ``table``, raised to the term's power."""
    missing = sorted({t.name for t in terms} - set(table.names))
    if missing:
        raise ValueError(f"{what} is missing columns: {', '.join(missing)}")
    cols = [np.ones(table.n_rows)]
    for t in terms:
        cols.append(table.column(t.name) ** t.power if t.kind == "power" else table.column(t.name))
    X = np.column_stack(cols)
    if not np.all(np.isfinite(X)):
        raise ValueError(f"non-finite values in modeled columns of the {what}")
    return X


def build_design(table: Table, spec: ModelSpec) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Expand a ModelSpec against a table: (X with leading intercept,
    term names, response vector). '.' expands to every non-response column
    in table order."""
    if spec.response not in table.columns:
        raise ValueError(f"response column {spec.response!r} not in table")
    terms = _expand(spec, table).terms
    names = ["intercept"] + [t.label() for t in terms]
    if len(set(names)) != len(names):
        raise ValueError("duplicate design columns after expansion")
    X = _design(terms, table, "data")
    y = table.column(spec.response)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite values in the response column")
    return X, names, y


@dataclass(frozen=True)
class FittedGLM:
    """A fitted linear or logistic model: coefficients, their covariance,
    and the design expansion used."""

    family: str  # "gaussian" | "binomial"
    beta: np.ndarray
    cov_beta: np.ndarray
    term_names: tuple[str, ...]
    spec: ModelSpec  # with '.' expanded against the fitted table
    sigma2: float | None = None


def _fit(table: Table, spec: ModelSpec, family: str):
    """Point fit of ``family`` on unit weights. Returns (FittedGLM, X, y)."""
    spec = _expand(spec, table)
    X, names, y = build_design(table, spec)
    if family == "binomial" and not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("logistic response must take values in {0, 1}")
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more rows ({n}) than design columns ({p})")
    _check_rank(X, names)
    # an overflow shows up as a non-finite sigma2 or cov_beta, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        beta, cov, ok, sigma2 = _refit(family, X, y, np.ones((1, n)))
    if not ok[0]:
        if family == "gaussian":
            raise ValueError("least squares failed: singular normal equations")
        diverged = np.linalg.norm(beta[0]) > SEPARATION_NORM
        raise ValueError("quasi-separation" if diverged else "IRLS failed")
    sigma2 = None if sigma2 is None else float(sigma2[0])
    if not (np.all(np.isfinite(cov[0])) and np.isfinite(sigma2 or 0.0)):
        raise ValueError(f"fit of response {spec.response!r} overflows: sigma2 or cov_beta "
                         "is not finite")
    return FittedGLM(family, beta[0], cov[0], tuple(names), spec, sigma2), X, y


def fit_ols(table: Table, spec: ModelSpec) -> FittedGLM:
    """Least squares fit; cov_beta = sigma2 * (X'X)^-1 with
    sigma2 = RSS / (n - p)."""
    return _fit(table, spec, "gaussian")[0]


def fit_logistic(table: Table, spec: ModelSpec) -> FittedGLM:
    """Logistic fit by IRLS from beta = 0; cov_beta = (X'WX)^-1 at
    convergence, where convergence is max |X'(y - p)| < 1e-8 within 50
    Newton steps."""
    return _fit(table, spec, "binomial")[0]


def predict_mean(fit: FittedGLM, grid: Table) -> tuple[np.ndarray, np.ndarray]:
    """Estimated mean outcome and its SE on a test grid.

    For the binomial family both are on the linear-predictor scale; the
    back-transform happens only when a band is assembled.
    """
    G = _design(fit.spec.terms, grid, "grid")
    eta = G @ fit.beta
    se = np.sqrt(np.maximum(np.einsum("gp,pq,gq->g", G, fit.cov_beta, G), 0.0))
    return eta, se


# ---------------------------------------------------------------------------
# Count-weighted refits: row b of C holds the weight of each original row in
# refit b (unit weights for a point fit, multinomial counts for a bootstrap
# replicate).
# ---------------------------------------------------------------------------

# Bytes of the widest float64 work array of one bootstrap chunk: (chunk, n)
# counts and residuals, (chunk, grid) statistics and SEs, or (chunk, p*p)
# Grams and covariances. A chunk holds a handful of these, so this bounds its
# memory whatever n, the grid size, p and n_boot are.
_CHUNK_BYTES = 8 * 2**20

# the fewest replicates that either bootstrap band accepts
_MIN_N_BOOT = 100

# Rows of one _rowwise product: _BLOCK, or fewer where a block of _BLOCK rows
# and its result would take more than _BLOCK_BYTES. A budget of its own, so
# that _CHUNK_BYTES never sets the width.
_BLOCK = 64
_BLOCK_BYTES = 8 * 2**20


def _rowwise(A, M):
    """Row b of the result is A[b] @ M.

    BLAS picks its kernel, and so its summation order, from a product's
    shape. So the rows go through BLAS in blocks of one fixed width, the last
    block padded with zero rows: every product has the same (width, n) @
    (n, k) shape, and a row's result does not depend on how many rows share
    its chunk. The width depends only on n + k, never on len(A). That a row
    of a block product does not depend on its block-mates is a property of
    the BLAS kernels, which the tests pin, not one that any API promises.
    """
    A = np.ascontiguousarray(A)
    n, k = M.shape
    width = max(1, min(_BLOCK, _BLOCK_BYTES // (8 * (n + k))))
    out = np.empty((len(A), k))
    full = len(A) - len(A) % width
    for start in range(0, full, width):
        np.matmul(A[start:start + width], M, out=out[start:start + width])
    if full < len(A):
        block = np.zeros((width, n))
        block[:len(A) - full] = A[full:]
        out[full:] = (block @ M)[:len(A) - full]
    return out


def _weighted_gram(X, W):
    """X' diag(W[b]) X for every row b of W, shape (B, p, p)."""
    p = X.shape[1]
    outer = (X[:, :, None] * X[:, None, :]).reshape(-1, p * p)
    return _rowwise(W, outer).reshape(-1, p, p)


def _each(op, A, *rest):
    """A batched ``np.linalg`` op that flags singular members instead of
    raising: returns (result, ok) with NaN where ok is False."""
    try:
        return op(A, *rest), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    out = np.full((rest[0] if rest else A).shape, np.nan)
    ok = np.ones(len(A), dtype=bool)
    for b in range(len(A)):
        try:
            out[b] = op(A[b], *(r[b] for r in rest))
        except np.linalg.LinAlgError:
            ok[b] = False
    return out, ok


def _ols_refit(X, y, C):
    """Weighted least squares per row of C. Returns (beta, cov, ok, sigma2)
    with sigma2 = sum(c * resid^2) / (n - p)."""
    n, p = X.shape
    XtX = _weighted_gram(X, C)
    beta, ok = _each(np.linalg.solve, XtX, _rowwise(C, X * y[:, None])[..., None])
    beta = beta[..., 0]
    resid = y - _rowwise(beta, X.T)
    sigma2 = np.sum(C * resid**2, axis=1) / (n - p)
    ok &= np.all(np.isfinite(beta), axis=1)
    cov = np.full(XtX.shape, np.nan)
    good = np.flatnonzero(ok)
    if good.size:
        inv, ok[good] = _each(np.linalg.inv, XtX[good])
        cov[good] = inv * sigma2[good, None, None]
    return beta, cov, ok, sigma2


def _irls_refit(X, y, C, beta0=None):
    """Weighted logistic IRLS per row of C, converged when max |score| < 1e-8
    within 50 Newton steps. Returns (beta, cov, ok); failures (separation,
    singular information, no convergence) are flagged, not raised.

    Every row starts at ``beta0`` (a bootstrap passes the point fit's beta),
    or at beta = 0 when it is None. A row that fails from ``beta0`` is rerun
    from beta = 0, and the rerun's result is the one kept, so a warm start
    never loses a refit that the zero start finds. Each row is solved on its
    own, so the rerun gives a row exactly its zero-start result."""
    B = len(C)
    p = X.shape[1]
    beta = np.zeros((B, p)) if beta0 is None else np.tile(beta0, (B, 1))
    ok = np.ones(B, dtype=bool)
    active = np.ones(B, dtype=bool)
    info = np.zeros((B, p, p))
    for _ in range(50):
        act = np.flatnonzero(active)
        if not act.size:
            break
        c = C[act]
        prob = _expit(_rowwise(beta[act], X.T))
        score = _rowwise(c * (y - prob), X)
        conv = np.max(np.abs(score), axis=1) < 1e-8
        w = np.maximum(prob * (1.0 - prob), 1e-12)
        info[act] = _weighted_gram(X, c * w)
        active[act[conv]] = False
        still = act[~conv]
        if not still.size:
            continue
        step, _ = _each(np.linalg.solve, info[still], score[~conv][..., None])
        beta[still] += step[..., 0]
        bad = ~np.all(np.isfinite(beta[still]), axis=1)
        bad |= np.linalg.norm(beta[still], axis=1) > SEPARATION_NORM
        ok[still[bad]] = False
        active[still[bad]] = False
    ok &= ~active  # replicates still active never converged
    cov = np.full((B, p, p), np.nan)
    good = np.flatnonzero(ok)
    if good.size:
        cov[good], ok[good] = _each(np.linalg.inv, info[good])
    rerun = np.flatnonzero(~ok)
    if beta0 is not None and rerun.size:
        beta[rerun], cov[rerun], ok[rerun] = _irls_refit(X, y, C[rerun])
    return beta, cov, ok


def _refit(family, X, y, C, beta0=None):
    """Count-weighted refits of ``family``: (beta, cov, ok, sigma2), where
    sigma2 is None for the binomial family. ``beta0`` is the binomial
    family's starting point (see _irls_refit); least squares needs none."""
    if family == "gaussian":
        return _ols_refit(X, y, C)
    return (*_irls_refit(X, y, C, beta0), None)


_FAMILY_ALIASES = {
    "gaussian": "gaussian",
    "linear": "gaussian",
    "binomial": "binomial",
    "logistic": "binomial",
}


def _canon_family(family: str) -> str:
    if family not in _FAMILY_ALIASES:
        raise ValueError(f"unknown family {family!r}")
    return _FAMILY_ALIASES[family]


def _resample_counts(rng, count, n):
    """Multinomial(n, 1/n) resampling counts of the next ``count`` replicates
    drawn from the generator ``rng``, shape (count, n).

    Each replicate takes the next n uniforms u of ``rng`` in turn and draws
    the rows ``floor(n * u)``, so drawing a round in pieces gives the same
    counts as drawing it at once.
    """
    rows = (n * rng.random((count, n))).astype(np.intp)
    rows += np.arange(count)[:, None] * n  # one bincount for all replicates
    return np.bincount(rows.ravel(), minlength=rows.size).reshape(-1, n).astype(float)


def _bootstrap_max_stats(X, y, family, stat_design, center, n_boot, seed, beta0=None):
    """Per-replicate max standardized deviations for the resampling bootstrap.

    ``stat_design``: design matrix mapping coefficients to the statistic grid
    (identity for coefficient bands). ``center``: the original-fit statistic
    on that grid. ``beta0``: the original fit's coefficients, where every
    binomial replicate's IRLS starts; a replicate that fails from there is
    rerun from beta = 0 before it counts as failed (see _irls_refit). Failed
    refits are redrawn in the next round, from the round's own stream
    ``substream(seed, attempt)``, capped at 10 * n_boot attempts in total.
    """
    n = X.shape[0]
    chunk = max(1, _CHUNK_BYTES // (8 * max(n, stat_design.shape[0], X.shape[1] ** 2)))
    r_max = np.full(n_boot, np.nan)
    pending = np.arange(n_boot)
    attempt = 0
    total_attempts = 0
    while pending.size:
        total_attempts += pending.size
        if total_attempts > 10 * n_boot:
            raise RuntimeError(
                "bootstrap exceeded the retry budget (10 * n_boot failed refits)"
            )
        rng = substream(seed, attempt)
        failed = []
        for start in range(0, pending.size, chunk):
            part = pending[start:start + chunk]
            C = _resample_counts(rng, part.size, n)
            stats, ok = _replicate_max_stats(X, y, family, C, stat_design, center, beta0)
            r_max[part[ok]] = stats[ok]
            failed.append(part[~ok])
        pending = np.concatenate(failed)
        attempt += 1
    return r_max


def _replicate_max_stats(X, y, family, C, stat_design, center, beta0=None):
    """Refit on the count weights C, from ``beta0`` (see _refit), and
    studentize each replicate's deviation from ``center`` by its own SE.
    Returns (max stats, ok)."""
    beta, cov, ok, _ = _refit(family, X, y, C, beta0)
    stat = _rowwise(beta, stat_design.T)
    # var[b, g] = sum_jk D[g, j] cov[b, j, k] D[g, k], as one product with
    # the row-wise outer products of D
    g, p = stat_design.shape
    DD = (stat_design[:, :, None] * stat_design[:, None, :]).reshape(g, p * p)
    var = _rowwise(cov.reshape(-1, p * p), DD.T)
    se = np.sqrt(np.maximum(var, 0.0))
    stats, degenerate = _studentized_max(stat - center[None, :], se)
    # a degenerate replicate is redrawn
    ok &= ~degenerate & np.all(np.isfinite(se), axis=1)
    return stats, ok


def scb_mean_bootstrap(
    table: Table,
    spec: ModelSpec,
    grid: Table,
    family: str = "gaussian",
    n_boot: int = 1000,
    alpha: float = 0.05,
    grid_boot: Table | None = None,
    seed: int = 0,
) -> SCBand:
    """Simultaneous band for the mean outcome over a test grid.

    Resamples rows with replacement, refits, and records the grid maximum of
    |prediction_b - prediction| / se_b; the band is the original prediction
    plus/minus the (1 - alpha)-quantile of those maxima times the original
    SE. The max statistic is evaluated on ``grid_boot`` when given, else on
    ``grid``. Binomial bands are built on the linear-predictor scale and
    returned on the probability scale.
    """
    family = _canon_family(family)
    _check_alpha(alpha)
    if grid.n_rows == 0:
        raise ValueError("grid must be nonempty")
    if grid_boot is not None and grid_boot.n_rows == 0:
        raise ValueError("grid_boot must be nonempty")
    if n_boot < _MIN_N_BOOT:
        raise ValueError(f"n_boot must be at least {_MIN_N_BOOT}, got {n_boot}")
    fit, X, y = _fit(table, spec, family)
    eta, se = predict_mean(fit, grid)
    G_boot = _design(fit.spec.terms, grid_boot if grid_boot is not None else grid, "grid")
    center = G_boot @ fit.beta
    r_max = _bootstrap_max_stats(X, y, family, G_boot, center, n_boot, seed, fit.beta)
    a = empirical_quantile(r_max, 1.0 - alpha)
    if se.max(initial=0.0) <= 1e-10 * max(1.0, float(np.abs(eta).max(initial=0.0))):
        warnings.warn("degenerate band: zero sampling variance on the grid")
    # a strictly increasing first grid column doubles as the plot axis
    axis = grid.column(grid.names[0])
    if not np.all(np.diff(axis) > 0):
        axis = np.arange(grid.n_rows, dtype=float)
    domain = Domain.grid1d(axis)
    if family == "binomial":
        return assemble_band(_expit(eta), se, a, 1.0, alpha, domain, link="logit")
    return assemble_band(eta, se, a, 1.0, alpha, domain)


def scb_coef_bootstrap(
    table: Table,
    spec: ModelSpec,
    family: str = "gaussian",
    n_boot: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
) -> SCBand:
    """Simultaneous intervals for all fitted coefficients (discrete domain).

    Same algorithm as the mean band with the coefficient vector as the
    statistic and each replicate's coefficient SEs as the studentizer.
    Binomial coefficients stay on the log-odds scale.
    """
    family = _canon_family(family)
    _check_alpha(alpha)
    if n_boot < _MIN_N_BOOT:
        raise ValueError(f"n_boot must be at least {_MIN_N_BOOT}, got {n_boot}")
    fit, X, y = _fit(table, spec, family)
    p = len(fit.beta)
    se = np.sqrt(np.maximum(np.diag(fit.cov_beta), 0.0))
    r_max = _bootstrap_max_stats(X, y, family, np.eye(p), fit.beta, n_boot, seed, fit.beta)
    a = empirical_quantile(r_max, 1.0 - alpha)
    domain = Domain.discrete(fit.term_names)
    return assemble_band(fit.beta, se, a, 1.0, alpha, domain)
