"""Shared primitives: evaluation domains, band assembly, max-statistic quantiles,
and seeded RNG substreams.

Every band produced by this package is an :class:`SCBand` over a :class:`Domain`.
Bands and domains are immutable and checked once, when built: each keeps
read-only copies of its arrays, so an object that exists has passed its
checks, and ``SCBand.validate`` re-runs the same checks. A band is
reconstructible bit-for-bit from ``(eta_hat, se, q_alpha, tau, link)``;
:func:`assemble_band` is the only constructor other code should use.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "SCBand",
    "substream",
    "empirical_quantile",
    "assemble_band",
    "band_to_json",
    "band_from_json",
]

_KINDS = ("grid1d", "grid2d", "discrete")
_LINKS = ("identity", "logit")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible generator for one unit of work.

    Streams are keyed, not sequential: ``substream(seed, b)`` for replicate
    ``b`` yields the same draws no matter how replicates are scheduled, so
    serial and parallel execution agree.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def _axis(name: str, values) -> np.ndarray:
    """``values`` as a float array, refused unless nonempty, 1-D and strictly
    increasing; the message names the axis ``name``."""
    c = np.asarray(values, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.all(np.diff(c) > 0):
        raise ValueError(f"{name} must be strictly increasing")
    return c


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``, so the caller's array stays writeable."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Domain:
    """Evaluation domain: a 1D grid, a 2D grid with optional mask, or labels.

    2D fields over the domain are arrays of shape
    ``(len(coords1), len(coords2))`` (coords1-major). ``mask`` marks included
    cells (True = included); masked cells carry NaN in band fields. The
    coordinates and the mask are kept as read-only copies.
    """

    kind: str
    coords1: np.ndarray | None = None
    coords2: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "discrete":
            if self.labels is None or len(self.labels) == 0:
                raise ValueError("discrete domain requires labels")
            object.__setattr__(self, "labels", tuple(str(v) for v in self.labels))
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be unique")
        else:
            for name in ("coords1", "coords2") if self.kind == "grid2d" else ("coords1",):
                object.__setattr__(self, name, _frozen(_axis(name, getattr(self, name))))
            if self.kind == "grid1d" and self.coords2 is not None:
                raise ValueError("coords2 only valid for grid2d domains")
        if self.mask is not None:
            m = _frozen(self.mask, bool)
            if m.shape != self.shape:
                raise ValueError(
                    f"mask shape {m.shape} does not match domain shape {self.shape}"
                )
            if not m.any():
                raise ValueError("mask excludes every cell")
            object.__setattr__(self, "mask", m)

    @property
    def shape(self) -> tuple[int, ...]:
        if self.kind == "grid2d":
            return (self.coords1.size, self.coords2.size)
        if self.kind == "grid1d":
            return (self.coords1.size,)
        return (len(self.labels),)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def mask_array(self) -> np.ndarray:
        """Inclusion mask, all-True when no mask was given."""
        if self.mask is None:
            return np.ones(self.shape, dtype=bool)
        return self.mask

    @classmethod
    def grid1d(cls, coords) -> "Domain":
        return cls("grid1d", coords1=coords)

    @classmethod
    def grid2d(cls, coords1, coords2, mask=None) -> "Domain":
        return cls("grid2d", coords1=coords1, coords2=coords2, mask=mask)

    @classmethod
    def discrete(cls, labels) -> "Domain":
        return cls("discrete", labels=tuple(labels))


def _check_field(name: str, values, shape) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


_BAND_FIELDS = ("eta_hat", "se", "scb_low", "scb_up")


@dataclass(frozen=True)
class SCBand:
    """A simultaneous confidence band over a :class:`Domain`.

    ``scb_low``/``scb_up`` are derived fields: for the identity link they
    equal ``eta_hat -/+ q_alpha * se / tau``; for the logit link the same
    arithmetic is applied on the log-odds scale and mapped back, so the band
    brackets a probability. Construction keeps read-only copies of the four
    fields and runs ``validate``, which recomputes the limits and demands
    bit-for-bit agreement.
    """

    domain: Domain
    eta_hat: np.ndarray
    se: np.ndarray
    q_alpha: float
    alpha: float
    scb_low: np.ndarray
    scb_up: np.ndarray
    tau: float = 1.0
    link: str = "identity"

    def __post_init__(self):
        for name in _BAND_FIELDS:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        self.validate()

    def validate(self) -> None:
        """The band rules; construction runs them, so a built band passes."""
        shape = self.domain.shape
        for name in _BAND_FIELDS:
            _check_field(name, getattr(self, name), shape)
        _check_alpha(self.alpha)
        if self.q_alpha < 0:
            raise ValueError("q_alpha must be nonnegative")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.link not in _LINKS:
            raise ValueError(f"unknown link {self.link!r}")
        m = self.domain.mask_array()
        if np.any(self.se[m] < 0):
            raise ValueError("se must be nonnegative")
        if not (np.all(np.isfinite(self.eta_hat[m])) and np.all(np.isfinite(self.se[m]))):
            raise ValueError("band fields must be finite at unmasked cells")
        for name in ("scb_low", "scb_up"):
            if not np.all(np.isfinite(getattr(self, name)[m])):
                raise ValueError(f"{name} must be finite at unmasked cells")
        low, up = _band_limits(self.eta_hat, self.se, self.q_alpha, self.tau, self.link)
        if not (
            np.array_equal(low[m], self.scb_low[m])
            and np.array_equal(up[m], self.scb_up[m])
        ):
            raise ValueError("band reconstruction failed: scb_low/scb_up are not "
                             "derived from (eta_hat, se, q_alpha, tau)")
        if np.any(self.scb_low[m] > self.eta_hat[m]) or np.any(self.eta_hat[m] > self.scb_up[m]):
            raise ValueError("band does not bracket eta_hat")


def _logit(p):
    return np.log(p) - np.log1p(-p)


def _expit(x):
    # exp of a nonpositive argument only, so neither branch overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _band_limits(eta_hat, se, q, tau, link):
    # a limit that overflows is refused by validate, so it need not warn
    with np.errstate(over="ignore"):
        half = (q / tau) * se
        if link == "identity":
            return eta_hat - half, eta_hat + half
    # expit(logit(p)) can miss p by one ulp, so a narrow logit band is
    # clamped to bracket p
    lin = _logit(eta_hat)
    return np.minimum(_expit(lin - half), eta_hat), np.maximum(_expit(lin + half), eta_hat)


def _check_alpha(alpha: float) -> None:
    """Refuse an ``alpha`` outside (0, 1), NaN included; band constructors
    call this before any fit or draw."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def empirical_quantile(samples, level: float) -> float:
    """Conservative empirical quantile: the ceil(level*B)-th order statistic.

    Deterministic ceil-rank rule (no interpolation), so results reproduce
    across platforms.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("no bootstrap samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite statistic")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    rank = int(np.ceil(level * arr.size))
    rank = min(max(rank, 1), arr.size)
    return float(np.partition(arr, rank - 1)[rank - 1])


def assemble_band(
    eta_hat,
    se,
    q: float,
    tau: float,
    alpha: float,
    domain: Domain,
    link: str = "identity",
) -> SCBand:
    """Build an SCBand from an estimate, its pointwise SE, and a critical value.

    Masked cells are set to NaN in every field. For ``link="logit"`` the
    inputs are on the probability scale with ``se`` on the log-odds scale,
    and the band is the inverse-logit image of the log-odds band.
    """
    m = domain.mask_array()
    eta_hat = np.where(m, _check_field("eta_hat", eta_hat, domain.shape), np.nan)
    se = np.where(m, _check_field("se", se, domain.shape), np.nan)
    # q / tau would raise ZeroDivisionError before the band could refuse it
    if tau <= 0:
        raise ValueError("tau must be positive")
    low, up = _band_limits(eta_hat, se, float(q), float(tau), link)
    return SCBand(
        domain=domain,
        eta_hat=eta_hat,
        se=se,
        q_alpha=float(q),
        alpha=float(alpha),
        scb_low=low,
        scb_up=up,
        tau=float(tau),
        link=link,
    )


def _studentized_max(dev, se):
    """The studentized max rule shared by every band: maxima of |dev| / se
    over the last axis of the rows of ``dev``, and a per-row flag set where
    a cell has se == 0 against a nonzero dev. A cell with se == 0 and
    dev == 0 contributes 0. ``se`` broadcasts against ``dev``; an empty
    last axis gives 0.

    Every row is first divided without a mask. A row whose maximum is
    finite and whose se carries no sign bit has no se == 0 cell, so its
    maximum is already the rule's. Only the other rows (an se == 0 cell, a
    NaN, an overflow, or a negative se, since |dev| / -0.0 = -inf hides
    under the maximum) go through ``_zero_se_rule``, so no result differs
    from applying that rule to every row."""
    shape = np.broadcast_shapes(np.shape(dev), np.shape(se))
    ratio = np.abs(np.broadcast_to(dev, shape), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(ratio, se, out=ratio)
    stats = ratio.max(axis=-1, initial=0.0)
    degenerate = np.zeros(stats.shape, dtype=bool)
    redo = ~np.isfinite(stats) | np.signbit(np.atleast_1d(se)).any(axis=-1)
    if redo.any():
        stats[redo], degenerate[redo] = _zero_se_rule(
            np.broadcast_to(dev, shape)[redo], np.broadcast_to(se, shape)[redo]
        )
    return stats, degenerate


def _zero_se_rule(dev, se):
    """The masked rule of ``_studentized_max``, its only caller, on (rows,
    cells) arrays: a cell with se == 0 contributes 0, and flags its row
    unless its dev is 0."""
    dev = np.abs(dev)
    zero = se == 0
    ratio = np.zeros(dev.shape)
    np.divide(dev, se, out=ratio, where=~zero)
    return ratio.max(axis=-1, initial=0.0), np.any(zero & (dev != 0), axis=-1)


# ---------------------------------------------------------------------------
# Band file format
# ---------------------------------------------------------------------------
#
# Canonical JSON: fixed key order, ", " and ": " separators, floats at 17
# significant digits, NaN (masked cells) as null; +-inf is refused.
# load -> save round-trips byte-identically.


def _emit(obj) -> str:
    """Canonical JSON text of ``obj``. Only dicts and lists/tuples recurse;
    each numpy leaf is formatted in one pass over its values."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)) or np.ndim(obj) > 1:
        return "[" + ", ".join(map(_emit, obj)) + "]"
    if isinstance(obj, (np.ndarray, np.generic)) and obj.dtype.kind != "f":
        return json.dumps(obj.tolist())
    if not isinstance(obj, (float, np.floating, np.ndarray)):
        return json.dumps(obj)
    if np.isinf(obj).any():
        raise ValueError("non-finite value in JSON output")
    text = ", ".join(map("%.17g".__mod__, np.ravel(obj).tolist())).replace("nan", "null")
    return text if np.ndim(obj) == 0 else "[" + text + "]"


def emit_json(obj: dict) -> str:
    """Serialize a dict built from numbers/strings/lists/arrays to canonical JSON."""
    return _emit(obj) + "\n"


def _domain_to_dict(d: Domain) -> dict:
    mask = None if d.mask is None else d.mask.ravel()
    return {"kind": d.kind, "coords1": d.coords1, "coords2": d.coords2, "labels": d.labels,
            "mask": mask}


def _json_loads(text: str):
    """json.loads, except that "-0" reads as the float -0.0 that wrote it."""
    return json.loads(text, parse_int=lambda s: -0.0 if s == "-0" else int(s))


def _json_field(doc, name: str, kind: str, where: str, default=None):
    """Field ``name`` of a parsed JSON object, checked to be a JSON ``kind``.

    An absent or null field gives ``default`` when one is given. Anything
    else that does not fit raises a ValueError naming the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    value = doc.get(name)
    if value is None and default is not None:
        return default
    types = {"number": (int, float), "string": str, "array": list, "object": dict}[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValueError(f"{where} field {name!r} is missing or not a JSON {kind}")
    return value


def _json_floats(value, what: str, size: int | None = None) -> np.ndarray:
    """A JSON array of numbers (null read as NaN) as a 1-D float array of
    ``size`` values when ``size`` is given; a ValueError naming ``what``
    otherwise."""
    try:
        out = np.array(value, dtype=float) if isinstance(value, list) else None
    except (TypeError, ValueError):
        out = None
    if out is None or out.ndim != 1 or (size is not None and out.size != size):
        count = "" if size is None else f"{size} "
        raise ValueError(f"{what} must be a JSON array of {count}numbers")
    return out


def _json_bools(value, what: str, shape) -> np.ndarray:
    """A flat JSON array of true/false as a bool array of ``shape``; a
    ValueError naming ``what`` otherwise."""
    out = _json_floats(value, what, int(np.prod(shape)))
    if not np.all((out == 0) | (out == 1)):
        raise ValueError(f"{what} must hold only true/false")
    return out.astype(bool).reshape(shape)


def _read_csv(path, parse=lambda name, cell: float(cell), required=()):
    """(header, {column name: [parse(name, cell), ...]}) of a CSV file with
    one header row; blank lines are skipped. An empty file, a repeated or
    missing ``required`` column name, a row of the wrong length or a cell
    that ``parse`` rejects raises a ValueError naming the file, and the line
    and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if not header:
                raise ValueError(f"{path}: empty CSV")
            if len(set(header)) != len(header):
                raise ValueError(f"{path}: column names must be unique")
            for name in required:
                if name not in header:
                    raise ValueError(f"{path}: missing required column {name!r}")
            columns = {name: [] for name in header}
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValueError(f"{path} line {reader.line_num}: {len(row)} cells, "
                                     f"expected {len(header)}")
                for name, cell in zip(header, row):
                    try:
                        columns[name].append(parse(name, cell))
                    except ValueError:
                        raise ValueError(f"{path} line {reader.line_num}, column {name!r}: "
                                         f"{cell!r} is not a number") from None
        except csv.Error as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return header, columns


def _domain_from_dict(d) -> Domain:
    where = "band domain"
    kind = _json_field(d, "kind", "string", where)
    if kind == "discrete":
        return Domain.discrete(_json_field(d, "labels", "array", where))
    if kind not in _KINDS:
        raise ValueError(f"{where} field 'kind' must be one of {_KINDS}, got {kind!r}")
    names = ("coords1",) if kind == "grid1d" else ("coords1", "coords2")
    coords = [_json_floats(d.get(name), f"{where} field {name!r}") for name in names]
    mask = d.get("mask")
    if mask is not None:
        mask = _json_bools(mask, f"{where} field 'mask'", tuple(c.size for c in coords))
    return Domain(kind, *coords, mask=mask)


def band_to_json(band: SCBand) -> str:
    """Serialize a band to its canonical JSON string (2D fields row-major)."""
    doc = {
        "domain": _domain_to_dict(band.domain),
        "shape": list(band.domain.shape),
        "link": band.link,
        "eta_hat": band.eta_hat.ravel(),
        "se": band.se.ravel(),
        "q_alpha": band.q_alpha,
        "tau": band.tau,
        "alpha": band.alpha,
        "scb_low": band.scb_low.ravel(),
        "scb_up": band.scb_up.ravel(),
    }
    return emit_json(doc)


def band_from_json(text: str) -> SCBand:
    """Parse a band file; building the band checks its invariants."""
    doc = _json_loads(text)
    domain = _domain_from_dict(_json_field(doc, "domain", "object", "band"))
    shape = tuple(_json_field(doc, "shape", "array", "band"))
    if shape != domain.shape:
        raise ValueError(f"shape entry {shape} does not match domain {domain.shape}")

    def load_field(name):
        values = _json_floats(doc.get(name), f"band field {name!r}", domain.size)
        return values.reshape(domain.shape)

    return SCBand(
        domain=domain,
        eta_hat=load_field("eta_hat"),
        se=load_field("se"),
        q_alpha=float(_json_field(doc, "q_alpha", "number", "band")),
        alpha=float(_json_field(doc, "alpha", "number", "band")),
        scb_low=load_field("scb_low"),
        scb_up=load_field("scb_up"),
        tau=float(_json_field(doc, "tau", "number", "band", default=1.0)),
        link=_json_field(doc, "link", "string", "band", default="identity"),
    )
