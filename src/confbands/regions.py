"""Invert a simultaneous confidence band into inner/outer confidence regions
for threshold excursion sets.

All comparisons are non-strict, matching the closed sets [c, inf) and
(-inf, c]; a cell where a band surface equals the threshold exactly belongs
to both a set and its closed complement. Masked cells are False in every
region field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Domain, SCBand, _json_bools, _json_field, _json_floats, _json_loads, emit_json

__all__ = [
    "ThresholdSpec",
    "RegionSet",
    "ContainmentSummary",
    "invert_upper",
    "invert_lower",
    "invert_interval",
    "invert_two_sided",
    "invert_levels",
    "check_containment",
    "true_region",
    "regions_to_json",
    "regions_from_json",
]

_SET_TYPES = ("upper", "lower", "two_sided", "interval")


@dataclass(frozen=True)
class ThresholdSpec:
    """Threshold list for one inversion: plain levels, or (low, up) pairs
    for interval sets. Level order is preserved; no de-duplication."""

    set_type: str
    levels: tuple

    def __post_init__(self):
        if self.set_type not in _SET_TYPES:
            raise ValueError(f"unknown set_type {self.set_type!r}")
        if len(self.levels) == 0:
            raise ValueError("levels must be nonempty")
        norm = []
        for lv in self.levels:
            if self.set_type == "interval":
                a, b = lv
                a, b = float(a), float(b)
                if not (np.isfinite(a) and np.isfinite(b)):
                    raise ValueError("interval endpoints must be finite")
                if a > b:
                    raise ValueError("empty interval")
                norm.append((a, b))
            else:
                c = float(lv)
                if not np.isfinite(c):
                    raise ValueError("levels must be finite")
                norm.append(c)
        object.__setattr__(self, "levels", tuple(norm))


@dataclass(frozen=True)
class RegionSet:
    """Inner/outer confidence regions and the point-estimate region for one
    threshold. inner <= estimate <= outer pointwise whenever the band is
    valid."""

    set_type: str
    level: object
    inner: np.ndarray
    outer: np.ndarray
    estimate: np.ndarray


@dataclass(frozen=True)
class ContainmentSummary:
    contain_individual: tuple[bool, ...]

    @property
    def contain_all(self) -> bool:
        return all(self.contain_individual)


def _masked(domain: Domain, *fields):
    m = domain.mask_array()
    return tuple(np.where(m, f, False) for f in fields)


def _bounds(set_type: str, level):
    """The closed interval [a, b] that a set type targets at ``level``."""
    if set_type == "upper":
        return level, np.inf
    if set_type == "lower":
        return -np.inf, level
    return level


def _invert(band: SCBand, set_type: str, level) -> RegionSet:
    # inner: the band interval lies inside [a, b]; outer: it meets [a, b]
    a, b = _bounds(set_type, level)
    inner, outer, est = _masked(
        band.domain,
        (band.scb_low >= a) & (band.scb_up <= b),
        (band.scb_up >= a) & (band.scb_low <= b),
        (band.eta_hat >= a) & (band.eta_hat <= b),
    )
    return RegionSet(set_type, level, inner, outer, est)


def _threshold(c) -> float:
    c = float(c)
    if not np.isfinite(c):
        raise ValueError("threshold must be finite")
    return c


def invert_upper(band: SCBand, c: float) -> RegionSet:
    """Regions for the upper excursion set {s: eta(s) >= c}.

    inner = {scb_low >= c}, outer = {scb_up >= c}, estimate = {eta_hat >= c}.
    """
    return _invert(band, "upper", _threshold(c))


def invert_lower(band: SCBand, c: float) -> RegionSet:
    """Regions for the lower excursion set {s: eta(s) <= c}.

    inner = {scb_up <= c}, outer = {scb_low <= c}, estimate = {eta_hat <= c}.
    """
    return _invert(band, "lower", _threshold(c))


def invert_interval(band: SCBand, a: float, b: float) -> RegionSet:
    """Regions for the interval set {s: a <= eta(s) <= b}.

    inner = {scb_low >= a} & {scb_up <= b};
    outer = {scb_up >= a} & {scb_low <= b}.
    """
    a, b = _threshold(a), _threshold(b)
    if a > b:
        raise ValueError("empty interval")
    return _invert(band, "interval", (a, b))


def invert_two_sided(band: SCBand, c: float) -> tuple[RegionSet, RegionSet]:
    """Upper and lower excursion regions at the same threshold, packaged
    together (outer sets of both directions)."""
    return invert_upper(band, c), invert_lower(band, c)


def invert_levels(band: SCBand, spec: ThresholdSpec) -> list[RegionSet]:
    """Apply the inversion named by ``spec`` to every level, in input order.

    ``two_sided`` emits the upper and lower RegionSet per level, interleaved.
    """
    types = ("upper", "lower") if spec.set_type == "two_sided" else (spec.set_type,)
    return [_invert(band, set_type, lv) for lv in spec.levels for set_type in types]


def true_region(true_mean: np.ndarray, region: RegionSet, domain: Domain) -> np.ndarray:
    """Membership of the true mean in the set that ``region`` targets."""
    t = np.asarray(true_mean, dtype=float)
    if t.shape != domain.shape:
        raise ValueError(f"true_mean shape {t.shape} does not match domain {domain.shape}")
    a, b = _bounds(region.set_type, region.level)
    (member,) = _masked(domain, (t >= a) & (t <= b))
    return member


def check_containment(
    regions: list[RegionSet], true_mean, domain: Domain
) -> ContainmentSummary:
    """Per-level sandwich check inner <= true set <= outer against a known
    true mean; contain_all is the conjunction."""
    flags = []
    for region in regions:
        member = true_region(true_mean, region, domain)
        ok = bool(np.all(member[region.inner]) and np.all(region.outer[member]))
        flags.append(ok)
    return ContainmentSummary(tuple(flags))


# ---------------------------------------------------------------------------
# Region file format
# ---------------------------------------------------------------------------


def regions_to_json(regions: list[RegionSet], domain: Domain) -> str:
    """Serialize RegionSets (one entry per set; a two-sided inversion yields
    interleaved upper/lower entries with repeated levels)."""
    if not regions:
        raise ValueError("no regions to serialize")
    types = {r.set_type for r in regions}
    set_type = regions[0].set_type if len(types) == 1 else "two_sided"
    doc = {
        "set_type": set_type,
        "set_types": [r.set_type for r in regions],
        "levels": [r.level for r in regions],
        "inner": [r.inner.ravel() for r in regions],
        "outer": [r.outer.ravel() for r in regions],
        "estimate": [r.estimate.ravel() for r in regions],
        "shape": list(domain.shape),
    }
    return emit_json(doc)


def regions_from_json(text: str) -> list[RegionSet]:
    """Parse a region file. A missing or malformed field, a per-level field
    whose length differs from ``levels``, or an unknown ``set_types`` value
    raises a ValueError naming the field."""
    doc = _json_loads(text)
    where = "region file"
    shape = tuple(_json_field(doc, "shape", "array", where))
    if not shape or not all(type(v) is int and v > 0 for v in shape):
        raise ValueError(f"{where} field 'shape' must be a nonempty array of positive integers")
    levels = _json_field(doc, "levels", "array", where)
    per_level = {"set_types": doc.get("set_types")
                 or [_json_field(doc, "set_type", "string", where)] * len(levels)}
    per_level.update({name: _json_field(doc, name, "array", where)
                      for name in ("inner", "outer", "estimate")})
    for name, value in per_level.items():
        if not isinstance(value, list) or len(value) != len(levels):
            raise ValueError(f"{where} field {name!r} must hold one entry per level "
                             f"({len(levels)})")
    out = []
    for i, (set_type, lv) in enumerate(zip(per_level["set_types"], levels)):
        if set_type not in ("upper", "lower", "interval"):
            raise ValueError(f"{where} field 'set_types' entry {i} must be 'upper', "
                             f"'lower' or 'interval', got {set_type!r}")
        what = f"{where} field 'levels' entry {i}"
        if set_type == "interval":
            level = tuple(_json_floats(lv, what, 2).tolist())
        elif type(lv) in (int, float):
            level = float(lv)
        else:
            raise ValueError(f"{what} must be a JSON number")
        if not np.all(np.isfinite(level)):
            raise ValueError(f"{what} must be finite")
        sets = [_json_bools(per_level[name][i], f"{where} field {name!r} entry {i}", shape)
                for name in ("inner", "outer", "estimate")]
        out.append(RegionSet(set_type, level, *sets))
    return out
