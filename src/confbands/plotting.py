"""Band and contour plots as deterministic SVG.

1D bands render as a gray polygon with the estimate curve in black and, per
threshold, horizontal segments at the threshold height: blue where only the
outer region holds, yellow where the point estimate holds, red where the
inner region holds. 2D bands render as a heat field of the estimate with
per-level contour lines: blue = outer boundary, green = estimate boundary,
red = inner boundary. SVGs are byte-reproducible: no library backends, fixed
float formatting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import regions
from .core import SCBand

__all__ = ["PlotSpec", "marching_squares", "render_band_svg", "render_band_files"]

PALETTES = {
    # ColorBrewer 11-class Spectral ramp
    "Spectral": [
        "#9e0142", "#d53e4f", "#f46d43", "#fdae61", "#fee08b", "#ffffbf",
        "#e6f598", "#abdda4", "#66c2a5", "#3288bd", "#5e4fa2",
    ],
    "viridis": [
        "#440154", "#482878", "#3e4989", "#31688e", "#26828e", "#1f9e89",
        "#35b779", "#6ece58", "#b5de2b", "#fde725",
    ],
    "gray": ["#f7f7f7", "#252525"],
}

INNER_COLOR = "#d62728"  # red
ESTIMATE_1D_COLOR = "#e6c800"  # yellow
OUTER_COLOR = "#1f77b4"  # blue
ESTIMATE_2D_COLOR = "#2ca02c"  # green


@dataclass(frozen=True)
class PlotSpec:
    """Rendering options for band/contour plots. ``levels`` are checked by,
    and kept as, a :class:`regions.ThresholdSpec`'s."""

    levels: tuple
    set_type: str = "upper"
    together: bool = True
    xlab: str = ""
    ylab: str = ""
    palette: str = "Spectral"
    level_label: bool = True
    min_size: int = 0
    label_color: str = "black"

    def __post_init__(self):
        if self.min_size < 0:
            raise ValueError("min_size must be nonnegative")
        if self.set_type not in ("upper", "lower"):
            raise ValueError(f"set_type must be 'upper' or 'lower', not {self.set_type!r}")
        if self.palette not in PALETTES:
            raise ValueError(f"unknown palette {self.palette!r}; "
                             f"choose one of {sorted(PALETTES)}")
        object.__setattr__(self, "levels", regions.ThresholdSpec(self.set_type, self.levels).levels)


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

# Cell corners 0-3 are the nodes (i, j), (i+1, j), (i+1, j+1), (i, j+1), with
# i along axis 0 and j along axis 1; corner k at or above the level sets bit k
# of the cell's case. Cell edges 0-3 are bottom (corners 0-1), right (1-2), top
# (2-3) and left (3-0). For each case, the pairs of edges the level set
# crosses. The saddles 5 and 10 list the pairing that cuts the inside corners
# apart; a saddle whose cell average is inside takes the other saddle's pairing.
_CASE_EDGES = (
    [], [(3, 0)], [(0, 1)], [(3, 1)], [(1, 2)], [(3, 0), (1, 2)], [(0, 2)], [(2, 3)],
    [(2, 3)], [(0, 2)], [(0, 1), (2, 3)], [(1, 2)], [(3, 1)], [(0, 1)], [(3, 0)], [],
)
# canonical (node offset, axis) key of each cell edge, so that the two cells
# sharing an edge name it alike
_EDGE_KEYS = ((0, 0, 0), (1, 0, 1), (0, 1, 0), (0, 0, 1))


def marching_squares(fieldvals, level: float, mask=None):
    """Extract level-set polylines from a 2D field by marching squares.

    Linear interpolation along cell edges; the two ambiguous (saddle) cases
    are resolved by comparing the cell average to the level. Cells touching a
    masked or non-finite node emit nothing. Segments are joined into maximal
    chains; output points are (axis0, axis1) index coordinates.
    """
    F = np.asarray(fieldvals, dtype=float)
    if F.ndim != 2:
        raise ValueError("field must be 2-D")
    ok = np.isfinite(F)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != F.shape:
            raise ValueError("mask shape mismatch")
        ok &= mask
    level = float(level)

    def corners(a):
        return np.stack([a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]])

    bits = corners(F >= level).astype(int)
    case = bits[0] | bits[1] << 1 | bits[2] << 2 | bits[3] << 3
    values = corners(F)
    # this runs on every cell and edge, also on unread ones with equal or
    # non-finite ends, so it warns on none; a crossed edge has one end on each
    # side of the level, so its denominator is nonzero
    with np.errstate(all="ignore"):
        center_in = (values[0] + values[1] + values[2] + values[3]) / 4.0 >= level
        # index coordinate of the level crossing on every axis-0 edge
        # (i, j)-(i+1, j) and every axis-1 edge (i, j)-(i, j+1)
        along = (np.arange(F.shape[0] - 1)[:, None] + (level - F[:-1]) / (F[1:] - F[:-1]),
                 np.arange(F.shape[1] - 1) + (level - F[:, :-1]) / (F[:, 1:] - F[:, :-1]))
    case = np.where(((case == 5) | (case == 10)) & center_in, 15 - case, case)
    crossed = corners(ok).all(axis=0) & (case % 15 != 0)
    ii, jj = np.nonzero(crossed)
    segments = []  # pairs of edge keys, cells in row-major order
    for i, j, c in zip(ii.tolist(), jj.tolist(), case[crossed].tolist()):
        for e0, e1 in _CASE_EDGES[c]:
            (a0, b0, axis0), (a1, b1, axis1) = _EDGE_KEYS[e0], _EDGE_KEYS[e1]
            segments.append(((i + a0, j + b0, axis0), (i + a1, j + b1, axis1)))
    points = {(i, j, axis): (along[0][i, j], float(j)) if axis == 0
              else (float(i), along[1][i, j]) for seg in segments for i, j, axis in seg}
    return _join_chains(segments, points)


def _join_chains(segments, points):
    """Join segments sharing edge keys into maximal polylines."""
    if not segments:
        return []
    unused = {seg: True for seg in segments}
    seg_at = {}
    for seg in segments:
        a, b = seg
        seg_at.setdefault(a, []).append(seg)
        seg_at.setdefault(b, []).append(seg)

    def take_from(key):
        for seg in seg_at.get(key, []):
            if unused.get(seg):
                unused[seg] = False
                return seg[1] if seg[0] == key else seg[0]
        return None

    chains = []
    for seg in segments:
        if not unused.get(seg):
            continue
        unused[seg] = False
        chain = [seg[0], seg[1]]
        # extend forward
        while True:
            nxt = take_from(chain[-1])
            if nxt is None:
                break
            chain.append(nxt)
        # extend backward
        while True:
            prv = take_from(chain[0])
            if prv is None:
                break
            chain.insert(0, prv)
        chains.append([points[k] for k in chain])
    return chains


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


_WIDTH, _HEIGHT = 640, 480
_MARGIN = 46.0


class _Svg:
    """An SVG document of the fixed plot size on a white background."""

    def __init__(self):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
        ]
        self.rect(0, 0, _WIDTH, _HEIGHT, "#ffffff")

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}"/>'
        )

    def polygon(self, pts, fill, opacity):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(f'<polygon points="{coords}" fill="{fill}" fill-opacity="{opacity}"/>')

    def polyline(self, pts, stroke, width=1.5):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"/>'
        )

    def line(self, x0, y0, x1, y1, stroke, width=3.0):
        self.parts.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y1)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def text(self, x, y, content, fill="black", size=11, anchor="middle"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="sans-serif" '
            f'font-size="{size}" fill="{fill}" text-anchor="{anchor}">{content}</text>'
        )

    def tostring(self) -> str:
        return "".join(self.parts) + "</svg>"


def _scale(lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0

    def f(v):
        return out_lo + (v - lo) / span * (out_hi - out_lo)

    return f


def _palette_colors(palette, t):
    """Hex colours of the palette ramp at the positions ``t`` in [0, 1]."""
    stops = np.array([[int(h[k:k + 2], 16) for k in (1, 3, 5)] for h in PALETTES[palette]],
                     dtype=float)
    pos = np.asarray(t, dtype=float) * (len(stops) - 1)
    k = np.clip(np.floor(pos), 0, len(stops) - 2).astype(int)
    frac = (pos - k)[:, None]
    rgb = np.rint(stops[k] + (stops[k + 1] - stops[k]) * frac).astype(int)
    return ["#%02x%02x%02x" % tuple(c) for c in rgb.tolist()]


def _segments_from_bools(include):
    """Contiguous True runs as (start, stop) index pairs (stop inclusive)."""
    change = np.flatnonzero(np.diff(np.concatenate(([False], include, [False]))))
    return list(zip(change[::2].tolist(), (change[1::2] - 1).tolist()))


def _render_1d(band: SCBand, spec: PlotSpec) -> str:
    x = band.domain.coords1
    if band.domain.kind == "discrete":
        x = np.arange(len(band.domain.labels), dtype=float)
    w, h = _WIDTH, _HEIGHT
    finite = np.concatenate([band.scb_low, band.scb_up, np.asarray(spec.levels)])
    finite = finite[np.isfinite(finite)]
    ylo, yhi = float(finite.min()), float(finite.max())
    pad = 0.05 * (yhi - ylo if yhi > ylo else 1.0)
    sx = _scale(float(x[0]), float(x[-1]) if x.size > 1 else float(x[0]) + 1.0,
                _MARGIN, w - _MARGIN / 2)
    sy = _scale(ylo - pad, yhi + pad, h - _MARGIN, _MARGIN / 2)
    svg = _Svg()
    # gray band polygon and estimate curve, split at masked cells
    m = band.domain.mask_array()
    for a, b in _segments_from_bools(m):
        xs = x[a:b + 1]
        upper_pts = [(sx(xi), sy(v)) for xi, v in zip(xs, band.scb_up[a:b + 1])]
        lower_pts = [(sx(xi), sy(v)) for xi, v in zip(xs, band.scb_low[a:b + 1])][::-1]
        svg.polygon(upper_pts + lower_pts, "#bbbbbb", opacity="0.7")
        svg.polyline(
            [(sx(xi), sy(v)) for xi, v in zip(xs, band.eta_hat[a:b + 1])],
            "#000000", 1.8,
        )
    for r in regions.invert_levels(band, regions.ThresholdSpec(spec.set_type, spec.levels)):
        ylevel = sy(r.level)
        layers = (
            (r.outer, OUTER_COLOR),
            (r.estimate, ESTIMATE_1D_COLOR),
            (r.inner, INNER_COLOR),
        )
        for include, color in layers:
            for a, b in _segments_from_bools(include):
                svg.line(sx(x[a]), ylevel, sx(x[b]), ylevel, color)
        if spec.level_label:
            svg.text(w - _MARGIN / 4, ylevel - 3, f"{r.level:g}",
                     fill=spec.label_color, anchor="end")
    svg.text(w / 2, h - 10, spec.xlab or "", anchor="middle")
    svg.text(14, h / 2, spec.ylab or "", anchor="middle")
    return svg.tostring()


def _render_2d(band: SCBand, spec: PlotSpec) -> str:
    if band.domain.kind != "grid2d":
        raise ValueError("2D plots need a grid2d domain")
    x1 = band.domain.coords1
    x2 = band.domain.coords2
    mask = band.domain.mask_array()
    w, h = _WIDTH, _HEIGHT
    sx = _scale(float(x1[0]), float(x1[-1]), _MARGIN, w - _MARGIN / 2)
    sy = _scale(float(x2[0]), float(x2[-1]), h - _MARGIN, _MARGIN / 2)
    svg = _Svg()
    vals = band.eta_hat[mask]
    vlo, vhi = float(vals.min()), float(vals.max())
    span = vhi - vlo if vhi > vlo else 1.0
    if not np.isfinite(span):
        raise ValueError("eta_hat spans more than the largest float; no heat scale")
    # heat field: one rect per unmasked grid cell, in row-major order
    dx = (sx(x1[-1]) - sx(x1[0])) / max(x1.size - 1, 1)
    dy = (sy(x2[0]) - sy(x2[-1])) / max(x2.size - 1, 1)
    left, bottom = (sx(x1) - dx / 2).tolist(), (sy(x2) - dy / 2).tolist()
    ii, jj = np.nonzero(mask)
    for i, j, color in zip(ii.tolist(), jj.tolist(),
                           _palette_colors(spec.palette, (vals - vlo) / span)):
        svg.rect(left[i], bottom[j], dx, dy, color)

    def contour_lines(fieldvals, level):
        lines = []
        for chain in marching_squares(fieldvals, level, mask):
            a, b = np.array(chain).T
            lines.append(list(zip(sx(np.interp(a, np.arange(x1.size), x1)).tolist(),
                                  sy(np.interp(b, np.arange(x2.size), x2)).tolist())))
        return lines

    # the outer region of an upper set is bounded by the scb_up contour, of
    # a lower set by the scb_low contour
    outer, inner = band.scb_up, band.scb_low
    if spec.set_type == "lower":
        outer, inner = inner, outer
    for level in spec.levels:
        lines = [contour_lines(f, level) for f in (outer, band.eta_hat, inner)]
        for group, color in zip(lines, (OUTER_COLOR, ESTIMATE_2D_COLOR, INNER_COLOR)):
            for pts in group:
                svg.polyline(pts, color, 2.0)
        # the label sits mid-way along the longest estimate contour
        longest = max(lines[1], key=len, default=[])
        if spec.level_label and longest and len(longest) >= spec.min_size:
            mx, my = longest[len(longest) // 2]
            svg.text(mx, my, f"{level:g}", fill=spec.label_color)
    svg.text(w / 2, h - 10, spec.xlab or "", anchor="middle")
    svg.text(14, h / 2, spec.ylab or "", anchor="middle")
    return svg.tostring()


def render_band_svg(band: SCBand, spec: PlotSpec) -> str:
    """Render one SVG panel with all of ``spec.levels``."""
    if band.domain.kind == "grid2d":
        return _render_2d(band, spec)
    return _render_1d(band, spec)


def render_band_files(band: SCBand, spec: PlotSpec, out_path: str) -> list[str]:
    """Write the plot to disk: one file when ``together``, else one file per
    level suffixed ``_L<k>`` before the extension (``.svg`` when there is
    none). Returns the paths written."""
    paths = []
    if spec.together:
        with open(out_path, "w") as fh:
            fh.write(render_band_svg(band, spec))
        paths.append(out_path)
        return paths
    stem, ext = os.path.splitext(out_path)
    for k, level in enumerate(spec.levels, start=1):
        path = f"{stem}_L{k}{ext or '.svg'}"
        with open(path, "w") as fh:
            fh.write(render_band_svg(band, replace(spec, levels=(level,))))
        paths.append(path)
    return paths
