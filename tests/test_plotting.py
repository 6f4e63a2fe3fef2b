import hashlib
import warnings

import numpy as np
import pytest

from confbands import plotting, regions
from confbands.core import Domain, assemble_band
from confbands.plotting import (
    PALETTES,
    PlotSpec,
    marching_squares,
    render_band_files,
    render_band_svg,
)
from conftest import random_band

# ---------------------------------------------------------------------------
# Reference per-cell implementations, kept verbatim from the version before
# the whole-array rewrite of plotting.py; the rewrite must match them exactly.
# ---------------------------------------------------------------------------

_CASE_EDGES = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
    # saddles resolved by the caller via the cell average
    5: None, 10: None,
}


def _edge_key(i, j, edge):
    # canonical (node, axis) key so shared edges interpolate once
    if edge == 0:
        return (i, j, 0)
    if edge == 1:
        return (i + 1, j, 1)
    if edge == 2:
        return (i, j + 1, 0)
    return (i, j, 1)


def reference_marching_squares(fieldvals, level: float, mask=None):
    F = np.asarray(fieldvals, dtype=float)
    if F.ndim != 2:
        raise ValueError("field must be 2-D")
    n1, n2 = F.shape
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != F.shape:
            raise ValueError("mask shape mismatch")
    level = float(level)

    def interp(i, j, axis):
        if axis == 0:
            f0, f1 = F[i, j], F[i + 1, j]
            t = 0.5 if f1 == f0 else (level - f0) / (f1 - f0)
            return (i + t, float(j))
        f0, f1 = F[i, j], F[i, j + 1]
        t = 0.5 if f1 == f0 else (level - f0) / (f1 - f0)
        return (float(i), j + t)

    segments = []  # pairs of edge keys
    points = {}
    for i in range(n1 - 1):
        for j in range(n2 - 1):
            if mask is not None and not (
                mask[i, j] and mask[i + 1, j] and mask[i, j + 1] and mask[i + 1, j + 1]
            ):
                continue
            corners = (F[i, j], F[i + 1, j], F[i + 1, j + 1], F[i, j + 1])
            if not all(np.isfinite(corners)):
                continue
            case = (
                (corners[0] >= level)
                | ((corners[1] >= level) << 1)
                | ((corners[2] >= level) << 2)
                | ((corners[3] >= level) << 3)
            )
            edges = _CASE_EDGES[int(case)]
            if edges is None:
                # saddle: the cell average decides whether the two inside
                # corners connect through the center
                center_in = sum(corners) / 4.0 >= level
                if int(case) == 5:  # corners 0 and 2 inside
                    edges = [(0, 1), (2, 3)] if center_in else [(3, 0), (1, 2)]
                else:  # corners 1 and 3 inside
                    edges = [(3, 0), (1, 2)] if center_in else [(0, 1), (2, 3)]
            for e0, e1 in edges:
                keys = []
                for e in (e0, e1):
                    key = _edge_key(i, j, e)
                    if key not in points:
                        points[key] = interp(key[0], key[1], key[2])
                    keys.append(key)
                segments.append((keys[0], keys[1]))

    return plotting._join_chains(segments, points)


def reference_palette_color(palette, t):
    stops = PALETTES[palette]
    pos = t * (len(stops) - 1)
    k = int(np.clip(np.floor(pos), 0, len(stops) - 2))
    frac = pos - k

    def hex2rgb(h):
        return tuple(int(h[i:i + 2], 16) for i in (1, 3, 5))

    c0, c1 = hex2rgb(stops[k]), hex2rgb(stops[k + 1])
    rgb = tuple(round(a + (b - a) * frac) for a, b in zip(c0, c1))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def straddle_oracle(fieldvals, level, chains, mask=None):
    """Every chain point must lie on a cell edge whose endpoints straddle the
    level (non-strictly)."""
    F = np.asarray(fieldvals)
    for chain in chains:
        for a, b in chain:
            ia, ib = int(np.floor(a)), int(np.floor(b))
            on_axis0 = abs(a - round(a)) > 1e-12
            on_axis1 = abs(b - round(b)) > 1e-12
            assert not (on_axis0 and on_axis1), "point not on a grid edge"
            if on_axis0:
                f0, f1 = F[ia, int(round(b))], F[ia + 1, int(round(b))]
            elif on_axis1:
                f0, f1 = F[int(round(a)), ib], F[int(round(a)), ib + 1]
            else:
                # exactly on a node: the node value must equal the level side
                continue
            assert (f0 - level) * (f1 - level) <= 0, "edge does not straddle level"


class TestMarchingSquares:
    def test_planar_field_vertical_line(self):
        F = np.tile(np.arange(5.0)[:, None], (1, 4))  # field = axis-0 coordinate
        chains = marching_squares(F, 2.5)
        assert len(chains) == 1
        pts = np.array(chains[0])
        np.testing.assert_allclose(pts[:, 0], 2.5)
        assert len(pts) == 4  # one crossing per axis-1 edge row

    def test_level_below_min_empty(self, rng):
        F = rng.random((6, 6)) + 5.0
        assert marching_squares(F, 0.0) == []

    def test_level_above_max_empty(self, rng):
        F = rng.random((6, 6))
        assert marching_squares(F, 10.0) == []

    def test_edge_straddle_oracle_random_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            F = rng.standard_normal((20, 20))
            level = float(rng.standard_normal() * 0.5)
            chains = marching_squares(F, level)
            straddle_oracle(F, level, chains)

    def test_masked_cells_no_segments(self):
        F = np.tile(np.arange(6.0)[:, None], (1, 6))
        mask = np.ones((6, 6), dtype=bool)
        mask[:, :3] = False
        chains = marching_squares(F, 2.5, mask)
        for chain in chains:
            for a, b in chain:
                assert b >= 2.0, "segment touches a masked-only region"

    def test_closed_contour_on_bump(self):
        n = 21
        x = np.linspace(-1, 1, n)
        gx, gy = np.meshgrid(x, x, indexing="ij")
        F = np.exp(-(gx**2 + gy**2) * 3)
        chains = marching_squares(F, 0.5)
        assert len(chains) == 1
        chain = chains[0]
        assert len(chain) > 0
        assert chain[0] == chain[-1], "bump contour must close"
        # radius check: the analytic 0.5-level circle has r = sqrt(ln(2)/3)
        pts = np.array(chain)
        xy = np.column_stack([np.interp(pts[:, 0], np.arange(n), x),
                              np.interp(pts[:, 1], np.arange(n), x)])
        r = np.hypot(xy[:, 0], xy[:, 1])
        assert abs(r.mean() - np.sqrt(np.log(2) / 3)) < 0.02

    def test_saddle_resolved_by_average(self):
        # checkerboard cell: corners (1, 0, 1, 0) with average 0.5
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        chains_hi = marching_squares(F, 0.75)  # average 0.5 < 0.75: split corners
        assert len(chains_hi) == 2
        chains_lo = marching_squares(F, 0.25)
        assert len(chains_lo) == 2


def oracle_fields(rng, count):
    """Random (field, level, mask) cases with NaN cells, masks, levels tied
    with node values, equal corners, both saddle cases and 1-wide fields."""
    for k in range(count):
        shape = [int(rng.integers(1, 13)), int(rng.integers(1, 13))]
        if k % 10 == 0:
            shape[k % 20 // 10] = 1  # 1 x n and n x 1
        style = k % 3
        if style == 0:
            F = rng.standard_normal(shape)
        elif style == 1:
            F = rng.integers(-2, 3, shape).astype(float)  # ties and equal corners
        else:
            # checkerboard: saddle cells of both corner patterns
            sign = (np.add.outer(np.arange(shape[0]), np.arange(shape[1])) % 2) * 2.0 - 1.0
            F = sign * rng.uniform(0.5, 1.5, shape) + rng.uniform(-0.5, 0.5)
        if rng.random() < 0.5:
            F[rng.random(shape) < 0.1] = np.nan
        mask = rng.random(shape) < 0.85 if rng.random() < 0.5 else None
        finite = F[np.isfinite(F)]
        if rng.random() < 0.4 and finite.size:
            level = float(rng.choice(finite))  # tied with a node value
        else:
            level = float(rng.standard_normal() * 0.5)
        yield F, level, mask


class TestReferenceImplementations:
    def test_marching_squares_matches_reference(self):
        rng = np.random.default_rng(7)
        saddles = 0
        for F, level, mask in oracle_fields(rng, 300):
            got = marching_squares(F, level, mask)
            assert repr(got) == repr(reference_marching_squares(F, level, mask))
            c = F >= level
            saddles += int(np.sum(c[:-1, :-1] & c[1:, 1:] & ~c[1:, :-1] & ~c[:-1, 1:]))
        assert saddles > 50

    def test_saddle_cases_match_reference(self):
        # both corner patterns, with the cell average above and below the level
        for F in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
            for level in (0.25, 0.75):
                assert repr(marching_squares(F, level)) == repr(
                    reference_marching_squares(F, level))

    def test_huge_values_and_nan_raise_no_warning(self):
        rng = np.random.default_rng(8)
        # neighbours of opposite sign near the largest double: their
        # differences and cell sums overflow
        F = rng.choice([-1.7e308, 1.7e308], (12, 12)) * rng.uniform(0.9, 1.0, (12, 12))
        F[3, 4] = np.nan
        F[5, 5] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = marching_squares(F, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert repr(got) == repr(reference_marching_squares(F, 0.0))

    @pytest.mark.parametrize("palette", sorted(PALETTES))
    def test_palette_matches_reference(self, palette):
        n = len(PALETTES[palette])
        t = np.concatenate([
            [0.0, 1.0],
            np.arange(n) / (n - 1),  # every stop boundary
            np.random.default_rng(9).random(10_000),
        ])
        assert plotting._palette_colors(palette, t) == [
            reference_palette_color(palette, v) for v in t]


# sha256 of the SVG bytes of each _golden_cases() entry
GOLDEN_SHA256 = {
    "grid2d_60x60_upper": "670bc916ec4d7d43cb7628a83f397073473e3e7f1ac282fed398f373a34340ec",
    "grid2d_60x60_lower": "2a40591baf02af5bbf9304dee637e058d807178a5be792a0d3a8ae68d783ba85",
    "grid2d_9x7_Spectral": "9e44fdd65f5ff85136038c9bba1afd1653b811b5728f90b81233359d8b384fdc",
    "grid2d_9x7_viridis": "4a03a6dd73152ed098bc7512cfa2266768ddc5b718a0c659b9dce33b357a0933",
    "grid2d_9x7_gray": "d0a0fde71bdf2b66ad88f256468fc31f1198d217c66a65514875c66b16860b81",
    "grid1d_masked": "fafc8581f732cbfb828121fb6d114e45de2d52754f9053c67f4019881acc3661",
    "discrete": "ded1239bed89056fc5b4ace723a8069f12100665208bda63b0496c50a5a6cbcb",
}


def _golden_cases():
    """Fixed bands and specs whose SVG bytes are pinned by sha256. Fields use
    uniform draws and polynomials only, so their bits do not depend on libm."""
    rng = np.random.default_rng(2718)
    x = np.linspace(0.0, 1.0, 60)
    mask = np.ones((60, 60), dtype=bool)
    mask[:15, :10] = False
    eta = 2.0 * (4.0 * x * (1.0 - x) - 0.5)[:, None] * (1.0 - 2.0 * x)[None, :]
    eta = eta + 0.3 * (rng.random((60, 60)) - 0.5)
    se = 0.05 + 0.1 * rng.random((60, 60))
    spatial = assemble_band(eta, se, 2.5, 1.0, 0.05, Domain.grid2d(x, x, mask=mask))
    for set_type in ("upper", "lower"):
        yield f"grid2d_60x60_{set_type}", spatial, PlotSpec(levels=(-0.5, 0.0, 0.5),
                                                            set_type=set_type)
    c1 = np.array([0.0, 0.5, 1.5, 2.0, 3.5, 4.0, 6.0, 7.0, 7.5])
    c2 = np.array([-1.0, 0.0, 2.0, 2.5, 3.0, 5.0, 5.5])
    small_mask = np.ones((9, 7), dtype=bool)
    small_mask[4, 3] = small_mask[0, 6] = False
    small = assemble_band(2.0 * rng.random((9, 7)) - 1.0, 0.3 * rng.random((9, 7)), 1.5, 1.0,
                          0.1, Domain.grid2d(c1, c2, mask=small_mask))
    for palette in ("Spectral", "viridis", "gray"):
        # min_size 10 labels the -0.2 estimate contour (12 points), not 0.3's (8)
        yield f"grid2d_9x7_{palette}", small, PlotSpec(levels=(-0.2, 0.3), palette=palette,
                                                       min_size=10, xlab="u", ylab="v")
    t = np.cumsum(0.2 + rng.random(40))
    line_mask = np.ones(40, dtype=bool)
    line_mask[[0, 11, 12, 13, 30]] = False
    line = assemble_band(np.cumsum(rng.random(40) - 0.5), 0.2 + 0.3 * rng.random(40), 2.0,
                         1.0, 0.05, Domain("grid1d", coords1=t, mask=line_mask))
    yield "grid1d_masked", line, PlotSpec(levels=(-0.5, 0.5), xlab="t", ylab="f(t)")
    labels = [f"group {k}" for k in range(6)]
    discrete = assemble_band(rng.random(6) - 0.5, 0.1 + 0.2 * rng.random(6), 1.8, 1.0, 0.05,
                             Domain.discrete(labels))
    yield "discrete", discrete, PlotSpec(levels=(0.0,), set_type="lower")


def test_svg_goldens():
    got = {name: hashlib.sha256(render_band_svg(band, spec).encode()).hexdigest()
           for name, band, spec in _golden_cases()}
    assert got == GOLDEN_SHA256


class TestSvgRendering:
    def test_deterministic_bytes(self, rng):
        band = random_band(rng, "grid1d", max_len=40)
        spec = PlotSpec(levels=(0.0, 0.5), xlab="x", ylab="y")
        assert render_band_svg(band, spec) == render_band_svg(band, spec)

    def test_2d_deterministic_bytes(self, rng):
        band = random_band(rng, "grid2d", max_side=10, masked=True)
        spec = PlotSpec(levels=(0.0,))
        assert render_band_svg(band, spec) == render_band_svg(band, spec)

    def test_per_level_file_count(self, tmp_path, rng):
        band = random_band(rng, "grid1d", max_len=30)
        spec = PlotSpec(levels=(-0.3, 0.0, 0.3), together=False)
        paths = render_band_files(band, spec, str(tmp_path / "plot.svg"))
        assert len(paths) == 3
        for p in paths:
            assert (tmp_path / p.split("/")[-1]).exists()

    @pytest.mark.parametrize("out, written", [
        ("plot.svg", ["plot_L1.svg", "plot_L2.svg"]),
        ("fig", ["fig_L1.svg", "fig_L2.svg"]),
        ("./fig", ["./fig_L1.svg", "./fig_L2.svg"]),
        ("run.v1/fig", ["run.v1/fig_L1.svg", "run.v1/fig_L2.svg"]),
        ("run.v1/fig.svg", ["run.v1/fig_L1.svg", "run.v1/fig_L2.svg"]),
    ])
    def test_per_level_paths(self, tmp_path, monkeypatch, rng, out, written):
        # the suffix used to go after the last dot of the whole path, so a
        # dotted directory or an extension-less name under one gave a path
        # in a directory that does not exist
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.v1").mkdir()
        band = random_band(rng, "grid1d", max_len=20)
        spec = PlotSpec(levels=(-0.3, 0.3), together=False)
        paths = render_band_files(band, spec, out)
        assert paths == written
        for path, level in zip(paths, spec.levels):
            with open(path) as fh:
                assert fh.read() == render_band_svg(band, PlotSpec(levels=(level,)))

    def test_full_width_inner_segment(self):
        # constant band strictly above the level: inner covers the whole axis
        d = Domain.grid1d(np.linspace(0, 1, 12))
        band = assemble_band(np.full(12, 5.0), np.ones(12), 1.0, 1.0, 0.05, d)
        spec = PlotSpec(levels=(0.0,))
        svg = render_band_svg(band, spec)
        assert svg.count('stroke="#d62728"') == 1  # single inner segment

    def test_2d_requires_grid2d(self, rng):
        band = random_band(rng, "grid1d")
        with pytest.raises(ValueError, match="grid2d"):
            from confbands.plotting import _render_2d

            _render_2d(band, PlotSpec(levels=(0.0,)))

    def test_unknown_palette_rejected(self):
        with pytest.raises(ValueError, match="palette"):
            PlotSpec(levels=(0.0,), palette="magma")

    def test_set_type_other_than_upper_lower_rejected(self, rng):
        # only upper and lower sets have a plot; 2-D bands included
        band = random_band(rng, "grid2d", max_side=8)
        for set_type in ("interval", "two_sided"):
            with pytest.raises(ValueError, match="set_type"):
                render_band_svg(band, PlotSpec(levels=(0.0,), set_type=set_type))

    def test_levels_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            PlotSpec(levels=())

    @pytest.mark.parametrize("level", [np.inf, -np.inf, np.nan])
    def test_non_finite_levels_rejected(self, level):
        # a 2-D band used to render these as an SVG with no contour
        with pytest.raises(ValueError) as info:
            PlotSpec(levels=(0.0, level))
        assert str(info.value) == "threshold must be finite"

    @pytest.mark.parametrize("set_type", ["upper", "lower"])
    @pytest.mark.parametrize("levels", [(), (np.inf,), (0.0, np.nan)],
                             ids=["empty", "inf", "nan"])
    def test_levels_refused_as_threshold_spec_refuses_them(self, levels, set_type):
        messages = []
        for build in (lambda: PlotSpec(levels=levels, set_type=set_type),
                      lambda: regions.ThresholdSpec(set_type, levels)):
            with pytest.raises(ValueError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_spectral_palette_documented_stops(self):
        assert PALETTES["Spectral"][0] == "#9e0142"
        assert PALETTES["Spectral"][-1] == "#5e4fa2"

    def test_contour_region_consistency(self, rng):
        # inner region mask is a subset of the outer region mask at any level
        for _ in range(10):
            band = random_band(rng, "grid2d", max_side=12, masked=True)
            for level in rng.standard_normal(3):
                inner = band.scb_low >= level
                outer = band.scb_up >= level
                m = band.domain.mask_array()
                assert np.all(outer[inner & m])
