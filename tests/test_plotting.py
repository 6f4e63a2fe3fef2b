import numpy as np
import pytest

from confbands.core import Domain, assemble_band
from confbands.plotting import (
    PALETTES,
    PlotSpec,
    marching_squares,
    render_band_files,
    render_band_svg,
)
from conftest import random_band


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

            _render_2d(band, PlotSpec(levels=(0.0,)), (0.0,))

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
        with pytest.raises(ValueError, match="levels must be finite"):
            PlotSpec(levels=(0.0, level))

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
