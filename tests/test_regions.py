import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confbands.core import Domain, SCBand, assemble_band, band_to_json
from confbands.regions import (
    ThresholdSpec,
    check_containment,
    invert_interval,
    invert_levels,
    invert_lower,
    invert_two_sided,
    invert_upper,
    regions_from_json,
    regions_to_json,
    true_region,
)
from conftest import bands, per_element_json, random_band


def band_from_surfaces(low, eta, up):
    """Construct a band with the given surfaces via (eta, se, q) recovery."""
    low, eta, up = map(np.asarray, (low, eta, up))
    # surfaces must be symmetric around eta for SCBand; build from half-width
    half = up - eta
    assert np.allclose(half, eta - low), "test surfaces must be symmetric"
    d = Domain.grid1d(np.arange(float(len(eta))))
    return assemble_band(eta, half, 1.0, 1.0, 0.05, d)


class TestWorkedExamples:
    def test_upper_spec_example(self):
        band = band_from_surfaces([0, 2, 4], [0.5, 2.5, 4.5], [1, 3, 5])
        r = invert_upper(band, 2.5)
        assert r.inner.tolist() == [False, False, True]
        assert r.estimate.tolist() == [False, True, True]
        assert r.outer.tolist() == [False, True, True]

    def test_upper_dominated_threshold(self, rng):
        band = random_band(rng, "grid1d")
        c = float(band.scb_low.min()) - 1.0
        r = invert_upper(band, c)
        assert r.inner.all() and r.outer.all() and r.estimate.all()

    def test_lower_spec_example(self):
        band = band_from_surfaces([0, 2, 4], [0.5, 2.5, 4.5], [1, 3, 5])
        r = invert_lower(band, 2.5)
        assert r.inner.tolist() == [True, False, False]
        assert r.outer.tolist() == [True, True, False]

    def test_lower_dominated(self, rng):
        band = random_band(rng, "grid1d")
        c = float(band.scb_up.max()) + 1.0
        r = invert_lower(band, c)
        assert r.inner.all() and r.outer.all() and r.estimate.all()

    def test_interval_reduces_to_lower(self, rng):
        band = random_band(rng, "grid1d")
        a = float(band.scb_low.min()) - 100.0
        b = float(np.median(band.eta_hat))
        ri = invert_interval(band, a, b)
        rl = invert_lower(band, b)
        assert np.array_equal(ri.inner, rl.inner)
        assert np.array_equal(ri.outer, rl.outer)
        assert np.array_equal(ri.estimate, rl.estimate)

    def test_disjoint_interval_empty(self, rng):
        band = random_band(rng, "grid1d")
        hi = float(band.scb_up.max())
        r = invert_interval(band, hi + 1, hi + 2)
        assert not r.inner.any() and not r.estimate.any()

    def test_interval_rejects_empty(self, rng):
        band = random_band(rng, "grid1d")
        with pytest.raises(ValueError, match="empty interval"):
            invert_interval(band, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(np.nan, 0.5), (0.2, np.nan), (-np.inf, 0.5),
                                      (0.2, np.inf), (-np.inf, np.inf)])
    def test_interval_rejects_non_finite_endpoints(self, rng, a, b):
        # a NaN endpoint used to give empty regions, an infinite one a half-line
        band = random_band(rng, "grid1d")
        with pytest.raises(ValueError, match="threshold must be finite"):
            invert_interval(band, a, b)

    def test_two_sided_symmetric_zero(self):
        band = band_from_surfaces([-2, -1, -3], [0, 1, -1], [2, 3, 1])
        up, lo = invert_two_sided(band, 0.0)
        assert np.all(up.outer | lo.outer)

    def test_two_sided_above_max(self, rng):
        band = random_band(rng, "grid1d")
        c = float(band.scb_up.max()) + 1.0
        up, lo = invert_two_sided(band, c)
        assert not up.outer.any()
        assert lo.outer.all()


def oracle_regions(band: SCBand, c: float, set_type: str):
    """Independent elementwise-comparison oracle (plain python loops)."""
    m = band.domain.mask_array().ravel().tolist()
    low = band.scb_low.ravel().tolist()
    up = band.scb_up.ravel().tolist()
    eta = band.eta_hat.ravel().tolist()
    inner, outer, est = [], [], []
    for k in range(len(m)):
        if not m[k]:
            inner.append(False)
            outer.append(False)
            est.append(False)
            continue
        if set_type == "upper":
            inner.append(low[k] >= c)
            outer.append(up[k] >= c)
            est.append(eta[k] >= c)
        else:
            inner.append(up[k] <= c)
            outer.append(low[k] <= c)
            est.append(eta[k] <= c)
    shape = band.domain.shape
    return (
        np.array(inner).reshape(shape),
        np.array(outer).reshape(shape),
        np.array(est).reshape(shape),
    )


class TestOracleAgreement:
    @pytest.mark.parametrize("kind", ["grid1d", "grid2d", "discrete"])
    def test_random_bands_match_oracle(self, kind):
        rng = np.random.default_rng(7)
        for trial in range(40):
            band = random_band(rng, kind, max_len=60, max_side=12, masked=True)
            for c in rng.standard_normal(4) * 2:
                for set_type, fn in (("upper", invert_upper), ("lower", invert_lower)):
                    r = fn(band, c)
                    inner, outer, est = oracle_regions(band, c, set_type)
                    assert np.array_equal(r.inner, inner)
                    assert np.array_equal(r.outer, outer)
                    assert np.array_equal(r.estimate, est)

    def test_interval_is_intersection_of_one_sided(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            band = random_band(rng, "grid1d", max_len=60)
            a, b = np.sort(rng.standard_normal(2) * 2)
            ri = invert_interval(band, a, b)
            ru = invert_upper(band, a)
            rl = invert_lower(band, b)
            assert np.array_equal(ri.inner, ru.inner & rl.inner)
            assert np.array_equal(ri.outer, ru.outer & rl.outer)


class TestInvariants:
    def test_sandwich(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            band = random_band(rng, "grid2d", max_side=10, masked=True)
            for c in rng.standard_normal(3):
                for r in (invert_upper(band, c), invert_lower(band, c)):
                    assert np.all(r.estimate[r.inner])
                    assert np.all(r.outer[r.estimate])

    def test_nestedness_upper(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            band = random_band(rng, "grid1d", max_len=80)
            c1, c2 = np.sort(rng.standard_normal(2) * 2)
            r1, r2 = invert_upper(band, c1), invert_upper(band, c2)
            assert np.all(r1.inner[r2.inner])
            assert np.all(r1.outer[r2.outer])

    def test_duality_excluding_ties(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            band = random_band(rng, "grid1d", max_len=80)
            c = float(rng.standard_normal() * 2)
            lower_inner = invert_lower(band, c).inner
            # complement of {scb_up > c}; ties (scb_up == c) excluded
            ties = band.scb_up == c
            comp = ~(band.scb_up > c)
            assert np.array_equal(lower_inner[~ties], comp[~ties])

    def test_masked_cells_false_everywhere(self):
        rng = np.random.default_rng(12)
        band = random_band(rng, "grid2d", max_side=8, masked=True)
        if band.domain.mask is None:
            return
        off = ~band.domain.mask
        for c in (-1.0, 0.0, 1.0):
            r = invert_upper(band, c)
            assert not r.inner[off].any()
            assert not r.outer[off].any()
            assert not r.estimate[off].any()

    def test_level_order_preserved(self, rng):
        band = random_band(rng, "grid1d")
        spec = ThresholdSpec("upper", (0.5, -1.0, 0.5))
        rs = invert_levels(band, spec)
        assert [r.level for r in rs] == [0.5, -1.0, 0.5]


class TestContainment:
    def test_estimate_always_contained(self, rng):
        band = random_band(rng, "grid1d")
        rs = invert_levels(band, ThresholdSpec("upper", (-0.5, 0.0, 0.5)))
        summary = check_containment(rs, band.eta_hat, band.domain)
        assert summary.contain_all
        assert all(summary.contain_individual)

    def test_hand_built_failure(self):
        # band shifted entirely above the truth; a threshold below both makes
        # the inner region full while the true set is empty at some cells
        band = band_from_surfaces([5, 6, 7], [6, 7, 8], [7, 8, 9])
        truth = np.array([0.0, 0.0, 10.0])
        r = invert_upper(band, 4.0)
        summary = check_containment([r], truth, band.domain)
        assert not summary.contain_all

    def test_shape_mismatch(self, rng):
        band = random_band(rng, "grid1d")
        r = invert_upper(band, 0.0)
        with pytest.raises(ValueError, match="shape"):
            check_containment([r], np.zeros(band.domain.size + 1), band.domain)

    def test_true_region_interval(self):
        band = band_from_surfaces([0, 0, 0], [1, 2, 3], [2, 4, 6])
        r = invert_interval(band, 1.5, 2.5)
        member = true_region(np.array([1.0, 2.0, 3.0]), r, band.domain)
        assert member.tolist() == [False, True, False]


class TestThresholdSpec:
    def test_interval_validation(self):
        with pytest.raises(ValueError, match="empty interval"):
            ThresholdSpec("interval", ((2.0, 1.0),))

    def test_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ThresholdSpec("upper", ())

    def test_finite(self):
        # the one threshold rule, also behind invert_upper/lower/interval
        for set_type, level in [("upper", np.inf), ("lower", np.nan), ("interval", (0.0, np.inf))]:
            with pytest.raises(ValueError, match="^threshold must be finite$"):
                ThresholdSpec(set_type, (level,))


class TestRegionJson:
    def test_round_trip(self, rng):
        band = random_band(rng, "grid2d", max_side=6)
        rs = invert_levels(band, ThresholdSpec("upper", (0.0, 1.0)))
        text = regions_to_json(rs, band.domain)
        back = regions_from_json(text)
        for a, b in zip(rs, back):
            assert a.level == b.level
            assert np.array_equal(a.inner, b.inner)
            assert np.array_equal(a.outer, b.outer)
            assert np.array_equal(a.estimate, b.estimate)

    def test_two_sided_round_trip(self, rng):
        band = random_band(rng, "grid1d")
        rs = invert_levels(band, ThresholdSpec("two_sided", (0.0,)))
        back = regions_from_json(regions_to_json(rs, band.domain))
        assert [r.set_type for r in back] == ["upper", "lower"]

    @pytest.mark.parametrize("spec", [
        ThresholdSpec("upper", (-1.0, 0, 2.5)),
        ThresholdSpec("two_sided", (0.0, 1.0)),
        ThresholdSpec("interval", ((-1.0, 1.0), (0, 3))),
    ])
    def test_byte_identical_round_trip(self, rng, spec):
        band = random_band(rng, "grid2d", max_side=6, masked=True)
        text = regions_to_json(invert_levels(band, spec), band.domain)
        assert regions_to_json(regions_from_json(text), band.domain) == text

    def test_golden_bytes_of_a_masked_two_sided_inversion(self):
        # exact dyadic inputs and IEEE arithmetic: the same text on every host
        i, j = np.meshgrid(np.arange(12.0), np.arange(9.0), indexing="ij")
        mask = ((i + j) % 7 != 0) & ~((i < 3) & (j < 2))
        domain = Domain.grid2d(np.arange(12.0) / 4, np.arange(9.0) / 2 - 1, mask=mask)
        band = assemble_band((i - 5.5) * (j - 4.0) / 8.0, 0.25 + (i + 2 * j) / 64.0, 2.5, 1.0,
                             0.05, domain)
        rs = invert_levels(band, ThresholdSpec("two_sided", (-1.5, 0.0, 0.75, 2.0)))
        text = regions_to_json(rs, domain)
        assert text == per_element_json({
            "set_type": "two_sided",
            "set_types": ["upper", "lower"] * 4,
            "levels": [-1.5, -1.5, 0.0, 0.0, 0.75, 0.75, 2.0, 2.0],
            "inner": [r.inner.ravel() for r in rs],
            "outer": [r.outer.ravel() for r in rs],
            "estimate": [r.estimate.ravel() for r in rs],
            "shape": [12, 9],
        }) + "\n"
        assert regions_to_json(regions_from_json(text), domain) == text
        band_text = band_to_json(band)
        assert band_text == per_element_json({
            "domain": {"kind": "grid2d", "coords1": domain.coords1, "coords2": domain.coords2,
                       "labels": None, "mask": mask.ravel()},
            "shape": [12, 9], "link": "identity",
            "eta_hat": band.eta_hat.ravel(), "se": band.se.ravel(),
            "q_alpha": 2.5, "tau": 1.0, "alpha": 0.05,
            "scb_low": band.scb_low.ravel(), "scb_up": band.scb_up.ravel(),
        }) + "\n"
        # the digests of the per-element writer's texts (json.dumps of each mask's list)
        digests = [hashlib.sha256(t.encode()).hexdigest()[:16] for t in (text, band_text)]
        assert digests == ["8b29d201e26ef602", "af6a9b7a7e0e8be1"]

    @staticmethod
    def _doc(rng):
        import json

        band = random_band(rng, "grid2d", max_side=5)
        rs = invert_levels(band, ThresholdSpec("two_sided", (0.0, 0.5)))
        return json.loads(regions_to_json(rs, band.domain))

    @pytest.mark.parametrize("name", ["inner", "outer", "estimate", "set_types"])
    def test_per_level_field_shorter_than_levels(self, rng, name):
        # a short inner list used to fail with IndexError
        import json

        doc = self._doc(rng)
        doc[name] = doc[name][:-1]
        with pytest.raises(ValueError, match=f"'{name}' must hold one entry per level"):
            regions_from_json(json.dumps(doc))

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: d["set_types"].__setitem__(1, "sideways"), "'set_types' entry 1"),
        (lambda d: d["outer"].__setitem__(2, d["outer"][2][:-1]), "'outer' entry 2"),
        (lambda d: d["inner"][0].__setitem__(0, 2), "'inner' entry 0"),
        (lambda d: d["levels"].__setitem__(0, None), "'levels' entry 0"),
        (lambda d: d.__setitem__("shape", [2, "3"]), "'shape'"),
        (lambda d: d.pop("levels"), "'levels'"),
    ])
    def test_malformed_field_named(self, rng, mutate, named):
        import json

        doc = self._doc(rng)
        mutate(doc)
        with pytest.raises(ValueError, match=named):
            regions_from_json(json.dumps(doc))

    @given(bands(), st.sampled_from(["upper", "lower", "two_sided", "interval"]),
           st.lists(st.floats(-1e12, 1e12), min_size=1, max_size=6))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_random_regions_round_trip(self, band, set_type, values):
        levels = [tuple(sorted((v, -v))) for v in values] if set_type == "interval" else values
        rs = invert_levels(band, ThresholdSpec(set_type, tuple(levels)))
        text = regions_to_json(rs, band.domain)
        back = regions_from_json(text)
        assert regions_to_json(back, band.domain) == text
        assert [(r.set_type, r.level) for r in back] == [(r.set_type, r.level) for r in rs]
        for a, b in zip(rs, back):
            for name in ("inner", "outer", "estimate"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
