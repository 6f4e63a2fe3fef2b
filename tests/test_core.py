import copy
import dataclasses
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confbands import core
from confbands.core import (
    Domain,
    _expit,
    _studentized_max,
    assemble_band,
    band_from_json,
    band_to_json,
    emit_json,
    empirical_quantile,
    substream,
)
from conftest import bands, per_element_json, random_band


class TestEmpiricalQuantile:
    def test_rank_example(self):
        assert empirical_quantile(range(1, 21), 0.95) == 19.0

    def test_constant_sample(self):
        for level in (0.01, 0.5, 0.99):
            assert empirical_quantile([7.0, 7.0, 7.0], level) == 7.0

    def test_matches_sort_oracle(self, rng):
        samples = rng.uniform(0, 1, 1000)
        level = 0.9
        expected = np.sort(samples)[int(np.ceil(level * 1000)) - 1]
        assert empirical_quantile(samples, level) == expected

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="no bootstrap samples"):
            empirical_quantile([], 0.5)

    def test_non_finite_errors(self):
        with pytest.raises(ValueError, match="non-finite statistic"):
            empirical_quantile([1.0, np.nan], 0.5)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_level(self, samples, l1, l2):
        lo, hi = sorted((l1, l2))
        assert empirical_quantile(samples, lo) <= empirical_quantile(samples, hi)


class TestAssembleBand:
    def test_symmetric_example(self):
        d = Domain.grid1d(np.arange(4.0))
        band = assemble_band(np.zeros(4), np.ones(4), 2.0, 1.0, 0.05, d)
        assert np.all(band.scb_low == -2.0) and np.all(band.scb_up == 2.0)

    def test_zero_se_zero_width(self, rng):
        d = Domain.grid1d(np.arange(5.0))
        eta = rng.standard_normal(5)
        band = assemble_band(eta, np.zeros(5), 3.0, 1.0, 0.1, d)
        assert np.array_equal(band.scb_low, eta)
        assert np.array_equal(band.scb_up, eta)

    def test_width_formula(self, rng):
        d = Domain.grid1d(np.arange(30.0))
        eta = rng.standard_normal(30)
        se = rng.uniform(0, 2, 30)
        q, tau = 1.7, 1.3
        band = assemble_band(eta, se, q, tau, 0.05, d)
        np.testing.assert_allclose(band.scb_up - band.scb_low, 2 * q * se / tau)

    def test_negative_se_rejected(self):
        d = Domain.grid1d(np.arange(3.0))
        with pytest.raises(ValueError, match="nonnegative"):
            assemble_band(np.zeros(3), [-1.0, 0, 0], 1.0, 1.0, 0.05, d)

    def test_shape_mismatch_rejected(self):
        d = Domain.grid1d(np.arange(3.0))
        with pytest.raises(ValueError):
            assemble_band(np.zeros(4), np.ones(4), 1.0, 1.0, 0.05, d)

    def test_band_monotone_in_alpha(self, rng):
        # quantiles from the same max-statistic sample: larger alpha, smaller q
        d = Domain.grid1d(np.arange(20.0))
        eta = rng.standard_normal(20)
        se = rng.uniform(0.1, 1, 20)
        stats = rng.standard_normal(500) ** 2
        q1 = empirical_quantile(stats, 1 - 0.01)
        q2 = empirical_quantile(stats, 1 - 0.2)
        wide = assemble_band(eta, se, q1, 1.0, 0.01, d)
        narrow = assemble_band(eta, se, q2, 1.0, 0.2, d)
        assert np.all(wide.scb_low <= narrow.scb_low)
        assert np.all(narrow.scb_up <= wide.scb_up)

    def test_reconstruction_bit_for_bit(self, rng):
        for kind in ("grid1d", "grid2d", "discrete"):
            band = random_band(rng, kind)
            band.validate()  # revalidates the reconstruction identity

    def test_logit_link_band(self):
        d = Domain.grid1d(np.arange(3.0))
        prob = np.array([0.2, 0.5, 0.8])
        band = assemble_band(prob, np.ones(3), 2.0, 1.0, 0.05, d, link="logit")
        assert np.all(band.scb_low > 0) and np.all(band.scb_up < 1)
        assert np.all(band.scb_low <= prob) and np.all(prob <= band.scb_up)
        band.validate()

    def test_overflowing_limits_refused(self):
        # eta 1, se 1e300, q 1e10 overflows both limits; such a band could be
        # plotted but not saved, so it is refused, naming the field, unwarned
        d = Domain.grid2d(np.arange(4.0), np.arange(4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^scb_low must be finite at unmasked cells$"):
                assemble_band(np.ones((4, 4)), np.full((4, 4), 1e300), 1e10, 1.0, 0.05, d)
        band = assemble_band(np.ones((4, 4)), np.ones((4, 4)), 2.0, 1.0, 0.05, d)
        up = band.scb_up.copy()
        up[1, 2] = np.inf
        with pytest.raises(ValueError, match="^scb_up must be finite at unmasked cells$"):
            dataclasses.replace(band, scb_up=up).validate()

    @pytest.mark.parametrize("se, q", [(0.0, 1.5), (1e-17, 1.5), (1.0, 0.0)])
    def test_logit_zero_half_width_brackets(self, rng, se, q):
        # expit(logit(p)) misses p by one ulp for about a third of p; the
        # band used to be refused as "does not bracket eta_hat"
        prob = rng.uniform(size=100)
        band = assemble_band(prob, np.full(100, se), q, 1.0, 0.05,
                             Domain.grid1d(np.arange(100.0)), link="logit")
        assert np.all(band.scb_low <= prob) and np.all(prob <= band.scb_up)
        np.testing.assert_allclose(band.scb_low, prob, rtol=1e-12, atol=0)
        np.testing.assert_allclose(band.scb_up, prob, rtol=1e-12, atol=0)
        assert band_to_json(band_from_json(band_to_json(band))) == band_to_json(band)


def _studentized_max_masked(dev, se):
    """The masked studentized max applied to every row, kept here as the
    reference for the row-wise fast path."""
    dev = np.abs(dev)
    zero = se == 0
    ratio = np.zeros(np.broadcast_shapes(dev.shape, np.shape(se)))
    np.divide(dev, se, out=ratio, where=~zero)
    return ratio.max(axis=-1, initial=0.0), np.any(zero & (dev != 0), axis=-1)


# zeros, NaN, cells whose ratio overflows or underflows, and (in se) -0.0
# and negative values, whose ratio is -inf or negative under the maximum
_DEV_CELLS = st.one_of(st.floats(-1e3, 1e3),
                       st.sampled_from([0.0, -0.0, np.nan, 1e300, -1e308, 1e-300]))
_SE_CELLS = st.one_of(st.floats(1e-3, 1e3),
                      st.sampled_from([0.0, -0.0, np.nan, 1e-300, 5e-324, 1e300, -1.0]))


# one case per row: se == 0 under zero and under nonzero dev, NaN dev, an
# overflowing ratio, se = 1e-300 beside a NaN se, and -0.0 se
_SPECIAL_CELLS = (
    np.array([[0.0, 1.0, -2.0], [3.0, 0.0, 1.0], [np.nan, 1.0, 1.0],
              [1e300, 1.0, 1.0], [1.0, 2.0, 3.0], [5.0, 0.0, 1.0]]),
    np.array([[0.0, 1.0, 2.0], [0.0, 4.0, 1.0], [1.0, 1.0, 1.0],
              [1e-300, 1.0, 1.0], [1e-300, 1.0, np.nan], [-0.0, 0.0, 1.0]]),
)


@st.composite
def _dev_and_se(draw):
    rows, cells = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    dev = draw(hnp.arrays(float, (rows, cells), elements=_DEV_CELLS))
    se_shape = draw(st.sampled_from([(rows, cells), (cells,)]))
    return dev, draw(hnp.arrays(float, se_shape, elements=_SE_CELLS))


class TestStudentizedMax:
    def test_row_maxima_and_flags(self):
        dev = np.array([[1.0, -3.0, 0.0], [2.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
        se = np.array([[1.0, 2.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        stats, degenerate = _studentized_max(dev, se)
        np.testing.assert_array_equal(stats, [1.5, 0.5, 0.0])
        np.testing.assert_array_equal(degenerate, [False, True, False])

    def test_se_broadcasts_over_rows(self):
        stats, degenerate = _studentized_max(np.array([[2.0, 1.0], [-6.0, 0.0]]),
                                             np.array([2.0, 0.0]))
        np.testing.assert_array_equal(stats, [1.0, 3.0])
        np.testing.assert_array_equal(degenerate, [True, False])

    def test_empty_axis_gives_zero(self):
        stats, degenerate = _studentized_max(np.zeros((3, 0)), np.zeros(0))
        np.testing.assert_array_equal(stats, np.zeros(3))
        assert not degenerate.any()

    @settings(max_examples=400, deadline=None)
    @given(_dev_and_se())
    @example(_SPECIAL_CELLS)
    @example((_SPECIAL_CELLS[0], np.array([0.0, 1e-300, 2.0])))
    @example((_SPECIAL_CELLS[0], np.array([-0.0, 1.0, 1.0])))
    def test_matches_masked_reference_bit_for_bit(self, case):
        dev, se = case
        with np.errstate(all="ignore"):
            stats, degenerate = _studentized_max(dev, se)
            want_stats, want_degenerate = _studentized_max_masked(dev, se)
        assert np.array_equal(stats, want_stats, equal_nan=True)
        assert stats.tobytes() == want_stats.tobytes()
        np.testing.assert_array_equal(degenerate, want_degenerate)

    def test_finite_rows_skip_the_masked_rule(self, monkeypatch):
        seen = []

        def spy(dev, se):
            seen.append((dev.copy(), se.copy()))
            return zero_se_rule(dev, se)

        zero_se_rule = core._zero_se_rule
        monkeypatch.setattr(core, "_zero_se_rule", spy)
        dev = np.array([[1.0, -3.0], [2.0, 4.0], [1.0, 5.0], [np.nan, 1.0]])
        se = np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 4.0], [1.0, 1.0]])
        stats, degenerate = _studentized_max(dev, se)
        # rows 1 (se == 0 under a nonzero dev) and 3 (NaN) alone are recomputed
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][0], dev[[1, 3]])
        np.testing.assert_array_equal(seen[0][1], se[[1, 3]])
        np.testing.assert_array_equal(stats, [1.5, 4.0, 1.25, np.nan])
        np.testing.assert_array_equal(degenerate, [False, True, False, False])
        assert stats.tobytes() == _studentized_max_masked(dev, se)[0].tobytes()


def _expit_two_branch(x):
    """The masked two-branch logistic, kept here as the reference."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _expit_where(x):
    """The np.where form of _expit, kept as the byte-level reference: the
    band loader rebuilds logit limits through _expit, so no bit may move."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def test_expit_matches_two_branch_reference(rng):
    special = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan, np.copysign(np.nan, -1.0),
                        800.0, -800.0, 745.2, -745.2, 1e-320, -1e-320, 5e-324, -5e-324])
    x = np.concatenate([special, rng.uniform(-800, 800, 5000), rng.standard_normal(5000)])
    got = _expit(x)
    np.testing.assert_array_equal(got, _expit_two_branch(x))
    assert got.tobytes() == _expit_where(x).tobytes()
    grid = x[:10000].reshape(100, 100)
    np.testing.assert_array_equal(_expit(grid), _expit_two_branch(grid))
    for view in (grid[::3, ::-2], grid.T):
        assert not view.flags.c_contiguous
        assert _expit(view).tobytes() == _expit_where(view).tobytes()
    for v in special:
        for scalar in (float(v), np.float64(v), np.array(v)):
            got, want = _expit(scalar), _expit_where(scalar)
            assert type(got) is type(want) and np.ndim(got) == 0
            assert got.tobytes() == want.tobytes()


class TestDomain:
    def test_coords_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Domain.grid1d([0.0, 0.0, 1.0])

    def test_labels_unique(self):
        with pytest.raises(ValueError, match="unique"):
            Domain.discrete(["a", "a"])

    def test_mask_shape_and_nonempty(self):
        with pytest.raises(ValueError, match="shape"):
            Domain.grid2d([0.0, 1], [0.0, 1], mask=np.ones((3, 2), bool))
        with pytest.raises(ValueError, match="excludes every cell"):
            Domain.grid2d([0.0, 1], [0.0, 1], mask=np.zeros((2, 2), bool))


class TestImmutable:
    """Bands and domains keep read-only copies: every object that exists has
    passed its checks, and a caller's arrays are neither frozen nor shared."""

    def test_band_and_domain_arrays_read_only(self, rng):
        band = random_band(rng, "grid2d", masked=True)
        d = Domain.grid2d(np.arange(3.0), np.arange(2.0), mask=np.ones((3, 2), bool))
        for arr in (band.scb_low, band.se, d.coords1, d.mask):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_caller_arrays_stay_writeable_and_unshared(self, rng):
        t, x, y = np.arange(4.0), np.arange(3.0), np.arange(2.0)
        mask = np.array([[True, False], [True, True], [True, True]])
        eta, se = rng.standard_normal(4), rng.uniform(0.5, 1.0, 4)
        line, grid = Domain.grid1d(t), Domain.grid2d(x, y, mask=mask)
        band = assemble_band(eta, se, 2.0, 1.0, 0.05, line)
        text = band_to_json(band)
        for arr in (t, x, y, mask, eta, se):
            arr[0] = arr[1]
        assert band_to_json(band) == text
        assert line.coords1[0] == 0.0 and grid.coords1[0] == 0.0 and grid.coords2[0] == 0.0
        assert not grid.mask[0, 1]


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
class TestCopies:
    """A pickled or deep-copied band or domain is built again through its
    constructor, so it keeps read-only arrays and limits derived from its
    fields."""

    def test_band_copy_is_equal_and_read_only(self, rng, clone):
        logit = assemble_band(rng.uniform(0.05, 0.95, 7), rng.uniform(0.0, 1.0, 7), 2.0, 1.0,
                              0.05, Domain.grid1d(np.arange(7.0)), link="logit")
        for band in [random_band(rng, "grid1d"), random_band(rng, "grid2d", masked=True),
                     random_band(rng, "discrete"), logit]:
            twin = clone(band)
            assert band_to_json(twin) == band_to_json(band)
            for name in ("eta_hat", "se", "scb_low", "scb_up"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(twin, name)[0] = 99.0
            for arr in (twin.domain.coords1, twin.domain.coords2, twin.domain.mask):
                if arr is not None:
                    assert not arr.flags.writeable

    def test_domain_copy_is_equal_and_read_only(self, clone):
        mask = np.array([[True, False], [True, True], [True, True]])
        d = Domain.grid2d(np.arange(3.0), [0.5, 2.0], mask=mask)
        twin = clone(d)
        assert twin.kind == "grid2d" and twin.shape == (3, 2)
        for got, want in ((twin.coords1, d.coords1), (twin.coords2, d.coords2), (twin.mask, mask)):
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable
        assert clone(Domain.discrete(["a", "b"])).labels == ("a", "b")

    def test_copy_is_checked_again(self, rng, clone, monkeypatch):
        # the copy goes through the constructor: its band rules run again
        band = random_band(rng, "grid1d")
        calls = []
        validate = core.SCBand.validate
        monkeypatch.setattr(core.SCBand, "validate", lambda b: calls.append(b) or validate(b))
        twin = clone(band)
        assert len(calls) == 1 and calls[0] is twin


class TestBandJson:
    def test_round_trip_identity(self, rng):
        for kind in ("grid1d", "grid2d", "discrete"):
            band = random_band(rng, kind, masked=(kind == "grid2d"))
            text = band_to_json(band)
            again = band_to_json(band_from_json(text))
            assert text == again

    def test_masked_cells_null(self, rng):
        band = random_band(rng, "grid2d", masked=True)
        if band.domain.mask is not None and not band.domain.mask.all():
            assert "null" in band_to_json(band)

    def test_fields_match_per_cell_emitter(self, rng):
        # fields go to the emitter as raw arrays; NaN cells must still be null
        band = random_band(rng, "grid2d", max_side=12, masked=True)
        text = band_to_json(band)
        for name in ("eta_hat", "se", "scb_low", "scb_up"):
            cells = [None if np.isnan(v) else float(v) for v in getattr(band, name).ravel()]
            assert f'"{name}": ' + emit_json(cells).rstrip("\n") in text

    def test_reconstruction_checked_on_load(self, rng):
        band = random_band(rng, "grid1d")
        text = band_to_json(band)
        import json

        doc = json.loads(text)
        doc["scb_low"][0] = doc["scb_low"][0] - 1.0
        with pytest.raises(ValueError, match="reconstruction"):
            band_from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["domain", "shape", "eta_hat", "se", "q_alpha",
                                      "alpha", "scb_low", "scb_up"])
    def test_missing_field_named(self, rng, name):
        import json

        doc = json.loads(band_to_json(random_band(rng, "grid1d", max_len=20)))
        del doc[name]
        with pytest.raises(ValueError, match=f"'{name}'"):
            band_from_json(json.dumps(doc))

    def test_unknown_domain_kind_rejected(self, rng):
        # a grid2d band relabelled grid3d used to load as grid2d
        import json

        doc = json.loads(band_to_json(random_band(rng, "grid2d", max_side=5)))
        doc["domain"]["kind"] = "grid3d"
        with pytest.raises(ValueError, match="'kind'.*'grid3d'"):
            band_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field, value, named", [
        ("alpha", None, "'alpha'"),
        ("q_alpha", "1.5", "'q_alpha'"),
        ("link", 3, "'link'"),
        ("eta_hat", [0.0], "'eta_hat'"),
        ("se", ["a"] * 20, "'se'"),
        ("domain", {"kind": "grid1d", "coords1": "0,1"}, "'coords1'"),
        ("domain", {"kind": "grid1d", "coords1": list(range(20)), "mask": [True]}, "'mask'"),
        ("domain", {"kind": 7}, "'kind'"),
    ])
    def test_malformed_field_named(self, field, value, named):
        import json

        band = assemble_band(np.zeros(20), np.ones(20), 2.0, 1.0, 0.05,
                             Domain.grid1d(np.arange(20.0)))
        doc = json.loads(band_to_json(band))
        doc[field] = value
        with pytest.raises(ValueError, match=named):
            band_from_json(json.dumps(doc))

    def test_negative_zero_round_trips(self):
        # "-0" is a JSON integer; it used to load as +0 and save as "0"
        band = assemble_band(np.array([-0.0, 1.0]), np.zeros(2), 0.0, 1.0, 0.05,
                             Domain.grid1d([-0.0, 1.0]))
        text = band_to_json(band)
        assert '"eta_hat": [-0, 1]' in text
        assert band_to_json(band_from_json(text)) == text

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="band must be a JSON object"):
            band_from_json("[1, 2]")


_finite_or_nan = st.floats(allow_infinity=False)


class TestJsonProperties:
    @given(bands())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_band_round_trip_byte_identical(self, band):
        text = band_to_json(band)
        back = band_from_json(text)
        assert band_to_json(back) == text
        for name in ("eta_hat", "se", "scb_low", "scb_up"):
            assert np.array_equal(getattr(back, name), getattr(band, name), equal_nan=True)

    @given(
        hnp.arrays(float, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                   elements=_finite_or_nan),
        hnp.arrays(np.int64, st.integers(0, 20)),
        hnp.arrays(bool, st.integers(0, 20)),
        st.lists(_finite_or_nan | st.integers() | st.booleans() | st.none() | st.text(),
                 max_size=8),
        _finite_or_nan,
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_emitter_matches_per_element_oracle(self, floats, ints, flags, mixed, scalar):
        doc = {"floats": floats, "ints": ints, "flags": flags, "mixed": mixed,
               "scalar": scalar, "np_scalar": np.float64(scalar), "nested": {"t": (1, None)}}
        assert emit_json(doc) == per_element_json(doc) + "\n"

    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40)),
           st.integers(2, 5), st.booleans())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_bool_arrays_match_per_element_oracle(self, flags, step, scalar):
        # 2-D arrays go row by row; strided, reversed and transposed views
        # are not contiguous
        wide = np.atleast_1d(flags)
        doc = {"flags": flags, "strided": wide[..., ::step], "reversed": wide[..., ::-1],
               "transposed": wide.T, "zero_d": np.array(scalar), "np_scalar": np.bool_(scalar)}
        assert emit_json(doc) == per_element_json(doc) + "\n"

    @pytest.mark.parametrize("size", [2047, 3600, 5001])
    def test_large_bool_arrays_match_per_element_oracle(self, rng, size):
        flags = rng.random(size) < 0.4
        doc = {"flags": flags, "strided": flags[1::3], "reversed": flags[::-1],
               "grid": flags[:size // 60 * 60].reshape(-1, 60),
               "all_true": np.ones(size, bool), "all_false": np.zeros(size, bool)}
        assert emit_json(doc) == per_element_json(doc) + "\n"

    def test_bool_bytes_other_than_0_and_1_read_as_true(self):
        # a bool view of raw bytes: every nonzero byte is True, as tolist says
        flags = np.array([0, 1, 2, 255, 0, 7], dtype=np.uint8).view(bool)
        doc = {"flags": flags, "strided": flags[::2], "grid": flags.reshape(2, 3)}
        assert emit_json(doc) == per_element_json(doc) + "\n"
        assert emit_json({"f": flags}) == '{"f": [false, true, true, true, false, true]}\n'

    def test_empty_and_zero_d_leaves_match_per_element_oracle(self):
        doc = {"bools": np.zeros(0, bool), "floats": np.zeros(0), "ints": np.zeros(0, np.int64),
               "rows": np.zeros((0, 3), bool), "empty_rows": np.zeros((3, 0), bool),
               "float_rows": np.zeros((2, 0)), "true": np.array(True), "false": np.array(False),
               "bool_true": np.bool_(True), "bool_false": np.bool_(False),
               "float": np.array(-2.5), "nan": np.array(np.nan), "int": np.array(7),
               "np_int": np.int64(-3)}
        assert emit_json(doc) == per_element_json(doc) + "\n"

    def test_special_floats_match_per_element_oracle(self):
        values = np.array([np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                           2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
                           -1.7976931348623157e308, -np.nan, 0.1, 1.0, -1e16, 123456789.0])
        doc = {"values": values, "strided": values[::3], "reversed": values[::-1],
               "grid": values[:16].reshape(4, 4).T, "neg_zero": np.array(-0.0),
               "subnormal": np.float64(5e-324), "big": -1e308, "nan": float("nan")}
        assert emit_json(doc) == per_element_json(doc) + "\n"

    @given(hnp.arrays(float, st.integers(1, 30), elements=_finite_or_nan),
           st.data(), st.sampled_from([np.inf, -np.inf]))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_infinity_refused(self, values, data, inf):
        values[data.draw(st.integers(0, values.size - 1))] = inf
        with pytest.raises(ValueError, match="non-finite"):
            emit_json({"values": values})
        with pytest.raises(ValueError, match="non-finite"):
            emit_json({"value": float(inf)})


class TestRng:
    def test_substream_reproducible(self):
        a = substream(42, 7).standard_normal(5)
        b = substream(42, 7).standard_normal(5)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = substream(42, 1).standard_normal(5)
        b = substream(42, 2).standard_normal(5)
        assert not np.array_equal(a, b)
