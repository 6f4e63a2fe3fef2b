"""Malformed band, region, spatial-header and CSV input through ``cli.main``.

Whatever the damage, the CLI must answer with a usage error (exit 2) or a
JSON error naming a handled class (exit 1): never ``runtime_error``, never an
uncaught exception. A mutation that leaves the input valid may succeed.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from confbands.cli import main
from confbands.core import Domain, assemble_band, band_to_json
from confbands.regions import ThresholdSpec, invert_levels, regions_to_json

FUZZ = settings(max_examples=60, derandomize=True, deadline=None)

HANDLED = {"invalid_input", "parse_error", "io_error"}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _band_doc(kind):
    if kind == "grid2d":
        mask = np.ones((4, 3), dtype=bool)
        mask[0, 0] = False
        domain = Domain.grid2d(np.arange(4.0), np.arange(3.0), mask=mask)
    elif kind == "grid1d":
        domain = Domain.grid1d(np.linspace(0.0, 1.0, 6))
    else:
        domain = Domain.discrete(["a", "b", "c"])
    eta = np.linspace(-1.0, 1.0, domain.size).reshape(domain.shape)
    band = assemble_band(eta, np.full(domain.shape, 0.3), 2.0, 1.0, 0.05, domain)
    return json.loads(band_to_json(band)), band


BANDS = {kind: _band_doc(kind) for kind in ("grid1d", "grid2d", "discrete")}


def _regions_doc():
    _, band = BANDS["grid2d"]
    text = regions_to_json(invert_levels(band, ThresholdSpec("two_sided", (0.0, 0.5))), band.domain)
    return json.loads(text)


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one field (at the top level or one below)
    deleted or replaced by an arbitrary JSON value, or an arbitrary JSON
    value in its place."""
    doc = json.loads(json.dumps(doc))
    choice = draw(st.sampled_from(["replace", "delete", "nested", "whole"]))
    if choice == "whole":
        return draw(json_values)
    key = draw(st.sampled_from(sorted(doc)))
    if choice == "delete":
        del doc[key]
    elif choice == "nested" and isinstance(doc[key], (dict, list)) and doc[key]:
        inner = doc[key]
        sub = draw(st.sampled_from(sorted(inner) if isinstance(inner, dict) else range(len(inner))))
        inner[sub] = draw(json_values)
    else:
        doc[key] = draw(json_values)
    return doc


def _dumps(doc, cut):
    text = json.dumps(doc)
    return text[:cut] if cut is not None else text


def run_cli(argv):
    """(exit code, error JSON or None) of one CLI call."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code, None
    lines = err.getvalue().strip().splitlines()
    return code, (json.loads(lines[-1]) if code == 1 else None)


def band_cli(tmp, text, command="invert"):
    path = os.path.join(tmp, "band.json")
    with open(path, "w") as fh:
        fh.write(text)
    if command == "invert":
        return run_cli(["invert", "--band", path, "--type", "two_sided", "--levels", "0,0.5",
                        "--out", os.path.join(tmp, "regions.json"), "--quiet"])
    return run_cli(["plot", "--band", path, "--levels", "0", "--out", os.path.join(tmp, "p.svg"),
                    "--quiet"])


def truth_cli(tmp, text):
    band, path = os.path.join(tmp, "band.json"), os.path.join(tmp, "truth.json")
    with open(band, "w") as fh:
        json.dump(BANDS["grid2d"][0], fh)
    with open(path, "w") as fh:
        fh.write(text)
    return run_cli(["invert", "--band", band, "--levels", "0", "--true-mean", path,
                    "--out", os.path.join(tmp, "regions.json"), "--quiet"])


def _spatial_header():
    rng = np.random.default_rng(5)
    values = 1.0 + rng.standard_normal((12, 3, 2))
    return {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0], "shape": [12, 3, 2],
            "mask": [True, True, False, True, True, True], "values": values.ravel().tolist()}


def gls_cli(tmp, text):
    path, design = os.path.join(tmp, "spatial.json"), os.path.join(tmp, "design.csv")
    with open(path, "w") as fh:
        fh.write(text)
    with open(design, "w") as fh:
        fh.write("\n".join(f"1,{v}" for v in np.linspace(-1, 1, 12).tolist()) + "\n")
    return run_cli(["scb", "gls", "--data", path, "--design", design, "--w", "0,1",
                    "--correlation", "ar1", "--nboot", 20, "--quiet",
                    "--out", os.path.join(tmp, "band.json")])


def _regression_rows():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(20)
    y = 1 + x + rng.standard_normal(20)
    return [["x", "y"]] + [[str(a), str(b)] for a, b in zip(x.tolist(), y.tolist())]


GRID_ROWS = [["x"]] + [[str(v)] for v in np.linspace(-1, 1, 5).tolist()]


def _fosr_rows():
    rng = np.random.default_rng(7)
    rows = [["id", "time", "outcome", "use"]]
    for i in range(10):
        for t in np.linspace(0.0, 1.0, 6).tolist():
            rows.append([f"s{i}", str(t), str(i % 2 * t + 0.3 * rng.standard_normal()), str(i % 2)])
    return rows


def _write_csv(path, rows):
    # written by hand so that a damaged cell may break the CSV quoting
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(r) for r in rows) + "\n")


def linear_cli(tmp, rows, grid_rows):
    data, grid = os.path.join(tmp, "df.csv"), os.path.join(tmp, "grid.csv")
    _write_csv(data, rows)
    _write_csv(grid, grid_rows)
    return run_cli(["scb", "linear", "--data", data, "--model", "y ~ x", "--grid", grid,
                    "--nboot", 100, "--quiet", "--out", os.path.join(tmp, "band.json")])


def fosr_cli(tmp, rows):
    data = os.path.join(tmp, "long.csv")
    _write_csv(data, rows)
    return run_cli(["scb", "fosr", "--data", data, "--kbasis", 4, "--nboot", 50,
                    "--subset", "use=1", "--quiet", "--out", os.path.join(tmp, "b.json")])


def test_undamaged_inputs_run():
    # the fuzz below only means something if its starting inputs are valid
    with tempfile.TemporaryDirectory() as tmp:
        for kind in BANDS:
            for command in ("invert", "plot"):
                assert band_cli(tmp, json.dumps(BANDS[kind][0]), command) == (0, None)
        truth = np.zeros((4, 3)).tolist()
        assert truth_cli(tmp, json.dumps(truth)) == (0, None)
        assert gls_cli(tmp, json.dumps(_spatial_header())) == (0, None)
        assert linear_cli(tmp, _regression_rows(), GRID_ROWS) == (0, None)
        assert fosr_cli(tmp, _fosr_rows()) == (0, None)


def assert_handled(result):
    code, error = result
    assert code in (0, 1, 2), code
    if code == 1:
        assert error["error"] in HANDLED, error


class TestJsonFiles:
    @given(st.sampled_from(sorted(BANDS)).flatmap(lambda k: mutated(BANDS[k][0])),
           st.none() | st.integers(0, 400), st.sampled_from(["invert", "plot"]))
    @FUZZ
    def test_malformed_band(self, doc, cut, command):
        with tempfile.TemporaryDirectory() as tmp:
            assert_handled(band_cli(tmp, _dumps(doc, cut), command))

    @given(mutated(_regions_doc()), st.none() | st.integers(0, 400))
    @FUZZ
    def test_region_file_is_not_a_band(self, doc, cut):
        with tempfile.TemporaryDirectory() as tmp:
            code, error = band_cli(tmp, _dumps(doc, cut))
            assert code == 1 and error["error"] in HANDLED, error

    @given(json_values, st.none() | st.integers(0, 60))
    @FUZZ
    def test_malformed_truth(self, truth, cut):
        with tempfile.TemporaryDirectory() as tmp:
            assert_handled(truth_cli(tmp, _dumps(truth, cut)))

    @given(mutated(_spatial_header()), st.none() | st.integers(0, 300))
    @FUZZ
    def test_malformed_spatial_header(self, header, cut):
        with tempfile.TemporaryDirectory() as tmp:
            assert_handled(gls_cli(tmp, _dumps(header, cut)))


cells = st.text(max_size=8) | st.sampled_from(["", "NA", "nan", "inf", "-inf", "1e400", "x", "1,2"])


@st.composite
def damaged_rows(draw, rows):
    """``rows`` with one cell replaced, one cell dropped or one cell added."""
    rows = [list(r) for r in rows]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    action = draw(st.sampled_from(["replace", "drop", "add"]))
    if action == "replace":
        rows[i][j] = draw(cells)
    elif action == "drop":
        del rows[i][j]
    else:
        rows[i].insert(j, draw(cells))
    return rows


class TestCsvCells:
    @given(damaged_rows(_regression_rows()), damaged_rows(GRID_ROWS), st.booleans())
    @FUZZ
    def test_scb_linear(self, rows, grid_rows, damage_grid):
        with tempfile.TemporaryDirectory() as tmp:
            if damage_grid:
                assert_handled(linear_cli(tmp, _regression_rows(), grid_rows))
            else:
                assert_handled(linear_cli(tmp, rows, GRID_ROWS))

    @given(damaged_rows(_fosr_rows()))
    @FUZZ
    def test_scb_fosr(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            assert_handled(fosr_cli(tmp, rows))
