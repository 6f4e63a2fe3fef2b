import json
import os
import warnings

import numpy as np
import pytest

from confbands.cli import main
from confbands.core import band_from_json, band_to_json
from conftest import ONE_CELL_FOSR_ERROR, one_cell_fosr, random_band


@pytest.fixture
def regression_files(tmp_path, rng):
    x1 = rng.standard_normal(80)
    x2 = rng.standard_normal(80)
    y = -1 + x1 + 0.5 * x1**2 - 1.1 * x1**3 - 0.5 * x2 + rng.standard_normal(80)
    data = tmp_path / "df.csv"
    rows = ["x1,x2,y"] + [f"{a},{b},{c}" for a, b, c in zip(x1, x2, y)]
    data.write_text("\n".join(rows) + "\n")
    grid = tmp_path / "grid.csv"
    g = np.linspace(-1, 1, 30)
    grid.write_text("x1,x2\n" + "\n".join(f"{v},{v}" for v in g) + "\n")
    return data, grid


def run(args):
    return main([str(a) for a in args])


class TestScbLinear:
    def test_writes_band_json(self, tmp_path, regression_files):
        data, grid = regression_files
        out = tmp_path / "band.json"
        code = run(["scb", "linear", "--data", data, "--model",
                    "y ~ x1 + I(x1^2) + I(x1^3) + x2", "--grid", grid,
                    "--nboot", 150, "--seed", 3, "--quiet", "--out", out])
        assert code == 0
        band = band_from_json(out.read_text())
        assert band.domain.shape == (30,)
        band.validate()

    def test_round_trip_byte_identity(self, tmp_path, regression_files):
        data, grid = regression_files
        out = tmp_path / "band.json"
        run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid",
             grid, "--nboot", 150, "--seed", 3, "--quiet", "--out", out])
        text = out.read_text()
        assert band_to_json(band_from_json(text)) == text

    def test_missing_model_usage_error(self, tmp_path, regression_files, capsys):
        data, grid = regression_files
        with pytest.raises(SystemExit) as exc:
            run(["scb", "linear", "--data", data, "--grid", grid])
        assert exc.value.code == 2

    def test_bad_formula_error_json(self, tmp_path, regression_files, capsys):
        data, grid = regression_files
        code = run(["scb", "linear", "--data", data, "--model", "y ~~ x1",
                    "--grid", grid, "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "parse_error"
        assert "context" in err and "message" in err

    @pytest.mark.parametrize("which", ["data", "grid"])
    def test_non_numeric_cell_named(self, tmp_path, regression_files, capsys, which):
        data, grid = regression_files
        path = data if which == "data" else grid
        lines = path.read_text().splitlines()
        lines[2] = "oops," + lines[2].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        code = run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid", grid,
                    "--nboot", 150, "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == f"{path} line 3, column 'x1': 'oops' is not a number"

    def test_overflowing_response_invalid_input(self, tmp_path, regression_files, capsys):
        # used to exit runtime_error "bootstrap exceeded the retry budget",
        # after overflow RuntimeWarnings
        data, grid = regression_files
        lines = data.read_text().splitlines()[:21]
        lines[5] = lines[5].rsplit(",", 1)[0] + ",1e160"
        data.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid", grid,
                        "--nboot", 100, "--quiet"])
        assert code == 1 and caught == []
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid_input"
        assert "response 'y'" in err["message"]

    def test_header_only_grid_boot_invalid_input(self, tmp_path, regression_files, capsys):
        data, grid = regression_files
        boot = tmp_path / "boot.csv"
        boot.write_text("x1,x2\n")
        code = run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid", grid,
                    "--grid-boot", boot, "--nboot", 150, "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "grid_boot must be nonempty"

    def test_missing_file_error_json(self, tmp_path, capsys):
        code = run(["scb", "linear", "--data", tmp_path / "nope.csv",
                    "--model", "y ~ x", "--grid", tmp_path / "nope.csv", "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "io_error"


class TestScbLogisticCoef:
    def test_logistic_band_probability_scale(self, tmp_path, rng):
        x = rng.standard_normal(100)
        p = 1 / (1 + np.exp(-x))
        y = (rng.random(100) < p).astype(float)
        data = tmp_path / "df.csv"
        data.write_text("x,y\n" + "\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
        grid = tmp_path / "grid.csv"
        grid.write_text("x\n" + "\n".join(str(v) for v in np.linspace(-1, 1, 15)) + "\n")
        out = tmp_path / "band.json"
        code = run(["scb", "logistic", "--data", data, "--model", "y ~ x",
                    "--grid", grid, "--nboot", 150, "--quiet", "--out", out])
        assert code == 0
        band = band_from_json(out.read_text())
        assert band.link == "logit"
        assert band.scb_low.min() > 0 and band.scb_up.max() < 1

    def test_coef_band(self, tmp_path, rng, regression_files):
        data, _ = regression_files
        out = tmp_path / "coef.json"
        code = run(["scb", "coef", "--data", data, "--model", "y ~ .",
                    "--nboot", 150, "--quiet", "--out", out])
        assert code == 0
        band = band_from_json(out.read_text())
        assert band.domain.labels == ("intercept", "x1", "x2")


class TestScbFosr:
    @pytest.fixture
    def fosr_csv(self, tmp_path, rng):
        n, T = 16, 12
        t = np.linspace(0, 1, T)
        x = (rng.random(n) < 0.5).astype(float)
        lines = ["id,time,outcome,use"]
        for i in range(n):
            curve = np.sin(2 * np.pi * t) * x[i] + rng.standard_normal(T) * 0.3
            for j in range(T):
                lines.append(f"s{i},{t[j]},{curve[j]},{x[i]}")
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("method", ["cma", "multiplier"])
    def test_fosr_band(self, tmp_path, fosr_csv, method):
        out = tmp_path / f"fosr_{method}.json"
        code = run(["scb", "fosr", "--data", fosr_csv, "--method", method,
                    "--fitted", "true", "--subset", "use=1", "--nboot", 300,
                    "--kbasis", 8, "--quiet", "--out", out])
        assert code == 0
        band = band_from_json(out.read_text())
        assert band.domain.shape == (12,)

    @pytest.mark.parametrize("method", ["cma", "multiplier"])
    def test_fosr_band_with_missing_outcomes(self, tmp_path, fosr_csv, method):
        # NA cells in every other subject: both methods calibrate from the
        # fit's leave-one-out contributions, with no imputation
        lines = fosr_csv.read_text().splitlines()
        for k in range(1, len(lines), 5):
            if int(lines[k].split(",")[0][1:]) % 2:
                fields = lines[k].split(",")
                fields[2] = "NA"
                lines[k] = ",".join(fields)
        assert sum(",NA," in line for line in lines) > 10
        data = tmp_path / "long_na.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / f"fosr_na_{method}.json"
        code = run(["scb", "fosr", "--data", data, "--method", method,
                    "--fitted", "true", "--subset", "use=1", "--nboot", 300,
                    "--kbasis", 8, "--quiet", "--out", out])
        assert code == 0
        band = band_from_json(out.read_text())
        assert band.domain.shape == (12,)
        assert np.all(np.isfinite(band.scb_low)) and np.all(band.scb_up > band.scb_low)

    @pytest.mark.parametrize("k_basis", [4, 6])
    def test_singular_score_block_invalid_input(self, tmp_path, capsys, k_basis):
        data = one_cell_fosr()
        lines = ["id,time,outcome,x"] + [
            f"{sid},{t!r},{v!r},{x!r}"
            for sid, row, x in zip(data.ids, data.outcomes.tolist(), data.covariates["x"].tolist())
            for t, v in zip(data.times.tolist(), row) if not np.isnan(v)
        ]
        path = tmp_path / "one_cell.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run(["scb", "fosr", "--data", path, "--kbasis", k_basis, "--nboot", 50,
                    "--quiet", "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == ONE_CELL_FOSR_ERROR

    def test_conflicting_subject_covariate_invalid_input(self, tmp_path, fosr_csv, capsys):
        # a NaN covariate on one row of s0 used to be ignored, exiting 0
        lines = fosr_csv.read_text().splitlines()
        assert lines[1].startswith("s0,")
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
        bad = tmp_path / "conflict.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = run(["scb", "fosr", "--data", bad, "--nboot", 50, "--kbasis", 8, "--quiet",
                    "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert "'s0'" in err["message"] and "'use'" in err["message"]

    def test_constant_covariate_invalid_input(self, tmp_path, fosr_csv, capsys):
        # every covariate of the CSV is fitted; a constant one, collinear
        # with the intercept, used to fit with an inflated cov_coef
        lines = fosr_csv.read_text().splitlines()
        bad = tmp_path / "constant.csv"
        bad.write_text("\n".join([lines[0] + ",site"] + [line + ",3" for line in lines[1:]]) + "\n")
        code = run(["scb", "fosr", "--data", bad, "--nboot", 50, "--kbasis", 8, "--quiet",
                    "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "design is rank deficient; collinear columns: intercept, site"

    def test_non_finite_subset_invalid_input(self, tmp_path, fosr_csv, capsys):
        # used to fail in the draws as "non-finite statistic"
        code = run(["scb", "fosr", "--data", fosr_csv, "--subset", "use=nan", "--nboot", 50,
                    "--kbasis", 8, "--quiet", "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "subset value of 'use' must be finite, got nan"

    def test_repeated_subset_name_invalid_input(self, tmp_path, fosr_csv, capsys):
        # used to band the mean at use = 3 without a word
        code = run(["scb", "fosr", "--data", fosr_csv, "--subset", "use=1,use=2", "--nboot", 50,
                    "--kbasis", 8, "--quiet", "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "subset variable 'use' is given more than once"
        assert not (tmp_path / "band.json").exists()

    @pytest.mark.parametrize("method", ["cma", "multiplier"])
    def test_zero_nboot_invalid_input(self, tmp_path, fosr_csv, capsys, monkeypatch, method):
        # --nboot 0 used to run the method's default number of draws, and
        # then to be refused only after the CSV was loaded and fit
        def no_fit(*args, **kwargs):
            raise AssertionError("data read before --nboot was checked")

        monkeypatch.setattr("confbands.cli._load_fosr_csv", no_fit)
        monkeypatch.setattr("confbands.functional.fit_fosr", no_fit)
        code = run(["scb", "fosr", "--data", fosr_csv, "--method", method, "--nboot", 0,
                    "--kbasis", 8, "--quiet", "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "n_boot must be at least 1, got 0"

    @pytest.mark.parametrize("pve", ["nan", "2", "0", "-1"])
    def test_nonsense_pve_invalid_input(self, tmp_path, fosr_csv, capsys, pve):
        code = run(["scb", "fosr", "--data", fosr_csv, "--pve", pve, "--nboot", 50,
                    "--kbasis", 8, "--quiet", "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == f"--pve must lie in (0, 1], got {float(pve)}"

    def test_repeated_record_invalid_input(self, tmp_path, fosr_csv, capsys):
        # a second outcome for s0 at its first time used to replace the first
        lines = fosr_csv.read_text().splitlines()
        assert lines[1].startswith("s0,")
        fields = lines[1].split(",")
        fields[2] = "99"
        bad = tmp_path / "repeated.csv"
        bad.write_text("\n".join(lines + [",".join(fields)]) + "\n")
        code = run(["scb", "fosr", "--data", bad, "--nboot", 50, "--kbasis", 8, "--quiet",
                    "--out", tmp_path / "band.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == f"subject 's0' has more than one record at time {float(fields[1])!r}"

    def test_missing_required_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,time,outcome\na,0,1\n")
        code = run(["scb", "fosr", "--data", bad, "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "id" in err["message"]

    @pytest.mark.parametrize("damage, named", [
        (lambda lines: lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:], "line 6: 3 cells"),
        (lambda lines: lines[:3] + ["s1,0.5,abc,1"] + lines[4:], "line 4, column 'outcome'"),
        (lambda lines: lines[:3] + ["s1,soon,1,1"] + lines[4:], "line 4, column 'time'"),
        (lambda lines: ["id,time,outcome,id"] + lines[1:], "column names must be unique"),
    ])
    def test_malformed_csv_invalid_input(self, tmp_path, fosr_csv, capsys, damage, named):
        # a short row used to exit as runtime_error "list index out of range"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(damage(fosr_csv.read_text().splitlines())) + "\n")
        code = run(["scb", "fosr", "--data", bad, "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert str(bad) in err["message"] and named in err["message"]


class TestScbGls:
    @pytest.fixture
    def gls_files(self, tmp_path, rng):
        nx, ny, n_obs = 5, 4, 30
        x = np.arange(nx, dtype=float)
        y = np.arange(ny, dtype=float)
        group = np.repeat([0.0, 1.0], n_obs // 2)
        X = np.column_stack([group, np.ones(n_obs)])
        beta1 = rng.standard_normal((nx, ny))
        cube = (
            np.einsum("op,pxy->oxy", X, np.stack([beta1, np.ones((nx, ny))]))
            + rng.standard_normal((n_obs, nx, ny)) * 0.4
        )
        np.save(tmp_path / "cube.npy", cube)
        header = {
            "x": x.tolist(), "y": y.tolist(),
            "shape": [n_obs, nx, ny], "mask": None, "cube": "cube.npy",
        }
        hpath = tmp_path / "spatial.json"
        hpath.write_text(json.dumps(header))
        dpath = tmp_path / "design.csv"
        dpath.write_text("\n".join(f"{a},{b}" for a, b in X) + "\n")
        return hpath, dpath

    def test_gls_band(self, tmp_path, gls_files):
        hpath, dpath = gls_files
        out = tmp_path / "gls.json"
        code = run(["scb", "gls", "--data", hpath, "--design", dpath,
                    "--w", "1,0", "--correlation", "ar1", "--rho", "0.3",
                    "--nboot", 200, "--alpha", "0.1", "--quiet", "--out", out])
        assert code == 0
        band = band_from_json(out.read_text())
        assert band.domain.kind == "grid2d"
        assert band.alpha == 0.1

    @pytest.mark.parametrize("mutate, named", [
        (lambda h: {k: v for k, v in h.items() if k != "x"}, "'x'"),
        (lambda h: [h], "spatial header must be a JSON object"),
        (lambda h: {**h, "mask": [True] * 19}, "'mask'"),
        (lambda h: {**h, "shape": [30, 4, 5]}, "'shape'"),
        (lambda h: {**h, "x": [0.0, 2.0, 1.0, 3.0, 4.0]}, "x must be strictly increasing"),
    ])
    def test_malformed_header_invalid_input(self, tmp_path, gls_files, capsys, mutate, named):
        # each of these used to exit as runtime_error or with a numpy
        # reshape message that named no field
        hpath, dpath = gls_files
        header = json.loads(hpath.read_text())
        hpath.write_text(json.dumps(mutate(header)))
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--w", "1,0",
                    "--nboot", 200, "--quiet", "--out", tmp_path / "gls.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert named in err["message"]

    def test_csv_cube_with_header_row_invalid_input(self, tmp_path, rng, capsys):
        # a header row used to surface as numpy's "could not convert string
        # 'a' to float64", naming no file
        n_obs, nx, ny = 10, 3, 2
        cube = tmp_path / "cube.csv"
        cube.write_text("a,b\n" + "\n".join(
            ",".join(map(repr, row)) for row in rng.standard_normal((n_obs * nx, ny))) + "\n")
        hpath = tmp_path / "spatial.json"
        hpath.write_text(json.dumps({"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0],
                                     "shape": [n_obs, nx, ny], "cube": "cube.csv"}))
        dpath = tmp_path / "design.csv"
        dpath.write_text("\n".join(f"{i % 2}.0,1.0" for i in range(n_obs)) + "\n")
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--w", "1,0",
                    "--nboot", 200, "--quiet", "--out", tmp_path / "gls.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert str(cube) in err["message"] and "comma-separated numbers" in err["message"]

    @pytest.mark.parametrize("extra, named", [
        (["--w", "1,,0"], "--w must be comma-separated numbers, got '1,,0'"),
        (["--w", "inf,0"], "w must be finite"),
        (["--w", "1,0", "--correlation", "none", "--rho", "0.4"], "correlation kind 'none' takes no rho"),
        (["--w", "1,0", "--alpha", "1.5"], "alpha must lie in (0, 1), got 1.5"),
    ], ids=["w_empty_cell", "w_inf", "none_with_rho", "alpha_above_one"])
    def test_refused_option_invalid_input(self, tmp_path, gls_files, capsys, extra, named):
        hpath, dpath = gls_files
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--nboot", 200, "--quiet",
                    "--out", tmp_path / "gls.json"] + extra)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == named

    def test_zero_nboot_invalid_input(self, tmp_path, gls_files, capsys, monkeypatch):
        hpath, dpath = gls_files

        def no_fit(*args, **kwargs):
            raise AssertionError("fit before n_boot was checked")

        monkeypatch.setattr("confbands.geospatial.fit_gls_grid", no_fit)
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--w", "1,0",
                    "--nboot", 0, "--quiet", "--out", tmp_path / "gls.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "n_boot must be at least 1, got 0"

    def test_unreadable_design_names_file(self, tmp_path, gls_files, capsys):
        hpath, dpath = gls_files
        dpath.write_text("a,b\n" + dpath.read_text())  # a header without --design-header 1
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--w", "1,0",
                    "--nboot", 200, "--quiet", "--out", tmp_path / "gls.json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"].startswith(f"--design file {str(dpath)!r} must hold "
                                         "comma-separated numbers: ")
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--design-header", 1,
                    "--w", "1,0", "--nboot", 200, "--quiet", "--out", tmp_path / "gls.json"])
        assert code == 0

    @pytest.mark.parametrize("correlation", [["ar1"], ["ar1", "--rho", "0.3"], ["none"]],
                             ids=["ar1_estimated", "ar1", "none"])
    def test_non_finite_design_invalid_input(self, tmp_path, gls_files, capsys, correlation):
        hpath, dpath = gls_files
        rows = dpath.read_text().splitlines()
        rows[4] = "nan," + rows[4].split(",")[1]
        dpath.write_text("\n".join(rows) + "\n")
        code = run(["scb", "gls", "--data", hpath, "--design", dpath, "--w", "1,0", "--nboot", 200,
                    "--quiet", "--out", tmp_path / "gls.json", "--correlation"] + correlation)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"] == "design must be finite"


class TestInvert:
    @pytest.fixture
    def band_file(self, tmp_path, rng, regression_files):
        data, grid = regression_files
        out = tmp_path / "band.json"
        run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid",
             grid, "--nboot", 150, "--seed", 3, "--quiet", "--out", out])
        return out

    def test_upper_levels(self, tmp_path, band_file):
        out = tmp_path / "regions.json"
        code = run(["invert", "--band", band_file, "--type", "upper",
                    "--levels=-0.3,0,0.3", "--quiet", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["levels"] == [-0.3, 0, 0.3]
        assert len(doc["inner"]) == 3

    def test_interval_low_above_up_exit_2(self, band_file):
        with pytest.raises(SystemExit) as exc:
            run(["invert", "--band", band_file, "--type", "interval",
                 "--levels", "2:1", "--quiet"])
        assert exc.value.code == 2

    def test_containment_summary(self, tmp_path, band_file, capsys):
        band = band_from_json(band_file.read_text())
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(band.eta_hat.tolist()))
        out = tmp_path / "regions.json"
        code = run(["invert", "--band", band_file, "--levels", "0",
                    "--true-mean", truth, "--quiet", "--out", out])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["contain_all"] is True

    def test_malformed_band_rejected(self, tmp_path, band_file, capsys):
        doc = json.loads(band_file.read_text())
        doc["scb_up"][0] += 1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["invert", "--band", bad, "--levels", "0", "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "reconstruction" in err["message"]

    @pytest.mark.parametrize("mutate, named", [
        (lambda d: d.pop("q_alpha"), "'q_alpha'"),
        (lambda d: d["domain"].__setitem__("kind", "grid3d"), "'kind'"),
    ])
    def test_malformed_band_invalid_input(self, tmp_path, band_file, capsys, mutate, named):
        doc = json.loads(band_file.read_text())
        mutate(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run(["invert", "--band", bad, "--levels", "0", "--quiet"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert named in err["message"]


class TestPlotCommand:
    def test_plot_writes_svg(self, tmp_path, rng, regression_files):
        data, grid = regression_files
        band_path = tmp_path / "band.json"
        run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid",
             grid, "--nboot", 150, "--seed", 4, "--quiet", "--out", band_path])
        out = tmp_path / "plot.svg"
        code = run(["plot", "--band", band_path, "--levels=-0.5,0.5",
                    "--quiet", "--out", out])
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_per_level_emits_n_files(self, tmp_path, rng, regression_files):
        data, grid = regression_files
        band_path = tmp_path / "band.json"
        run(["scb", "linear", "--data", data, "--model", "y ~ x1", "--grid",
             grid, "--nboot", 150, "--seed", 4, "--quiet", "--out", band_path])
        out = tmp_path / "p.svg"
        code = run(["plot", "--band", band_path, "--levels=-0.5,0,0.5",
                    "--per-level", "--quiet", "--out", out])
        assert code == 0
        files = sorted(os.listdir(tmp_path))
        assert [f for f in files if f.startswith("p_L")] == ["p_L1.svg", "p_L2.svg", "p_L3.svg"]

    @pytest.mark.parametrize("kind", ["grid1d", "grid2d"])
    def test_non_finite_level_exit_2(self, tmp_path, rng, kind):
        band_path = tmp_path / "band.json"
        band_path.write_text(band_to_json(random_band(rng, kind, max_len=20, max_side=6)))
        out = tmp_path / "p.svg"
        with pytest.raises(SystemExit) as exc:
            run(["plot", "--band", band_path, "--levels", "inf", "--quiet", "--out", out])
        assert exc.value.code == 2
        assert not out.exists()


class TestSimulateCommand:
    def test_coverage_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["simulate", "coverage", "--design", "linear_outcome",
                    "--n", 50, "--reps", 3, "--nboot", 100, "--seed", 1,
                    "--quiet", "--out", out])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["replicates"] == 3
        assert len(doc["contained"]) == 3

    @pytest.mark.parametrize("extra, named", [(["--design", "linear_coef", "--nboot", 5], "n_boot"),
                                              (["--design", "fosr", "--nboot", 0], "n_boot"),
                                              (["--design", "linear_outcome", "--alpha", 0], "alpha")])
    def test_bad_input_invalid_input_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                    extra, named):
        # each used to exit 0 with coverage 0 and every replicate failed
        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the input was checked")

        monkeypatch.setattr("confbands.functional.fit_fosr", no_fit)
        monkeypatch.setattr("confbands.simulate.generate", no_fit)
        out = tmp_path / "report.json"
        code = run(["simulate", "coverage", *extra, "--n", 20, "--reps", 2, "--quiet",
                    "--out", out])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "invalid_input"
        assert err["message"].startswith(named + " must")
        assert not out.exists()
