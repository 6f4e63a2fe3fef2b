"""Command-line surface: band construction, inversion, plotting, and
coverage simulation.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Errors are emitted
as one JSON object on stderr ({"error", "message", "context"}); stdout is
reserved for data when no --out file is given.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import functional, geospatial, plotting, regions, regression, simulate
from .core import (
    _json_bools, _json_field, _json_floats, _read_csv, band_from_json, band_to_json, emit_json,
)

__all__ = ["main", "build_parser"]


def _progress(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def _write_out(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_levels(text: str, set_type: str):
    if set_type == "interval":
        pairs = []
        for frag in text.split(","):
            lo, sep, hi = frag.partition(":")
            if not sep:
                raise ValueError(
                    f"interval level {frag!r} must be written low:up"
                )
            pairs.append((float(lo), float(hi)))
        return regions.ThresholdSpec("interval", tuple(pairs))
    levels = tuple(float(v) for v in text.split(","))
    return regions.ThresholdSpec(set_type, levels)


def _load_truth(path, shape):
    """The true mean in ``shape`` from a JSON array or a CSV of numbers
    (with or without a header row)."""
    try:
        if path.endswith(".json"):
            with open(path) as fh:
                vals = np.array(json.load(fh), dtype=float)
        else:
            with open(path, newline="") as fh:
                rows = [row for row in csv.reader(fh) if row]
            try:
                vals = np.array([[float(c) for c in row] for row in rows])
            except ValueError:  # header row
                vals = np.array([[float(c) for c in row] for row in rows[1:]])
        return vals.reshape(shape)
    except (TypeError, ValueError, csv.Error):
        raise ValueError(f"true mean file {path!r} must hold numbers of shape {shape}") from None


def _fosr_cell(name, text):
    if name == "id":
        return text
    if name != "time" and text.strip() in ("", "NA", "NaN", "nan"):
        return np.nan
    return float(text)


def _load_fosr_csv(path):
    """Long-format CSV with columns id, time, outcome, then covariates;
    an empty, NA or NaN outcome cell is a missing observation."""
    required = ("id", "time", "outcome")
    header, cols = _read_csv(path, _fosr_cell, required)
    covars = {n: cols[n] for n in header if n not in required}
    return functional.FunctionalDataset.from_long(cols["id"], cols["time"], cols["outcome"], covars)


def _load_spatial(header_path, mask_path=None):
    """JSON header (x, y, shape, mask, cube) plus a binary .npy or flat CSV
    cube in row-major (obs, x, y) order. A missing or malformed header field
    raises a ValueError naming it."""
    where = "spatial header"
    with open(header_path) as fh:
        head = json.load(fh)
    x, y = (_json_floats(_json_field(head, name, "array", where), f"{where} field {name!r}")
            for name in ("x", "y"))
    cube_ref = _json_field(head, "cube", "string", where, default="")
    if cube_ref:
        cube_path = os.path.join(os.path.dirname(os.path.abspath(header_path)), cube_ref)
        if cube_path.endswith(".npy"):
            cube = np.load(cube_path)
        else:
            try:
                cube = np.loadtxt(cube_path, delimiter=",").ravel()
            except ValueError as exc:
                raise ValueError(f"cube file {cube_path!r} must hold comma-separated numbers: "
                                 f"{exc}") from None
    else:
        try:
            cube = np.array(_json_field(head, "values", "array", where), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where} field 'values' must be an array of numbers") from exc
    shape = tuple(_json_field(head, "shape", "array", where, default=cube.shape))
    if (len(shape) != 3 or not all(type(v) is int and v > 0 for v in shape)
            or shape[1:] != (x.size, y.size) or np.prod(shape) != cube.size):
        raise ValueError(f"{where} field 'shape' must be [n_obs, {x.size}, {y.size}] "
                         f"and fit the {cube.size} cube values, got {list(shape)}")
    mask, what = head.get("mask"), f"{where} field 'mask'"
    if mask_path:
        with open(mask_path) as fh:
            mask, what = json.load(fh), f"mask file {mask_path!r}"
    if mask is not None:
        mask = _json_bools(mask, what, (x.size, y.size))
    return geospatial.SpatialObservations(x, y, cube.reshape(shape), mask)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_scb_mean(args):
    table = regression.Table.from_csv(args.data)
    spec = regression.parse_formula(args.model)
    grid = regression.Table.from_csv(args.grid)
    grid_boot = regression.Table.from_csv(args.grid_boot) if args.grid_boot else None
    _progress(args, f"fitting {args.model_kind} model and bootstrapping ({args.nboot} draws)")
    band = regression.scb_mean_bootstrap(
        table, spec, grid, family=args.model_kind, n_boot=args.nboot,
        alpha=args.alpha, grid_boot=grid_boot, seed=args.seed,
    )
    _write_out(args, band_to_json(band))


def _cmd_scb_coef(args):
    table = regression.Table.from_csv(args.data)
    spec = regression.parse_formula(args.model)
    _progress(args, f"bootstrapping coefficient band ({args.nboot} draws)")
    band = regression.scb_coef_bootstrap(
        table, spec, family=args.family, n_boot=args.nboot,
        alpha=args.alpha, seed=args.seed,
    )
    _write_out(args, band_to_json(band))


def _cmd_scb_fosr(args):
    if not 0.0 < args.pve <= 1.0:
        raise ValueError(f"--pve must lie in (0, 1], got {args.pve}")
    if args.nboot is not None and args.nboot < 1:
        raise ValueError(f"n_boot must be at least 1, got {args.nboot}")
    subset = functional.SubsetSpec.parse(args.subset)
    data = _load_fosr_csv(args.data)
    fit = functional.fit_fosr(data, k_basis=args.kbasis, pve=args.pve)
    target = "fitted_mean" if args.fitted == "true" else "coefficient"
    _progress(args, f"estimating {target} band by {args.method}")
    boot = {} if args.nboot is None else {"n_boot": args.nboot}  # else each method's default
    if args.method == "cma":
        band = functional.scb_cma(fit, subset, target, alpha=args.alpha, seed=args.seed, **boot)
    else:
        band = functional.scb_multiplier(
            data, fit, subset, target, alpha=args.alpha, weights=args.weights,
            sd_method=args.sd, seed=args.seed, **boot,
        )
    _write_out(args, band_to_json(band))


def _cmd_scb_gls(args):
    data = _load_spatial(args.data, args.mask)
    try:
        design = np.loadtxt(args.design, delimiter=",", skiprows=args.design_header)
    except ValueError as exc:
        raise ValueError(f"--design file {args.design!r} must hold comma-separated numbers: "
                         f"{exc}") from None
    if design.ndim == 1:
        design = design[:, None]
    try:
        w = np.asarray([float(v) for v in args.w.split(",")])
    except ValueError:
        raise ValueError(f"--w must be comma-separated numbers, got {args.w!r}") from None
    kind = {"ar1": "ar1", "compsymm": "comp_symm", "none": "none"}[args.correlation]
    corr = geospatial.CorrelationSpec(kind, rho=args.rho)
    _progress(args, f"fitting GLS at {int(data.domain.mask_array().sum())} spots")
    band = geospatial.scb_gls(
        data, design, w, corr, n_boot=args.nboot, alpha=args.alpha, seed=args.seed
    )
    _write_out(args, band_to_json(band))


def _cmd_invert(args, parser):
    with open(args.band) as fh:
        band = band_from_json(fh.read())
    try:
        spec = _parse_levels(args.levels, args.type)
    except ValueError as exc:
        parser.error(str(exc))
    region_list = regions.invert_levels(band, spec)
    _write_out(args, regions.regions_to_json(region_list, band.domain))
    if args.true_mean:
        truth = _load_truth(args.true_mean, band.domain.shape)
        summary = regions.check_containment(region_list, truth, band.domain)
        out = emit_json(
            {
                "contain_individual": [bool(v) for v in summary.contain_individual],
                "contain_all": summary.contain_all,
            }
        )
        if args.out:
            sys.stdout.write(out)
        else:
            sys.stderr.write(out)


def _cmd_plot(args, parser):
    with open(args.band) as fh:
        band = band_from_json(fh.read())
    try:
        spec = plotting.PlotSpec(
            levels=tuple(float(v) for v in args.levels.split(",")),
            set_type=args.type,
            together=not args.per_level,
            xlab=args.xlab,
            ylab=args.ylab,
            palette=args.palette,
            level_label=not args.no_level_label,
            min_size=args.min_size,
            label_color=args.label_color,
        )
    except ValueError as exc:
        parser.error(str(exc))
    out = args.out or "plot.svg"
    paths = plotting.render_band_files(band, spec, out)
    _progress(args, "wrote " + ", ".join(paths))


def _cmd_simulate(args):
    design = simulate.SimDesign(args.design, n=args.n, seed=args.seed)
    report = simulate.run_coverage(
        design, replicates=args.reps, alpha=args.alpha,
        method=args.method, n_boot=args.nboot,
    )
    _progress(
        args,
        f"{args.design}: coverage {report.coverage:.3f} "
        f"(MC SE {report.mc_se:.3f}, {len(report.failures)} failed replicates)",
    )
    _write_out(args, report.to_json())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confbands",
        description="Simultaneous confidence bands and excursion-set confidence regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scb = sub.add_parser("scb", help="construct a band")
    scb_sub = scb.add_subparsers(dest="model_kind", required=True)

    for kind, help_text in (("linear", "mean-outcome band for a linear model"),
                            ("logistic", "probability band for a logistic model")):
        p = scb_sub.add_parser(kind, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--model", required=True)
        p.add_argument("--grid", required=True)
        if kind == "linear":
            p.add_argument("--grid-boot", dest="grid_boot")
        p.add_argument("--nboot", type=int, default=1000)
        p.add_argument("--alpha", type=float, default=0.05)
        _add_common(p)
        p.set_defaults(func=_cmd_scb_mean, grid_boot=None)

    p = scb_sub.add_parser("coef", help="simultaneous coefficient intervals")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--family", choices=["linear", "logistic"], default="linear")
    p.add_argument("--nboot", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p)
    p.set_defaults(func=_cmd_scb_coef)

    p = scb_sub.add_parser("fosr", help="function-on-scalar band")
    p.add_argument("--data", required=True,
                   help="long CSV with columns id, time, outcome, covariates")
    p.add_argument("--method", choices=["cma", "multiplier"], default="cma")
    p.add_argument("--fitted", choices=["true", "false"], default="true")
    p.add_argument("--subset", default="", help='e.g. "use=1,age=40"')
    p.add_argument("--weights", choices=["rademacher", "gaussian", "mammen"],
                   default="rademacher")
    p.add_argument("--sd", choices=["t", "regular"], default="t")
    p.add_argument("--nboot", type=int)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--kbasis", type=int, default=30)
    p.add_argument("--pve", type=float, default=0.95)
    _add_common(p)
    p.set_defaults(func=_cmd_scb_fosr)

    p = scb_sub.add_parser("gls", help="spatial GLS band")
    p.add_argument("--data", required=True, help="JSON header + cube file")
    p.add_argument("--design", required=True, help="CSV design matrix")
    p.add_argument("--design-header", type=int, default=0,
                   help="header rows to skip in the design CSV")
    p.add_argument("--w", required=True, help='weights, e.g. "1,0,0,0"')
    p.add_argument("--correlation", choices=["ar1", "compsymm", "none"],
                   default="none")
    p.add_argument("--rho", type=float)
    p.add_argument("--mask", help="JSON mask file overriding the header mask")
    p.add_argument("--nboot", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=_cmd_scb_gls)

    p = sub.add_parser("invert", help="invert a band file into confidence regions")
    p.add_argument("--band", required=True)
    p.add_argument("--type", choices=["upper", "lower", "two_sided", "interval"],
                   default="upper")
    p.add_argument("--levels", required=True,
                   help='thresholds "c1,c2" or intervals "a:b,c:d"')
    p.add_argument("--true-mean", dest="true_mean",
                   help="known truth for containment summaries")
    _add_common(p)
    p.set_defaults(func=_cmd_invert, needs_parser=True)

    p = sub.add_parser("plot", help="render a band file to SVG")
    p.add_argument("--band", required=True)
    p.add_argument("--levels", required=True)
    p.add_argument("--type", choices=["upper", "lower"], default="upper")
    p.add_argument("--per-level", action="store_true",
                   help="one SVG per level instead of a single panel")
    p.add_argument("--xlab", default="")
    p.add_argument("--ylab", default="")
    p.add_argument("--palette", default="Spectral")
    p.add_argument("--no-level-label", action="store_true")
    p.add_argument("--min-size", type=int, default=0)
    p.add_argument("--label-color", default="black")
    _add_common(p)
    p.set_defaults(func=_cmd_plot, needs_parser=True)

    sim = sub.add_parser("simulate", help="coverage experiments")
    sim_sub = sim.add_subparsers(dest="sim_kind", required=True)
    p = sim_sub.add_parser("coverage", help="empirical simultaneous coverage")
    p.add_argument("--design", required=True,
                   choices=["fosr", "linear_outcome", "logistic_outcome",
                            "linear_coef", "logistic_coef"])
    p.add_argument("--method", choices=["cma", "multiplier"], default="cma",
                   help="band method for the fosr design")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--nboot", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    return parser


_ERROR_CODES = {
    FileNotFoundError: "io_error",
    IsADirectoryError: "io_error",
    PermissionError: "io_error",
    regression.FormulaError: "parse_error",
    ValueError: "invalid_input",
    RuntimeError: "runtime_error",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "needs_parser", False):
            args.func(args, parser)
        else:
            args.func(args)
    except Exception as exc:  # noqa: BLE001 - map to the error contract
        code = "runtime_error"
        for klass, name in _ERROR_CODES.items():
            if isinstance(exc, klass):
                code = name
                break
        context = " ".join(
            v for v in (args.command, getattr(args, "model_kind", None),
                        getattr(args, "sim_kind", None)) if v
        )
        sys.stderr.write(
            emit_json({"error": code, "message": str(exc), "context": context})
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
