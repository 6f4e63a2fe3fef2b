"""The benchmark workloads: inputs from a seed, one op, output checks.

A workload is built from ``(seed, workdir, scale)``. ``setup()`` writes any
input files, ``op(i)`` runs op ``i`` through the public ``confbands`` API and
returns an :class:`OpResult`, and ``check(result)`` raises
:class:`CheckFailed` if an output is wrong. Op ``i`` depends only on
``(seed, i)``, so two commits replay identical op sequences.

``scale="full"`` is the benchmark size; ``scale="tiny"`` is a seconds-long
version of the same op for the self-tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from confbands import cli, core, regions, simulate


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


@dataclass
class OpResult:
    bands: list = field(default_factory=list)  # SCBand objects built by the op
    band_texts: list = field(default_factory=list)  # band JSON files the op wrote
    region_texts: list = field(default_factory=list)
    svg_texts: list = field(default_factory=list)
    summary_text: str = ""  # containment summary printed by `confbands invert`
    replicate_failures: int = 0  # failures listed by run_coverage

    def q_alphas(self) -> list[float]:
        if self.bands:
            return [float(b.q_alpha) for b in self.bands]
        return [float(json.loads(t)["q_alpha"]) for t in self.band_texts]

    def first_band_json(self) -> str:
        if self.band_texts:
            return self.band_texts[0]
        return core.band_to_json(self.bands[0])


def op_seed(seed: int, workload: int, *key: int) -> int:
    """Seed for one op (and one part of it), mixed from the workload seed."""
    ss = np.random.SeedSequence(seed, spawn_key=(workload, *key))
    return int(ss.generate_state(1)[0])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_band(band) -> None:
    try:
        band.validate()
    except ValueError as exc:
        raise CheckFailed(f"band fails validate(): {exc}") from None
    m = band.domain.mask_array()
    if not (np.all(band.scb_low[m] <= band.eta_hat[m]) and np.all(band.eta_hat[m] <= band.scb_up[m])):
        raise CheckFailed("band does not satisfy scb_low <= eta_hat <= scb_up")


def check_band_text(text: str):
    """Parse a band file, check the band, and check byte-exact round trip."""
    band = core.band_from_json(text)
    check_band(band)
    if core.band_to_json(band) != text:
        raise CheckFailed("band_to_json(band_from_json(s)) != s")
    return band


def check_regions_text(text: str, n_expected: int) -> None:
    region_list = regions.regions_from_json(text)
    if len(region_list) != n_expected:
        raise CheckFailed(f"region file has {len(region_list)} entries, expected {n_expected}")
    for r in region_list:
        if np.any(r.inner & ~r.estimate) or np.any(r.estimate & ~r.outer):
            raise CheckFailed(f"region at level {r.level} is not inner <= estimate <= outer")


def check_svg_text(text: str) -> None:
    if not text:
        raise CheckFailed("empty SVG")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG is not well formed: {exc}") from None
    if not root.tag.endswith("svg"):
        raise CheckFailed(f"SVG root element is {root.tag!r}")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    index = 0  # spawn key that separates the workloads' op seeds

    def __init__(self, seed: int, workdir: str, scale: str = "full"):
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.seed = seed
        self.workdir = workdir
        self.tiny = scale == "tiny"

    def setup(self) -> None:
        """Write input files (only the CLI workload has any)."""

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def check(self, result: OpResult) -> None:
        if result.replicate_failures:
            raise CheckFailed(f"run_coverage listed {result.replicate_failures} failed replicates")
        for band in result.bands:
            check_band(band)
            check_band_text(core.band_to_json(band))
        for text in result.band_texts:
            check_band_text(text)
        for text in result.svg_texts:
            check_svg_text(text)


class Coverage(Workload):
    """One replicate of every coverage design of the acceptance criteria:
    each regression design at its acceptance size, then one fosr dataset
    calibrated by CMA draws and by multiplier-t."""

    name = "coverage"
    index = 0  # regression designs; the fosr dataset uses spawn key index + 1
    # (kind, n, n_boot) at full and tiny scale
    REGRESSION_FULL = (("linear_outcome", 100, 1000), ("logistic_outcome", 100, 1000),
                       ("linear_coef", 200, 1000), ("logistic_coef", 200, 1000))
    REGRESSION_TINY = (("linear_outcome", 60, 100), ("logistic_outcome", 80, 100),
                       ("linear_coef", 60, 100), ("logistic_coef", 120, 100))
    FOSR_FULL = (100, 10000, 5000)  # (n, B for cma, B for multiplier)
    FOSR_TINY = (30, 500, 200)

    def parts(self, i):
        """(SimDesign, method, n_boot) for each run_coverage call of op ``i``."""
        out = [
            (simulate.SimDesign(kind, n=n, seed=op_seed(self.seed, self.index, i, d)), "cma", n_boot)
            for d, (kind, n, n_boot) in enumerate(self.REGRESSION_TINY if self.tiny else self.REGRESSION_FULL)
        ]
        n, b_cma, b_mult = self.FOSR_TINY if self.tiny else self.FOSR_FULL
        fosr = simulate.SimDesign("fosr", n=n, seed=op_seed(self.seed, self.index + 1, i))
        return out + [(fosr, "cma", b_cma), (fosr, "multiplier", b_mult)]

    def op(self, i):
        out = OpResult()
        for design, method, n_boot in self.parts(i):
            report, kept = simulate.run_coverage(
                design, replicates=1, method=method, n_boot=n_boot, keep_bands=True
            )
            out.replicate_failures += len(report.failures)
            out.bands.extend(k[0] for k in kept if k is not None)
        return out


@dataclass(frozen=True)
class _SpatialSize:
    nx: int
    ny: int
    mask_x: int  # masked corner, rows
    mask_y: int  # masked corner, columns
    n_obs: int
    n_boot: int


class SpatialCli(Workload):
    """External-band workflow through in-process ``cli.main``: two GLS bands
    (fixed and estimated AR(1) rho), a two-sided inversion with a
    containment check, and a 2D plot."""

    name = "spatial-cli"
    index = 2
    RHO = 0.4
    N_LEVELS = 20
    PLOT_LEVELS = "-0.5,0,0.5"

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        self.size = (_SpatialSize(12, 10, 3, 2, 20, 200) if self.tiny
                     else _SpatialSize(60, 60, 15, 10, 60, 1000))

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        s = self.size
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.index,)))
        x = np.linspace(0.0, 1.0, s.nx)
        y = np.linspace(0.0, 1.0, s.ny)
        mask = np.ones((s.nx, s.ny), dtype=bool)
        mask[: s.mask_x, : s.mask_y] = False
        design = np.column_stack([np.ones(s.n_obs), rng.standard_normal((s.n_obs, 3))])
        effect = np.sin(2 * np.pi * x)[:, None] * np.cos(np.pi * y)[None, :]
        beta = np.stack([effect] + [0.3 * rng.standard_normal((s.nx, s.ny)) for _ in range(3)], axis=-1)
        err = np.empty((s.n_obs, s.nx, s.ny))
        err[0] = rng.standard_normal((s.nx, s.ny))
        for t in range(1, s.n_obs):
            err[t] = self.RHO * err[t - 1] + np.sqrt(1 - self.RHO**2) * rng.standard_normal((s.nx, s.ny))
        cube = np.einsum("np,xyp->nxy", design, beta) + err
        os.makedirs(self.workdir, exist_ok=True)
        np.save(self._path("cube.npy"), cube)
        header = {"x": x.tolist(), "y": y.tolist(), "shape": list(cube.shape),
                  "mask": mask.ravel().tolist(), "cube": "cube.npy"}
        with open(self._path("spatial.json"), "w") as fh:
            json.dump(header, fh)
        np.savetxt(self._path("design.csv"), design, delimiter=",")
        with open(self._path("truth.json"), "w") as fh:
            json.dump(effect.tolist(), fh)
        self.levels = ",".join(f"{v:.3f}" for v in np.linspace(-0.8, 0.8, self.N_LEVELS))

    def _main(self, argv):
        # the containment summary goes to stdout; keep the benchmark's own
        # stdout for its report
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"confbands {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def op(self, i):
        p = self._path
        seed = str(op_seed(self.seed, self.index, i))
        gls = ["scb", "gls", "--data", p("spatial.json"), "--design", p("design.csv"),
               "--w", "1,0,0,0", "--correlation", "ar1", "--nboot", str(self.size.n_boot),
               "--seed", seed, "--quiet"]
        self._main(gls + ["--rho", str(self.RHO), "--out", p("band_fixed.json")])
        self._main(gls + ["--out", p("band_est.json")])
        summary = self._main(["invert", "--band", p("band_est.json"), "--type", "two_sided",
                              f"--levels={self.levels}", "--true-mean", p("truth.json"),
                              "--out", p("regions.json"), "--quiet"])
        self._main(["plot", "--band", p("band_est.json"), f"--levels={self.PLOT_LEVELS}",
                    "--out", p("plot.svg"), "--quiet"])
        out = OpResult()
        for name in ("band_fixed.json", "band_est.json"):
            with open(p(name)) as fh:
                out.band_texts.append(fh.read())
        with open(p("regions.json")) as fh:
            out.region_texts.append(fh.read())
        with open(p("plot.svg")) as fh:
            out.svg_texts.append(fh.read())
        out.summary_text = summary
        return out

    def check(self, result):
        super().check(result)
        for text in result.region_texts:
            check_regions_text(text, 2 * self.N_LEVELS)
        try:
            flags = json.loads(result.summary_text)["contain_individual"]
        except (ValueError, KeyError) as exc:
            raise CheckFailed(f"containment summary is malformed: {exc}") from None
        if len(flags) != 2 * self.N_LEVELS:
            raise CheckFailed(f"containment summary has {len(flags)} entries")


WORKLOADS = {w.name: w for w in (Coverage, SpatialCli)}
