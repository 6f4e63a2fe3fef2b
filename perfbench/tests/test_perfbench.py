"""Self-tests of the benchmark: tracer install/remove, self-time arithmetic,
host-speed scaling, metric names, exact counts, and a tiny smoke run of
every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import confbands  # noqa: E402
from confbands import cli, core, geospatial, regression  # noqa: E402
from tracer import PER_LAYER, TRACE_METRICS, Span, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def workdir(request):
    """Scratch directory inside the checkout, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", "tests", re.sub(r"\W", "_", request.node.name))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _all_bindings():
    mods = [m for n, m in sys.modules.items() if n == "confbands" or n.startswith("confbands.")]
    return {(m.__name__, attr): obj for m in mods for attr, obj in vars(m).items()}


def test_tracer_wraps_every_binding_and_restores_it():
    before = _all_bindings()
    tracer = Tracer()
    tracer.install(confbands)
    try:
        for module, attr in [(regression, "substream"), (regression, "assemble_band"),
                             (geospatial, "multiplier_max_stats"), (cli, "band_to_json"),
                             (cli, "band_from_json"), (core, "substream"),
                             (confbands, "run_coverage")]:
            assert getattr(module, attr) is not before[module.__name__, attr], (module, attr)
    finally:
        tracer.remove()
    after = _all_bindings()
    assert after.keys() == before.keys()
    for key, obj in before.items():
        assert after[key] is obj, key


def test_traced_call_records_nested_spans():
    tracer = Tracer()
    tracer.install(confbands)
    try:
        with tracer.recording(7):
            regression.substream(1, 2)
            core.band_from_json(core.band_to_json(core.assemble_band(
                [1.0, 2.0], [0.1, 0.2], 2.0, 1.0, 0.05, core.Domain.grid1d([0.0, 1.0]))))
        regression.substream(1, 3)  # not recording
    finally:
        tracer.remove()
    names = [(s.name, s.via) for s in tracer.spans]
    assert names[0] == ("core.substream", "regression")
    assert ("core.assemble_band", "core") in names
    assert all(s.op == 7 for s in tracer.spans)
    assert len([n for n in names if n[0] == "core.substream"]) == 1
    to_json = next(s for s in tracer.spans if s.name == "core.band_to_json")
    assert to_json.info["bytes"] > 0


def test_self_time_on_synthetic_tree():
    spans = [
        Span("a.root", "a", 0.0, 10.0),
        Span("a.x", "a", 1.0, 4.0, parent=0),
        Span("b.y", "b", 5.0, 7.0, parent=0),
        Span("c.z", "c", 2.0, 3.0, parent=1),
        Span("c.z", "c", 2.5, 3.5, parent=1),  # overlaps its sibling: union counts once
        Span("a.root", "a", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 1.0, 1.0, 1.0])


def test_layer_metrics_are_per_op_means():
    spans = [
        Span("regression.scb_coef_bootstrap", "regression", 0.0, 4.0, info={"n_boot": 100}),
        Span("core.substream", "regression", 1.0, 2.0, parent=0),
        Span("regression.scb_coef_bootstrap", "regression", 10.0, 14.0, info={"n_boot": 100}),
        Span("core.substream", "regression", 11.0, 12.0, parent=2),
        Span("core.substream", "regression", 12.0, 13.0, parent=2),
        Span("core.substream", "simulate", 20.0, 21.0),
    ]
    m = layer_metrics(spans, n_ops=2)
    assert m["regression.calibrate_s"] == pytest.approx((3.0 + 2.0) / 2)
    assert m["regression.draws"] == pytest.approx(1.5)
    assert m["regression.useful_ratio"] == pytest.approx(200 / 3)
    assert m["core.substream_calls"] == pytest.approx(2.0)
    assert m["core.layer_self_s"] == pytest.approx(2.0)


def test_host_speed_scales_each_op_by_the_batches_around_it():
    import hostspeed

    speed = hostspeed.HostSpeed()
    speed.sample(0.0)
    assert len(speed.batches) == 1 and len(speed.batches[0]) == hostspeed.MIN_SAMPLES
    ref = hostspeed.REF_S
    # kernel at full speed, a third of it, full again: each op sees a mean
    # kernel time of 2 * REF_S, so half the host speed
    speed.batches = [[ref], [3 * ref], [ref]]
    assert speed.scale([1.0, 2.0]) == pytest.approx([0.5, 1.0])
    with pytest.raises(ValueError):
        speed.scale([1.0])


def test_metric_names_match_benchmark_spec():
    import run

    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert e2e == [name for name, _ in run.END_TO_END]
    assert per_layer == [name for name, *_ in PER_LAYER + TRACE_METRICS]
    assert len(e2e) <= 16 and len(per_layer) <= 128
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)
    for name in e2e + per_layer:
        assert pattern.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(run.TAIL_PCT) == set(WORKLOADS)


EXACT = ("regression.draws", "geospatial.correlation_builds", "plotting.marching_squares_calls",
         "core.band_json_bytes", "regions.json_bytes", "plotting.svg_bytes")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_on_one_seed(name, workdir):
    counts = []
    for rep in range(2):
        wl = WORKLOADS[name](5, os.path.join(workdir, f"run{rep}"), "tiny")
        wl.setup()
        tracer = Tracer()
        tracer.install(confbands)
        try:
            for i in range(2):
                with tracer.recording(i):
                    result = wl.op(i)
                wl.check(result)
        finally:
            tracer.remove()
        m = layer_metrics(tracer.spans, n_ops=2)
        counts.append({k: m[k] for k in EXACT})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run(name, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert f"{name} failed_frac: 0.0" in proc.stdout


def test_refuses_to_run_without_the_package(workdir):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    fails without printing a result."""
    shutil.copytree(BENCH, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coverage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=workdir,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
