"""confbands benchmark: one workload as a closed loop with one client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 45 --trace 0

The run imports ``confbands`` from ``src/``, builds its inputs from
``--seed``, runs one warm-up op, then runs ops ``1, 2, ...`` of the
workload's fixed op sequence until the ops have taken ``--seconds`` in
total, checking every output. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it print
each metric with its unit. ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` runs each op twice, traced and untraced in alternating order,
and reports per-layer self times and counts as per-op means plus the
tracing overhead. Spans and a full result record, with the environment,
go to ``.perfbench_out/``.

The end-to-end times are scaled to a reference host speed, measured by a
fixed kernel timed between ops (see ``hostspeed.py``); the unscaled ones
are in the details.

BLAS is pinned to one thread before numpy is imported.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

WALL_LIMIT_S = 120.0  # start no op after this long, so a run ends well within 180 s

# Tail percentile per workload: the highest whole percentile with at least
# ten samples beyond it at the op count of a slow 45 s run on a 2-core Xeon at
# one BLAS thread. Where that count is under 20, no percentile at or above the
# median qualifies and the tail is the slowest op (100).
TAIL_PCT = {
    "coverage": 60,
    "spatial-cli": 100,
}
SETUP_PROBES = 2  # fresh set-ups after the timed ops, besides the run's own
CAL_SHARE = 0.05  # host-speed samples after each op, as a share of its latency

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long ops for the benchmark's self-tests")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, run the warm-up op, print the set-up time and exit")
    return p.parse_args(argv)


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def run_probe(args) -> float:
    """Set-up time of a fresh process for the same workload and seed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale,
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=25, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Digest:
    """Compares q_alpha per op and op 0's band JSON with the stored
    reference for the reference seed."""

    def __init__(self, workload: str, seed):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        self.ref = ref["workloads"][workload] if seed == ref["seed"] else None
        self.max_drift = 0.0
        self.compared = 0
        self.band0_match = None

    def add(self, i, result):
        if self.ref is None:
            return
        if i == 0:
            text = result.first_band_json().encode("utf-8")
            self.band0_match = hashlib.sha256(text).hexdigest() == self.ref["band0_sha256"]
        if i < len(self.ref["q_alpha"]):
            for q, q_ref in zip(result.q_alphas(), self.ref["q_alpha"][i]):
                self.max_drift = max(self.max_drift, abs(q - q_ref) / abs(q_ref))
                self.compared += 1

    def record(self):
        if self.ref is None:
            return {"reference": "none for this seed"}
        return {"q_compared": self.compared, "q_max_rel_drift": self.max_drift,
                "band0_sha256_match": self.band0_match}


class Runner:
    def __init__(self, workload, digest):
        self.wl = workload
        self.digest = digest
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def execute(self, i):
        """Run op ``i``; returns its latency in seconds and its result, or
        None if it raised."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            result = self.wl.op(i)
        except Exception as exc:  # noqa: BLE001 - any failure of the program counts
            self._fail(i, f"{type(exc).__name__}: {exc}")
            result = None
        return time.perf_counter() - t, result

    def check(self, i, result):
        if result is None:
            return
        try:
            self.wl.check(result)
        except Exception as exc:  # noqa: BLE001 - an output the checks cannot read is wrong too
            self._fail(i, f"check: {type(exc).__name__}: {exc}")
            return
        self.digest.add(i, result)

    def run(self, i):
        """Run and check op ``i``; returns its latency in seconds."""
        dt, result = self.execute(i)
        self.check(i, result)
        return dt

    def _fail(self, i, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"op {i}: {message}")


def timed_loop(args, runner, tracer, speed):
    """Ops 1, 2, ... for about ``args.seconds`` of op latency. Returns the
    untraced latencies and, with tracing, the traced ones. Without tracing,
    each op is followed by a batch of host-speed samples worth
    ``CAL_SHARE`` of its latency."""
    import confbands

    untraced, traced = [], []
    busy, i = 0.0, 1
    if tracer is not None:
        tracer.install(confbands)
    try:
        # start an op only if it would end, on average, before the time is up,
        # so the timed ops take --seconds on average and not half an op more
        while (busy + 0.5 * busy / max(len(untraced) + len(traced), 1) < args.seconds
               and time.perf_counter() - T_START < WALL_LIMIT_S):
            if tracer is None:
                untraced.append(runner.run(i))
                busy += untraced[-1]
                speed.sample(CAL_SHARE * untraced[-1])
            else:
                # same op traced and untraced, alternating which goes first
                for use_trace in ((False, True) if i % 2 == 0 else (True, False)):
                    if use_trace:
                        with tracer.recording(i):
                            dt, result = runner.execute(i)
                        runner.check(i, result)
                        traced.append(dt)
                        busy += dt
                    else:
                        untraced.append(runner.run(i))
                        busy += untraced[-1]
            i += 1
    finally:
        if tracer is not None:
            tracer.remove()
    return untraced, traced


def op_metrics(lat, pct):
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * nearest_rank(sorted(lat), pct),
    }


def end_to_end(args, setup_samples, lat, scaled):
    """End-to-end metrics from the op latencies scaled to the reference host
    speed; the unscaled ones go to the details. Set-up is scaled by the
    run's mean factor, as the set-ups have no kernel samples of their own."""
    pct = TAIL_PCT[args.workload]
    factor = sum(scaled) / sum(lat)
    raw = {"setup_s": statistics.median(setup_samples), **op_metrics(lat, pct)}
    metrics = {
        "setup_s": raw["setup_s"] * factor,
        **op_metrics(scaled, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {"setup_samples_s": setup_samples, "op_samples": len(lat),
               "op_tail_percentile": pct, "op_tail_samples_beyond": len(lat) - math.ceil(pct / 100 * len(lat)),
               "host_speed_factor": factor, "unscaled": raw}
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "confbands", "__init__.py")):
        print(f"no confbands package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    import confbands
    from env import environment
    from hostspeed import HostSpeed
    from tracer import PER_LAYER, TRACE_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if os.path.dirname(os.path.abspath(confbands.__file__)) != os.path.join(SRC, "confbands"):
        print(f"confbands was imported from {confbands.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, workdir, args.scale)
    digest = Digest(args.workload, args.seed if args.scale == "full" else None)
    runner = Runner(wl, digest)
    tracer = Tracer() if args.trace else None
    try:
        wl.setup()
        if args.setup_probe:
            wl.op(0)
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        # the warm-up op is op 0; set-up ends when it returns, and its output
        # is checked like every other
        warmup_s, result = runner.execute(0)
        setup_samples = [time.perf_counter() - T_START]
        runner.check(0, result)
        speed = HostSpeed()
        if tracer is None:
            speed.sample(CAL_SHARE * warmup_s)
        untraced, traced = timed_loop(args, runner, tracer, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # An untraced run sets up three times: itself, and in two fresh child
    # processes after the timed ops. setup_s is the median of the three, so
    # one set-up slowed by the machine does not move it.
    if not args.trace:
        setup_samples += [run_probe(args) for _ in range(SETUP_PROBES)]

    if args.trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["trace.ops_per_s_traced"] = len(traced) / sum(traced)
        metrics["trace.ops_per_s_untraced"] = len(untraced) / sum(untraced)
        metrics["trace.overhead_pct"] = 100.0 * (sum(traced) / sum(untraced) - 1.0)
        units = {name: unit for name, unit, *_ in PER_LAYER + TRACE_METRICS}
        details = {"traced_ops": len(traced)}
    else:
        metrics, details = end_to_end(args, setup_samples, untraced, speed.scale(untraced))
        units = dict(END_TO_END)

    details.update(failed_frac=runner.failed / runner.attempted, errors=runner.errors, **digest.record())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, "units": units, "details": details,
              "latencies_s": {"untraced": untraced, "traced": traced,
                              "scaled": speed.scale(untraced) if not args.trace else []},
              "environment": environment()}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(vars(span)) + "\n")

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for key, value in details.items():
        print(f"{args.workload} {key}: {value}")
    env = record["environment"]
    print(f"{args.workload} environment: BLAS threads {env['openblas_runtime'].get('threads')}, "
          f"nproc {env['nproc']}, {env['cpu_model']}, caches {env['caches']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
