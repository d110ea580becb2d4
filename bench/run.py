"""Benchmark of outagekit: planning and detection, end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads: plan_grid, detect_stream, detect_drift (see bench/README.md).
The seed makes the inputs; the same seed gives the same inputs. With
``--trace 0`` the run measures for about S seconds and reports the
end-to-end metrics. With ``--trace 1`` it runs a fixed number of passes
untraced and the same passes traced, checks the two give identical outputs,
and reports the per-layer metrics of the traced passes and the tracing
overhead. ``--tiny`` shrinks every input (for the smoke test).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller report (the
environment, sample counts, the tail percentile used, every check) goes to
``bench/.work/reports/``, and the spans of a traced run to
``bench/.work/traces/``. Exits 2 without a result when the checkout holds no
``src/outagekit``.
"""

from __future__ import annotations

import os

# one process, one thread: pin the BLAS/OpenMP pools before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import importlib.metadata
import json
import platform
import statistics
import subprocess
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "batch_s": "s",
}

# spans whose call count / self time are per-layer metrics
LAYER_CALLS = (
    "network.branch_decompose",
    "network.cumulative_stats",
    "detector.detect",
    "detector.build_areas",
    "hypotheses.local_hypotheses",
    "hypotheses.enumerate_unique",
    "errors.pattern_hypothesis_sets",
    "errors.all_missed_detection",
    "errors.area_max_error",
    "placement.solve_feasibility",
    "sim.simulate_outage",
)
LAYER_SELF = LAYER_CALLS + (
    "network.load_feeder",
    "placement.evaluate_areas",
    "sim.sweep",
    "sim.empirical_detection_rate",
    "cli.main",
)
LAYER_WORK = (
    "hypotheses.local_hypotheses.hyps_out",
    "hypotheses.enumerate_unique.hyps_out",
    "errors.all_missed_detection.hyps_in",
)
# name -> unit; every workload reports all of them with --trace 1
PER_LAYER = {
    **{f"{n}.calls": "count" for n in LAYER_CALLS},
    **{f"{n}.self_s": "s" for n in LAYER_SELF},
    **{n: "count" for n in LAYER_WORK},
    "placement.area_lookups": "count",
    "placement.area_evals": "count",
    "placement.area_cache_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# a fixed pass count keeps the traced counts exactly repeatable per seed
TRACE_PASSES = 4
MIN_TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every input (smoke test)")
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    xs = sorted(samples)
    at_or_below = len(xs) - MIN_TAIL_BEYOND
    if at_or_below < 1:
        return xs[-1], 100.0, 0
    return xs[at_or_below - 1], 100.0 * at_or_below / len(xs), len(xs) - at_or_below


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "outagekit", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class SetupProbe:
    """Cold set-ups, each timed inside a fresh interpreter.

    The runner spreads them evenly over the run, between passes, so the
    samples do not all catch one moment of the machine.
    """

    def __init__(self, workload, rec):
        files, warmup = workload.setup_files()
        self.cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), SRC, *files]
        if warmup is not None:
            self.cmd += ["--warmup", warmup]
        self.rec = rec
        self.times: list[float] = []

    def sample(self) -> None:
        self.rec.attempted += 1
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
        if done.returncode != 0:
            self.rec.fail(f"setup probe exit {done.returncode}: {done.stderr.strip()[-300:]}")
            return
        self.times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def timed_run(workload, sizes, seconds: float, rec) -> dict:
    probe = SetupProbe(workload, rec)
    probes_taken = 0
    workload.prepare()
    start = perf_counter()
    passes = 0
    while True:
        if perf_counter() - start >= probes_taken * seconds / sizes.setup_repeats:
            probe.sample()
            probes_taken += 1
        began = perf_counter()
        workload.run_pass(passes, rec)
        passes += 1
        now = perf_counter()
        # stop before a pass as long as the last one would overrun the time
        if now - start + (now - began) > seconds:
            break
    measured = perf_counter() - start
    for _ in range(sizes.setup_repeats - probes_taken):
        probe.sample()
    setup = probe.times
    checks = workload.check(rec)
    if not (setup and rec.call_s and rec.batch_s):
        raise RuntimeError("no complete sample of some metric; see the failures in the report")

    tail_s, pct, beyond = tail(rec.call_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "call_ms_p50": 1000.0 * statistics.median(rec.call_s),
        "call_ms_tail": 1000.0 * tail_s,
        "batch_s": statistics.median(rec.batch_s),
    }
    return {
        "metrics": metrics,
        "detail": {
            "passes": passes,
            "measured_s": measured,
            "setup_samples": setup,
            "call_samples": len(rec.call_s),
            "call_ms_mean": 1000.0 * statistics.fmean(rec.call_s),
            "call_tail_percentile": pct,
            "call_tail_beyond": beyond,
            "batch_samples": len(rec.batch_s),
            "batch_s_all": rec.batch_s,
            "checks": checks,
        },
    }


def traced_run(workload, spans_name: str, rec) -> dict:
    import workloads
    from spans import Tracer

    def side(tracer):
        side_rec = workloads.Record()
        began = perf_counter()
        workload.prepare(tracer)
        for p in range(TRACE_PASSES):
            workload.run_pass(p, side_rec, tracer)
        return side_rec, perf_counter() - began

    plain, plain_s = side(None)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = side(tracer)
    finally:
        tracer.uninstall()

    checks = workload.check(plain)
    rec.attempted += plain.attempted + traced.attempted + 1
    rec.failures += plain.failures + traced.failures
    if plain.outputs != traced.outputs:
        rec.fail("traced run returned other outputs than the untraced run")

    overhead = traced_s / plain_s - 1.0
    lookups = tracer.via["via.placement.branch_decompose"]
    evals = tracer.via["via.placement.area_max_error"]
    metrics = {f"{n}.calls": tracer.calls[n] for n in LAYER_CALLS}
    metrics.update({f"{n}.self_s": tracer.self_s[n] for n in LAYER_SELF})
    metrics.update({n: tracer.work[n] for n in LAYER_WORK})
    metrics["placement.area_lookups"] = lookups
    metrics["placement.area_evals"] = evals
    metrics["placement.area_cache_hit_ratio"] = 1.0 - evals / lookups if lookups else 0.0
    metrics["trace.overhead_ratio"] = overhead

    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    spans_path = os.path.join(WORK, "traces", spans_name)
    tracer.write_spans(spans_path)
    return {
        "metrics": metrics,
        "detail": {
            "passes": TRACE_PASSES,
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "overhead_ratio": overhead,
            "cache_hit_ratio_base": f"1 - area_evals/area_lookups, area_lookups = {lookups}",
            "functions": {
                n: {"calls": tracer.calls[n], "self_s": tracer.self_s[n]} for n in sorted(tracer.calls)
            },
            "raised": {f"{n}.raised": tracer.raised[n] for n in sorted(tracer.calls)},
            "via": dict(sorted(tracer.via.items())),
            "work": dict(sorted(tracer.work.items())),
            "operations": len(tracer.operations),
            "spans": len(tracer.spans),
            "spans_file": os.path.relpath(spans_path, ROOT),
            "checks": checks,
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "outagekit", "__init__.py")):
        print(f"error: no outagekit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import outagekit

    if not os.path.abspath(outagekit.__file__).startswith(SRC + os.sep):
        print(f"error: imported outagekit from {outagekit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import inputs
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = inputs.TINY if args.tiny else inputs.FULL
    tag = f"{sizes.tag}-seed{args.seed}"
    wall = perf_counter()
    gen = inputs.Generator(WORK, args.seed, sizes)
    workload = workloads.WORKLOADS[args.workload](gen)
    rec = workloads.Record()
    run = traced_run(workload, f"{args.workload}-{sizes.tag}.csv.gz", rec) if args.trace else timed_run(workload, sizes, args.seconds, rec)

    failed = min(len(rec.failures), rec.attempted)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes.__dict__,
        "environment": environment(),
        "attempted": rec.attempted,
        "failed": failed,
        "fail_ratio": failed / rec.attempted if rec.attempted else 0.0,
        "failures": rec.failures[:50],
        "metrics": run["metrics"],
        "units": PER_LAYER if args.trace else END_TO_END,
        "wall_s": perf_counter() - wall,
        **run["detail"],
    }
    os.makedirs(os.path.join(WORK, "reports"), exist_ok=True)
    report_path = os.path.join(WORK, "reports", f"{args.workload}-{tag}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in run["metrics"].items():
        print(f"{name:45s} {value:.6g} {units[name]}", file=sys.stderr)
    print(f"fail_ratio {failed}/{rec.attempted}; report {os.path.relpath(report_path, ROOT)}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": max(rec.attempted, 1),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
