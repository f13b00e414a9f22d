#!/usr/bin/env python3
"""Verification benchmark of qangle.

Runs one workload (``pair``, ``double`` or ``cardinality``; see README.md)
from the library sources under ``src/`` of the checkout this file sits in:

    python3 bench/run.py --workload pair --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times cases for about ``--seconds`` seconds, ending on
the whole pass over the workload's grid that ends nearest to that, and
reports the end-to-end metrics.  With ``--trace 1`` it runs each case twice,
plain and traced, for ``--seconds`` seconds in all, and reports the per-layer
metrics.  Every case is checked against the acceptance bounds.  The last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the exit code is 1 when any case failed, and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pair", "double", "cardinality")
SETUP_REPEATS = 3
#: Sizes of the probe cases a traced run makes for layers its workload never reaches.
PROBE_SIZES = {"cloud": 100_000, "samples": 50, "max_candidates": 40, "max_pool": 80}

END_TO_END_UNITS = {
    "oracle_members": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def _time_import() -> float:
    """Wall time of a fresh interpreter importing the library, as every CLI run pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    # No timeout: waiting with one polls the child every 50 ms, which would quantise the time.
    subprocess.run([sys.executable, "-c", "import qangle"], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


def setup(workload, seed: int, sizes, repeats: int = SETUP_REPEATS):
    """Import plus cloud generation, ``repeats`` times; returns the cloud and each set-up time."""
    from qangle import oracle

    cloud, times = None, []
    # An import-only set-up is cheap, so it is repeated more for a steadier median.
    for _ in range(repeats if workload.needs_cloud else repeats + 2):
        t = _time_import()
        if workload.needs_cloud:
            cloud = None
            t0 = time.perf_counter()
            cloud = oracle.sample_lines(4, sizes.cloud, seed)
            t += time.perf_counter() - t0
        times.append(t)
    return cloud, times


def _run_one(workload, k: int, seed: int, cloud, sizes, span, failures: list):
    """Case ``k``: (seconds, members); a case that misses a bound or raises adds to ``failures``."""
    x = workload.inputs(seed, k)
    t0 = time.perf_counter()
    try:
        out = workload.run(x, cloud, sizes, span)
        members, errors = out.members, out.errors
    except Exception as exc:  # a raising case is a failed case, never a crash
        members, errors = 0, [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    if errors:
        failures.append((workload.name, k, errors))
    return dt, members


def tail(values):
    """Highest percentile with at least ten values beyond it, as (percentile, value), or None."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def timed_run(workload, seed: int, seconds: float, sizes, fixed_cases=None):
    from tracing import null_span

    fixed = workload.fixed_cases if fixed_cases is None else fixed_cases
    cloud, setup_times = setup(workload, seed, sizes)
    failures, durations, members = [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        dt, m = _run_one(workload, k, seed, cloud, sizes, null_span, failures)
        durations.append(dt)
        members.append(m)
        k += 1
        wall = time.perf_counter() - start
        # End on the whole pass over the grid that ends nearest to ``seconds``.
        if k >= fixed and k % workload.round == 0 and wall * (1 + workload.round / (2 * k)) >= seconds:
            break
    metrics = {
        "oracle_members": sum(members[:fixed]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Throughput and case latency follow the machine's speed, which drifts by a
    # third within minutes on a shared 2-vCPU host; README.md has the figures.
    printed = {
        "cases_per_s": {"value": k / wall, "unit": "1/s"},
        "members_per_s": {"value": sum(members) / wall, "unit": "1/s"},
        "case_p50_ms": {"value": 1e3 * statistics.median(durations), "unit": "ms"},
        "failed_ratio": {"value": len(failures) / k, "unit": "ratio"},
    }
    t = tail(durations)
    if t is not None:
        printed["case_tail_ms"] = {"value": 1e3 * t[1], "unit": "ms", "percentile": t[0]}
    report = {"cases": k, "wall_s": wall, "setup_runs_s": setup_times, "printed": printed}
    return metrics, END_TO_END_UNITS, k, failures, report


# -- traced run --------------------------------------------------------------


def _instrument(tracer):
    from qangle import alphasets, oracle

    tracer.wrap(alphasets.AlphaSetDescriptor, "sample", "alphasets.sample", lambda a, out: (a[1], len(out)))
    tracer.wrap(oracle, "alpha_set_numeric", "oracle.reject", lambda a, out: (a[2].count, len(out)))
    tracer.wrap(oracle, "refine_alpha_members", "oracle.refine", lambda a, out: (len(a[2]), len(out)))
    tracer.wrap(alphasets.AthetaFamily, "distance", "alphasets.distance.atheta")
    tracer.wrap(alphasets.CircleComponent, "distance", "alphasets.distance.circle")
    tracer.wrap(oracle, "root_count_on_circle", "oracle.root_count.circle")


#: Every span the traced run can record; each reports ``<span>.self_share``.
SPANS = (
    "oracle.sample_lines",
    "alphasets.descriptor",
    "alphasets.sample",
    "check.soundness",
    "oracle.discover",
    "oracle.funnel",
    "oracle.reject",
    "oracle.refine",
    "check.completeness",
    "alphasets.distance.atheta",
    "alphasets.distance.circle",
    "alphasets.cardinality",
    "oracle.root_count",
    "oracle.root_count.circle",
)


def layer_metrics(own: dict, probe: dict, cases: int, untraced: float, traced: float):
    """Per-layer metrics from aggregated spans (see tracing.aggregate).

    Per-call costs and ratios come from the workload's own cases; for a layer
    the workload never reaches they come from the probe cases, so that every
    workload reports every metric.  Counts per case are the workload's own.
    """
    from tracing import EMPTY as empty

    def pick(name, need="calls"):
        a = own.get(name, empty)
        return a if a[need] else probe.get(name, empty)

    def per_call(name, scale):
        a = pick(name)
        return scale * a["total"] / a["calls"] if a["calls"] else float("nan")

    def ratio(num, den):
        return num / den if den else float("nan")

    sample = pick("alphasets.sample", "n_out")
    reject = pick("oracle.reject", "n_in")
    refine = pick("oracle.refine", "n_in")
    counted = own if own.get("oracle.root_count", empty)["calls"] else probe
    rc, circles = counted.get("oracle.root_count", empty), counted.get("oracle.root_count.circle", empty)
    kinds = ("alphasets.distance.atheta", "alphasets.distance.circle")
    m = {
        "alphasets.descriptor.us_per_call": (per_call("alphasets.descriptor", 1e6), "us"),
        "alphasets.sample.us_per_member": (1e6 * ratio(sample["total"], sample["n_out"]), "us"),
        "alphasets.distance.atheta.us_per_call": (per_call(kinds[0], 1e6), "us"),
        "alphasets.distance.circle.us_per_call": (per_call(kinds[1], 1e6), "us"),
        "alphasets.distance.calls": (sum(own.get(k, empty)["calls"] for k in kinds) / cases, "calls/case"),
        "alphasets.cardinality.us_per_call": (per_call("alphasets.cardinality", 1e6), "us"),
        "oracle.sample_lines.s": (per_call("oracle.sample_lines", 1.0), "s"),
        "oracle.reject.lines_per_s": (ratio(reject["n_in"], reject["total"]), "lines/s"),
        "oracle.reject.hit_ratio": (ratio(reject["n_out"], reject["n_in"]), "ratio"),
        "oracle.refine.ms_per_candidate": (1e3 * ratio(refine["total"], refine["n_in"]), "ms"),
        "oracle.refine.candidates": (own.get("oracle.refine", empty)["n_in"] / cases, "candidates/case"),
        "oracle.refine.converged": (own.get("oracle.refine", empty)["n_out"] / cases, "members/case"),
        "oracle.refine.yield": (ratio(refine["n_out"], refine["n_in"]), "ratio"),
        "oracle.root_count.ms_per_call": (per_call("oracle.root_count", 1e3), "ms"),
        "oracle.root_count.circles_per_call": (ratio(circles["calls"], rc["calls"]), "circles/call"),
    }
    wall = sum(a["roots"] for a in own.values())
    for name in SPANS:
        m[f"{name}.self_share"] = (own.get(name, empty)["self"] / wall, "ratio")
    unattributed = sum(own[root]["self"] for root in ("case", "setup") if root in own)
    m["trace.unattributed_share"] = (unattributed / wall, "ratio")
    m["trace.overhead"] = (traced / untraced, "ratio")
    return m


def traced_run(workload, seed: int, seconds: float, sizes, probe_sizes=None):
    from cases import WORKLOADS, Sizes
    from qangle import oracle
    from tracing import Tracer, aggregate, null_span

    probe_sizes = probe_sizes or Sizes(**PROBE_SIZES)
    tracer = Tracer()
    failures = []
    attempted = 0
    cloud = None
    if workload.needs_cloud:
        tracer.case = "setup"
        with tracer.span("setup"), tracer.span("oracle.sample_lines"):
            cloud = oracle.sample_lines(4, sizes.cloud, seed)
    untraced = traced = 0.0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        dt, _ = _run_one(workload, k, seed, cloud, sizes, null_span, failures)
        untraced += dt
        tracer.case = k
        _instrument(tracer)
        try:
            with tracer.span("case"):
                dt, _ = _run_one(workload, k, seed, cloud, sizes, tracer.span, failures)
        finally:
            tracer.restore()
        traced += dt
        attempted += 2
        k += 1
    # Probe: one small case of every other workload, for the layers this one never reaches.
    tracer.case = "probe"
    with tracer.span("oracle.sample_lines"):
        probe_cloud = oracle.sample_lines(4, probe_sizes.cloud, seed)
    _instrument(tracer)
    try:
        for other in WORKLOADS.values():
            if other is not workload:
                _run_one(other, 0, seed, probe_cloud, probe_sizes, tracer.span, failures)
                attempted += 1
    finally:
        tracer.restore()
    own = aggregate(tracer.spans, lambda case: case != "probe")
    probe = aggregate(tracer.spans, lambda case: case == "probe")
    m = layer_metrics(own, probe, k, untraced, traced)
    metrics = {name: v for name, (v, _) in m.items()}
    units = {name: u for name, (_, u) in m.items()}
    failed_ratio = {"value": len(failures) / attempted, "unit": "ratio"}
    report = {"cases": k, "spans": len(tracer.spans), "printed": {"failed_ratio": failed_ratio}}
    return metrics, units, attempted, failures, report, tracer


def measure(workload_name: str, seed: int, seconds: float, trace: int, sizes=None, **kw):
    """Run one workload; returns (result, report, tracer or None)."""
    from cases import WORKLOADS, Sizes

    workload = WORKLOADS[workload_name]
    sizes = sizes or Sizes()
    tracer = None
    if trace:
        metrics, units, attempted, failures, report, tracer = traced_run(
            workload, seed, seconds, sizes, **kw
        )
    else:
        metrics, units, attempted, failures, report = timed_run(workload, seed, seconds, sizes, **kw)
    report["failures"] = [{"workload": w, "case": k, "errors": e} for w, k, e in failures[:20]]
    result = {
        "correct": not failures and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    return result, report, tracer


def load_library() -> str | None:
    """Put the checkout's ``src/`` first on the path; returns an error message or None."""
    if not (SRC / "qangle" / "__init__.py").is_file():
        return f"library sources not found at {SRC}/qangle"
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import qangle

    if Path(qangle.__file__).resolve().parent != SRC / "qangle":
        return f"imported qangle from {qangle.__file__}, not from {SRC}"
    return None


def run_all(args) -> int:
    """Each workload in its own process; the last line sums them up, metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    error = load_library()
    if error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    env = environment(args.workload, args.seed, args.trace)
    result, report, tracer = measure(args.workload, args.seed, args.seconds, args.trace)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_file, {"environment": env, "report": report})
    print(json.dumps({"environment": env}))
    print(json.dumps({"report": report}))
    for name, m in result["metrics"].items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    for name, m in report["printed"].items():
        at = f" at p{m['percentile']:.1f}" if "percentile" in m else ""
        print(f"{name + ' (report only)':45s} {m['value']:>16.6g} {m['unit']}{at}")
    for f in report["failures"]:
        print(f"FAILED {f['workload']} case {f['case']}: {'; '.join(f['errors'])}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
