"""Benchmark entry point for the annular_dirichlet package.

    python3 perfbench/run.py --workload radial-solve --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  One process, no worker pools; BLAS/OpenMP threads are capped at
the core count and ANNULAR_DIRICHLET_WORKERS is removed.

With `--trace 0` the named workload's fixed task list runs in whole passes,
and the end-to-end metrics are printed.  The number of passes depends only
on `--seconds` (see `pass_count`), so every run takes the same number of
samples and each metric keeps its definition on any host.  Times are in
reference-host seconds: each measured time is scaled by the speed of the
host beside it, read from a fixed calibration kernel (calibrate.py); the
measured pass times are kept in the record line.

    setup_s       import plus the median of several workload set-ups
    wall_s        time of the fastest pass over the task list
    tasks_per_s   correct tasks per pass over wall_s
    task_p50_ms   median task latency
    task_tail_ms  highest percentile with ten tasks beyond it (see `tail`)
    peak_rss_mb   peak resident memory
    failed_frac, converged_frac
                  printed and kept in the record line; they are not in
                  BENCHMARK.json because they are zero, or undefined, on
                  some workloads.

With `--trace 1` the per-layer probes, a traced pass of the named workload
between two untraced ones on the same inputs, and one traced pass of each
other workload give the per-layer metrics; spans are written to
`.perfbench/trace-<workload>-seed<seed>.json`.

Every task has an accuracy gate.  A task that raises, exits nonzero or
misses its gate is failed: it counts in `failed` and is left out of the
latency percentiles.  `correct` is false when a task outside the
workload's known baseline failures fails, or a set-up check misses.  Metric
names and units come from BENCHMARK.json; the last stdout line is the JSON
result, and the line before the table is a `record:` with the versions,
source digest, src/ line count, per-task medians and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("radial-solve", "polar-descent", "cli-artifacts")
TAIL_BEYOND = 10


@dataclass
class TaskResult:
    name: str
    layer: str
    seconds: float
    ok: bool
    reason: str = ""
    readings: dict = field(default_factory=dict)
    raw_seconds: float = 0.0     # as measured; `seconds` is host-calibrated


def cap_threads():
    """Cap native thread pools at the core count; keep one CLI worker."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    os.environ.pop("ANNULAR_DIRICHLET_WORKERS", None)
    return nproc


def source_record():
    """Commit (when the checkout is a git repository), digest and line
    count of src/."""
    h, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_commit": commit, "src_sha256": h.hexdigest()[:16],
            "src_lines": lines}


def run_pass(workload, pass_index, tracer=None):
    """Run one pass; each task follows a calibration sample, and its time is
    converted to reference-host seconds (see calibrate.py)."""
    import calibrate

    results, samples = [], []
    for task in workload.tasks(pass_index):
        samples.append(calibrate.sample())
        span = tracer.span(task.layer) if tracer else contextlib.nullcontext()
        seconds = None
        t0 = time.perf_counter()
        try:
            with span:
                out = task.call()
            seconds = time.perf_counter() - t0
            readings = task.check(out)
        except Exception as e:  # the task boundary: a failed task, go on
            if seconds is None:
                seconds = time.perf_counter() - t0
            results.append(TaskResult(task.name, task.layer, seconds, False,
                                      f"{type(e).__name__}: {e}",
                                      getattr(e, "readings", {})))
            continue
        results.append(TaskResult(task.name, task.layer, seconds, True,
                                  readings=readings))
    for r, scale in zip(results, calibrate.scales(samples)):
        r.raw_seconds, r.seconds = r.seconds, r.seconds * scale
    return results


def timed_setup(workload):
    """Median set-up time in reference-host seconds."""
    import calibrate

    times, problems = [], []
    for _ in range(workload.setup_repeats):
        scale = calibrate.scale_now()
        t0 = time.perf_counter()
        problems = workload.setup()
        times.append(scale * (time.perf_counter() - t0))
    return statistics.median(times), problems


def pass_count(workload, seconds):
    """Passes that fit in `seconds` at the workload's nominal pass time; at
    least three, so that wall_s is a best of several."""
    return max(3, math.floor(seconds / workload.nominal_pass_s))


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, by
    nearest rank, as (value, percentile).  With fewer than 2*TAIL_BEYOND
    samples that percentile lies below the median, so the median rank is
    used instead."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - TAIL_BEYOND, math.ceil(n / 2))
    return xs[k - 1], 100.0 * k / n


def end_to_end(passes, setup_s):
    """wall_s is the best pass: the machine's speed drifts by tens of
    percent within seconds, and the fastest pass varies least."""
    results = [r for p in passes for r in p]
    ok = [r.seconds for r in results if r.ok]
    walls = [sum(r.seconds for r in p) for p in passes]
    wall_s = min(walls)
    raw_walls = [sum(r.raw_seconds for r in p) for p in passes]
    by_name = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r.seconds)
    descents = [r for r in results if r.layer.startswith("discrete.minimize")]
    metrics = {"setup_s": setup_s, "wall_s": wall_s,
               "tasks_per_s": len(ok) / len(passes) / wall_s,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF)
               .ru_maxrss / 1024.0,
               "failed_frac": (len(results) - len(ok)) / len(results)}
    info = {"passes": len(passes), "samples": len(ok),
            "pass_wall_s": [round(w, 4) for w in walls],
            "pass_wall_raw_s": [round(w, 4) for w in raw_walls],
            "task_median_ms": {k: round(1e3 * statistics.median(v), 3)
                               for k, v in sorted(by_name.items())}}
    if ok:
        metrics["task_p50_ms"] = 1e3 * statistics.median(ok)
        value, pct = tail(ok)
        metrics["task_tail_ms"] = 1e3 * value
        info["task_tail_percentile"] = round(pct, 3)
    if descents:
        metrics["converged_frac"] = sum(
            bool(r.readings.get("converged")) for r in descents) / len(descents)
    return metrics, info


def median_latency_ms(results, keep):
    xs = [r.seconds for r in results if r.ok and keep(r)]
    return 1e3 * statistics.median(xs) if xs else None


def radial_layer(results, tracer, since, integrate_traced):
    ok = [r for r in results if r.ok]

    def reading_max(key):
        xs = [r.readings[key] for r in ok if key in r.readings]
        return max(xs) if xs else None

    out = {
        "radial.threshold_m_ms": median_latency_ms(
            results, lambda r: r.layer == "radial.threshold_m"),
        "radial.threshold_g_ms": median_latency_ms(
            results, lambda r: r.layer == "radial.threshold_g"),
        "radial.certificate_ms": median_latency_ms(
            results, lambda r: r.layer == "radial.claim1_certificate"),
        "radial.self_ms": tracer.self_ms("radial.", since),
        "radial.m_err_max": reading_max("m_err"),
        "radial.g_err_max": reading_max("g_err"),
        "radial.energy_err_max": reading_max("energy_err"),
        "radial.r0_err": reading_max("r0_err"),
        "phi_ode.residual_max": reading_max("residual"),
    }
    for case in ("case1", "case2"):
        out[f"radial.build_ms.{case}"] = median_latency_ms(
            results, lambda r: r.layer == "radial.build"
            and r.readings.get("case") == case)
    out["phi_ode.integrations_per_task"] = \
        tracer.count("phi_ode.integrate", since) / len(results) \
        if integrate_traced else None
    return out


def discrete_layer(results):
    by_name = {r.name: r for r in results if r.ok}

    def reading(name, key):
        r = by_name.get(name)
        return r.readings.get(key) if r else None

    def median64(key):
        xs = [r.readings[key] for r in results
              if r.ok and r.name.startswith("polar/64/")]
        return statistics.median(xs) if xs else None

    it64, it128 = median64("iterations"), reading("polar/128", "iterations")
    gap64, gap128 = median64("gap_rel"), reading("polar/128", "gap_rel")
    out = {"discrete.polar_iters.64": it64, "discrete.polar_iters.128": it128,
           "discrete.polar_iters.128_fixed": reading("polar/128_fixed", "iterations"),
           "discrete.radial_iters.case1": reading("radial/case1", "iterations"),
           "discrete.radial_iters.case2": reading("radial/case2", "iterations")}
    if it128:
        out["discrete.polar_ms_per_iter.128"] = \
            1e3 * by_name["polar/128"].seconds / it128
        if it64:
            out["discrete.iter_growth"] = it128 / it64
    if gap128:
        out["discrete.polar_gap_rel"] = abs(gap128)
        if gap64:
            out["discrete.polar_gap_order"] = math.log2(abs(gap64) / abs(gap128))
    return out


def cli_layer(results):
    out = {}
    for r in results:
        _, config, command = r.name.split("/")
        if config == "unit" and r.ok:
            out[f"cli.{command}_ms"] = 1e3 * r.seconds
            out[f"cli.bytes_written.{command}"] = r.readings["bytes"]
    return out


def trace_targets():
    """(owner, attribute, span name) for every wrapper of a traced pass.
    An owner or attribute that a later version removes is skipped."""
    from annular_dirichlet import cli, discrete, lagrangians, phi_ode, radial, weights

    grid = getattr(phi_ode, "OdeGrid", None)
    targets = [(weights.Weight, "__call__", "weights.eval"),
               (weights.Weight, "validate", "weights.validate"),
               (grid, "__init__", "phi_ode.grid_setup"),
               (grid, "integrate", "phi_ode.integrate"),
               (cli, "parse_config", "cli.parse_config")]
    for fn in ("solve_phi_tilde", "clamp_and_collapse", "recover_H", "modulus_of"):
        targets += [(phi_ode, fn, f"phi_ode.{fn}"), (radial, fn, f"phi_ode.{fn}")]
    for fn in ("build", "find_initial_value", "energy_closed_form", "threshold_m",
               "threshold_g", "claim1_certificate", "fixed_boundary_coefficients"):
        targets.append((radial, fn, f"radial.{fn}"))
    for fn in ("minimize_radial", "minimize_polar", "polar_energy",
               "polar_gradient", "radial_energy", "embed_radial", "perturb_map"):
        targets.append((discrete, fn, f"discrete.{fn}"))
    for fn in ("make_test_map", "fl_pullback_residual", "fl_radial_residual",
               "fl_tangential_residual", "fl_boundary_residual",
               "isoperimetric_margins"):
        targets.append((lagrangians, fn, f"lagrangians.{fn}"))
    return targets


def traced_run(name, workloads, seed):
    """Per-layer metrics: probes, then untraced, traced and untraced passes
    of the named workload on the same inputs (the first pass of a process
    runs slower, so the traced pass is compared with the mean of the two),
    and a traced pass of every other workload."""
    from probes import run_probes
    from tracing import Tracer, instrument

    problems = []
    for wname, w in workloads.items():
        if wname != name:
            problems += w.setup()
    config_text = workloads["cli-artifacts"].configs["unit"].read_text()
    metrics, absent = run_probes(seed, config_text)
    tracer = Tracer()
    all_results, untraced_s = [], []

    def untraced_pass():
        results = run_pass(workloads[name], 0)
        all_results.extend(results)
        untraced_s.append(sum(r.seconds for r in results))

    untraced_pass()
    for wname in [name] + [w for w in WORKLOAD_NAMES if w != name]:
        with instrument(tracer, trace_targets()) as missing:
            since = tracer.mark()
            results = run_pass(workloads[wname], 0, tracer)
        all_results += results
        if wname == name:
            untraced_pass()
            traced_s = sum(r.seconds for r in results)
            metrics["trace.overhead_frac"] = traced_s / statistics.mean(untraced_s) - 1
        if wname == "radial-solve":
            metrics.update(radial_layer(results, tracer, since,
                                        "phi_ode.integrate" not in missing))
        elif wname == "polar-descent":
            metrics.update(discrete_layer(results))
        else:
            metrics.update(cli_layer(results))
    absent += [f"{k} (no result)" for k, v in metrics.items() if v is None]
    metrics = {k: v for k, v in metrics.items() if v is not None}
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / f"trace-{name}-seed{seed}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "spans": tracer.dump()}))
    return metrics, absent, all_results, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "annular_dirichlet").is_dir() or not spec_path.is_file():
        print(f"error: no annular_dirichlet sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    nproc = cap_threads()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import annular_dirichlet.cli  # noqa: F401  (imports every layer)
    import_s = time.perf_counter() - t0

    import calibrate
    from workloads import WORKLOADS

    import_s *= calibrate.scale_now()

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "nproc": nproc,
              "python": platform.python_version(), "numpy": numpy.__version__,
              "scipy": scipy.__version__, **source_record(),
              "threads": {v: os.environ[v] for v in THREAD_VARS}}
    workloads = {name: WORKLOADS[name](args.seed, WORKDIR) for name in WORKLOAD_NAMES}
    try:
        setup_s, problems = timed_setup(workloads[args.workload])
        setup_s += import_s
        if args.trace:
            metrics, absent, results, more = traced_run(
                args.workload, workloads, args.seed)
            problems += more
            wanted = spec["per_layer"]
        else:
            workload = workloads[args.workload]
            passes = [run_pass(workload, i)
                      for i in range(pass_count(workload, args.seconds))]
            results = [r for p in passes for r in p]
            metrics, info = end_to_end(passes, setup_s)
            record.update(info, **{k: metrics[k] for k in
                                   ("failed_frac", "converged_frac") if k in metrics})
            absent = []
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORKDIR / "cli", ignore_errors=True)

    known = set().union(*(w.known_failures for w in workloads.values()))
    failed = [r for r in results if not r.ok]
    unexpected = [r for r in failed if r.name not in known]
    record["failed_tasks"] = sorted({f"{r.name}: {r.reason}" for r in failed})
    record["setup_problems"] = problems
    record["absent"] = absent
    print("record: " + json.dumps(record, sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(failed_frac="ratio", converged_frac="ratio")
    for name in sorted(metrics):
        print(f"{name:40s} {metrics[name]:>16.6g} {units.get(name, '?')}")
    listed = {m["name"] for m in wanted}
    for name in sorted(listed - set(metrics)):
        print(f"{name:40s} {'absent':>16s}")
    out = {"correct": not unexpected and not problems,
           "attempted": len(results), "failed": len(failed),
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in wanted if m["name"] in metrics}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
