"""offgridopt benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sizing-pso --seed 42 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: it repeats the
workload's fixed job for about ``--seconds`` of job time, checks every
job's outputs, and times set-up in fresh interpreters between jobs.  With
``--trace 1`` it alternates untraced jobs, jobs traced through wrappers
around the package's module functions and jobs whose calls are counted,
and reports the per-layer metrics.  Either way it prints a table, writes a
result file under ``perfbench/out/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  perfbench/README.md
describes the workloads, the metrics and what each one should show.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from paths import check_imported, package_root

ROOT = package_root()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracer as tracing  # noqa: E402
from offgridopt import (config, datasets, dispatch, economics,  # noqa: E402
                        simulate, solvers)
from workloads import WORKLOADS  # noqa: E402

check_imported(ROOT)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5       # fresh-interpreter set-ups per run, one before each
                        # job while jobs last; the median is reported
TRACED_SETUPS = 5       # in-process set-ups traced per traced run
MIN_JOBS = 2            # jobs per run at least, so that outputs can be compared

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
E2E_METRICS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Layer functions whose calls a counted job reports.
COUNTED = ("devices.battery_power_limit", "devices.battery_step",
           "dispatch.evaluate_schedule")
# Counts that must repeat exactly from one counted job to the next.
EXACT_COUNTS = ("solvers.evals", "devices.battery_power_limit.calls",
                "devices.battery_step.calls", "dispatch.evaluate_schedule.calls")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": commit}


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def more_jobs(walls: list[float], seconds: float) -> bool:
    """Start another job while it should end within ``seconds`` of job time,
    and until ``MIN_JOBS`` have run."""
    if len(walls) < MIN_JOBS:
        return True
    return sum(walls) * (len(walls) + 1) / len(walls) <= seconds


def bindings() -> dict[str, tuple]:
    """Layer function name -> every (module, attribute) binding the package
    calls it through.  A function imported by name elsewhere is wrapped
    under that name too."""
    out = {
        "config.build_config": ((config, "build_config"),),
        "config.build_context": ((config, "build_context"),),
        "timeseries.generate_annual_load": ((config, "generate_annual_load"),),
        "datasets.load_bundled_climate": ((datasets, "load_bundled_climate"),),
        "simulate.simulate_year": ((simulate, "simulate_year"),),
        "simulate.renewable_feed_in": ((simulate, "renewable_feed_in"),
                                       (dispatch, "renewable_feed_in")),
        "simulate.dispatch_cascade": ((simulate, "dispatch_cascade"),
                                      (dispatch, "dispatch_cascade")),
        "solvers.pso_minimize": ((solvers, "pso_minimize"),),
        "solvers.pareto_front": ((solvers, "pareto_front"),),
        "devices.battery_power_limit": ((simulate, "battery_power_limit"),
                                        (dispatch, "battery_power_limit")),
        "devices.battery_step": ((dispatch, "battery_step"),),
    }
    for attr in ("day_context", "optimize_day", "evaluate_schedule",
                 "propagate_soc", "rule_based_schedule"):
        out[f"dispatch.{attr}"] = ((dispatch, attr),)
    for attr, fn in vars(economics).items():
        if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                and getattr(fn, "__module__", None) == economics.__name__):
            out[f"economics.{attr}"] = ((economics, attr),)
    return out


def install(tr: tracing.Tracer, counting: bool) -> None:
    """Wrap the layer functions: count every call if ``counting``, else
    record spans.  ``devices`` functions run thousands of times per
    operation, so they are only counted: a span or a count on each of their
    calls would add a quarter to the cascade's time."""
    for name, where in bindings().items():
        if counting:
            tr.count(name, *where)
        elif not name.startswith("devices."):
            tr.patch(name, *where)


class Run:
    """One benchmark run: inputs, set-up, jobs and their checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.inputs = self.workload.inputs(seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.summaries: list[dict] = []

    def start(self):
        self.cfg, self.ctx = self.workload.setup(self.inputs)
        self.prepared = self.workload.prepare(self.inputs, self.cfg, self.ctx)

    def job(self, tr: tracing.Tracer | None = None, counting: bool = False):
        """Run the fixed job once and check its outputs.  With a tracer the
        job runs with ``install(tr, counting)``; the checks are neither timed
        nor traced."""
        w = self.workload
        args = (self.inputs, self.cfg, self.ctx, self.prepared)
        if tr is None:
            result = w.run(*args)
        else:
            install(tr, counting)
            try:
                if counting:
                    result = w.run(*args)
                else:
                    result = tr.span(w.run, "bench.job")(*args, wrap=tr.span)
            finally:
                tr.restore()
        checked = w.check(self.inputs, self.cfg, self.ctx, self.prepared, result)
        if self.digests and checked.digest != self.digests[0]:
            checked.failed = checked.attempted
            checked.failures.append("outputs differ from the run's first job")
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.failures += checked.failures
        self.digests.append(checked.digest)
        self.summaries.append(checked.summary)
        return result

    def fail(self, message: str):
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics.  Job time is the mean over the run, not the
    median of its three or four jobs: the speed of a shared machine switches
    between two levels every few seconds, and the mean over the run spreads
    less from run to run (README.md, "Noise")."""
    run.start()
    setups, jobs = [], []
    walls: list[float] = []
    while more_jobs(walls, seconds):
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(run.workload.name, run.inputs.seed))
        jobs.append(run.job())
        walls.append(jobs[-1].wall_s)
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(run.workload.name, run.inputs.seed))
    op_times = np.concatenate([j.op_times for j in jobs])
    summary = run.summaries[0]
    if run.workload.op_name == "day":
        # A typical day's time follows the machine's speed level, so its p50
        # spread twice as much between runs as the mean (README.md, "Noise").
        latency = float(np.mean(op_times))
        latency_label = f"day_dispatch_mean over {op_times.size} days"
    else:
        latency = float(np.percentile(op_times, 95))
        latency_label = f"design_eval_p95 over {op_times.size} evaluations"
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s": statistics.fmean(walls),
        "ops_per_s": sum(j.ops for j in jobs) / sum(walls),
        "op_latency_ms": latency * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "objective": summary["objective"],
    }
    details = {
        "jobs": len(jobs), "ops_per_job": jobs[0].ops,
        "setup_samples_s": setups, "job_walls_s": walls,
        "op_times_s": [j.op_times for j in jobs],
        "op_latency": latency_label, "summary": summary,
    }
    return metrics, details


def layer_metrics(run: Run, seconds: float) -> tuple[dict, dict]:
    setup_tr = tracing.Tracer()
    install(setup_tr, counting=False)
    try:
        for _ in range(TRACED_SETUPS):
            run.workload.setup(run.inputs)
    finally:
        setup_tr.restore()
    run.start()

    # Untraced, span-traced and counted jobs take turns; counted jobs run at
    # least twice so that their counts can be compared.
    tr, counter = tracing.Tracer(), tracing.Tracer()
    untraced, traced, counts = [], [], []
    kinds = itertools.chain(("untraced", "spans", "counts", "counts"),
                            itertools.cycle(("untraced", "spans", "counts")))
    walls: list[float] = []
    while len(counts) < MIN_JOBS or more_jobs(walls, seconds):
        kind = next(kinds)
        if kind == "untraced":
            untraced.append(run.job().wall_s)
            walls.append(untraced[-1])
        elif kind == "spans":
            traced.append(run.job(tr).wall_s)
            walls.append(traced[-1])
        else:
            before = {name: counter.calls(name) for name in COUNTED}
            result = run.job(counter, counting=True)
            walls.append(result.wall_s)
            job_counts = {f"{name}.calls": counter.calls(name) - before[name]
                          for name in COUNTED}
            counts.append({"solvers.evals": result.evals,
                           "designs": result.distinct_designs, **job_counts})
    for name in EXACT_COUNTS:
        if len({c[name] for c in counts}) != 1:
            run.fail(f"{name} differs between counted jobs: "
                     f"{[c[name] for c in counts]}")

    OUT_DIR.mkdir(exist_ok=True)
    tr.write(OUT_DIR / f"{run.workload.name}-seed{run.inputs.seed}.spans.npz")

    s_name, _, s_dur, _ = setup_tr.durations()

    def setup_median(label):
        d = s_dur[s_name == setup_tr.names.index(label)]
        return float(np.median(d))

    name, parent, dur, self_t = tr.durations()
    ids = {label: i for i, label in enumerate(tr.names)}
    n_jobs = len(traced)

    def where(label):
        return name == ids.get(label, -1)

    def total(label):
        return float(dur[where(label)].sum())

    def self_total(label):
        return float(self_t[where(label)].sum())

    def calls(label):
        return int(np.count_nonzero(where(label)))

    def mean(label, scale):
        n = calls(label)
        return total(label) / n * scale if n else None

    job_s = total("bench.job")
    econ_ids = [i for label, i in ids.items() if label.startswith("economics.")]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    econ_top = np.isin(name, econ_ids) & ~np.isin(parent_name, econ_ids)
    sims = calls("simulate.simulate_year") / n_jobs      # per job
    days = calls("bench.day") / n_jobs
    c = counts[0]
    summary = run.summaries[0]
    improved = summary.get("improved_days", 0)
    feasible = summary.get("feasible_days", 0)
    layer = {
        "config.build_context_s": setup_median("config.build_context"),
        "timeseries.generate_annual_load_s": setup_median("timeseries.generate_annual_load"),
        "economics.baseline_metrics_s": setup_median("economics.baseline_metrics"),
        "simulate.renewable_feed_in.mean_ms": mean("simulate.renewable_feed_in", 1e3),
        "simulate.dispatch_cascade.mean_ms": mean("simulate.dispatch_cascade", 1e3),
        "simulate.dispatch_cascade.share": total("simulate.dispatch_cascade") / job_s,
        "simulate.renewable_feed_in.share": total("simulate.renewable_feed_in") / job_s,
        "simulate.simulate_year.self_share": self_total("simulate.simulate_year") / job_s,
        "economics.share": float(dur[econ_top].sum()) / job_s,
        "solvers.self_share": (self_total("solvers.pso_minimize")
                               + self_total("solvers.pareto_front")) / job_s,
        "dispatch.optimize_day.self_share": self_total("dispatch.optimize_day") / job_s,
        "dispatch.evaluate_schedule.self_share":
            self_total("dispatch.evaluate_schedule") / job_s,
        "dispatch.propagate_soc.share": total("dispatch.propagate_soc") / job_s,
        "dispatch.rule_based_schedule.share": total("dispatch.rule_based_schedule") / job_s,
        "solvers.evals": c["solvers.evals"],
        "solvers.repeat_frac": (1 - c["designs"] / c["solvers.evals"]
                                if c["solvers.evals"] else 0.0),
        "devices.battery_power_limit.calls": c["devices.battery_power_limit.calls"],
        "devices.battery_step.calls": c["devices.battery_step.calls"],
        "dispatch.evaluate_schedule.calls": c["dispatch.evaluate_schedule.calls"],
        "dispatch.improved_days": improved,
        "dispatch.feasible_days": feasible,
        "tracing.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1,
    }
    per_sim = float(dur[econ_top & (parent_name == ids.get("simulate.simulate_year", -1))]
                    .sum())
    extra = {
        "simulate.simulate_year.mean_ms": mean("simulate.simulate_year", 1e3),
        "simulate.simulate_year.self_ms":
            self_total("simulate.simulate_year") / n_jobs / sims * 1e3
            if sims else None,
        "economics.per_sim_ms": per_sim / n_jobs / sims * 1e3 if sims else None,
        "solvers.self_s": (self_total("solvers.pso_minimize")
                           + self_total("solvers.pareto_front")) / n_jobs
                          if c["solvers.evals"] else None,
        "devices.battery_power_limit.calls_per_sim":
            c["devices.battery_power_limit.calls"] / sims if sims else None,
        "devices.battery_step.calls_per_day":
            c["devices.battery_step.calls"] / days if days else None,
        "dispatch.optimize_day.mean_s": mean("dispatch.optimize_day", 1.0),
        "dispatch.evaluate_schedule.calls_per_day":
            c["dispatch.evaluate_schedule.calls"] / days if days else None,
        "dispatch.evaluate_schedule.mean_us": mean("dispatch.evaluate_schedule", 1e6),
        "dispatch.propagate_soc.mean_us": mean("dispatch.propagate_soc", 1e6),
        "dispatch.rule_based_schedule.mean_ms": mean("dispatch.rule_based_schedule", 1e3),
        "dispatch.improved_frac": improved / days if days else None,
        "dispatch.feasible_frac": feasible / days if days else None,
    }
    layer = {k: (0.0 if v is None else v) for k, v in layer.items()}
    details = {"traced_jobs": n_jobs, "traced_walls_s": traced,
               "untraced_walls_s": untraced, "spans": int(len(name)),
               "counts_per_job": counts, "summary": summary,
               "layer_detail": {k: v for k, v in extra.items() if v is not None}}
    return layer, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    info = machine()
    info["loadavg_start"] = os.getloadavg()
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, details = layer_metrics(run, args.seconds)
        units = LAYER_UNITS
    else:
        metrics, details = measure(run, args.seconds)
        units = E2E_METRICS
    info["loadavg_end"] = os.getloadavg()

    print(f"# offgridopt benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    print(f"# machine {json.dumps(info)}")
    for name, unit in units.items():
        label = run.workload.labels.get(name, "") if not args.trace else ""
        print(f"{name:44s} {metrics[name]:>16.6g} {unit:6s} {label}".rstrip())
    for name, value in details.get("layer_detail", {}).items():
        print(f"{name:44s} {value:>16.6g}")
    for name, value in details["summary"].items():
        if name != "objective":
            print(f"{name:44s} {value:>16.6g}")
    if not args.trace:
        print(f"# {details['op_latency']}, {details['jobs']} jobs of "
              f"{details['ops_per_job']} {run.workload.op_name}s")
    print(f"failed_frac {run.failed / max(run.attempted, 1):g} "
          f"({run.failed} of {run.attempted} operations)")
    print(f"digest {run.digests[0]}")
    for message in run.failures[:20]:
        print(f"FAILED {message}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info,
              "inputs": {"load_seed": run.inputs.load_seed,
                         "solver_seed": run.inputs.solver_seed,
                         "days": run.prepared.get("days")},
              "metrics": metrics, "details": details, "digest": run.digests[0],
              "attempted": run.attempted, "failed": run.failed,
              "failures": run.failures}
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=float)
        fh.write("\n")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
