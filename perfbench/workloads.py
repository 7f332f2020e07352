"""The benchmark's three workloads: inputs drawn from the seed, the timed
job, and the checks on its outputs.

Every workload is one process and a closed loop: each operation waits for
the previous one.  The program receives only generated inputs (a config
mapping with the load seed, the solver seed and, for dispatch, the day
list), always through the package's public module functions, looked up at
call time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from offgridopt import config, dispatch, economics, simulate, solvers
from offgridopt.economics import Weights
from offgridopt.simulate import Design

# Evaluation budget of one sizing run: 20 sweeps of the 30-particle swarm.
PSO_EVALS = 600
PSO_SWARM = 30
# Pareto search size: 36 designs per generation, 14 generations after the
# initial population, so 540 designs per run.
PARETO_POPULATION = 36
PARETO_GENERATIONS = 14
# Day-ahead dispatch: the sized design and the default dispatch settings.
DISPATCH_DESIGN = (100, 8, 45.45)
DISPATCH_WEIGHTS = (0.25, 0.25, 0.25, 0.25)
DISPATCH_DPSP_MAX = 0.01
DISPATCH_MAX_PATTERNS = 120
# Days per dispatch run, one from each of this many strata (see choose_days).
DISPATCH_DAYS = 32

# Tolerances of the output checks.
BALANCE_TOL = 1e-6
BOUND_TOL = 1e-9
VALUE_RTOL = 1e-12


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(a), abs(b))


def design_of(x) -> Design:
    """Integer-count design of a search point, as the sizing CLI builds it."""
    return Design(round(x[0]), round(x[1]), float(x[2]))


@dataclass
class Inputs:
    """Everything the seed decides."""

    seed: int
    load_seed: int
    solver_seed: int
    days_seed: int
    raw_config: dict


@dataclass
class JobResult:
    ops: int                     # design evaluations, or days dispatched
    op_times: list[float]        # wall time of each operation [s]
    wall_s: float                # wall time of the whole job [s]
    output: object               # what the program returned
    evals: int = 0               # objective evaluations (design workloads)
    distinct_designs: int = 0


@dataclass
class Checked:
    """Outcome of checking one job's outputs: operations checked, the ones
    that failed, and why."""

    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    summary: dict = field(default_factory=dict)   # quality figures


class DesignObjective:
    """The objective a solver calls: one ``simulate_year`` per point.

    It times every evaluation and remembers each design, so the benchmark
    can report per-evaluation latency and the share of repeated designs.
    """

    def __init__(self, ctx, weights: Weights, vector: bool):
        self.ctx = ctx
        self.weights = weights
        self.vector = vector
        self.times: list[float] = []
        self.designs: list[tuple] = []

    def __call__(self, x):
        t0 = perf_counter()
        design = design_of(x)
        sim = simulate.simulate_year(design, self.ctx)
        if self.vector:
            value = sim.objectives.as_array()
        else:
            value = economics.weighted_objective(sim.objectives, self.weights)
        self.times.append(perf_counter() - t0)
        self.designs.append((design.pv_units, design.wt_units, design.e_b_init))
        return value


class Workload:
    name = ""
    op_name = ""
    # what the generic end-to-end metrics stand for on this workload
    labels: dict[str, str] = {}

    def raw_config(self, load_seed: int) -> dict:
        return {"seed": load_seed}

    def inputs(self, seed: int) -> Inputs:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        load_seed, solver_seed, days_seed = (
            int(v) for v in rng.integers(0, 2**31 - 1, size=3))
        return Inputs(seed, load_seed, solver_seed, days_seed,
                      self.raw_config(load_seed))

    def setup(self, inputs: Inputs):
        """Build the run config and the simulation context (timed as set-up)."""
        cfg = config.build_config(inputs.raw_config)
        ctx = config.build_context(cfg)
        ctx.baseline
        return cfg, ctx

    def prepare(self, inputs: Inputs, cfg, ctx) -> dict:
        """Untimed input generation that needs the built context."""
        return {}

    def run(self, inputs: Inputs, cfg, ctx, prepared: dict, wrap=None) -> JobResult:
        raise NotImplementedError

    def check(self, inputs: Inputs, cfg, ctx, prepared: dict, job: JobResult) -> Checked:
        raise NotImplementedError


class _DesignWorkload(Workload):
    op_name = "design evaluation"
    labels = {"ops_per_s": "designs_per_s", "op_latency_ms": "design_eval_p95_ms"}
    vector = False

    def _objective(self, cfg, ctx, wrap):
        objective = DesignObjective(ctx, cfg.weights, self.vector)
        return objective, (wrap(objective, "bench.objective") if wrap else objective)

    def _result(self, objective: DesignObjective, wall: float, output) -> JobResult:
        return JobResult(ops=len(objective.times), op_times=objective.times,
                         wall_s=wall, output=output, evals=len(objective.times),
                         distinct_designs=len(set(objective.designs)))


class SizingPso(_DesignWorkload):
    name = "sizing-pso"
    labels = {**_DesignWorkload.labels, "objective": "sizing_best_obj"}

    def run(self, inputs, cfg, ctx, prepared, wrap=None):
        objective, call = self._objective(cfg, ctx, wrap)
        t0 = perf_counter()
        report = solvers.pso_minimize(call, cfg.search_space(),
                                      swarm_size=PSO_SWARM, max_evals=PSO_EVALS,
                                      seed=inputs.solver_seed)
        return self._result(objective, perf_counter() - t0, report)

    def check(self, inputs, cfg, ctx, prepared, job):
        report = job.output
        out = Checked(attempted=1)
        design = design_of(report.best_point)
        sim = simulate.simulate_year(design, ctx)
        value = economics.weighted_objective(sim.objectives, cfg.weights)
        out.failures += _sim_failures(sim, ctx)
        if not _close(value, report.best_value):
            out.failures.append(f"best_value {report.best_value!r} != "
                                f"re-evaluation {value!r}")
        if report.evaluations != PSO_EVALS:
            out.failures.append(f"{report.evaluations} evaluations, "
                                f"budget {PSO_EVALS}")
        out.failed = int(bool(out.failures))
        out.digest = _digest([report.best_point, float(report.best_value),
                              report.evaluations])
        out.summary = {"sizing_best_obj": float(report.best_value),
                       "objective": float(report.best_value)}
        return out


class ParetoVariants(_DesignWorkload):
    name = "pareto-variants"
    labels = {**_DesignWorkload.labels, "objective": "pareto_best_obj"}
    vector = True

    def raw_config(self, load_seed):
        return {
            "seed": load_seed,
            "battery": {"chemistry": "LA"},
            "generator": {"kind": "MT"},
            "strategy": {"cycle_counting": "throughput",
                         "dg_may_charge_battery": False},
        }

    def run(self, inputs, cfg, ctx, prepared, wrap=None):
        objective, call = self._objective(cfg, ctx, wrap)
        t0 = perf_counter()
        front = solvers.pareto_front(call, cfg.search_space(),
                                     population=PARETO_POPULATION,
                                     generations=PARETO_GENERATIONS,
                                     seed=inputs.solver_seed)
        return self._result(objective, perf_counter() - t0, front)

    def check(self, inputs, cfg, ctx, prepared, job):
        front = job.output
        out = Checked(attempted=1)
        if not front:
            out.failures.append("empty front")
        for i, (_, vi) in enumerate(front):
            for j, (_, vj) in enumerate(front):
                if i != j and solvers.dominates(vi, vj):
                    out.failures.append(f"front member {i} dominates {j}")
        weighted = []
        for point, vals in front:
            sim = simulate.simulate_year(design_of(point), ctx)
            fresh = sim.objectives.as_array()
            if not all(_close(a, b) for a, b in zip(fresh, vals)):
                out.failures.append(f"front values at {point.tolist()} differ "
                                    "from a fresh simulation")
            out.failures += _sim_failures(sim, ctx)
            weighted.append(economics.weighted_objective(sim.objectives,
                                                         cfg.weights))
        out.failed = int(bool(out.failures))
        parts = []
        for point, vals in front:
            parts += [point, vals]
        out.digest = _digest(parts)
        best = min(weighted) if weighted else math.nan
        out.summary = {"front_size": len(front), "pareto_best_obj": best,
                       "objective": best}
        return out


class DispatchDays(Workload):
    name = "dispatch-days"
    op_name = "day"
    labels = {"ops_per_s": "days_per_s", "op_latency_ms": "day_dispatch_mean_ms",
              "objective": "dispatch_obj_ratio"}

    def prepare(self, inputs, cfg, ctx):
        return {"days": choose_days(ctx, np.random.default_rng(inputs.days_seed))}

    def _day_context(self, ctx, day):
        return dispatch.day_context(ctx, Design(*DISPATCH_DESIGN), day,
                                    Weights(DISPATCH_WEIGHTS),
                                    dpsp_max=DISPATCH_DPSP_MAX)

    def run(self, inputs, cfg, ctx, prepared, wrap=None):
        def one_day(day):
            return dispatch.optimize_day(self._day_context(ctx, day),
                                         max_patterns=DISPATCH_MAX_PATTERNS,
                                         seed=inputs.solver_seed)

        if wrap:
            one_day = wrap(one_day, "bench.day")
        results, times = [], []
        t0 = perf_counter()
        for day in prepared["days"]:
            t = perf_counter()
            results.append(one_day(day))
            times.append(perf_counter() - t)
        return JobResult(ops=len(results), op_times=times,
                         wall_s=perf_counter() - t0, output=results)

    def check(self, inputs, cfg, ctx, prepared, job):
        days = prepared["days"]
        out = Checked(attempted=len(days))
        parts, objs, ratios = [], [], []
        for day, res in zip(days, job.output):
            ev, rb = res.evaluation, res.rule_based_evaluation
            before = len(out.failures)
            if rb.feasible and not res.feasible:
                out.failures.append(f"day {day}: rule-based schedule is "
                                    "feasible, optimized one is not")
            if ev.weighted > rb.weighted:
                out.failures.append(f"day {day}: objective {ev.weighted!r} "
                                    f"above rule-based {rb.weighted!r}")
            again = dispatch.evaluate_schedule(res.schedule, self._day_context(ctx, day))
            if again.weighted != ev.weighted or again.feasible != ev.feasible:
                out.failures.append(f"day {day}: schedule re-evaluates to "
                                    f"{again.weighted!r}, reported {ev.weighted!r}")
            out.failed += len(out.failures) > before
            objs.append(ev.weighted)
            ratios.append(ev.weighted / rb.weighted)
            parts += [day, float(ev.weighted), res.feasible,
                      res.schedule.p_dg, res.schedule.p_bs]
        out.digest = _digest(parts)
        improved = sum(r.evaluation.weighted < r.rule_based_evaluation.weighted
                       for r in job.output)
        out.summary = {
            "dispatch_obj_mean": float(np.mean(objs)),
            "dispatch_obj_ratio": float(np.mean(ratios)),
            "objective": float(np.mean(ratios)),
            "improved_days": int(improved),
            "feasible_days": int(sum(r.feasible for r in job.output)),
        }
        return out


def choose_days(ctx, rng, n_days: int = DISPATCH_DAYS) -> list[int]:
    """Draw one day from each of ``n_days`` strata of the year.

    Days are ordered by how long the rule-based schedule runs the generator,
    then by renewable energy, and cut into equal strata.  Days that need the
    generator cost about three times as many schedule evaluations as days
    that do not, so drawing a fixed share of each keeps the work of a run
    nearly the same from seed to seed.
    """
    n = len(ctx.load.demand) // 24
    keys = []
    for day in range(n):
        dctx = dispatch.day_context(ctx, Design(*DISPATCH_DESIGN), day,
                                    Weights(DISPATCH_WEIGHTS),
                                    dpsp_max=DISPATCH_DPSP_MAX)
        rb = dispatch.rule_based_schedule(dctx)
        keys.append((int(np.count_nonzero(rb.p_dg > 0)), -float(dctx.res_dc.sum())))
    order = sorted(range(n), key=lambda d: keys[d])
    edges = np.linspace(0, n, n_days + 1).astype(int)
    return [order[int(rng.integers(lo, hi))] for lo, hi in zip(edges[:-1], edges[1:])]


def _sim_failures(sim, ctx) -> list[str]:
    """Physical checks on an annual simulation."""
    failures = []
    ok, bad = simulate.hourly_power_balance_check(sim, ctx.converter, tol=BALANCE_TOL)
    if not ok:
        failures.append(f"power balance off in {len(bad)} hours")
    bat = ctx.battery
    if sim.soc.min() < bat.soc_min - BOUND_TOL or sim.soc.max() > bat.soc_max + BOUND_TOL:
        failures.append("SOC outside its bounds")
    gen = ctx.generator
    on = sim.p_dg[sim.p_dg > 0]
    if on.size and (on.min() < gen.min_power - BOUND_TOL
                    or on.max() > gen.rated_power + BOUND_TOL):
        failures.append("generator output outside {0} U [min, rated]")
    return failures


WORKLOADS = {w.name: w for w in (SizingPso(), DispatchDays(), ParetoVariants())}
