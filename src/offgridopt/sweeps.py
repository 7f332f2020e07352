"""Parameter sweeps: vary one parameter (or one objective weight), re-run
the sizing optimization per point, and emit trend tables.

Each sweep point re-solves the configured sizing problem with its context
and weights overridden: the solver, budget, swarm size, search space and
seed are the ones ``size`` uses, so differences between rows reflect the
parameter, not solver noise.  A point whose inputs are invalid
(``InputDataError``) is recorded as a failed row and the sweep continues,
so the output has one row per requested value; any other exception
propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .economics import Weights, weighted_objective
from .errors import InputDataError
from .simulate import Design, SimulationContext, SizingProblem, simulate_year
from .timeseries import write_csv

SWEEP_PARAMETERS = ("dg_rated", "fuel_price", "nominal_rate", "inflation",
                    "bs_price", "w1", "w2", "w3", "w4", "w5")

# default ranges for the sensitivity analyses
DEFAULT_RANGES = {
    "dg_rated": [0.0, 4.0, 8.0, 12.0, 16.0, 20.0],            # kW
    "fuel_price": [0.2, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0],      # $/gal
    "nominal_rate": [0.0, 0.04, 0.08, 0.12, 0.16, 0.20],
    "inflation": [0.0, 0.03, 0.06, 0.09, 0.12, 0.15],
    "bs_price": [50.0, 100.0, 150.0, 200.0, 250.0, 300.0],    # $/kWh
}
for _w in ("w1", "w2", "w3", "w4", "w5"):
    DEFAULT_RANGES[_w] = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

SWEEP_CSV_HEADER = ["value", "n_s", "n_w", "e_b", "lcoe_norm", "em_norm",
                    "dpsp", "repg", "one_minus_ref", "dg_hours", "bs_cycles",
                    "weighted_obj", "status"]


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
            raise InputDataError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"pick from {SWEEP_PARAMETERS}")
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise InputDataError("sweep needs at least one value")
        if list(vals) != sorted(vals):
            raise InputDataError("sweep values must be sorted ascending")
        if self.parameter.startswith("w") and not all(0 <= v <= 1 for v in vals):
            raise InputDataError("weight sweep values must be in [0, 1]")
        object.__setattr__(self, "values", vals)

    @classmethod
    def default(cls, parameter: str) -> "SweepSpec":
        return cls(parameter, tuple(DEFAULT_RANGES[parameter]))


def apply_override(ctx: SimulationContext, weights: Weights, parameter: str,
                   value: float):
    """Return (context, weights) with one parameter overridden.

    Weight sweeps fix w_i = value and split the remainder equally over the
    other four weights.  An overridden context is a new object built by
    ``dataclasses.replace``, so it recomputes its cached baseline.
    """
    if parameter == "dg_rated":
        gen = replace(ctx.generator, rated_power=float(value))
        new_ctx = replace(ctx, generator=gen)
        return new_ctx, weights
    if parameter == "fuel_price":
        gen = replace(ctx.generator, fuel_price=float(value))
        base = replace(ctx.baseline_generator, fuel_price=float(value))
        return replace(ctx, generator=gen, baseline_generator=base), weights
    if parameter == "nominal_rate":
        return replace(ctx, fin=replace(ctx.fin, nominal_rate=float(value))), weights
    if parameter == "inflation":
        return replace(ctx, fin=replace(ctx.fin, inflation=float(value))), weights
    if parameter == "bs_price":
        return replace(ctx, costs=replace(ctx.costs, bs_capital_per_kwh=float(value))), weights
    if parameter in ("w1", "w2", "w3", "w4", "w5"):
        i = int(parameter[1]) - 1
        rest = (1.0 - value) / 4.0
        vals = [rest] * 5
        vals[i] = float(value)
        return ctx, Weights(tuple(vals))
    raise InputDataError(f"unknown sweep parameter {parameter!r}")


@dataclass
class SweepRow:
    value: float
    design: Design | None
    objectives: object
    dg_hours: int
    bs_cycles: float
    weighted_obj: float
    status: str = "ok"


def _sweep_point(task) -> SweepRow:
    problem, parameter, value, seed = task
    try:
        ctx, weights = apply_override(problem.ctx, problem.weights, parameter,
                                      value)
        point = replace(problem, ctx=ctx, weights=weights)
        report = point.solve(seed)
        design = point.design(report.best_point)
        sim = simulate_year(design, ctx)
        return SweepRow(value, design, sim.objectives, sim.dg_online_hours,
                        sim.battery_cycles, report.best_value)
    except InputDataError as exc:
        return SweepRow(value, None, None, 0, 0.0, float("nan"),
                        status=f"failed: {exc}")


def run_sweep(spec: SweepSpec, problem: SizingProblem, seed: int = 0,
              workers: int = 1) -> list[SweepRow]:
    """Re-solve the sizing problem at each sweep value with its solver,
    budget and seed.  Points run in ``min(workers, points)`` processes when
    that is more than one, since the pool starts all its processes at once;
    the output row order always follows ``spec.values``."""
    if workers < 1:
        raise InputDataError(f"workers must be >= 1, got {workers}")
    tasks = [(problem, spec.parameter, value, seed) for value in spec.values]
    workers = min(workers, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, tasks))
    return [_sweep_point(task) for task in tasks]


def objective_at_fixed_design(design: Design, overrides: dict,
                              ctx: SimulationContext, weights: Weights):
    """Simulate one design under parameter overrides, no re-optimization.

    Separates direct cost effects from re-sizing effects in sweep trends.
    Returns (SimResult, weighted objective); absolute costs live on the
    result's cost breakdown.
    """
    point_ctx, point_w = ctx, weights
    for parameter, value in overrides.items():
        point_ctx, point_w = apply_override(point_ctx, point_w, parameter, value)
    sim = simulate_year(design, point_ctx)
    return sim, weighted_objective(sim.objectives, point_w)


def _sweep_cells(r: SweepRow) -> list:
    if r.design is None:
        return [r.value] + [""] * 10 + [r.status]
    o = r.objectives
    return [r.value, *r.design.csv_cells(), f"{o.lcoe_norm:.5f}",
            f"{o.em_norm:.5f}", f"{o.dpsp:.6f}", f"{o.repg:.5f}",
            f"{o.one_minus_ref:.5f}", r.dg_hours, f"{r.bs_cycles:.1f}",
            f"{r.weighted_obj:.5f}", r.status]


def sweep_to_csv(rows: list[SweepRow], path):
    write_csv(path, SWEEP_CSV_HEADER, map(_sweep_cells, rows))
