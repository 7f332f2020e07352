"""Day-ahead (24 h) economic-environmental dispatch of a sized system.

The decision variables are the hourly generator output and battery power for
the next day.  The generator is semicontinuous (off, or between its minimum
and rated output), battery power is bounded and must keep the SOC inside its
safe window for all 25 knot points, and the daily lost-load share must stay
under ``dpsp_max``.  The search is two-level: the 24-bit generator ON/OFF
pattern is explored by seeded hill-climbing warm-started from the rule-based
schedule, and the continuous setpoints inside a pattern are refined by
projected coordinate descent with an exact penalty on the constraint
residuals.

A candidate costs one pass over its hours in the C day kernel
``kernels.day_hours``, which also returns the residuals and the penalty;
the package needs a C compiler to build it (see ``kernels``).  Its Python
oracle, ``_day_hours``, lives in ``tests/reference.py`` and takes its SOC
knots from ``propagate_soc``; the tests compare the two bit for bit.  The
search prices a candidate only when its penalty alone does not already
rule it out; prices and objectives stay in Python (``evaluate_schedule``),
and a context keeps the price of the last (energy, online hours, starts)
it priced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from . import economics, kernels
# perfbench/run.py binds ``dispatch.battery_step`` in trace mode, so the
# name stays; ``propagate_soc`` is its hourly form.
from .devices import battery_power_limit, battery_step  # noqa: F401
from .devices import self_discharge_hourly
from .economics import BaselineMetrics, ObjectiveVector, Weights
from .errors import InputDataError
from .simulate import (CascadeState, Design, SimulationContext,
                       dispatch_cascade, renewable_feed_in)
from .timeseries import ClimateSeries, LoadSeries, write_csv

SCHEDULE_HEADER = ["hour", "p_dg", "p_bs", "soc", "p_res", "load", "dump", "lost"]
CONSTRAINT_TOL = 1e-6
REFINE_SWEEPS = 6   # coordinate-descent sweeps, each halving the step sizes
PENALTY_MU = 200.0  # weight of the constraint residuals in the search value
VIOLATIONS = ("dg_semicontinuous", "dg_rated", "battery_power", "soc_bounds",
              "dpsp")


@dataclass(frozen=True)
class DispatchContext:
    """A sized system on one day: ``sim`` is the simulation context of the
    day's 24 hours, which ``day_context`` slices out of the year.  Frozen,
    since what its schedules share is derived once (``day_inputs``, which
    the day kernel reads); ``dataclasses.replace`` makes a changed day."""

    design: Design
    sim: SimulationContext
    weights: Weights                # 4 entries: COE, emissions, REPG, 1-REF
    dpsp_max: float = 0.01
    soc_start: float | None = None  # the battery's soc_max when omitted

    def __post_init__(self):
        sim, design, battery = self.sim, self.design, self.sim.battery
        if len(sim.load) != 24:
            raise InputDataError("dispatch context needs 24-hour series")
        if not 0 <= self.dpsp_max <= 1:
            raise InputDataError("dpsp_max must be in [0, 1]")
        if len(self.weights) != 4:
            raise InputDataError("dispatch uses 4 objective weights")
        if self.soc_start is None:
            object.__setattr__(self, "soc_start", battery.soc_max)
        if not battery.soc_min <= self.soc_start <= battery.soc_max:
            raise InputDataError(
                f"soc_start must be in the battery's [soc_min, soc_max] = "
                f"[{battery.soc_min}, {battery.soc_max}], got {self.soc_start}")
        feed_in, demand_dc, load_kwh = sim.hourly_inputs
        _, _, res_dc = renewable_feed_in(design, feed_in, sim.pv, sim.wind,
                                         sim.converter)
        capital = economics.initial_capital(
            design.pv_kw(sim.pv), design.wt_kw(sim.wind), design.e_b_init,
            sim.generator.rated_power, sim.costs)
        # As the fields are set: updating vars(self) slowed every later read.
        for name, value in dict(
            demand_dc=demand_dc, res_dc=res_dc,
            capital=capital, res_kwh=float(res_dc.sum()),
            # the (energy, online, starts) last priced and its
            # (c_daily, emissions); see evaluate_schedule
            price_memo=[None, None],
            daily_fixed_om=economics.fixed_om(capital, sim.costs) / 365.0,
            daily_baseline=_daily_baseline(sim, load_kwh),
            day_inputs=kernels.DayInputs(
                tuple(res_dc.tolist()), tuple(demand_dc.tolist()),
                sim.converter.eta_rec, sim.converter.eta_inv,
                sim.generator.min_power, CONSTRAINT_TOL, self.soc_start,
                design.e_b_init, 1.0 - self_discharge_hourly(battery),
                battery.round_trip_eff, sim.generator.rated_power,
                (battery_power_limit(design.e_b_init, battery)
                 if design.e_b_init > 0 else 0.0),
                battery.soc_min, battery.soc_max, load_kwh, self.dpsp_max,
                PENALTY_MU)).items():
            object.__setattr__(self, name, value)


def _daily_baseline(sim: SimulationContext, energy: float) -> BaselineMetrics:
    """COE and emissions of the baseline generator serving the whole day
    (``energy`` [kWh]) by itself: online 24 h, one startup and one
    shutdown.  Both must be > 0, as the objectives divide by them."""
    gen, costs = sim.baseline_generator, sim.costs
    c = (economics.operating_cost(gen, costs, energy, 24.0, 1)
         + costs.om_fix_dg * costs.dg_capital_per_kw
         * gen.rated_power / 365.0)
    return economics.positive_baseline(
        "daily", c / energy, economics.emissions_total(energy, gen))


def day_context(ctx: SimulationContext, design: Design, day: int,
                weights: Weights, dpsp_max: float = 0.01,
                generator=None) -> DispatchContext:
    """Slice day ``day`` out of an annual simulation context, optionally
    with another dispatch generator; the baseline generator stays."""
    n_days = len(ctx.load) // 24
    if not 0 <= day < n_days:
        raise InputDataError(f"day {day} is outside [0, {n_days})")
    sim = replace(ctx, climate=ctx.climate.slice(24 * day, 24 * (day + 1)),
                  load=ctx.load.day(day), generator=generator or ctx.generator)
    return DispatchContext(design, sim, weights, dpsp_max)


class DispatchSchedule:
    """The decision of one day; ``evaluate_schedule`` scores it and
    ``day_trace`` gives its hours.

    ``p_dg`` (generator setpoints, AC [kW]) and ``p_bs`` (battery power,
    +discharge/-charge, DC [kW]) are copied into the two rows of one
    C-contiguous (2, 24) float64 block, which the day kernel reads by
    address.  The rows cannot be rebound, and hours of any other length are
    rejected, so the kernel never reads past the block.  Non-finite hours
    and a negative generator hour are rejected too, and ``p_dg`` and
    ``p_bs`` are read-only views, so no such hour gets in later; only the
    dispatch search writes its candidates into the block.
    """

    __slots__ = ("_rows", "_address")

    def __init__(self, p_dg, p_bs):
        rows = np.empty((2, 24))
        for row, hours, name in zip(rows, (p_dg, p_bs), ("p_dg", "p_bs")):
            hours = np.asarray(hours, dtype=float)
            if hours.shape != (24,):
                raise InputDataError(
                    f"{name} must hold 24 hours, got shape {hours.shape}")
            row[:] = hours
        # The scorer cannot judge these: a NaN compares false with every
        # bound, and a negative output escapes the generator's residuals.
        if not np.isfinite(rows).all():
            name = "p_dg" if not np.isfinite(rows[0]).all() else "p_bs"
            raise InputDataError(f"{name} must hold finite hours")
        if rows[0].min() < 0.0:   # -0.0 is not below 0.0
            raise InputDataError("p_dg must hold hours >= 0")
        # Through the array interface, not ``rows.ctypes``: with the latter
        # a kept result measured about 300 B more per day (tracemalloc).
        self._rows, self._address = rows, rows.__array_interface__["data"][0]

    @property
    def p_dg(self) -> np.ndarray:
        row = self._rows[0]
        row.flags.writeable = False
        return row

    @property
    def p_bs(self) -> np.ndarray:
        row = self._rows[1]
        row.flags.writeable = False
        return row

    def __reduce__(self):
        # A copy or an unpickled schedule gets a block, and address, of its own.
        return DispatchSchedule, (self.p_dg, self.p_bs)

    def copy(self) -> "DispatchSchedule":
        return DispatchSchedule(self.p_dg, self.p_bs)

    def write_csv(self, path, ctx: DispatchContext):
        trace = day_trace(self, ctx)
        write_csv(path, SCHEDULE_HEADER, (
            [h, f"{self.p_dg[h]:.4f}", f"{self.p_bs[h]:.4f}",
             f"{trace.soc[h]:.5f}", f"{ctx.res_dc[h]:.4f}",
             f"{ctx.sim.load.demand[h]:.4f}", f"{trace.dump[h]:.4f}",
             f"{trace.lost[h]:.4f}"] for h in range(24)))


@dataclass(slots=True)
class DispatchEvaluation:
    """The numbers ``evaluate_schedule`` reports for one schedule."""

    objectives: ObjectiveVector      # (coe_norm, em_norm, repg, 1-ref) + dpsp
    weighted: float                  # 4-term scalarization per the weights
    c_daily: float
    residuals: tuple                 # the constraint residuals, VIOLATIONS order
    feasible: bool
    search_value: float              # weighted + the residuals' penalty

    @property
    def violations(self) -> dict:
        """The constraint residuals by name."""
        return dict(zip(VIOLATIONS, self.residuals))

    @property
    def summary5(self) -> float:
        """Equal-weight 5-term summary metric."""
        return float(np.mean(self.objectives.as_array()))


class DayTrace(NamedTuple):
    """The hours of a schedule."""

    soc: np.ndarray       # 25 knots including the end-of-day state
    dump: np.ndarray      # surplus on the DC bus [kW]
    lost: np.ndarray      # load not served, AC [kW]


# perfbench/run.py binds ``dispatch.propagate_soc`` in trace mode, and the
# day kernel's oracle in tests/reference.py takes its SOC knots from here.
def propagate_soc(day: kernels.DayInputs, p_bs) -> list[float]:
    """The 25 SOC knots of a day: ``battery_step`` with ``dt = 1``, hour by
    hour, with the constants of the day's ``DayInputs`` (the same float
    steps)."""
    soc, cap, keep, eta = day.soc_start, day.cap, day.keep, day.eta
    if cap <= 0:
        return [soc] * 25
    out = [soc]
    for p in p_bs:
        soc = keep * soc - p * eta / cap
        out.append(soc)
    return out


def evaluate_schedule(s: DispatchSchedule, ctx: DispatchContext,
                      hours: kernels.DayTotals | None = None
                      ) -> DispatchEvaluation:
    """Cost, objectives and constraint residuals of a candidate schedule.
    Infeasibility is reported through ``violations``, never raised.

    The hours pass, then pricing.  The hours are reduced in the C kernel
    ``kernels.day_hours`` with the float operations of the numpy
    formulation that ``tests/test_scorer.py`` keeps as reference, so every
    value equals the one numpy gives bit for bit; the pass also gives the
    residuals and the penalty.  Prices, objectives and the search value,
    ``weighted + penalty``, are computed here.  ``hours`` is the search's
    own pass over ``s``, when it has one, so that it prices a candidate
    without a second pass.
    """
    h = (kernels.day_hours(s._address, ctx.day_inputs, None) if hours is None
         else hours)
    sim = ctx.sim
    gen, day = sim.generator, ctx.day_inputs
    energy, online, starts = h.energy, h.online, h.starts
    # The operating cost and the emissions depend on the schedule through
    # (energy, online, starts) alone, and most candidates the search prices
    # repeat the last one's.  Compared with "==", a key matches only the
    # same bits: energy is a sum added to 0.0, so never -0.0, and a sum of
    # finite hours >= 0, so never NaN; the other two are ints.
    key, memo = (energy, online, starts), ctx.price_memo
    if memo[0] == key:
        c_daily, emissions = memo[1]
    else:
        c_daily = (economics.operating_cost(gen, sim.costs, energy, online,
                                            starts)
                   + ctx.daily_fixed_om)
        emissions = economics.emissions_total(energy, gen)
        memo[0], memo[1] = key, (c_daily, emissions)
    load_kwh = day.load_kwh
    objectives = economics.objective_vector(
        c_daily / load_kwh, emissions, ctx.daily_baseline, h.lost, load_kwh,
        h.dump, ctx.res_kwh, energy, sim.converter.eta_rec)
    lcoe_norm, em_norm, dpsp, repg, one_minus_ref = objectives
    weighted = economics.weighted_objective(
        (lcoe_norm, em_norm, repg, one_minus_ref), ctx.weights)

    semi, rated, power, soc, over = residuals = (
        h.semi, h.rated, h.power, h.soc, h.over)
    tol = CONSTRAINT_TOL
    return DispatchEvaluation(
        objectives, weighted, c_daily, residuals,
        semi <= tol and rated <= tol and power <= tol and soc <= tol
        and over <= tol,
        weighted + h.penalty)


def day_trace(s: DispatchSchedule, ctx: DispatchContext) -> DayTrace:
    """The schedule's hourly SOC knots, dump and lost load."""
    rows = np.empty(73)
    kernels.day_hours(s._address, ctx.day_inputs,
                      rows.__array_interface__["data"][0])
    return DayTrace(rows[:25], rows[25:49], rows[49:])


def rule_based_schedule(ctx: DispatchContext) -> DispatchSchedule:
    """The sizing simulator's load-following cascade applied to this day,
    under the context's operating strategy.  The rows are copied out of the
    cascade's output block, so the schedule does not keep the block alive."""
    sim = ctx.sim
    p_dg, p_bs, *_ = dispatch_cascade(
        ctx.res_dc, ctx.demand_dc, sim.battery, ctx.design.e_b_init,
        sim.generator, sim.strategy.dg_may_charge_battery,
        eta_rec=sim.converter.eta_rec, start=CascadeState(ctx.soc_start),
        cycle_counting=sim.strategy.cycle_counting)
    return DispatchSchedule(p_dg, p_bs)


def _refine_continuous(s: DispatchSchedule, ctx: DispatchContext
                       ) -> tuple[DispatchSchedule, DispatchEvaluation]:
    """Projected coordinate descent over the hourly setpoints of ``s``, in
    place, with the ON pattern held fixed.  The setpoints are held as
    Python floats, whose steps and clamps round as numpy's do, and each
    candidate is written into the schedule's block for the hours pass.
    A candidate is priced only when its penalty leaves it a chance."""
    gen = ctx.sim.generator
    dg_row, bs_row = s._rows
    dg, bs = s._rows.tolist()
    best = evaluate_schedule(s, ctx)
    bar = best.search_value - 1e-12
    p_lim = ctx.day_inputs.p_lim
    hours = partial(kernels.day_hours, s._address, ctx.day_inputs, None)
    for sweep in range(REFINE_SWEEPS):
        scale = 0.5 ** sweep
        steps = [d * scale for d in (-4.0, -1.0, 1.0, 4.0)]
        improved = False
        for t in range(24):
            # generator steps in an ON hour, then battery steps if it can move
            moves = ([(dg, dg_row, gen.min_power, gen.rated_power)]
                     if dg[t] > 0 else [])
            if p_lim > 0:
                moves.append((bs, bs_row, -p_lim, p_lim))
            for x, row, lower, upper in moves:
                for d in steps:
                    # min(max(x[t] + d, lower), upper), written out
                    cand = x[t] + d
                    cand = lower if lower > cand else cand
                    cand = upper if upper < cand else cand
                    if cand == x[t]:
                        continue
                    row[t] = cand
                    h = hours()
                    # The search value is weighted + penalty, rounded, and
                    # weighted >= 0: weighted_objective adds to 0.0 the
                    # products of weights in [0, 1] and objectives >= 0
                    # (costs, prices and emission factors are >= 0, p_dg
                    # >= 0, the baselines are > 0, and 1 - ref >= 0), and
                    # each product and partial sum of such operands rounds
                    # to >= 0.  Rounding is monotone, so the search value
                    # is >= the penalty, and a penalty >= bar rules the
                    # candidate out as its search value would.  A NaN
                    # weighted makes the search value NaN, which the
                    # acceptance below rejects too; a NaN penalty or bar
                    # fails this compare, and the candidate is priced as
                    # before.
                    if h.penalty >= bar:
                        row[t] = x[t]
                        continue
                    ev = evaluate_schedule(s, ctx, h)
                    if ev.search_value < bar:
                        best, bar, improved = ev, ev.search_value - 1e-12, True
                        x[t] = cand
                    else:
                        row[t] = x[t]
        if not improved:
            break
    return s, best


def _apply_pattern(s: DispatchSchedule, pattern: np.ndarray,
                   ctx: DispatchContext) -> DispatchSchedule:
    gen = ctx.sim.generator
    p_dg = s.p_dg.tolist()
    for t in range(24):
        if pattern[t]:
            if p_dg[t] <= 0:
                p_dg[t] = gen.min_power if gen.min_power > 0 else min(1.0, gen.rated_power)
            p_dg[t] = min(max(p_dg[t], gen.min_power), gen.rated_power)
        else:
            p_dg[t] = 0.0
    return DispatchSchedule(p_dg, s.p_bs)


@dataclass(slots=True)
class DispatchResult:
    schedule: DispatchSchedule
    evaluation: DispatchEvaluation
    rule_based_evaluation: DispatchEvaluation
    feasible: bool
    message: str = ""


def optimize_day(ctx: DispatchContext, max_patterns: int = 120,
                 seed: int = 0) -> DispatchResult:
    """Optimize the next day's generator and battery schedule.

    ``max_patterns`` caps the ON/OFF patterns refined.  The three seed
    schedules (rule-based, a constant guess and all-off) are always
    refined, so the cap must be at least 3.  The rule-based schedule is
    always a candidate, so the returned schedule is never worse than it
    (when the rule-based day is feasible).  When no candidate satisfies
    every hard constraint the best-found infeasible schedule is returned
    with ``feasible=False`` and its residuals.
    """
    gen = ctx.sim.generator
    if gen.rated_power <= 0:
        raise InputDataError("dispatch needs a generator with positive rating")
    if max_patterns < 3:
        raise InputDataError(
            f"max_patterns must be >= 3 (the seed schedules), got {max_patterns}")
    rng = np.random.default_rng(seed)

    rb = rule_based_schedule(ctx)
    rb_ev = evaluate_schedule(rb, ctx)

    guess = DispatchSchedule(
        p_dg=np.full(24, min(max(7.0, gen.min_power), gen.rated_power)),
        p_bs=np.full(24, min(1.0, ctx.day_inputs.p_lim)))
    zero = DispatchSchedule(np.zeros(24), np.zeros(24))
    seeds = [rb, guess, zero]

    evaluated = {}

    def solve_pattern(pattern: np.ndarray, base: DispatchSchedule):
        key = tuple(int(b) for b in pattern)
        if key in evaluated:
            return evaluated[key]
        refined, ev = _refine_continuous(_apply_pattern(base, pattern, ctx), ctx)
        evaluated[key] = (refined, ev)
        return refined, ev

    best_s, best_ev = None, None
    budget = max_patterns
    for cand in seeds:
        pattern = (cand.p_dg > CONSTRAINT_TOL).astype(int)
        s, ev = solve_pattern(pattern, cand)
        budget -= 1
        if _better(ev, best_ev):
            best_s, best_ev = s, ev

    # hill-climb on the ON/OFF pattern from the incumbent
    improved = True
    while improved and budget > 0:
        improved = False
        base_pattern = (best_s.p_dg > CONSTRAINT_TOL).astype(int)
        for t in rng.permutation(24):
            if budget <= 0:
                break
            flipped = base_pattern.copy()
            flipped[t] = 1 - flipped[t]
            s, ev = solve_pattern(flipped, best_s)
            budget -= 1
            if _better(ev, best_ev):
                best_s, best_ev = s, ev
                base_pattern = flipped
                improved = True

    # Refining the rule-based seed can trade feasibility for a lower
    # penalized value, so the search may end worse than the schedule it
    # started from.  It stays out of the search so as not to change its path.
    if _better(rb_ev, best_ev):
        best_s, best_ev = rb.copy(), rb_ev

    feasible = best_ev.feasible
    msg = "" if feasible else (
        "no schedule satisfied all hard constraints; returning best found "
        f"with residuals {best_ev.violations}")
    return DispatchResult(best_s, best_ev, rb_ev, feasible, msg)


def _better(ev: DispatchEvaluation, incumbent: DispatchEvaluation | None) -> bool:
    if incumbent is None:
        return True
    if ev.feasible != incumbent.feasible:
        return ev.feasible
    if ev.feasible:
        return ev.weighted < incumbent.weighted
    return ev.search_value < incumbent.search_value


# ---------------------------------------------------------------------------
# Scenario suite
# ---------------------------------------------------------------------------

def scenario_scale_climate(day: ClimateSeries, irr_factor: float,
                           wind_factor: float) -> ClimateSeries:
    """Scale the day's irradiance and wind channels (robustness scenarios)."""
    if irr_factor < 0 or wind_factor < 0:
        raise InputDataError("scenario factors must be >= 0")
    return replace(day, irradiance=day.irradiance * irr_factor,
                   wind_speed_ref=day.wind_speed_ref * wind_factor)


@dataclass(frozen=True)
class Scenario:
    name: str
    irr_factor: float = 1.0
    wind_factor: float = 1.0
    load: LoadSeries | None = None


def apply_scenario(ctx: DispatchContext, scenario: Scenario) -> DispatchContext:
    """The day under the scenario's weather and load; ``replace`` reruns
    ``__post_init__``, so every derived quantity is recomputed."""
    sim = ctx.sim
    climate = scenario_scale_climate(sim.climate, scenario.irr_factor,
                                     scenario.wind_factor)
    load = scenario.load if scenario.load is not None else sim.load
    return replace(ctx, sim=replace(sim, climate=climate, load=load))


def robustness_suite(ctx: DispatchContext, scenarios: list[Scenario],
                     seed: int = 0, max_patterns: int = 120) -> list[dict]:
    """Re-optimize the day under each scenario.  A scenario whose inputs are
    invalid (``InputDataError``) is recorded as a failed row and the suite
    continues; any other exception propagates."""
    if not scenarios:
        raise InputDataError("at least one scenario required")
    rows = []
    for sc in scenarios:
        row = {"scenario": sc.name}
        try:
            sc_ctx = apply_scenario(ctx, sc)
            result = optimize_day(sc_ctx, seed=seed, max_patterns=max_patterns)
            o = result.evaluation.objectives
            row.update({
                "weighted_obj": result.evaluation.weighted,
                "summary_obj": result.evaluation.summary5,
                "coe_norm": o.lcoe_norm, "em_norm": o.em_norm,
                "dpsp": o.dpsp, "repg": o.repg, "ref": 1.0 - o.one_minus_ref,
                "c_daily": result.evaluation.c_daily,
                "feasible": result.feasible,
            })
        except InputDataError as exc:
            row.update({"feasible": False, "error": str(exc)})
        rows.append(row)
    return rows


def suite_to_csv(rows: list[dict], path):
    fields = ["scenario", "weighted_obj", "summary_obj", "coe_norm", "em_norm",
              "dpsp", "repg", "ref", "c_daily", "feasible", "error"]
    write_csv(path, fields, ([row.get(f, "") for f in fields] for row in rows))
