"""Day-ahead (24 h) economic-environmental dispatch of a sized system.

The decision variables are the hourly generator output and battery power for
the next day.  The generator is semicontinuous (off, or between its minimum
and rated output), battery power is bounded and must keep the SOC inside its
safe window for all 25 knot points, and the daily lost-load share must stay
under ``dpsp_max``.  The search is two-level: the 24-bit generator ON/OFF
pattern is explored by seeded hill-climbing warm-started from the rule-based
schedule, and the continuous setpoints inside a pattern are refined by
projected coordinate descent with an exact penalty on the constraint
residuals.  The rule-based schedule is the sizing simulator's cascade on
the day: ``simulate.dispatch_cascade`` over the day's context, the one
compiled call of the cascade that ``simulate_year`` also makes.

A candidate costs one call of the C day kernel ``kernels.day_score``: the
pass over its hours (``kernels.day_hours``), which gives the residuals and
the penalty, then its price, objectives and search value, with the pricing
helpers of ``_cascade.c`` that also price a year.  ``kernels.day_prices``
derives the day's fixed O&M and daily baseline once per day.  The package
needs a C compiler to build them (see ``kernels``).  The Python oracle of
``day_score``, in ``tests/reference.py``, runs ``_day_hours``, which takes
its SOC knots from ``propagate_soc``, and prices with the reference
formulas there; the tests compare the two bit for bit.
The coordinate descent over one ON pattern is one call of the kernel
``kernels.day_refine``: its sweeps run ``day_hour`` once per hour, which
steps that hour's setpoints and scores each candidate with ``day_score``,
and the refined schedule's evaluation fills the pattern's record.  Their
oracles in ``tests/reference.py``, ``day_refine`` and ``day_hour``, are the
Python loops they replaced.  The hill-climb over the ON patterns stays in
Python.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import economics, kernels
# perfbench/run.py binds ``dispatch.battery_step`` in trace mode, so the
# name stays; ``propagate_soc`` is its hourly form.
from .devices import battery_power_limit, battery_step  # noqa: F401
from .devices import self_discharge_hourly
from .economics import ObjectiveVector, Weights
from .errors import InputDataError
from .simulate import (CascadeState, Design, SimulationContext,
                       dispatch_cascade, renewable_feed_in)
from .timeseries import ClimateSeries, LoadSeries, write_csv

SCHEDULE_HEADER = ["hour", "p_dg", "p_bs", "soc", "p_res", "load", "dump", "lost"]
CONSTRAINT_TOL = 1e-6
PENALTY_MU = 200.0  # weight of the constraint residuals in the search value
VIOLATIONS = ("dg_semicontinuous", "dg_rated", "battery_power", "soc_bounds",
              "dpsp")


@dataclass(frozen=True)
class DispatchContext:
    """A sized system on one day: ``sim`` is the simulation context of the
    day's 24 hours, which ``day_context`` slices out of the year.  Frozen,
    since what its schedules share is derived once (``day_inputs``, which
    the day kernel reads, and the day's feed-in ``res_dc``);
    ``dataclasses.replace`` makes a changed day."""

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
        gen = sim.generator
        day_inputs = kernels.DayInputs(
            tuple(res_dc.tolist()), tuple(demand_dc.tolist()),
            eta_rec=sim.converter.eta_rec, eta_inv=sim.converter.eta_inv,
            p_min=gen.min_power, tol=CONSTRAINT_TOL, soc_start=self.soc_start,
            cap=design.e_b_init, keep=1.0 - self_discharge_hourly(battery),
            eta=battery.round_trip_eff,
            p_lim=(battery_power_limit(design.e_b_init, battery)
                   if design.e_b_init > 0 else 0.0),
            soc_min=battery.soc_min, soc_max=battery.soc_max,
            load_kwh=load_kwh, dpsp_max=self.dpsp_max, mu=PENALTY_MU,
            price=sim.prices, res_kwh=float(res_dc.sum()),
            w=self.weights.values)
        # the fixed O&M and the baseline of the day, whose cost of energy
        # and emissions the objectives divide by
        kernels.day_prices(
            day_inputs,
            economics.prices(sim.baseline_generator, sim.costs, sim.fin),
            design.pv_kw(sim.pv), design.wt_kw(sim.wind))
        economics.positive_baseline("daily", day_inputs.base_coe,
                                    day_inputs.base_em)
        # As the fields are set: updating vars(self) slowed every later read.
        object.__setattr__(self, "res_dc", res_dc)
        object.__setattr__(self, "day_inputs", day_inputs)


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


class DispatchEvaluation(kernels.DayEvaluation):
    """The numbers ``evaluate_schedule`` reports for one schedule, a record
    the day kernel fills: the five objectives, ``weighted`` (the 4-term
    scalarization per the weights), ``c_daily``, the five constraint
    residuals (``semi``, ``rated``, ``power``, ``soc``, ``over``) and
    ``search_value`` (weighted + the residuals' penalty)."""

    @property
    def objectives(self) -> ObjectiveVector:
        return ObjectiveVector(self.lcoe_norm, self.em_norm, self.dpsp,
                               self.repg, self.one_minus_ref)

    @property
    def residuals(self) -> tuple:
        """The constraint residuals, ``VIOLATIONS`` order."""
        return self.semi, self.rated, self.power, self.soc, self.over

    @property
    def feasible(self) -> bool:
        """Every residual is within ``CONSTRAINT_TOL`` (a NaN is not)."""
        return all(r <= CONSTRAINT_TOL for r in self.residuals)

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


def evaluate_schedule(s: DispatchSchedule,
                      ctx: DispatchContext) -> DispatchEvaluation:
    """Cost, objectives and constraint residuals of a candidate schedule.
    Infeasibility is reported through ``violations``, never raised.

    One call of the C kernel ``kernels.day_score``.  It reduces the hours
    with the float operations of the numpy formulation that
    ``tests/test_scorer.py`` keeps as reference, and prices them with those
    of the reference formulas in ``tests/reference.py`` (the operating cost
    plus the daily fixed O&M, the emissions, the objective vector and
    ``economics.weighted_objective``'s order), so every value equals the
    one numpy and those formulas give, bit for bit.  The search value is
    ``weighted + penalty``.
    """
    ev = DispatchEvaluation()
    kernels.day_score(s._address, ctx.day_inputs, ev)
    return ev


def day_trace(s: DispatchSchedule, ctx: DispatchContext) -> DayTrace:
    """The schedule's hourly SOC knots, dump and lost load."""
    rows = np.empty(73)
    kernels.day_hours(s._address, ctx.day_inputs,
                      rows.__array_interface__["data"][0])
    return DayTrace(rows[:25], rows[25:49], rows[49:])


def rule_based_schedule(ctx: DispatchContext) -> DispatchSchedule:
    """The sizing simulator's load-following cascade applied to this day,
    under the context's operating strategy, from the day's starting SOC.
    The p_dg and p_bs rows are copied out of the cascade's output block, so
    the schedule does not keep the block alive."""
    rows, _, _ = dispatch_cascade(ctx.design, ctx.sim,
                                  CascadeState(ctx.soc_start))
    return DispatchSchedule(rows[3], rows[4])


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


class DispatchResult(bytes):
    """What ``optimize_day`` returns, one immutable object: the 592 bytes of
    the chosen schedule's 2 x 24 hours (``p_dg``, then ``p_bs``), its
    ``DispatchEvaluation`` and the rule-based schedule's.  ``bytes(result)``
    is that record.  Each read of ``schedule``, ``evaluation`` or
    ``rule_based_evaluation`` builds a fresh copy, so writing into one
    leaves the result as it was.  A ``bytes`` subclass with empty
    ``__slots__`` holds its header and the record in one allocation, with
    no ``__dict__``; a ctypes record would be an object plus a separate
    buffer, which a caller that keeps many days pays for."""

    __slots__ = ()

    @property
    def schedule(self) -> DispatchSchedule:
        """The chosen schedule, rebuilt from the record's hours."""
        p_dg, p_bs = np.frombuffer(self, count=48).reshape(2, 24)
        return DispatchSchedule(p_dg, p_bs)

    @property
    def evaluation(self) -> DispatchEvaluation:
        return DispatchEvaluation.from_buffer_copy(self, 384)

    @property
    def rule_based_evaluation(self) -> DispatchEvaluation:
        return DispatchEvaluation.from_buffer_copy(self, 488)

    @property
    def feasible(self) -> bool:
        return self.evaluation.feasible

    @property
    def message(self) -> str:
        """Empty when the schedule is feasible; else why it is returned."""
        if self.feasible:
            return ""
        return ("no schedule satisfied all hard constraints; returning best "
                f"found with residuals {self.evaluation.violations}")


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
    _require_search(ctx, max_patterns)
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
        # the coordinate descent, in place on the pattern's schedule
        refined, ev = _apply_pattern(base, pattern, ctx), DispatchEvaluation()
        kernels.day_refine(refined._address, ctx.day_inputs, ev)
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
        best_s, best_ev = rb, rb_ev
    return DispatchResult(best_s._rows.tobytes() + bytes(best_ev)
                          + bytes(rb_ev))


def _require_search(ctx: DispatchContext, max_patterns: int):
    """Reject what no day can be searched with: a generator without a
    positive rating, or fewer patterns than the three seed schedules."""
    if ctx.sim.generator.rated_power <= 0:
        raise InputDataError("dispatch needs a generator with positive rating")
    if max_patterns < 3:
        raise InputDataError(
            f"max_patterns must be >= 3 (the seed schedules), got {max_patterns}")


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
    continues; any other exception propagates.  Settings that no scenario
    changes, ``max_patterns`` and the generator's rating, are checked once,
    before the first scenario, and raise."""
    if not scenarios:
        raise InputDataError("at least one scenario required")
    _require_search(ctx, max_patterns)
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
