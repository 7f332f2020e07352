"""Hourly annual simulation of the islanded microgrid under the
priority-ordered load-following strategy.

All balancing happens on the DC bus: PV feeds it directly, wind and
generator output arrive rectified (eta_rec), demand draws load/eta_inv, and
unserved demand is booked as lost load on the customer (AC) side.  The
per-hour cascade is: renewables serve load, surplus charges the battery,
leftover surplus is dumped, deficits discharge the battery, the generator
covers what remains (semicontinuous between its minimum and rated output),
forced generator surplus recharges the battery when the strategy allows it,
and any final shortfall is lost load.

The cascade runs in the C kernel ``kernels.run``, which also forms the
feed-in and sums the hours; the package needs a C compiler to build it
(see ``kernels``).  ``dispatch_cascade`` is its one call: a year of
``simulate_year`` and the rule-based day of ``dispatch`` each run it over
their context's ``year_inputs``.  Its Python oracle, ``_run_python``
(``renewable_feed_in``, the cascade and numpy's sums), lives in
``tests/reference.py``, where the tests compare it with the kernel bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import economics, kernels
from .devices import (BatterySpec, ConverterSpec, GeneratorSpec, PvSpec,
                      WindSpec, hub_wind_speed, pv_efficiency,
                      wt_power_fraction)
# perfbench/run.py binds ``simulate.battery_power_limit`` in trace mode, so
# the name stays although the cascade computes the limit in C.
from .devices import battery_power_limit  # noqa: F401
from .economics import (BaselineMetrics, CostTable, FinancialParams,
                        ObjectiveVector, Weights, weighted_objective)
from .errors import InputDataError
from .kernels import CascadeState
from .solvers import (GA_POPULATION, SOLVERS, SearchSpace, SolverReport,
                      require_budget)
from .timeseries import (ClimateSeries, LoadSeries, require_complete,
                         write_csv)

TRACE_HEADER = ["hour", "p_pv", "p_wt", "p_dg", "p_bs", "soc", "p_dump",
                "p_lost", "load"]


@dataclass(frozen=True)
class Design:
    """Sizing decision: PV and wind unit counts (possibly fractional in
    continuous-capacity mode) plus initial battery energy [kWh]."""

    pv_units: float
    wt_units: float
    e_b_init: float
    integer_counts: bool = True

    def __post_init__(self):
        if not all(map(math.isfinite, (self.pv_units, self.wt_units, self.e_b_init))):
            raise InputDataError("design components must be finite")
        if self.pv_units < 0 or self.wt_units < 0 or self.e_b_init < 0:
            raise InputDataError("design components must be >= 0")
        if self.integer_counts:
            for name, v in (("pv_units", self.pv_units), ("wt_units", self.wt_units)):
                if abs(v - round(v)) > 1e-9:
                    raise InputDataError(f"{name} must be an integer count, got {v}")

    def pv_kw(self, pv: PvSpec) -> float:
        return self.pv_units * pv.rated_power

    def wt_kw(self, wind: WindSpec) -> float:
        return self.wt_units * wind.rated_power

    def as_vector(self) -> np.ndarray:
        return np.array([self.pv_units, self.wt_units, self.e_b_init])

    def csv_cells(self) -> list[str]:
        """The n_s, n_w and e_b cells of a CSV row; a whole unit count
        prints without a decimal point."""
        return [f"{self.pv_units:.10g}", f"{self.wt_units:.10g}",
                f"{self.e_b_init:.3f}"]


@dataclass(frozen=True)
class StrategyConfig:
    """Operating strategy toggles for the sizing simulation."""

    dg_may_charge_battery: bool = True
    battery_replacement: str = "cycles"    # "cycles" or "fixed"
    replacement_years: float | None = None  # "fixed" only, and required there
    cycle_counting: str = "reversal"       # "reversal" or "throughput"
    wt_printed_curve: bool = False         # legacy power-curve coefficients

    def __post_init__(self):
        if self.battery_replacement not in ("cycles", "fixed"):
            raise InputDataError("battery_replacement must be 'cycles' or 'fixed'")
        if self.battery_replacement == "fixed":
            if self.replacement_years is None:
                raise InputDataError("fixed battery replacement needs replacement_years")
            if not self.replacement_years > 0:
                raise InputDataError(f"replacement_years must be positive, "
                                     f"got {self.replacement_years}")
        elif self.replacement_years is not None:
            raise InputDataError("replacement_years applies only to "
                                 "battery_replacement 'fixed'")
        if self.cycle_counting not in ("reversal", "throughput"):
            raise InputDataError("cycle_counting must be 'reversal' or 'throughput'")


@dataclass(frozen=True)
class SimulationContext:
    """Everything the simulator needs besides the candidate design.

    ``baseline_generator`` is the unit used for LCOE/emission normalization;
    it stays fixed (sized above peak load) even when the dispatch generator
    is swept, so normalized objectives remain comparable across runs.

    The context is frozen because it caches what it derives from its fields;
    ``dataclasses.replace`` makes a changed copy with an empty cache.  A
    pickled context leaves ``year_inputs`` behind, so an unpickled one
    builds its own.
    """

    climate: ClimateSeries
    load: LoadSeries
    pv: PvSpec
    wind: WindSpec
    battery: BatterySpec
    generator: GeneratorSpec
    converter: ConverterSpec
    costs: CostTable
    fin: FinancialParams
    strategy: StrategyConfig
    baseline_generator: GeneratorSpec | None = None

    def __post_init__(self):
        if self.baseline_generator is None:
            object.__setattr__(self, "baseline_generator", self.generator)

    @cached_property
    def baseline(self) -> BaselineMetrics:
        return economics.baseline_metrics(self.load, self.baseline_generator,
                                          self.costs, self.fin)

    @cached_property
    def hourly_inputs(self) -> tuple["FeedInProfile", np.ndarray, float]:
        """The checked, design-independent inputs of the context's horizon,
        the year of ``simulate_year`` or the day of a ``DispatchContext``:
        the feed-in profile, the demand drawn from the DC bus [kW] and the
        load [kWh].  The climate and load must cover the same hours, have
        no missing values and a load that does not sum to zero.

        Computed on first use and kept; ``dataclasses.replace`` builds a new
        context and therefore a new cache.  A failed check raises on every
        use, since nothing is cached then.
        """
        climate, load = self.climate, self.load
        if len(climate) != len(load):
            raise InputDataError("climate and load horizons differ")
        require_complete(climate, load)
        load_kwh = load.total_kwh
        if load_kwh <= 0:
            raise InputDataError("the load sums to zero over the horizon")
        return (feed_in_profile(climate, self.pv, self.wind,
                                printed_curve=self.strategy.wt_printed_curve),
                load.demand / self.converter.eta_inv, load_kwh)

    @cached_property
    def year_inputs(self) -> kernels.CascadeInputs:
        """The record ``kernels.run`` reads for the context's horizon, any
        horizon (a year or a dispatch day): the addresses of the arrays of
        ``hourly_inputs`` and the constants of the context's devices and
        strategy.  Built on first use and never pickled: its addresses mean
        nothing in another process."""
        feed_in, demand_dc, _ = self.hourly_inputs
        strategy, converter = self.strategy, self.converter
        return kernels.cascade_inputs(
            demand_dc, self.battery, self.generator,
            strategy.dg_may_charge_battery, converter.eta_rec,
            strategy.cycle_counting, profile=feed_in,
            pv_area=self.pv.collector_area, wt_rated=self.wind.rated_power,
            eta_inv=converter.eta_inv)

    def __getstate__(self):
        state = dict(vars(self))
        state.pop("year_inputs", None)
        return state


@dataclass(frozen=True)
class CostBreakdown:
    capital_pv: float
    capital_wt: float
    capital_bs: float
    capital_dg: float
    capital_converter: float
    annual_recurring: float
    pw_recurring: float
    pw_nonrecurring: float
    tnpc: float
    tac: float
    lcoe: float
    baseline_lcoe: float
    baseline_emissions: float

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class SimResult:
    """Hourly traces plus annual aggregates and the five objectives."""

    p_pv: np.ndarray          # PV output, DC [kW]
    p_wt: np.ndarray          # wind output, AC [kW]
    p_res: np.ndarray         # renewable feed-in on the DC bus [kW]
    p_dg: np.ndarray          # generator output, AC [kW]
    p_bs: np.ndarray          # battery power, +discharge/-charge, DC [kW]
    soc: np.ndarray           # state of charge [fraction]
    p_dump: np.ndarray        # curtailed power, DC [kW]
    p_lost: np.ndarray        # unserved load, AC [kW]
    load: np.ndarray          # demand, AC [kW]; the context's own array
    dg_online_hours: int
    dg_starts: int            # each start has its shutdown
    battery_cycles: float
    dg_energy_kwh: float
    res_energy_kwh: float
    dump_kwh: float
    lost_kwh: float
    load_kwh: float
    objectives: ObjectiveVector
    cost: CostBreakdown
    emissions_kg: float

    def write_trace_csv(self, path):
        hours = zip(self.p_pv, self.p_wt, self.p_dg, self.p_bs, self.soc,
                    self.p_dump, self.p_lost, self.load)
        write_csv(path, TRACE_HEADER, ([h, *(f"{v:.6f}" for v in values)]
                                       for h, values in enumerate(hours)))


class FeedInProfile(NamedTuple):
    """Design-independent hourly factors of the renewable feed-in."""

    irr: np.ndarray       # irradiance [kW/m2]
    eta: np.ndarray       # PV cell efficiency
    wt_frac: np.ndarray   # output of one turbine / its rated power


def feed_in_profile(climate: ClimateSeries, pv: PvSpec, wind: WindSpec,
                    printed_curve: bool = False) -> FeedInProfile:
    """The feed-in factors of a climate series, shared by every design, as
    C-contiguous arrays, which the compiled kernel reads by address."""
    v_hub = hub_wind_speed(climate.wind_speed_ref, climate.ref_height, wind)
    return FeedInProfile(*map(np.ascontiguousarray, (
        climate.irradiance,
        pv_efficiency(climate.irradiance, climate.temp_ambient, pv),
        wt_power_fraction(v_hub, wind, printed_form=printed_curve))))


def renewable_feed_in(design: Design, profile: FeedInProfile, pv: PvSpec,
                      wind: WindSpec, converter: ConverterSpec):
    """Per-hour PV (DC), wind (AC) and combined DC-bus renewable power.

    The products keep the operand order of ``pv_power`` and ``wt_power``,
    so the result is bit-identical to theirs.  They are formed in place, so
    a call allocates its three results and no temporaries.
    """
    p_pv = design.pv_units * profile.eta
    p_pv *= pv.collector_area
    p_pv *= profile.irr
    p_wt = design.wt_units * wind.rated_power * profile.wt_frac
    res_dc = converter.eta_rec * p_wt
    res_dc += p_pv
    return p_pv, p_wt, res_dc


def dispatch_cascade(design: Design, ctx: SimulationContext,
                     start: CascadeState):
    """Run the load-following priority cascade of ``design`` over the
    horizon of ``ctx``, a year or a dispatch day, from the battery state
    ``start``: one ``kernels.run`` over ``ctx.year_inputs``.

    Returns the fresh (8, n) block of hourly rows (p_pv, p_wt, the DC-bus
    feed-in, p_dg, p_bs, soc, dump and the lost load on the AC side), the
    final ``CascadeState`` and the ``kernels.CascadeTotals``, whose
    generator online hours and starts count ``p_dg > 0``; the unit starts
    and ends the horizon off, so every start has its shutdown.
    """
    return kernels.run(ctx.year_inputs, design.pv_units, design.wt_units,
                       design.e_b_init, start)


def simulate_year(design: Design, ctx: SimulationContext) -> SimResult:
    """Simulate one year (8760 h) and compute objectives and lifecycle costs."""
    if len(ctx.load) != 8760:
        raise InputDataError("annual simulation needs 8760 hourly records")
    load_kwh = ctx.hourly_inputs[2]
    rows, end, totals = dispatch_cascade(design, ctx,
                                         CascadeState(ctx.battery.soc_max))
    p_pv, p_wt, res_dc, p_dg, p_bs, soc, dump, lost = rows
    cycles = end.cycles
    dg_energy, dump_kwh, lost_kwh = totals.energy, totals.dump, totals.lost
    online_hours, starts = totals.online, totals.starts

    gen = ctx.generator
    capital = economics.initial_capital(
        design.pv_kw(ctx.pv), design.wt_kw(ctx.wind), design.e_b_init,
        gen.rated_power, ctx.costs)
    if ctx.strategy.battery_replacement == "fixed":
        bs_period = ctx.strategy.replacement_years
    else:
        bs_period = (ctx.battery.lifetime_cycles / cycles) if cycles > 0 else math.inf
    life = economics.lifecycle_cost(capital, gen, ctx.costs, ctx.fin, dg_energy,
                                    online_hours, starts, bs_period, load_kwh)
    emissions = economics.emissions_total(dg_energy, gen)
    baseline = ctx.baseline

    return SimResult(
        p_pv=p_pv, p_wt=p_wt, p_res=res_dc, p_dg=p_dg, p_bs=p_bs, soc=soc,
        p_dump=dump, p_lost=lost, load=ctx.load.demand,
        dg_online_hours=online_hours, dg_starts=starts, battery_cycles=cycles,
        dg_energy_kwh=dg_energy, res_energy_kwh=totals.res,
        dump_kwh=dump_kwh, lost_kwh=lost_kwh, load_kwh=load_kwh,
        objectives=economics.objective_vector(
            life.lcoe, emissions, baseline, lost_kwh, load_kwh, dump_kwh,
            totals.res, dg_energy, ctx.converter.eta_rec),
        # ``LifecycleCost``'s fields are CostBreakdown's next six, in order
        cost=CostBreakdown(capital.pv, capital.wt, capital.bs, capital.dg,
                           capital.converter, *life, baseline_lcoe=baseline.lcoe,
                           baseline_emissions=baseline.emissions),
        emissions_kg=emissions,
    )


@dataclass(frozen=True)
class SizingProblem:
    """The sizing problem: a search over [n_s, n_w, E_b] scored by the five
    objectives, with the solver settings that minimize it.

    ``size``, ``bench``, ``pareto`` and ``sweep`` all solve this one
    problem; a sweep point is the problem with its context and weights
    replaced.
    """

    ctx: SimulationContext
    space: SearchSpace
    weights: Weights
    solver: str               # a key of ``solvers.SOLVERS``
    max_evals: int
    swarm_size: int           # PSO only

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise InputDataError(f"unknown solver {self.solver!r}; "
                                 f"pick from {sorted(SOLVERS)}")
        # Every solve takes these settings, so a budget that cannot pay for
        # the solver's first generation is rejected here: a sweep then
        # fails before its first point runs, as ``size`` fails.
        require_budget(self.solver, self.max_evals,
                       self.swarm_size if self.solver == "pso"
                       else GA_POPULATION)

    def design(self, x) -> Design:
        """The design of search point ``x``: an integer PV or wind dimension
        is a unit count, a continuous one the total rated power [kW]."""
        integer = self.space.integer_mask
        rated = (self.ctx.pv.rated_power, self.ctx.wind.rated_power)
        pv, wt = (round(x[i]) if integer[i] else float(x[i]) / rated[i]
                  for i in (0, 1))
        return Design(pv, wt, float(x[2]),
                      integer_counts=bool(integer[0] and integer[1]))

    def objective(self, x) -> float:
        """Weighted scalar objective of a search point (lower is better)."""
        return weighted_objective(
            simulate_year(self.design(x), self.ctx).objectives, self.weights)

    def objectives(self, x) -> np.ndarray:
        """The five objectives of a search point, for ``pareto_front``."""
        return simulate_year(self.design(x), self.ctx).objectives.as_array()

    def solve(self, seed: int) -> SolverReport:
        """Minimize ``objective`` with the named solver and budget."""
        kwargs = {"max_evals": self.max_evals, "seed": seed}
        if self.solver == "pso":
            kwargs["swarm_size"] = self.swarm_size
        return SOLVERS[self.solver](self.objective, self.space, **kwargs)


def hourly_power_balance_check(sim: SimResult, converter: ConverterSpec,
                               tol: float = 1e-6):
    """Verify the DC-bus balance every hour:
    p_res + eta_rec*p_dg + p_bs - load/eta_inv - p_dump + p_lost/eta_inv = 0.

    Returns (ok, bad_hours)."""
    residual = (sim.p_res + converter.eta_rec * sim.p_dg + sim.p_bs
                - sim.load / converter.eta_inv - sim.p_dump
                + sim.p_lost / converter.eta_inv)
    bad = np.nonzero(np.abs(residual) > tol)[0]
    return bad.size == 0, bad.tolist()
