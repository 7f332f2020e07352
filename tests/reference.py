"""The Python oracles of the compiled kernels in ``_cascade.c``.

The package runs the kernels only; these are the loops and formulas they
replaced, kept here so that the tests can compare the two bit for bit.
Each kernel has one oracle, which takes the kernel's arguments, so that
``use_the_oracles`` can put it in the kernel's place, and one hypothesis
test that checks the kernel against every reference it has on one draw.
Kernel -> oracle -> its test (``<file>::<test>`` under ``tests/``):

- ``cascade`` -> ``_run_python`` ->
  ``test_cascade.py::test_compiled_kernel_equals_python_loop_and_keeps_invariants``
  over a given feed-in (``cascade`` against ``_cascade_python``); the
  year's composition of feed-in, hours and sums is
  ``test_cascade.py::test_compiled_year_equals_its_python_composition``;
- ``price`` -> ``price`` ->
  ``test_economics.py::test_compiled_price_equals_the_oracle_bit_for_bit``;
- ``day_prices`` -> ``day_prices`` ->
  ``test_economics.py::test_compiled_baselines_equal_the_oracle_bit_for_bit``;
- ``day_hours`` -> ``day_hours`` (``_day_hours`` over a block) ->
  ``test_scorer.py::test_day_kernels_equal_their_oracles_bit_for_bit``,
  which also checks both day kernels against the scorer's numpy
  formulation;
- ``day_score`` -> ``day_score`` -> the same test;
- ``day_refine`` -> ``day_refine`` ->
  ``test_scorer.py::test_compiled_day_refine_equals_the_oracle_bit_for_bit``.

The oracles are built from the formulas the kernels replaced, which the
other tests also read: the feed-in (``pv_power``, ``wt_power``), the
capacity fade (``battery_capacity``), the start count
(``count_transitions``), the pricing (``initial_capital``,
``lifecycle_cost`` and its parts, ``operating_cost``, ``emissions_total``,
``objective_vector``, ``daily_baseline``) and ``np.sum`` of a day
(``day_sum``).  The pricing formulas take the specs or any object with
their attributes, such as ``_specs`` of a ``kernels.Prices`` record.
"""

import ctypes
import math
from dataclasses import dataclass
from operator import add, gt
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from offgridopt import economics, kernels
from offgridopt.devices import (CAPACITY_FADE_FLOOR, BatterySpec,
                                GeneratorSpec, PvSpec, WindSpec,
                                battery_power_limit, pv_efficiency,
                                wt_power_fraction)
from offgridopt.dispatch import propagate_soc
from offgridopt.economics import (BaselineMetrics, CostTable, FinancialParams,
                                  ObjectiveVector, system_crf)
from offgridopt.errors import InputDataError
from offgridopt.kernels import CascadeState
from offgridopt.simulate import Design, FeedInProfile, renewable_feed_in


# ---------------------------------------------------------------------------
# The feed-in of the devices
# ---------------------------------------------------------------------------

def pv_power(n_modules, irr, temp_amb, spec: PvSpec):
    """DC output [kW] of ``n_modules`` at the given irradiance/temperature."""
    if np.any(np.asarray(n_modules) < 0):
        raise InputDataError("n_modules must be >= 0")
    return n_modules * pv_efficiency(irr, temp_amb, spec) * spec.collector_area * np.asarray(irr, dtype=float)


def wt_power(n_turbines, v_hub, spec: WindSpec, printed_form: bool = False):
    """AC output [kW] of ``n_turbines`` at hub wind speed ``v_hub``: the
    count times the rated power times ``wt_power_fraction``."""
    if np.any(np.asarray(n_turbines) < 0):
        raise InputDataError("n_turbines must be >= 0")
    out = n_turbines * spec.rated_power * wt_power_fraction(v_hub, spec, printed_form)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# The pricing: discounting
# ---------------------------------------------------------------------------

def _geometric_pw(cost: float, ratio: float, terms: float) -> float:
    """Present worth of `terms` payments growing/discounting by `ratio`:
    cost * sum_{t=1..terms} ratio^t, with the ratio -> 1 limit cost*terms.
    When the power overflows, or the ratio is +inf, the present worth is
    +inf, the limit of the closed form (IEEE arithmetic would give
    inf / inf = NaN at a ratio of +inf)."""
    if terms <= 0 or cost == 0:
        return 0.0
    if abs(ratio - 1.0) < 1e-12:
        return cost * terms
    try:
        power = ratio ** terms
    except OverflowError:
        return math.inf
    if power == math.inf:
        return math.inf
    return cost * ratio * (power - 1.0) / (ratio - 1.0)


def pw_recurring(annual_cost: float, fin: FinancialParams) -> float:
    """Present worth of an annual cost repeating (with inflation) every year
    of the system lifetime, discounted at the nominal rate."""
    if annual_cost < 0:
        raise InputDataError("annual_cost must be >= 0")
    x = (1.0 + fin.inflation) / (1.0 + fin.nominal_rate)
    return _geometric_pw(annual_cost, x, fin.system_lifetime)


def adjusted_rate(fin: FinancialParams, replacement_period: float) -> float:
    """Adjusted rate i_adj = (1+i)^L / (1+f)^(L-1) - 1 used when discounting
    a cost recurring every L years instead of annually."""
    if replacement_period <= 0:
        raise InputDataError("replacement_period must be positive")
    L = replacement_period
    log_ratio = L * math.log1p(fin.nominal_rate) - (L - 1.0) * math.log1p(fin.inflation)
    if log_ratio > 700.0:  # (1+i_adj) overflows a double; treat as infinite
        return math.inf
    return math.exp(log_ratio) - 1.0


def pw_nonrecurring(replacement_cost: float, fin: FinancialParams,
                    replacement_period: float) -> float:
    """Present worth of periodic replacements.

    Same geometric form as ``pw_recurring`` with the nominal rate replaced by
    the adjusted rate for the replacement period.  Because the sum still runs
    over the full system lifetime, the closed form smears the replacement
    stream across every year (each year weighted by the L-year discount
    ratio); it therefore over-weights sparse replacement schedules relative
    to an explicit per-event sum unless discounting is strong.  An infinite
    replacement period contributes nothing.  When ``exp`` underflows (a
    negative real rate), 1 + i_adj is 0 and the ratio is +inf.
    """
    if replacement_cost < 0:
        raise InputDataError("replacement_cost must be >= 0")
    if math.isinf(replacement_period):
        return 0.0
    i_adj = adjusted_rate(fin, replacement_period)
    if math.isinf(i_adj):
        return 0.0
    y = ((1.0 + fin.inflation) / (1.0 + i_adj) if 1.0 + i_adj != 0.0
         else math.inf)
    return _geometric_pw(replacement_cost, y, fin.system_lifetime)


# ---------------------------------------------------------------------------
# The pricing: cost aggregation, emissions and objectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CapitalBreakdown:
    pv: float
    wt: float
    bs: float
    dg: float
    converter: float

    @property
    def total(self) -> float:
        return self.pv + self.wt + self.bs + self.dg + self.converter


def initial_capital(pv_kw: float, wt_kw: float, bs_kwh: float, dg_kw: float,
                    costs: CostTable, include_converter: bool = True) -> CapitalBreakdown:
    """Installed capital cost of every component plus the converter."""
    return CapitalBreakdown(
        pv=costs.pv_capital_per_kw * pv_kw,
        wt=costs.wt_capital_per_kw * wt_kw,
        bs=costs.bs_capital_per_kwh * bs_kwh,
        dg=costs.dg_capital_per_kw * dg_kw,
        converter=costs.converter_capital if include_converter else 0.0,
    )


def fuel_cost(gen: GeneratorSpec, dg_energy_kwh: float, online_hours: float) -> float:
    """Fuel bill over a horizon: output-proportional burn plus, for the
    diesel engine, the rated-power standing term accrued while the unit is
    online.  An offline generator burns nothing.

    Diesel burns a*E + b*P_rated*hours litres, priced per US gallon; the
    microturbine burns ``mt_fuel_slope``*E MMBtu, priced per MMBtu.
    """
    if dg_energy_kwh < 0 or online_hours < 0:
        raise InputDataError("energies and hours must be >= 0")
    if gen.kind == "DE":
        liters = gen.fuel_coeff_a * dg_energy_kwh + gen.fuel_coeff_b * gen.rated_power * online_hours
        return gen.fuel_price * liters / economics.LITERS_PER_GALLON
    return gen.fuel_price * gen.mt_fuel_slope * dg_energy_kwh


def variable_om(gen: GeneratorSpec, costs: CostTable, online_hours: float,
                dg_energy_kwh: float) -> float:
    """Variable O&M: per online hour for diesel, per kWh for microturbines."""
    if gen.kind == "DE":
        return costs.om_var_dg_per_hour * online_hours
    return costs.om_var_dg_per_kwh * dg_energy_kwh


def fixed_om(capital: CapitalBreakdown, costs: CostTable) -> float:
    """Annual fixed O&M as capital-cost fractions (converter has none)."""
    return (costs.om_fix_pv * capital.pv + costs.om_fix_wt * capital.wt
            + costs.om_fix_bs * capital.bs + costs.om_fix_dg * capital.dg)


def operating_cost(gen: GeneratorSpec, costs: CostTable, dg_energy_kwh: float,
                   online_hours: float, starts: int) -> float:
    """Generator operating cost over a horizon: fuel + variable O&M +
    switching, summed in that order.  Every start has its shutdown."""
    return (fuel_cost(gen, dg_energy_kwh, online_hours)
            + variable_om(gen, costs, online_hours, dg_energy_kwh)
            + costs.startup_cost * starts + costs.shutdown_cost * starts)


def annual_recurring(capital: CapitalBreakdown, gen: GeneratorSpec,
                     costs: CostTable, dg_energy_kwh: float,
                     dg_online_hours: float, dg_starts: int) -> float:
    """Year-1 recurring cost: fixed O&M + variable O&M + fuel + switching,
    in this order (``size``'s output bytes depend on it).  Every start has
    its shutdown: the cascade kernel counts a unit that starts and ends the
    horizon off (``count_transitions``)."""
    return (fixed_om(capital, costs)
            + variable_om(gen, costs, dg_online_hours, dg_energy_kwh)
            + fuel_cost(gen, dg_energy_kwh, dg_online_hours)
            + costs.startup_cost * dg_starts
            + costs.shutdown_cost * dg_starts)


def lcoe(tnpc: float, crf_value: float, annual_load_kwh: float) -> float:
    """Levelized cost of energy: TNPC * CRF / annual load served."""
    if annual_load_kwh <= 0:
        raise InputDataError("annual_load_kwh must be positive")
    return tnpc * crf_value / annual_load_kwh


class LifecycleCost(NamedTuple):
    """The lifecycle cost of a system over its lifetime [$]."""

    annual_recurring: float   # year-1 recurring cost
    pw_recurring: float       # present worth of the recurring costs
    pw_nonrecurring: float    # present worth of the replacements
    tnpc: float               # total net present cost
    tac: float                # total annualized cost
    lcoe: float               # levelized cost of energy [$/kWh]


def lifecycle_cost(capital: CapitalBreakdown, gen: GeneratorSpec,
                   costs: CostTable, fin: FinancialParams,
                   dg_energy_kwh: float, dg_online_hours: float,
                   dg_starts: int, bs_period: float,
                   annual_load_kwh: float) -> LifecycleCost:
    """Year-1 recurring cost through replacements, TNPC and TAC to LCOE.

    The battery is replaced every ``bs_period`` years and the generator
    after its lifetime hours; an infinite period books no replacement.
    """
    c_rec = annual_recurring(capital, gen, costs, dg_energy_kwh,
                             dg_online_hours, dg_starts)
    dg_period = (gen.lifetime_hours / dg_online_hours
                 if dg_online_hours > 0 else math.inf)
    pw_rec = pw_recurring(c_rec, fin)
    pw_nonrec = (
        pw_nonrecurring(costs.bs_replacement_fraction * capital.bs, fin, bs_period)
        + pw_nonrecurring(costs.dg_replacement_fraction * capital.dg, fin, dg_period))
    tnpc = capital.total + pw_rec + pw_nonrec
    crf_value = system_crf(fin)
    return LifecycleCost(c_rec, pw_rec, pw_nonrec, tnpc, tnpc * crf_value,
                         lcoe(tnpc, crf_value, annual_load_kwh))


def emissions_total(dg_energy_kwh: float, gen: GeneratorSpec) -> float:
    """Total emissions [kg] from the generator's energy over a horizon."""
    if dg_energy_kwh < 0:
        raise InputDataError("dg_energy_kwh must be >= 0")
    return gen.emission_factor_total * dg_energy_kwh


def metrics_dpsp(lost_kwh: float, load_kwh: float) -> float:
    """Deficiency of power supply probability: unserved / demanded energy."""
    if load_kwh <= 0:
        raise InputDataError("load must be positive to define DPSP")
    return lost_kwh / load_kwh


def metrics_repg(dump_kwh: float, generated_kwh: float) -> float:
    """Relative excess power generated: dumped / total generated (DC side);
    defined as 0 when nothing is generated."""
    if generated_kwh <= 0:
        return 0.0
    return dump_kwh / generated_kwh


def metrics_ref(renewable_kwh: float, generated_kwh: float) -> float:
    """Renewable energy fraction of total generation (DC side); 0 when
    nothing is generated."""
    if generated_kwh <= 0:
        return 0.0
    return renewable_kwh / generated_kwh


def objective_vector(coe: float, emissions: float, baseline: BaselineMetrics,
                     lost_kwh: float, load_kwh: float, dump_kwh: float,
                     res_kwh: float, dg_kwh: float, eta_rec: float) -> ObjectiveVector:
    """The five objectives from a horizon's totals: the cost per kWh and the
    emissions relative to the baseline's, and the lost load, dump and
    renewable shares, of the DC-side generation res + eta_rec * E_dg."""
    generated = res_kwh + eta_rec * dg_kwh
    return ObjectiveVector(
        coe / baseline.lcoe, emissions / baseline.emissions,
        metrics_dpsp(lost_kwh, load_kwh), metrics_repg(dump_kwh, generated),
        1.0 - metrics_ref(res_kwh, generated))


def daily_baseline(gen: GeneratorSpec, costs: CostTable,
                   energy: float) -> BaselineMetrics:
    """COE and emissions of ``gen`` serving a day's ``energy`` [kWh] by
    itself: online 24 h, one startup and one shutdown, plus its share of
    the fixed O&M."""
    c = (operating_cost(gen, costs, energy, 24.0, 1)
         + costs.om_fix_dg * costs.dg_capital_per_kw
         * gen.rated_power / 365.0)
    return BaselineMetrics(c / energy, emissions_total(energy, gen))


# ---------------------------------------------------------------------------
# The pricing kernels' oracles
# ---------------------------------------------------------------------------

def _specs(p: kernels.Prices):
    """The generator, cost table and financial parameters of a ``Prices``
    record, as objects with the attributes the formulas read."""
    gen = SimpleNamespace(
        kind="DE" if p.diesel else "MT", rated_power=p.p_rated,
        fuel_price=p.fuel_price, fuel_coeff_a=p.fuel_a, fuel_coeff_b=p.fuel_b,
        mt_fuel_slope=p.mt_slope, emission_factor_total=p.emission,
        lifetime_hours=p.lifetime_hours)
    costs = SimpleNamespace(
        pv_capital_per_kw=p.pv_capital, wt_capital_per_kw=p.wt_capital,
        bs_capital_per_kwh=p.bs_capital, dg_capital_per_kw=p.dg_capital,
        converter_capital=p.converter, bs_replacement_fraction=p.bs_replacement,
        dg_replacement_fraction=p.dg_replacement, om_fix_pv=p.om_pv,
        om_fix_wt=p.om_wt, om_fix_bs=p.om_bs, om_fix_dg=p.om_dg,
        om_var_dg_per_hour=p.om_hour, om_var_dg_per_kwh=p.om_kwh,
        startup_cost=p.startup, shutdown_cost=p.shutdown)
    # system_crf(fin) recomputes the record's CRF from these, bit for bit
    fin = SimpleNamespace(nominal_rate=p.nominal_rate, inflation=p.inflation,
                          system_lifetime=p.years)
    assert p.gallon == economics.LITERS_PER_GALLON
    assert system_crf(fin) == p.crf
    return gen, costs, fin


def price(p: kernels.Prices, totals: kernels.CascadeTotals,
          h: kernels.Horizon) -> kernels.Priced:
    """The oracle of ``kernels.price``, with its arguments: the capital of
    the horizon's capacities, ``lifecycle_cost``, ``emissions_total`` and
    ``objective_vector`` of the run's totals."""
    gen, costs, fin = _specs(p)
    capital = initial_capital(h.pv_kw, h.wt_kw, h.bs_kwh, p.p_rated, costs,
                              include_converter=bool(h.converter))
    life = lifecycle_cost(capital, gen, costs, fin, totals.energy,
                          totals.online, totals.starts, h.bs_period, h.load)
    emissions = emissions_total(totals.energy, gen)
    objectives = objective_vector(
        life.lcoe, emissions, BaselineMetrics(h.base_lcoe, h.base_em),
        totals.lost, h.load, totals.dump, totals.res, totals.energy,
        h.eta_rec)
    return kernels.Priced(
        capital.pv, capital.wt, capital.bs, capital.dg, capital.converter,
        *life, emissions, *objectives)


def day_prices(day: kernels.DayInputs, base: kernels.Prices, pv_kw: float,
               wt_kw: float) -> None:
    """The oracle of ``kernels.day_prices``, with its arguments: the day's
    share of ``fixed_om`` of the design's capital, and ``daily_baseline``
    of the baseline generator over the day's load."""
    gen, costs, _ = _specs(day.price)
    capital = initial_capital(pv_kw, wt_kw, day.cap, gen.rated_power, costs)
    day.fixed_om = fixed_om(capital, costs) / 365.0
    base_gen, base_costs, _ = _specs(base)
    day.base_coe, day.base_em = daily_baseline(base_gen, base_costs,
                                               day.load_kwh)


def battery_capacity(e_init: float, n_cycles: float, spec: BatterySpec) -> float:
    """Usable capacity after linear cycle fading, floored at
    ``CAPACITY_FADE_FLOOR`` of the installed capacity."""
    if e_init < 0:
        raise InputDataError("e_init must be >= 0")
    faded = e_init * (1.0 - n_cycles * spec.fade_per_cycle)
    return max(faded, CAPACITY_FADE_FLOOR * e_init)


def count_transitions(online) -> int:
    """Startups of an on/off trace, which also count its shutdowns.

    The unit starts the horizon off, and a final shutdown is charged when it
    is still online in the last hour (the horizon ends with the unit off),
    so every start has its shutdown.
    """
    # an hour starts the unit when it is on and the hour before was off
    return int(sum(map(gt, online, [False, *online])))


def _run_python(inputs: kernels.CascadeInputs, pv_units: float,
                wt_units: float, e_b_init: float, start: CascadeState):
    """The oracle of ``kernels.run``, with its arguments and results: the
    feed-in of ``renewable_feed_in`` from the record's profile, the cascade
    one Python iteration per hour, the lost load scaled to the customer
    (AC) side and numpy's sums.  Returns the (8, n) block of hourly rows,
    the final ``CascadeState`` and the ``kernels.CascadeTotals``."""
    demand_dc, *profile = inputs.arrays
    n = len(demand_dc)
    block = np.empty((8, n))
    block[:3] = renewable_feed_in(
        Design(pv_units, wt_units, e_b_init, integer_counts=False),
        FeedInProfile(*profile), SimpleNamespace(collector_area=inputs.pv_area),
        SimpleNamespace(rated_power=inputs.wt_rated),
        SimpleNamespace(eta_rec=inputs.eta_rec))
    res = memoryview(block[2])
    dem = memoryview(demand_dc)
    # the bank as battery_capacity and battery_power_limit read it
    battery = SimpleNamespace(
        fade_per_cycle=inputs.fade, rated_power_per_unit=inputs.unit_power,
        unit_energy=inputs.unit_energy,
        fixed_power_limit=bool(inputs.fixed_power_limit))
    assert inputs.fade_floor == CAPACITY_FADE_FLOOR

    eta = inputs.eta
    soc_min = inputs.soc_min
    soc_max = inputs.soc_max
    leak = inputs.leak
    has_battery = e_b_init > 0
    soc = start.soc
    cycles = start.cycles
    last_dir = 1 if start.discharging else -1
    throughput = start.throughput

    p_rated = inputs.p_rated
    p_min = inputs.p_min
    dg_eff = inputs.eta_rec
    dg_may_charge = inputs.dg_may_charge
    by_throughput = inputs.by_throughput
    online = starts = 0
    was_on = False

    p_dg_out, p_bs_out, soc_out, dump_out, lost_out = map(memoryview,
                                                          block[3:])

    for t in range(n):
        r = res[t]
        d = dem[t]
        p_dg = 0.0
        p_bs = 0.0
        dump = 0.0
        lost_dc = 0.0

        if has_battery:
            e_c = battery_capacity(e_b_init, cycles, battery)
            p_lim = battery_power_limit(e_c, battery)
            s = (1.0 - leak) * soc
            if s < soc_min:
                s = soc_min
        else:
            e_c = 0.0
            p_lim = 0.0
            s = soc

        if r >= d:
            surplus = r - d
            if has_battery and surplus > 0.0:
                room = (soc_max - s) * e_c / eta
                p_ch = min(surplus, p_lim, room)
                if p_ch > 0.0:
                    p_bs = -p_ch
                    surplus -= p_ch
            dump = surplus
        else:
            deficit = d - r
            if has_battery:
                avail = (s - soc_min) * e_c / eta
                p_dis = min(deficit, p_lim, avail)
                if p_dis > 0.0:
                    p_bs = p_dis
                    deficit -= p_dis
            if deficit > 1e-9 and p_rated > 0.0:
                want = deficit / dg_eff
                if want < p_min:
                    want = p_min
                if want > p_rated:
                    want = p_rated
                p_dg = want
                extra = dg_eff * p_dg - deficit
                if extra > 0.0:
                    deficit = 0.0
                    if dg_may_charge and has_battery:
                        soc_now = s - p_bs * eta / e_c
                        room = (soc_max - soc_now) * e_c / eta
                        ch = min(extra, room, p_bs + p_lim)
                        if ch > 0.0:
                            p_bs -= ch
                            extra -= ch
                    dump = extra
                else:
                    deficit = -extra
            lost_dc = deficit if deficit > 1e-12 else 0.0

        if has_battery:
            soc = s - p_bs * eta / e_c
            if soc > soc_max:
                soc = soc_max
            elif soc < soc_min:
                soc = soc_min
            if p_bs > 1e-9:
                throughput += p_bs
                if last_dir < 0 and not by_throughput:
                    cycles += 1
                last_dir = 1
            elif p_bs < -1e-9:
                last_dir = -1
            if by_throughput:
                cycles = throughput * eta / e_c

        p_dg_out[t] = p_dg
        p_bs_out[t] = p_bs
        soc_out[t] = soc
        dump_out[t] = dump
        lost_out[t] = lost_dc

        on = p_dg > 0.0
        online += on
        starts += on and not was_on
        was_on = on

    block[7] *= inputs.eta_inv
    end = CascadeState(soc, cycles, throughput, last_dir > 0)
    # The rows are one block: one reduction sums them.
    _, _, res_kwh, energy, _, _, dump_kwh, lost_kwh = block.sum(axis=1).tolist()
    return block, end, kernels.CascadeTotals(energy, dump_kwh, lost_kwh,
                                             res_kwh, online, starts)


def _given_feed_in(run, res_dc: np.ndarray, demand_dc: np.ndarray,
                   battery: BatterySpec, e_b_init: float,
                   generator: GeneratorSpec, dg_may_charge: bool,
                   eta_rec: float, start: CascadeState, cycle_counting: str):
    """A run of ``run`` (``kernels.run`` or ``_run_python``) over the
    DC-bus feed-in ``res_dc``: it passes the feed-in as the irradiance, with
    cell efficiency 1, collector area 1, one PV unit, no wind and
    ``eta_inv`` 1.  Then p_pv is ``1.0 * 1.0 * 1.0 * r``, the wind adds
    ``eta_rec * 0.0``, which is 0.0, and the lost load is multiplied by 1.0,
    so the run sees ``res_dc`` itself for every finite feed-in >= +0.0
    (0.0 + -0.0 would be +0.0).  Returns the hourly rows p_dg, p_bs, soc,
    dump and lost load (DC), the final ``CascadeState`` and the generator's
    (online hours, starts)."""
    assert np.isfinite(res_dc).all() and not np.signbit(res_dc).any()
    n = len(res_dc)
    inputs = kernels.cascade_inputs(
        demand_dc, battery, generator, dg_may_charge, eta_rec, cycle_counting,
        profile=FeedInProfile(res_dc, np.ones(n), np.zeros(n)), pv_area=1.0,
        wt_rated=0.0, eta_inv=1.0)
    rows, end, totals = run(inputs, 1.0, 0.0, e_b_init, start)
    return (*rows[3:], end, (totals.online, totals.starts))


def cascade(**case):
    """The compiled cascade over a given feed-in (``_given_feed_in``)."""
    return _given_feed_in(kernels.run, **case)


def _cascade_python(**case):
    """The oracle of ``cascade``: ``_run_python`` over the given feed-in."""
    return _given_feed_in(_run_python, **case)


def day_sum(hours) -> float:
    """``np.sum`` of a day's 24 hourly values, bit for bit: numpy adds them
    in eight interleaved partial sums, combines those pairwise and adds the
    total to 0.0."""
    r0, r1, r2, r3, r4, r5, r6, r7 = map(add, map(add, hours[:8], hours[8:16]),
                                         hours[16:24])
    return 0.0 + (((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))


def _day_hours(day: kernels.DayInputs, block: np.ndarray,
               rows: np.ndarray | None = None) -> kernels.DayTotals:
    """The oracle of ``kernels.day_hours``: one pass over the hours of the
    schedule whose (2, 24) block of ``p_dg`` and ``p_bs`` is ``block``.  It
    gives the SOC knots, dump and lost load (the positive and negative
    parts of the DC-bus balance residual), generator online flags and the
    shortfall below the minimum output in an online hour, reduced to a
    ``DayTotals`` with the constraint residuals and the penalty.  Sums are
    taken in ``np.sum``'s order and extremes are Python's ``max`` and
    ``min``.  When ``rows`` is given it receives the 25 SOC knots, then the
    24 dump and lost hours."""
    p_dg, p_bs = block.tolist()
    eta_rec, eta_inv, p_min, tol = day.eta_rec, day.eta_inv, day.p_min, day.tol
    dump, lost, online = [], [], []
    semi = 0.0
    for p, b, r, d in zip(p_dg, p_bs, day.res, day.dem):
        net = r + eta_rec * p + b - d
        dump.append(net if net > 0.0 else 0.0)
        lost.append(-net * eta_inv if net < 0.0 else 0.0)
        on = p > tol
        online.append(on)
        if on and p_min - p > semi:
            semi = p_min - p
    knots = propagate_soc(day, p_bs)
    if rows is not None:
        rows[:25], rows[25:49], rows[49:] = knots, dump, lost
    lost_kwh = day_sum(lost)
    # Each residual is max(0.0, excess) written out: Python's max keeps the
    # first of the largest, so 0.0 unless an excess is above it (a NaN
    # excess is not).  x -> x - c rounds monotonically, so each excess is
    # the extreme value's.
    rated = max(p_dg) - day.price.p_rated
    rated = rated if rated > 0.0 else 0.0
    power = max(map(abs, p_bs)) - day.p_lim
    power = power if power > 0.0 else 0.0
    low, high = day.soc_min - min(knots), max(knots) - day.soc_max
    soc = low if low > 0.0 else 0.0
    soc = high if high > soc else soc
    over = metrics_dpsp(lost_kwh, day.load_kwh) - day.dpsp_max
    over = over if over > 0.0 else 0.0
    return kernels.DayTotals(
        day_sum(p_dg), day_sum(dump), lost_kwh, sum(online),
        count_transitions(online), semi, rated, power, soc, over,
        day.mu * (semi + rated + power + 10.0 * soc + over))


def _doubles(address: int, n: int) -> np.ndarray:
    """The ``n`` doubles at ``address``, as an array over that memory."""
    return np.ctypeslib.as_array(
        ctypes.cast(address, ctypes.POINTER(ctypes.c_double)), (n,))


def day_hours(address: int, day: kernels.DayInputs,
              out: int | None) -> kernels.DayTotals:
    """``_day_hours`` with the arguments of ``kernels.day_hours``: the
    address of a schedule's block, the day and the address of the 73
    output rows, or None."""
    return _day_hours(day, _doubles(address, 48).reshape(2, 24),
                      None if out is None else _doubles(out, 73))


def day_score(address: int, day: kernels.DayInputs,
              out: kernels.DayEvaluation | None) -> float:
    """The oracle of ``kernels.day_score``, with its arguments: the hours
    pass of ``day_hours``, priced from the day's ``Prices`` record
    (``operating_cost`` plus the daily fixed O&M, ``emissions_total``,
    ``objective_vector`` and ``weighted_objective``).  Returns the search
    value, ``weighted + penalty``, and fills ``out`` when it is given."""
    h = day_hours(address, day, None)
    gen, costs, _ = _specs(day.price)
    c_daily = (operating_cost(gen, costs, h.energy, h.online, h.starts)
               + day.fixed_om)
    objectives = objective_vector(
        c_daily / day.load_kwh, emissions_total(h.energy, gen),
        BaselineMetrics(day.base_coe, day.base_em), h.lost,
        day.load_kwh, h.dump, day.res_kwh, h.energy, day.eta_rec)
    lcoe_norm, em_norm, dpsp, repg, one_minus_ref = objectives
    weighted = economics.weighted_objective(
        (lcoe_norm, em_norm, repg, one_minus_ref),
        economics.Weights(tuple(day.w)))
    value = weighted + h.penalty
    if out is not None:
        for name, v in zip(
                (name for name, _ in kernels.DayEvaluation._fields_),
                (*objectives, weighted, c_daily, h.semi, h.rated, h.power,
                 h.soc, h.over, value)):
            setattr(out, name, v)
    return value


def _hour_steps(address: int, day: kernels.DayInputs, row: np.ndarray,
                t: int, lower: float, upper: float, scale: float,
                bar: float) -> tuple[int, float]:
    """The steps of hour ``t`` of ``row``, a row of the schedule's block at
    ``address``, within ``[lower, upper]``: ``d * scale`` for ``d`` in
    (-4, -1, 1, 4), each clamped to the bounds.  A step that moves the
    setpoint is written into the block and scored by ``day_score``, kept
    when its value is below ``bar``, which becomes that value - 1e-12, and
    undone otherwise.  Returns the number of candidates scored and the
    bar."""
    x, scored = float(row[t]), 0
    for d in (-4.0, -1.0, 1.0, 4.0):
        # min(max(x + d * scale, lower), upper), written out
        cand = x + d * scale
        cand = lower if lower > cand else cand
        cand = upper if upper < cand else cand
        if cand == x:
            continue
        row[t] = cand
        value = day_score(address, day, None)
        scored += 1
        if value < bar:
            bar, x = value - 1e-12, cand
        else:
            row[t] = x
    return scored, bar


REFINE_SWEEPS = 6   # the sweeps of day_refine at most, as in _cascade.c


def day_refine(address: int, day: kernels.DayInputs,
               out: kernels.DayEvaluation) -> int:
    """The oracle of ``kernels.day_refine``, with its arguments: the
    projected coordinate descent over the setpoints of the schedule whose
    block is at ``address``, with its ON pattern held fixed, in place.  The
    bar starts at the schedule's search value - 1e-12; sweep ``k`` steps
    each of the 24 hours in turn at scale ``0.5 ** k`` with ``_hour_steps``:
    the generator's setpoint within ``[p_min, price.p_rated]`` in an online
    hour (``p_dg > 0``), then the battery's within ``[-p_lim, p_lim]`` when
    it can move (``p_lim > 0``).  The sweeps stop after ``REFINE_SWEEPS``,
    or after one that kept no step: a kept step lowers the bar to its
    value - 1e-12 <= value < bar, so a sweep kept one exactly when the bar
    went down.  ``out`` receives the refined schedule's evaluation.
    Returns the number of schedules scored: the first, every candidate and
    the refined one."""
    dg_row, bs_row = _doubles(address, 48).reshape(2, 24)
    bar = day_score(address, day, None) - 1e-12
    scored = 1
    for sweep in range(REFINE_SWEEPS):
        scale, start = 0.5 ** sweep, bar
        for t in range(24):
            if dg_row[t] > 0:
                n, bar = _hour_steps(address, day, dg_row, t, day.p_min,
                                     day.price.p_rated, scale, bar)
                scored += n
            if day.p_lim > 0:
                n, bar = _hour_steps(address, day, bs_row, t, -day.p_lim,
                                     day.p_lim, scale, bar)
                scored += n
        if not bar < start:
            break
    day_score(address, day, out)
    return scored + 1


# the binding of ``kernels`` through which the package calls each kernel,
# and the kernel's oracle
ORACLES = {"run": _run_python, "price": price, "day_prices": day_prices,
           "day_hours": day_hours, "day_score": day_score,
           "day_refine": day_refine}


def use_the_oracles(monkeypatch):
    """Put the oracle of every kernel in the compiled kernel's place, where
    the package calls it."""
    for binding, oracle in ORACLES.items():
        monkeypatch.setattr(kernels, binding, oracle)
