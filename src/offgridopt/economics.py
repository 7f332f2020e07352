"""Lifecycle cost, discounting, emissions and objective metrics.

Conventions
-----------
* All cash flows are plain decimal dollars; energies are kWh.
* Recurring costs incurred in year 1 are assumed to repeat (inflating) every
  year of the system lifetime; their present worth uses the nominal rate.
* Non-recurring (replacement) present worth uses the adjusted rate for the
  component's replacement period.  The closed form annualizes the
  replacement stream over the system lifetime; see ``pw_nonrecurring``.
* Normalized LCOE and emissions divide by a generator-only baseline where
  a single backup unit carries the whole load around the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .devices import GeneratorSpec
from .errors import InfeasibleBaselineError, InputDataError

LITERS_PER_GALLON = 3.78541


@dataclass(frozen=True)
class FinancialParams:
    nominal_rate: float = 0.09       # nominal interest/discount rate per year
    inflation: float = 0.057         # escalation rate per year
    system_lifetime: int = 25        # [years]

    def __post_init__(self):
        if self.system_lifetime < 1:
            raise InputDataError("system_lifetime must be >= 1 year")
        for name in ("nominal_rate", "inflation"):
            v = getattr(self, name)
            if not -0.5 <= v <= 1.0:
                raise InputDataError(f"{name} outside plausible range [-0.5, 1]")


@dataclass(frozen=True)
class CostTable:
    """Capital, replacement, O&M and switching costs per technology."""

    pv_capital_per_kw: float = 1210.0
    wt_capital_per_kw: float = 1500.0
    bs_capital_per_kwh: float = 300.0       # 300 Li-ion, 255 lead-acid
    dg_capital_per_kw: float = 781.25       # 781.25 diesel, 3320 microturbine
    bs_replacement_fraction: float = 0.90   # share of capital cost
    dg_replacement_fraction: float = 0.88   # 0.88 diesel, 0.90 microturbine
    om_fix_pv: float = 0.01                 # fraction of capital per year
    om_fix_wt: float = 0.03
    om_fix_bs: float = 0.01
    om_fix_dg: float = 0.02
    om_var_dg_per_hour: float = 0.24        # diesel variable O&M [$/h online]
    om_var_dg_per_kwh: float = 0.013        # microturbine variable O&M [$/kWh]
    startup_cost: float = 0.45              # [$] per OFF->ON transition
    shutdown_cost: float = 0.23             # [$] per ON->OFF transition
    converter_capital: float = 2800.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) >= 0:   # also rejects NaN
                raise InputDataError(f"CostTable.{name} must be >= 0")


def microturbine_costs(**overrides) -> CostTable:
    params = dict(
        dg_capital_per_kw=3320.0,
        dg_replacement_fraction=0.90,
    )
    params.update(overrides)
    return CostTable(**params)


class ObjectiveVector(NamedTuple):
    """The five sizing objectives, each nominally in [0, 1].

    Values above 1 (a design worse than the generator-only baseline) are
    reported as-is, never clamped.
    """

    lcoe_norm: float
    em_norm: float
    dpsp: float
    repg: float
    one_minus_ref: float

    def as_array(self) -> np.ndarray:
        return np.array(self)


@dataclass(frozen=True)
class Weights:
    """Objective weights; must be in [0, 1] and sum to one."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(0 <= v <= 1 for v in vals):   # also rejects NaN
            raise InputDataError("weights must be in [0, 1]")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise InputDataError(f"weights must sum to 1, got {sum(vals)}")

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# Discounting
# ---------------------------------------------------------------------------

def real_rate(fin: FinancialParams) -> float:
    """Real interest rate r = (i - f) / (1 + f); negative when inflation
    outruns the nominal rate."""
    return (fin.nominal_rate - fin.inflation) / (1.0 + fin.inflation)


def crf(r: float, years: int) -> float:
    """Capital recovery factor r(1+r)^T / ((1+r)^T - 1); 1/T at r = 0."""
    if years < 1:
        raise InputDataError("years must be >= 1")
    if r <= -1:
        raise InputDataError("rate must be > -1")
    if abs(r) < 1e-12:
        return 1.0 / years
    g = (1.0 + r) ** years
    return r * g / (g - 1.0)


def system_crf(fin: FinancialParams) -> float:
    """The system's capital recovery factor: real rate, system lifetime."""
    return crf(real_rate(fin), fin.system_lifetime)


def _geometric_pw(cost: float, ratio: float, terms: float) -> float:
    """Present worth of `terms` payments growing/discounting by `ratio`:
    cost * sum_{t=1..terms} ratio^t, with the ratio -> 1 limit cost*terms."""
    if terms <= 0 or cost == 0:
        return 0.0
    if abs(ratio - 1.0) < 1e-12:
        return cost * terms
    return cost * ratio * (ratio ** terms - 1.0) / (ratio - 1.0)


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
    replacement period contributes nothing.
    """
    if replacement_cost < 0:
        raise InputDataError("replacement_cost must be >= 0")
    if math.isinf(replacement_period):
        return 0.0
    i_adj = adjusted_rate(fin, replacement_period)
    if math.isinf(i_adj):
        return 0.0
    y = (1.0 + fin.inflation) / (1.0 + i_adj)
    return _geometric_pw(replacement_cost, y, fin.system_lifetime)


# ---------------------------------------------------------------------------
# Cost aggregation
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
        return gen.fuel_price * liters / LITERS_PER_GALLON
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
    horizon off (``count_transitions``, its oracle, is in
    ``tests/reference.py``)."""
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


def emission_factor_sum(gen: GeneratorSpec) -> float:
    """Total kg of pollutants per kWh of generator output (all species)."""
    return sum(gen.emission_factors.values())


def emissions_total(dg_energy_kwh: float, gen: GeneratorSpec) -> float:
    """Total emissions [kg] from the generator's energy over a horizon."""
    if dg_energy_kwh < 0:
        raise InputDataError("dg_energy_kwh must be >= 0")
    return gen.emission_factor_total * dg_energy_kwh


# ---------------------------------------------------------------------------
# Reliability / efficiency metrics
# ---------------------------------------------------------------------------

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


def weighted_objective(values, weights: Weights) -> float:
    """The one weighting, of sizing's ``ObjectiveVector`` or dispatch's four
    objectives: ``total = 0.0``, then ``total += w_i * v_i`` from left to
    right in Python, each product rounded on its own: no fused multiply-add,
    no BLAS dot, and not ``sum``, which compensates from Python 3.12."""
    if len(weights) != len(values):
        raise InputDataError(
            f"expected {len(values)} weights, got {len(weights)}")
    total = 0.0
    for w, v in zip(weights.values, values):
        total += w * v
    return total


# ---------------------------------------------------------------------------
# Generator-only baseline used to normalize LCOE and emissions
# ---------------------------------------------------------------------------

class BaselineMetrics(NamedTuple):
    lcoe: float            # [$/kWh]
    emissions: float       # [kg/horizon]


def positive_baseline(horizon: str, lcoe: float,
                      emissions: float) -> BaselineMetrics:
    """The baseline of an ``"annual"`` or a ``"daily"`` horizon, whose cost
    of energy and emissions must both be > 0: the normalized objectives
    divide by them, and the dispatch search relies on every objective being
    >= 0."""
    cost = {"annual": "LCOE", "daily": "COE"}[horizon]
    for name, value in ((cost, lcoe), ("emissions", emissions)):
        if not value > 0:   # also rejects NaN
            raise InfeasibleBaselineError(
                f"{horizon} baseline {name} is {value!r}, not > 0; the "
                "objectives are normalized by it")
    return BaselineMetrics(lcoe, emissions)


def baseline_metrics(load, gen: GeneratorSpec, costs: CostTable,
                     fin: FinancialParams) -> BaselineMetrics:
    """Metrics for the same community powered by the backup generator alone.

    The generator runs around the clock meeting the entire load directly on
    the AC side: no converter, no battery, online every hour and started
    once over the horizon of ``load`` (a ``LoadSeries``).  Requires the
    rated power to cover the peak, and a positive LCOE and emissions.
    """
    peak = load.peak_kw
    if gen.rated_power < peak:
        raise InfeasibleBaselineError(
            f"baseline generator {gen.rated_power} kW cannot cover peak load {peak:.2f} kW")
    energy = load.total_kwh
    capital = initial_capital(0.0, 0.0, 0.0, gen.rated_power, costs,
                              include_converter=False)
    cost = lifecycle_cost(capital, gen, costs, fin, energy, len(load), 1,
                          math.inf, energy)
    return positive_baseline("annual", cost.lcoe, emissions_total(energy, gen))


def break_even_distance(tac: float, crf_value: float, annual_load_kwh: float,
                        grid_lcoe: float, ext_cost_per_km: float) -> float:
    """Grid-extension distance [km] at which the islanded system's annualized
    cost equals buying the same energy from the utility.  Negative values
    mean the grid wins at any distance."""
    if ext_cost_per_km <= 0:
        raise InputDataError("ext_cost_per_km must be positive")
    if annual_load_kwh <= 0:
        raise InputDataError("annual_load_kwh must be positive")
    if tac < 0:
        raise InputDataError("tac must be >= 0")
    return (tac - grid_lcoe * annual_load_kwh) / (ext_cost_per_km * crf_value)
