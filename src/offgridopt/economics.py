"""The economic specs and what surrounds the pricing.

The pricing itself, capital, O&M, fuel, the present worths, TNPC, TAC,
LCOE, emissions and the objective vector, is defined once, in
``_cascade.c`` (the kernels ``price``, ``day_prices`` and ``day_score``),
in plain decimal dollars and kWh.  This module holds the cost table, the
financial parameters and their capital recovery factor, the ``prices``
record built from them, the one weighting of the objectives, the
generator-only baseline that normalizes them and the break-even distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .devices import GeneratorSpec, require_finite
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
        require_finite(self)
        for name in self.__dataclass_fields__:
            if not getattr(self, name) >= 0:
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


def prices(gen: GeneratorSpec, costs: CostTable,
           fin: FinancialParams) -> kernels.Prices:
    """The record the kernels price a horizon with: the CRF and the rates of
    ``fin``, ``costs`` and the generator ``gen``, as they are."""
    return kernels.Prices(
        system_crf(fin), fin.nominal_rate, fin.inflation, fin.system_lifetime,
        costs.pv_capital_per_kw, costs.wt_capital_per_kw,
        costs.bs_capital_per_kwh, costs.dg_capital_per_kw,
        costs.converter_capital, costs.bs_replacement_fraction,
        costs.dg_replacement_fraction, costs.om_fix_pv, costs.om_fix_wt,
        costs.om_fix_bs, costs.om_fix_dg, costs.om_var_dg_per_hour,
        costs.om_var_dg_per_kwh, costs.startup_cost, costs.shutdown_cost,
        gen.rated_power, gen.fuel_price, gen.fuel_coeff_a, gen.fuel_coeff_b,
        LITERS_PER_GALLON, gen.mt_fuel_slope, gen.emission_factor_total,
        gen.lifetime_hours, gen.kind == "DE")


def weighted_objective(values, weights: Weights) -> float:
    """The one weighting, of sizing's ``ObjectiveVector`` or dispatch's four
    objectives: ``total = 0.0``, then ``total += w_i * v_i`` from left to
    right in Python, each product rounded on its own: no fused multiply-add,
    no BLAS dot, and not ``sum``, which compensates from Python 3.12.  The
    dispatch day kernel (``day_score`` in ``_cascade.c``) adds its four
    objectives in this order."""
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
    divide by them."""
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
    # a baseline of its own, 1.0, for objectives that are not read
    cost = kernels.price(
        prices(gen, costs, fin),
        kernels.CascadeTotals(energy=energy, online=len(load), starts=1),
        kernels.Horizon(bs_period=math.inf, load=energy, base_lcoe=1.0,
                        base_em=1.0))
    return positive_baseline("annual", cost.lcoe, cost.emissions)


def require_extension_cost(ext_cost_per_km: float):
    """Reject a grid extension that costs nothing, or less, per km."""
    if ext_cost_per_km <= 0:
        raise InputDataError("ext_cost_per_km must be positive")


def break_even_distance(tac: float, crf_value: float, annual_load_kwh: float,
                        grid_lcoe: float, ext_cost_per_km: float) -> float:
    """Grid-extension distance [km] at which the islanded system's annualized
    cost equals buying the same energy from the utility.  Negative values
    mean the grid wins at any distance."""
    require_extension_cost(ext_cost_per_km)
    if annual_load_kwh <= 0:
        raise InputDataError("annual_load_kwh must be positive")
    if tac < 0:
        raise InputDataError("tac must be >= 0")
    return (tac - grid_lcoe * annual_load_kwh) / (ext_cost_per_km * crf_value)
