"""Physical component models: PV array, wind turbine, battery, backup
generator and bidirectional converter.

All power values are kW, energies kWh, and every function is pure so the
annual simulator can call them millions of times from any thread.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import InputDataError

HOURS_PER_MONTH = 730.0  # average month, used to prorate self-discharge
# Cycle fading stops at this fraction of the installed capacity, the
# replacement threshold.  The cascade kernel in _cascade.c fades the bank
# (its oracle is battery_capacity in tests/reference.py).
CAPACITY_FADE_FLOOR = 0.70

# Species emission factors [kg pollutant per kWh generated], diesel engine
# and natural-gas microturbine.  CO2 dominates; the trace species are kept
# separate so reports can break emissions down per pollutant.
DE_EMISSION_FACTORS = {
    "CO2": 0.649,
    "CO": 4.063e-3,
    "NOx": 18.857e-3,
    "SO2": 0.074e-3,
    "VOC": 1.502e-3,
    "PM": 1.338e-3,
    "PM2.5": 1.338e-3,
    "PM10": 1.338e-3,
}
MT_EMISSION_FACTORS = {
    "CO2": 0.631,
    "CO": 2.851e-3,
    "NOx": 20.884e-3,
    "SO2": 0.003e-3,
    "VOC": 0.604e-3,
    "PM": 0.047e-3,
    "PM2.5": 0.047e-3,
    "PM10": 0.047e-3,
}


def require_finite(spec) -> None:
    """Raise ``InputDataError`` naming the class and the field of the first
    float field of the dataclass ``spec`` that is NaN or infinite, the
    values of a mapping field included.  Every compare with a NaN is false
    and an infinity passes a one-sided bound, so the range checks of a spec
    let both through."""
    for name in spec.__dataclass_fields__:
        value = getattr(spec, name)
        entries = value.items() if isinstance(value, Mapping) else [(None, value)]
        for key, v in entries:
            if isinstance(v, float) and not math.isfinite(v):
                where = name if key is None else f"{name}[{key!r}]"
                raise InputDataError(
                    f"{type(spec).__name__}.{where} must be finite, got {v}")


@dataclass(frozen=True)
class PvSpec:
    """Monocrystalline PV module parameters (defaults: 255 Wp module)."""

    eta_ref: float = 0.154          # efficiency at reference conditions
    eta_pc: float = 1.0             # power-conditioning (MPPT) efficiency
    temp_ref: float = 25.0          # reference cell temperature [degC]
    irr_noct: float = 0.8           # irradiance at NOCT test [kW/m2]
    temp_cell_noct: float = 45.7    # cell temperature at NOCT [degC]
    temp_amb_noct: float = 20.0     # ambient temperature at NOCT [degC]
    beta: float = 0.0045            # efficiency loss per degC
    rated_power: float = 0.255      # nameplate per module [kW]
    collector_area: float = 1.4602  # collector area per module [m2]

    def __post_init__(self):
        require_finite(self)
        if not 0 < self.eta_ref <= 1 or not 0 < self.eta_pc <= 1:
            raise InputDataError("PV efficiencies must be in (0, 1]")
        if self.beta < 0:
            raise InputDataError("PV temperature coefficient must be >= 0")
        for name in ("irr_noct", "rated_power", "collector_area"):
            if getattr(self, name) <= 0:
                raise InputDataError(f"PvSpec.{name} must be positive")


@dataclass(frozen=True)
class WindSpec:
    """Small horizontal-axis wind turbine (defaults: 3.5 kW unit)."""

    hub_height: float = 14.5        # [m]
    rated_power: float = 3.5        # per turbine [kW]
    cut_in: float = 2.8             # [m/s]
    rated_speed: float = 11.0       # [m/s]
    cut_out: float = 22.0           # [m/s]
    shear_exponent: float = 0.14    # power-law exponent for height scaling

    def __post_init__(self):
        require_finite(self)
        if not 0 < self.cut_in < self.rated_speed < self.cut_out:
            raise InputDataError("need 0 < cut_in < rated_speed < cut_out")
        if not 0 < self.shear_exponent < 0.5:
            raise InputDataError("shear_exponent must be in (0, 0.5)")
        if self.hub_height <= 0 or self.rated_power <= 0:
            raise InputDataError("hub_height and rated_power must be positive")


@dataclass(frozen=True)
class BatterySpec:
    """Battery storage bank parameters; defaults are the Li-ion column."""

    chemistry: str = "LI"                 # "LI" or "LA"
    soc_min: float = 0.10
    soc_max: float = 0.90
    self_discharge_monthly: float = 0.075  # fraction lost per month
    round_trip_eff: float = 0.90
    lifetime_cycles: int = 5475
    rated_power_per_unit: float = 3.68     # [kW] per storage unit
    unit_energy: float = 13.5              # [kWh] per storage unit
    fade_per_cycle: float = 0.000055       # capacity fraction lost per cycle
    fixed_power_limit: bool = False        # cap at rated_power_per_unit if True

    def __post_init__(self):
        require_finite(self)
        if not 0 <= self.soc_min < self.soc_max <= 1:
            raise InputDataError("need 0 <= soc_min < soc_max <= 1")
        if not 0 < self.round_trip_eff <= 1:
            raise InputDataError("round_trip_eff must be in (0, 1]")
        if self.fade_per_cycle < 0:
            raise InputDataError("fade_per_cycle must be >= 0")
        if not 0 <= self.self_discharge_monthly <= 1:
            raise InputDataError("self_discharge_monthly must be in [0, 1]")
        if self.rated_power_per_unit <= 0 or self.unit_energy <= 0:
            raise InputDataError(
                "rated_power_per_unit and unit_energy must be positive")
        if self.chemistry not in ("LI", "LA"):
            raise InputDataError("chemistry must be 'LI' or 'LA'")
        if self.lifetime_cycles <= 0:
            raise InputDataError("lifetime_cycles must be positive")


def lead_acid_spec(**overrides) -> BatterySpec:
    """Lead-acid parameter set from the same source as the Li-ion defaults."""
    params = dict(
        chemistry="LA",
        soc_min=0.50,
        soc_max=0.90,
        self_discharge_monthly=0.05,
        round_trip_eff=0.75,
        lifetime_cycles=1400,
        rated_power_per_unit=0.42,
        unit_energy=2.0,
        fade_per_cycle=0.000214,
    )
    params.update(overrides)
    return BatterySpec(**params)


@dataclass(frozen=True)
class GeneratorSpec:
    """Backup distributed generator: diesel engine (DE) or microturbine (MT).

    The diesel fuel law is Fuel = a*P_out + b*P_rated [L/h]; the microturbine
    burns gas proportionally to output at ``mt_fuel_slope`` [MMBtu/kWh].
    ``fuel`` in ``_cascade.c`` defines these laws, and the kernels that
    price a year, a baseline and a dispatch day share it.

    ``emission_factors`` is a read-only copy of the mapping given, so the
    sum derived from it once (``emission_factor_total``) cannot go stale.
    """

    kind: str = "DE"
    rated_power: float = 16.0            # [kW]
    min_fraction: float = 0.3            # lower operating limit when online
    fuel_coeff_a: float = 0.246          # [L/kWh] on output (DE)
    fuel_coeff_b: float = 0.08145        # [L/kWh] on rated power (DE)
    mt_fuel_slope: float = 0.84 / 61.0   # [MMBtu/kWh] (MT)
    fuel_price: float = 3.20             # [$/gal diesel] or [$/MMBtu gas]
    lifetime_hours: float = 15000.0
    emission_factors: dict = field(default_factory=lambda: dict(DE_EMISSION_FACTORS))

    def __post_init__(self):
        require_finite(self)
        if self.kind not in ("DE", "MT"):
            raise InputDataError("generator kind must be 'DE' or 'MT'")
        if not self.rated_power >= 0:   # also rejects NaN, as below
            raise InputDataError("rated_power must be >= 0")
        if not 0 <= self.min_fraction < 1:
            raise InputDataError("min_fraction must be in [0, 1)")
        factors = MappingProxyType(dict(self.emission_factors))
        if not all(v >= 0 for v in factors.values()):
            raise InputDataError("emission factors must be >= 0")
        object.__setattr__(self, "emission_factors", factors)
        for name in ("fuel_coeff_a", "fuel_coeff_b", "mt_fuel_slope", "fuel_price"):
            if not getattr(self, name) >= 0:
                raise InputDataError(f"{name} must be >= 0")
        if not self.lifetime_hours > 0:
            raise InputDataError("lifetime_hours must be positive")

    @property
    def min_power(self) -> float:
        return self.min_fraction * self.rated_power

    @cached_property
    def emission_factor_total(self) -> float:
        """Total kg of pollutants per kWh of output (all species), derived
        on first use and kept."""
        return sum(self.emission_factors.values())

    def __getstate__(self):
        # A mappingproxy does not pickle: the factors travel as a dict and
        # are read-only again once loaded.
        return {**vars(self), "emission_factors": dict(self.emission_factors)}

    def __setstate__(self, state):
        vars(self).update(state, emission_factors=MappingProxyType(
            state["emission_factors"]))


def microturbine_spec(**overrides) -> GeneratorSpec:
    """Natural-gas microturbine with the same rating as the diesel default."""
    params = dict(
        kind="MT",
        fuel_price=2.19,               # $/MMBtu natural gas
        lifetime_hours=40000.0,
        emission_factors=dict(MT_EMISSION_FACTORS),
    )
    params.update(overrides)
    return GeneratorSpec(**params)


@dataclass(frozen=True)
class ConverterSpec:
    """Bidirectional converter (inverter + rectifier)."""

    eta_inv: float = 0.90
    eta_rec: float = 0.90

    def __post_init__(self):
        if not 0 < self.eta_inv <= 1 or not 0 < self.eta_rec <= 1:
            raise InputDataError("converter efficiencies must be in (0, 1]")


# ---------------------------------------------------------------------------
# Solar PV
# ---------------------------------------------------------------------------

def pv_efficiency(irr, temp_amb, spec: PvSpec):
    """Cell efficiency corrected for irradiance heating and ambient temperature.

    eta = eta_ref * eta_pc * (1 - 0.9*beta*(I/I_noct)*(Tc_noct - Ta_noct)
                                - beta*(Ta - T_ref)),
    clamped below at zero.  Accepts scalars or arrays.
    """
    irr = np.asarray(irr, dtype=float)
    temp_amb = np.asarray(temp_amb, dtype=float)
    heating = 0.9 * spec.beta * (irr / spec.irr_noct) * (spec.temp_cell_noct - spec.temp_amb_noct)
    ambient = spec.beta * (temp_amb - spec.temp_ref)
    eta = spec.eta_ref * spec.eta_pc * (1.0 - heating - ambient)
    eta = np.maximum(eta, 0.0)
    return float(eta) if eta.ndim == 0 else eta


# ---------------------------------------------------------------------------
# Wind turbine
# ---------------------------------------------------------------------------

def hub_wind_speed(v_ref, ref_height: float, spec: WindSpec):
    """Power-law extrapolation of wind speed from sensor height to hub height."""
    if ref_height <= 0:
        raise InputDataError("ref_height must be positive")
    return np.asarray(v_ref, dtype=float) * (spec.hub_height / ref_height) ** spec.shear_exponent


def wt_curve_coefficients(spec: WindSpec, printed_form: bool = False):
    """Quadratic power-curve coefficients (A, B, C) for the region between
    cut-in and rated speed, P/P_rated = A + B*v + C*v^2.

    The default closed form uses k = ((v_c + v_r) / (2 v_r))^3 with
    denominator (v_c - v_r)^2, which satisfies the two physical boundary
    conditions P(v_c) = 0 and P(v_r) = P_rated exactly.  ``printed_form``
    selects an alternative variant (denominator v_c^2 - v_r^2, last B term
    3(v_c + v_r)) that circulates in the literature but violates both
    boundary conditions; it is kept only for comparison runs.
    """
    vc, vr = spec.cut_in, spec.rated_speed
    k = ((vc + vr) / (2.0 * vr)) ** 3
    if printed_form:
        denom = vc * vc - vr * vr
        a = (vc * (vc + vr) - 4.0 * vc * vr * k) / denom
        b = (4.0 * (vc + vr) * k - 3.0 * (vc + vr)) / denom
        c = (2.0 - 4.0 * k) / denom
    else:
        denom = (vc - vr) ** 2
        a = (vc * (vc + vr) - 4.0 * vc * vr * k) / denom
        b = (4.0 * (vc + vr) * k - (3.0 * vc + vr)) / denom
        c = (2.0 - 4.0 * k) / denom
    return a, b, c


def wt_power_fraction(v_hub, spec: WindSpec, printed_form: bool = False):
    """Output of one turbine as a fraction of its rated power at hub wind
    speed ``v_hub``.

    Zero below cut-in and above cut-out, quadratic between cut-in and rated
    speed, one between rated and cut-out.  Accepts scalars or arrays.
    """
    a, b, c = wt_curve_coefficients(spec, printed_form=printed_form)
    v = np.asarray(v_hub, dtype=float)
    # the closed-form quadratic can dip fractionally below zero just past
    # cut-in for some cut-in/rated pairs; output is clamped non-negative
    quad = np.maximum(a + b * v + c * v * v, 0.0)
    return np.where(
        v < spec.cut_in, 0.0,
        np.where(v <= spec.rated_speed, quad,
                 np.where(v <= spec.cut_out, 1.0, 0.0)))


# ---------------------------------------------------------------------------
# Battery storage
# ---------------------------------------------------------------------------

def battery_step(soc: float, p_bs: float, dt: float, capacity: float,
                 spec: BatterySpec) -> float:
    """One SOC update: SOC' = (1 - d_hour)*SOC - p_bs*dt*eta / capacity.

    Sign convention: p_bs > 0 discharges, p_bs < 0 charges.  The round-trip
    efficiency multiplies the energy moved in both directions, exactly as the
    source model writes it; bound enforcement is the simulator's job.
    """
    if capacity <= 0:
        raise InputDataError("capacity must be positive")
    delta_hour = self_discharge_hourly(spec) * dt
    return (1.0 - delta_hour) * soc - (p_bs * dt * spec.round_trip_eff) / capacity


def self_discharge_hourly(spec: BatterySpec) -> float:
    """Monthly self-discharge prorated to an hourly leak rate."""
    return spec.self_discharge_monthly / HOURS_PER_MONTH


def battery_power_limit(capacity: float, spec: BatterySpec) -> float:
    """Charging/discharging power cap [kW].

    Defaults to proportional scaling with installed capacity (one unit's
    rating per ``unit_energy`` kWh); a fixed single-unit cap is available via
    ``spec.fixed_power_limit`` for sensitivity comparisons.
    """
    if spec.fixed_power_limit:
        return spec.rated_power_per_unit
    return spec.rated_power_per_unit * capacity / spec.unit_energy

