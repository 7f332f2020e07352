"""Run configuration: a YAML file with explicit units in the key names.

An empty file (or missing sections) resolves to the case-study defaults:
the bundled climate/load dataset, the 255 Wp PV module, the 3.5 kW turbine,
Li-ion storage with a 16 kW diesel backup, the default cost table and
financial parameters, strategy "generator may charge the battery +
cycle-count replacement", and equal objective weights.  Unknown keys are
rejected by name; all nested invariants are validated on load.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

from . import datasets
from .devices import (BatterySpec, ConverterSpec, GeneratorSpec, PvSpec,
                      WindSpec, lead_acid_spec, microturbine_spec)
from .economics import CostTable, FinancialParams, Weights, microturbine_costs
from .errors import ConfigError, InputDataError
from .seeding import substream_seed
from .simulate import SimulationContext, SizingProblem, StrategyConfig
from .solvers import SearchSpace
from .timeseries import (generate_annual_load, read_climate_csv,
                         read_load_csv, scale_wind)

SCHEMA_VERSION = 1

# config key (with units) -> dataclass field, per section
_PV_KEYS = {
    "eta_ref_fraction": "eta_ref",
    "eta_pc_fraction": "eta_pc",
    "temp_ref_c": "temp_ref",
    "irr_noct_kw_per_m2": "irr_noct",
    "temp_cell_noct_c": "temp_cell_noct",
    "temp_amb_noct_c": "temp_amb_noct",
    "beta_per_c": "beta",
    "rated_power_kw": "rated_power",
    "collector_area_m2": "collector_area",
}
_WIND_KEYS = {
    "hub_height_m": "hub_height",
    "rated_power_kw": "rated_power",
    "cut_in_ms": "cut_in",
    "rated_speed_ms": "rated_speed",
    "cut_out_ms": "cut_out",
    "shear_exponent": "shear_exponent",
}
_BATTERY_KEYS = {
    "chemistry": "chemistry",
    "soc_min_fraction": "soc_min",
    "soc_max_fraction": "soc_max",
    "self_discharge_per_month": "self_discharge_monthly",
    "round_trip_eff_fraction": "round_trip_eff",
    "lifetime_cycles": "lifetime_cycles",
    "rated_power_per_unit_kw": "rated_power_per_unit",
    "unit_energy_kwh": "unit_energy",
    "fade_per_cycle_fraction": "fade_per_cycle",
    "fixed_power_limit": "fixed_power_limit",
}
_GENERATOR_KEYS = {
    "kind": "kind",
    "rated_power_kw": "rated_power",
    "min_fraction": "min_fraction",
    "fuel_coeff_a_l_per_kwh": "fuel_coeff_a",
    "fuel_coeff_b_l_per_kwh": "fuel_coeff_b",
    "mt_fuel_slope_mmbtu_per_kwh": "mt_fuel_slope",
    "fuel_price_usd": "fuel_price",    # per gal (DE) or per MMBtu (MT)
    "lifetime_hours": "lifetime_hours",
}
_CONVERTER_KEYS = {
    "eta_inv_fraction": "eta_inv",
    "eta_rec_fraction": "eta_rec",
}
_FINANCIAL_KEYS = {
    "nominal_rate_fraction": "nominal_rate",
    "inflation_fraction": "inflation",
    "system_lifetime_years": "system_lifetime",
}
_COST_KEYS = {
    "pv_capital_usd_per_kw": "pv_capital_per_kw",
    "wt_capital_usd_per_kw": "wt_capital_per_kw",
    "bs_capital_usd_per_kwh": "bs_capital_per_kwh",
    "dg_capital_usd_per_kw": "dg_capital_per_kw",
    "bs_replacement_fraction": "bs_replacement_fraction",
    "dg_replacement_fraction": "dg_replacement_fraction",
    "om_fix_pv_fraction_per_year": "om_fix_pv",
    "om_fix_wt_fraction_per_year": "om_fix_wt",
    "om_fix_bs_fraction_per_year": "om_fix_bs",
    "om_fix_dg_fraction_per_year": "om_fix_dg",
    "om_var_dg_usd_per_hour": "om_var_dg_per_hour",
    "om_var_dg_usd_per_kwh": "om_var_dg_per_kwh",
    "startup_cost_usd": "startup_cost",
    "shutdown_cost_usd": "shutdown_cost",
    "converter_capital_usd": "converter_capital",
}
_STRATEGY_KEYS = {
    "dg_may_charge_battery": "dg_may_charge_battery",
    "battery_replacement": "battery_replacement",
    "replacement_years": "replacement_years",
    "cycle_counting": "cycle_counting",
    "wt_printed_curve": "wt_printed_curve",
}
# config key -> value type, for the sections that are not spec dataclasses;
# "list" is a list of numbers and "float" accepts any int or float
_DATA_KEYS = {"climate_csv": "str | None", "load_csv": "str | None",
              "wind_correction_factor": "float",
              "load_variation_fraction": "float"}
_SIZING_KEYS = {"bounds_lower": "list", "bounds_upper": "list",
                "integer_counts": "bool", "solver": "str", "max_evals": "int",
                "swarm_size": "int"}
_DISPATCH_KEYS = {"day": "int", "dpsp_max": "float", "weights": "list",
                  "dg_rated_kw": "float | None", "max_patterns": "int"}
_BASELINE_KEYS = {"dg_rated_kw": "float"}
_BREAKEVEN_KEYS = {"grid_lcoe_usd_per_kwh": "float",
                   "extension_cost_usd_per_km": "float"}

_TOP_LEVEL = ("seed", "data", "pv", "wind", "battery", "generator",
              "converter", "financial", "costs", "strategy", "weights",
              "sizing", "dispatch", "baseline", "breakeven")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration: every spec object plus run options."""

    seed: int
    data: dict
    pv: PvSpec
    wind: WindSpec
    battery: BatterySpec
    generator: GeneratorSpec
    converter: ConverterSpec
    fin: FinancialParams
    costs: CostTable
    strategy: StrategyConfig
    weights: Weights
    sizing: dict
    dispatch: dict
    baseline_dg_rated: float
    breakeven: dict

    def search_space(self) -> SearchSpace:
        return SearchSpace(self.sizing["bounds_lower"],
                           self.sizing["bounds_upper"],
                           [self.sizing["integer_counts"]] * 2 + [False])

    def sizing_problem(self, ctx: SimulationContext) -> SizingProblem:
        """The sizing problem on ``ctx``: this config's search space,
        weights, solver, evaluation budget and swarm size."""
        return SizingProblem(ctx, self.search_space(), self.weights,
                             self.sizing["solver"], self.sizing["max_evals"],
                             self.sizing["swarm_size"])

    def baseline_generator(self) -> GeneratorSpec:
        return dataclasses.replace(self.generator,
                                   rated_power=self.baseline_dg_rated)

    def dispatch_generator(self) -> GeneratorSpec:
        rated = self.dispatch.get("dg_rated_kw")
        if rated is None:
            return self.generator
        return dataclasses.replace(self.generator, rated_power=float(rated))

    def resolved(self) -> dict:
        """Materialize every setting (defaults included) as a plain dict
        using the documented unit-suffixed key names."""
        def block(obj, keys):
            return {k: getattr(obj, f) for k, f in keys.items()}
        return {
            "seed": self.seed,
            "data": dict(self.data),
            "pv": block(self.pv, _PV_KEYS),
            "wind": block(self.wind, _WIND_KEYS),
            "battery": block(self.battery, _BATTERY_KEYS),
            "generator": block(self.generator, _GENERATOR_KEYS),
            "converter": block(self.converter, _CONVERTER_KEYS),
            "financial": block(self.fin, _FINANCIAL_KEYS),
            "costs": block(self.costs, _COST_KEYS),
            "strategy": block(self.strategy, _STRATEGY_KEYS),
            "weights": list(self.weights.values),
            "sizing": dict(self.sizing),
            "dispatch": dict(self.dispatch),
            "baseline": {"dg_rated_kw": self.baseline_dg_rated},
            "breakeven": dict(self.breakeven),
        }


_KIND_NAMES = {"bool": "true or false", "str": "a string", "int": "an integer",
               "float": "a number", "list": "a list of numbers"}


def _is_number(value) -> bool:
    """An int or float within the finite float range: not NaN (YAML
    ``.nan``), not +-inf (``.inf``, ``-.inf``) and no integer too large to
    convert to a float; booleans are not numbers here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _check_type(name: str, value, kind: str) -> None:
    """Reject a value whose YAML type does not fit the setting's ``kind``."""
    if kind.endswith(" | None"):
        if value is None:
            return
        kind = kind[:-len(" | None")]
    ok = {"bool": isinstance(value, bool),
          "str": isinstance(value, str),
          "int": _is_number(value) and isinstance(value, int),
          "float": _is_number(value),
          "list": isinstance(value, list) and all(map(_is_number, value))}[kind]
    if not ok:
        raise ConfigError(f"{name}: expected {_KIND_NAMES[kind]}, got {value!r}")


def _section(raw: dict, section: str, kinds: dict) -> dict:
    """The mapping of one section, its keys known and its values typed."""
    mapping = raw.get(section)
    if mapping is None:
        return {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"{section}: expected a mapping, got {mapping!r}")
    for key, value in mapping.items():
        if key not in kinds:
            raise ConfigError(f"unknown key {section}.{key}")
        _check_type(f"{section}.{key}", value, kinds[key])
    return dict(mapping)


def _spec_kwargs(raw: dict, section: str, keys: dict, cls) -> dict:
    """Keyword arguments for spec dataclass ``cls`` from a config section;
    the value types come from the dataclass annotations."""
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    mapping = _section(raw, section, {k: kinds[f] for k, f in keys.items()})
    return {keys[k]: v for k, v in mapping.items()}


def _build(section: str, factory, kwargs: dict):
    try:
        return factory(**kwargs)
    except InputDataError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def build_config(raw: dict | None) -> RunConfig:
    """Validate a parsed YAML mapping and fill defaults for omitted keys."""
    raw = dict(raw or {})
    for key in raw:
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown key {key!r}")
    _check_type("seed", raw.get("seed", 0), "int")

    data = _section(raw, "data", _DATA_KEYS)
    data.setdefault("climate_csv", None)
    data.setdefault("load_csv", None)
    data.setdefault("wind_correction_factor", datasets.WIND_CORRECTION_FACTOR)
    data.setdefault("load_variation_fraction", 0.20)
    if data["wind_correction_factor"] <= 0:
        raise ConfigError("data.wind_correction_factor must be > 0")
    if not 0 <= data["load_variation_fraction"] < 1:
        raise ConfigError("data.load_variation_fraction must be in [0, 1)")

    pv = _build("pv", PvSpec, _spec_kwargs(raw, "pv", _PV_KEYS, PvSpec))
    wind = _build("wind", WindSpec,
                  _spec_kwargs(raw, "wind", _WIND_KEYS, WindSpec))

    # chemistry and kind pick the default column; the spec checks their values
    battery_kw = _spec_kwargs(raw, "battery", _BATTERY_KEYS, BatterySpec)
    chemistry = battery_kw.get("chemistry", "LI")
    battery = _build("battery",
                     BatterySpec if chemistry == "LI" else lead_acid_spec,
                     battery_kw)
    gen_kw = _spec_kwargs(raw, "generator", _GENERATOR_KEYS, GeneratorSpec)
    kind = gen_kw.get("kind", "DE")
    generator = _build("generator",
                       GeneratorSpec if kind == "DE" else microturbine_spec,
                       gen_kw)

    converter = _build("converter", ConverterSpec, _spec_kwargs(
        raw, "converter", _CONVERTER_KEYS, ConverterSpec))
    fin = _build("financial", FinancialParams, _spec_kwargs(
        raw, "financial", _FINANCIAL_KEYS, FinancialParams))

    cost_kw = _spec_kwargs(raw, "costs", _COST_KEYS, CostTable)
    if chemistry == "LA":
        cost_kw.setdefault("bs_capital_per_kwh", 255.0)
    costs = _build("costs", CostTable if kind == "DE" else microturbine_costs,
                   cost_kw)

    strategy = _build("strategy", StrategyConfig, _spec_kwargs(
        raw, "strategy", _STRATEGY_KEYS, StrategyConfig))

    weights_raw = raw.get("weights", [0.2] * 5)
    _check_type("weights", weights_raw, "list")
    try:
        weights = Weights(tuple(float(v) for v in weights_raw))
    except InputDataError as exc:
        raise ConfigError(f"weights: {exc}") from exc
    if len(weights) != 5:
        raise ConfigError("weights: expected 5 entries")

    sizing = _section(raw, "sizing", _SIZING_KEYS)
    sizing.setdefault("bounds_lower", [0.0, 0.0, 0.0])
    sizing.setdefault("bounds_upper", [100.0, 30.0, 200.0])
    sizing.setdefault("integer_counts", True)
    sizing.setdefault("solver", "pso")
    sizing.setdefault("max_evals", 2000)
    sizing.setdefault("swarm_size", 30)
    if len(sizing["bounds_lower"]) != 3 or len(sizing["bounds_upper"]) != 3:
        raise ConfigError("sizing bounds must have 3 entries")
    if sizing["max_evals"] < 1 or sizing["swarm_size"] < 1:
        raise ConfigError("sizing.max_evals and sizing.swarm_size must be >= 1")

    dispatch = _section(raw, "dispatch", _DISPATCH_KEYS)
    dispatch.setdefault("day", 0)
    dispatch.setdefault("dpsp_max", 0.01)
    dispatch.setdefault("weights", [0.25] * 4)
    dispatch.setdefault("dg_rated_kw", None)
    dispatch.setdefault("max_patterns", 120)
    try:
        Weights(tuple(dispatch["weights"]))
    except InputDataError as exc:
        raise ConfigError(f"dispatch.weights: {exc}") from exc
    if len(dispatch["weights"]) != 4:
        raise ConfigError("dispatch.weights: expected 4 entries")

    baseline = _section(raw, "baseline", _BASELINE_KEYS)
    baseline_dg = float(baseline.get("dg_rated_kw", 16.0))

    breakeven = _section(raw, "breakeven", _BREAKEVEN_KEYS)
    breakeven.setdefault("grid_lcoe_usd_per_kwh", 0.125)
    breakeven.setdefault("extension_cost_usd_per_km", 157470.0)

    return RunConfig(
        seed=int(raw.get("seed", 0)),
        data=data, pv=pv, wind=wind, battery=battery, generator=generator,
        converter=converter, fin=fin, costs=costs, strategy=strategy,
        weights=weights, sizing=sizing, dispatch=dispatch,
        baseline_dg_rated=baseline_dg, breakeven=breakeven,
    )


def read_mapping(path) -> dict:
    """The top-level mapping of the YAML file at ``path``, not yet
    validated; an empty file is an empty mapping."""
    # Imported here, not at the top: yaml adds about 0.9 MB to a process,
    # and a config built from a mapping never reads YAML.
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return raw


def load_config(path) -> RunConfig:
    return build_config(read_mapping(path))


def save_config(config: RunConfig, path) -> None:
    import yaml

    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config.resolved(), fh, sort_keys=False)


def load_dataset(config: RunConfig, seed: int):
    """Assemble the (climate, annual load) pair a run simulates against."""
    if config.data["climate_csv"]:
        climate = read_climate_csv(config.data["climate_csv"])
    else:
        climate = datasets.load_bundled_climate()
    climate = scale_wind(climate, config.data["wind_correction_factor"])
    if config.data["load_csv"]:
        daily = read_load_csv(config.data["load_csv"])
    else:
        daily = datasets.load_bundled_daily_load()
    load = generate_annual_load(daily, config.data["load_variation_fraction"],
                                substream_seed(seed, "load-gen"))
    return climate, load


def build_context(config: RunConfig, seed: int | None = None) -> SimulationContext:
    """Simulation context for the configured system on the configured data."""
    seed = config.seed if seed is None else seed
    climate, load = load_dataset(config, seed)
    return SimulationContext(
        climate=climate, load=load, pv=config.pv, wind=config.wind,
        battery=config.battery, generator=config.generator,
        converter=config.converter, costs=config.costs, fin=config.fin,
        strategy=config.strategy,
        baseline_generator=config.baseline_generator(),
    )
