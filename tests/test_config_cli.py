import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import offgridopt
from offgridopt import cli
from offgridopt import config as config_mod
from offgridopt.cli import main
from offgridopt.config import (build_config, build_context, load_config,
                               save_config)
from offgridopt.datasets import CLIMATE_FILENAME
from offgridopt.devices import (BatterySpec, ConverterSpec, GeneratorSpec,
                                PvSpec, WindSpec)
from offgridopt.economics import CostTable, FinancialParams
from offgridopt.errors import ConfigError
from offgridopt.seeding import substream_seed
from offgridopt.simulate import Design, StrategyConfig, simulate_year


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------

def test_empty_config_resolves_to_study_defaults(default_config):
    cfg = default_config
    assert cfg.generator.kind == "DE"
    assert cfg.generator.rated_power == 16.0
    assert cfg.generator.fuel_price == 3.20
    assert cfg.battery.chemistry == "LI"
    assert cfg.costs.bs_capital_per_kwh == 300.0
    assert cfg.fin.nominal_rate == 0.09
    assert cfg.fin.inflation == 0.057
    assert tuple(cfg.weights.values) == (0.2,) * 5
    assert cfg.baseline_dg_rated == 16.0
    assert cfg.sizing["bounds_upper"] == [100.0, 30.0, 200.0]
    assert cfg.breakeven["grid_lcoe_usd_per_kwh"] == 0.125


def test_microturbine_and_lead_acid_selection():
    cfg = build_config({"generator": {"kind": "MT"},
                        "battery": {"chemistry": "LA"}})
    assert cfg.generator.kind == "MT"
    assert cfg.generator.fuel_price == 2.19
    assert cfg.generator.lifetime_hours == 40000.0
    assert cfg.costs.dg_capital_per_kw == 3320.0
    assert cfg.costs.dg_replacement_fraction == 0.90
    assert cfg.costs.bs_capital_per_kwh == 255.0
    assert cfg.battery.soc_min == 0.50


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="wibble"):
        build_config({"wibble": 1})
    with pytest.raises(ConfigError, match="pv.eta_megawatts"):
        build_config({"pv": {"eta_megawatts": 2}})


def test_invariant_violations_name_the_field():
    with pytest.raises(ConfigError, match="weights"):
        build_config({"weights": [0.5, 0.5, 0.5, 0.0, 0.0]})
    with pytest.raises(ConfigError, match="battery"):
        build_config({"battery": {"soc_min_fraction": 0.95,
                                  "soc_max_fraction": 0.90}})


@pytest.mark.parametrize("section, key, value, message", [
    ("generator", "fuel_price_usd", -0.01, "fuel_price must be >= 0"),
    ("generator", "fuel_coeff_a_l_per_kwh", -0.001, "fuel_coeff_a must be >= 0"),
    ("generator", "fuel_coeff_b_l_per_kwh", -0.001, "fuel_coeff_b must be >= 0"),
    ("generator", "mt_fuel_slope_mmbtu_per_kwh", -1.0, "mt_fuel_slope must be >= 0"),
    ("generator", "lifetime_hours", 0.0, "lifetime_hours must be positive"),
    ("generator", "lifetime_hours", -5.0, "lifetime_hours must be positive"),
    ("battery", "lifetime_cycles", 0, "lifetime_cycles must be positive"),
    ("battery", "lifetime_cycles", -10, "lifetime_cycles must be positive"),
])
def test_out_of_range_device_values_name_section_and_field(section, key,
                                                           value, message):
    with pytest.raises(ConfigError, match=f"^{section}: {message}$"):
        build_config({section: {key: value}})


@pytest.mark.parametrize("strategy, message", [
    ({"replacement_years": 3},
     "replacement_years applies only to battery_replacement 'fixed'"),
    ({"battery_replacement": "cycles", "replacement_years": 10},
     "replacement_years applies only to battery_replacement 'fixed'"),
    ({"battery_replacement": "fixed", "replacement_years": -4},
     "replacement_years must be positive, got -4"),
    ({"battery_replacement": "fixed", "replacement_years": 0},
     "replacement_years must be positive, got 0"),
], ids=["cycles-by-default", "cycles", "negative", "zero"])
def test_replacement_years_needs_fixed_replacement_and_a_positive_value(
        strategy, message):
    """A period under cycle-counted replacement would have no effect, and a
    non-positive one would fail only at the first simulation."""
    with pytest.raises(ConfigError, match=f"^strategy: {message}$"):
        build_config({"strategy": strategy})


# ---------------------------------------------------------------------------
# Every component, cost, financial and strategy key changes the result
# ---------------------------------------------------------------------------

LIVE_DESIGN = Design(100, 8, 45.45)
LIVE_SECTIONS = ("pv", "wind", "battery", "generator", "converter",
                 "financial", "costs", "strategy")
MT = {"generator": {"kind": "MT"}}
FIXED = {"strategy": {"battery_replacement": "fixed", "replacement_years": 10}}
# section.key -> the key and value that must be set with its new value
COMPANIONS = {"strategy.battery_replacement": ("strategy.replacement_years", 10)}

# section.key -> (valid non-default value, base config where the key acts)
LIVE_VALUES = {
    "pv.eta_ref_fraction": (0.17, {}),
    "pv.eta_pc_fraction": (0.95, {}),
    "pv.temp_ref_c": (20.0, {}),
    "pv.irr_noct_kw_per_m2": (0.9, {}),
    "pv.temp_cell_noct_c": (48.0, {}),
    "pv.temp_amb_noct_c": (22.0, {}),
    "pv.beta_per_c": (0.004, {}),
    "pv.rated_power_kw": (0.3, {}),
    "pv.collector_area_m2": (1.6, {}),
    "wind.hub_height_m": (20.0, {}),
    "wind.rated_power_kw": (4.0, {}),
    "wind.cut_in_ms": (3.0, {}),
    "wind.rated_speed_ms": (10.0, {}),
    "wind.cut_out_ms": (16.0, {}),     # the data's hub speed peaks at 17.8 m/s
    "wind.shear_exponent": (0.2, {}),
    "battery.chemistry": ("LA", {}),
    "battery.soc_min_fraction": (0.2, {}),
    "battery.soc_max_fraction": (0.95, {}),
    "battery.self_discharge_per_month": (0.05, {}),
    "battery.round_trip_eff_fraction": (0.85, {}),
    "battery.lifetime_cycles": (4000, {}),
    "battery.rated_power_per_unit_kw": (3.0, {}),
    "battery.unit_energy_kwh": (10.0, {}),
    "battery.fade_per_cycle_fraction": (0.0001, {}),
    "battery.fixed_power_limit": (True, {}),
    "generator.kind": ("MT", {}),
    "generator.rated_power_kw": (14.0, {}),
    "generator.min_fraction": (0.4, {}),
    "generator.fuel_coeff_a_l_per_kwh": (0.26, {}),
    "generator.fuel_coeff_b_l_per_kwh": (0.09, {}),
    "generator.mt_fuel_slope_mmbtu_per_kwh": (0.015, MT),
    "generator.fuel_price_usd": (4.0, {}),
    "generator.lifetime_hours": (12000.0, {}),
    "converter.eta_inv_fraction": (0.95, {}),
    "converter.eta_rec_fraction": (0.95, {}),
    "financial.nominal_rate_fraction": (0.1, {}),
    "financial.inflation_fraction": (0.05, {}),
    "financial.system_lifetime_years": (20, {}),
    "costs.pv_capital_usd_per_kw": (1000.0, {}),
    "costs.wt_capital_usd_per_kw": (1400.0, {}),
    "costs.bs_capital_usd_per_kwh": (250.0, {}),
    "costs.dg_capital_usd_per_kw": (700.0, {}),
    "costs.bs_replacement_fraction": (0.8, {}),
    "costs.dg_replacement_fraction": (0.8, {}),
    "costs.om_fix_pv_fraction_per_year": (0.02, {}),
    "costs.om_fix_wt_fraction_per_year": (0.02, {}),
    "costs.om_fix_bs_fraction_per_year": (0.02, {}),
    "costs.om_fix_dg_fraction_per_year": (0.03, {}),
    "costs.om_var_dg_usd_per_hour": (0.3, {}),
    "costs.om_var_dg_usd_per_kwh": (0.02, MT),
    "costs.startup_cost_usd": (1.0, {}),
    "costs.shutdown_cost_usd": (0.5, {}),
    "costs.converter_capital_usd": (3000.0, {}),
    "strategy.dg_may_charge_battery": (False, {}),
    "strategy.battery_replacement": ("fixed", {}),
    "strategy.replacement_years": (8.0, FIXED),
    "strategy.cycle_counting": ("throughput", {}),
    "strategy.wt_printed_curve": (True, {}),
}

REMOVED_KEYS = ["battery.lifetime_years", "converter.rated_power_kw",
                "converter.capital_cost_usd", "converter.lifetime_years",
                "financial.pv_lifetime_years", "financial.wt_lifetime_years",
                "financial.converter_lifetime_years", "sizing.n_starts",
                "sizing.population"]


def _with_key(base: dict, name: str, value) -> dict:
    section, key = name.split(".")
    raw = {s: dict(v) for s, v in base.items()}
    raw.setdefault(section, {})[key] = value
    return raw


def _outcome(raw: dict, annual_ctx):
    """Objectives and cost breakdown of the live design under ``raw``, on
    the climate and load of the shared ``annual_ctx`` fixture."""
    cfg = build_config(raw)
    ctx = dataclasses.replace(
        annual_ctx, pv=cfg.pv, wind=cfg.wind, battery=cfg.battery,
        generator=cfg.generator, converter=cfg.converter, costs=cfg.costs,
        fin=cfg.fin, strategy=cfg.strategy,
        baseline_generator=cfg.baseline_generator())
    sim = simulate_year(LIVE_DESIGN, ctx)
    return sim.objectives, sim.cost


def test_liveness_table_covers_every_spec_key(default_config):
    resolved = default_config.resolved()
    keys = {f"{s}.{k}" for s in LIVE_SECTIONS for k in resolved[s]}
    assert keys == set(LIVE_VALUES)


@pytest.mark.parametrize("name", sorted(LIVE_VALUES))
def test_every_spec_key_changes_the_result(name, annual_ctx):
    value, base = LIVE_VALUES[name]
    section, key = name.split(".")
    assert value != build_config(base).resolved()[section][key]
    changed = _with_key(base, name, value)
    if name in COMPANIONS:
        changed = _with_key(changed, *COMPANIONS[name])
    assert _outcome(changed, annual_ctx) != _outcome(base, annual_ctx)


@pytest.mark.parametrize("name", REMOVED_KEYS)
def test_removed_keys_are_rejected_by_name(name):
    with pytest.raises(ConfigError, match=f"unknown key {name}"):
        build_config(_with_key({}, name, 1))


def test_config_round_trip(tmp_path):
    cfg = build_config({"seed": 7, "generator": {"rated_power_kw": 12.0},
                        "weights": [0.4, 0.3, 0.1, 0.1, 0.1]})
    path = tmp_path / "run.yaml"
    save_config(cfg, path)
    again = load_config(path)
    assert again.resolved() == cfg.resolved()


def test_load_config_of_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg.generator.rated_power == 16.0


def test_substreams_are_deterministic_and_distinct():
    a = substream_seed(42, "load-gen")
    assert a == substream_seed(42, "load-gen")
    assert a != substream_seed(42, "solver")
    assert a != substream_seed(43, "load-gen")
    with pytest.raises(KeyError):
        substream_seed(42, "nope")


def test_build_context_uses_bundled_dataset(default_config):
    ctx = build_context(default_config, seed=1)
    assert len(ctx.climate) == 8760
    assert len(ctx.load) == 8760
    assert ctx.baseline_generator.rated_power == 16.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(args):
    return main([str(a) for a in args])


def test_cli_without_a_usable_kernel_library_writes_the_error_document(
        tmp_path):
    """A copy of the package that has never been built, imported where no
    C compiler is on PATH: the import succeeds, and ``size`` and
    ``dispatch`` each exit 2 with the error document naming the reason."""
    package = Path(offgridopt.__file__).parent
    shutil.copytree(package, tmp_path / "pkg" / "offgridopt",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    code = textwrap.dedent("""
        import sys
        import offgridopt
        from offgridopt.cli import main
        assert offgridopt.__file__.startswith(sys.argv[1])
        out = sys.argv[1]
        print(main(["size", "--max-evals", "30", "--seed", "42",
                    "--out", out + "/size"]),
              main(["dispatch", "--design", "100,8,45.45", "--seed", "42",
                    "--out", out + "/dispatch"]))
    """)
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True,
        text=True, timeout=300,
        env={**os.environ, "PATH": str(tmp_path / "bin"),
             "PYTHONPATH": str(tmp_path / "pkg")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "2"]
    for command in ("size", "dispatch"):
        doc = json.loads((tmp_path / command / "result.json").read_text())
        assert doc["status"] == "error"
        assert "cc is not on PATH" in doc["message"]
    assert not list((tmp_path / "pkg" / "offgridopt" / "__pycache__")
                    .glob("_cascade*"))


def test_cli_breakeven_reference_inputs(tmp_path):
    code = run_cli(["breakeven", "--seed", 1, "--out", tmp_path,
                    "--tac", 17097, "--load-kwh", 74251])
    assert code == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "ok"
    assert doc["results"]["break_even_distance_km"] == pytest.approx(0.853, abs=0.01)
    assert doc["seed"] == 1
    assert doc["config"]["generator"]["rated_power_kw"] == 16.0


def test_cli_size_is_byte_identical_per_seed(tmp_path):
    for sub in ("a", "b"):
        assert run_cli(["size", "--seed", 42, "--max-evals", 150,
                        "--out", tmp_path / sub]) == 0
    assert (tmp_path / "a/result.json").read_bytes() == \
        (tmp_path / "b/result.json").read_bytes()


def test_cli_simulate_writes_trace_and_costs(tmp_path):
    assert run_cli(["simulate", "--seed", 42, "--design", "100,8,45.45",
                    "--trace", "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    breakdown = doc["results"]["cost_breakdown"]
    for key in ("tnpc", "tac", "lcoe", "pw_recurring", "pw_nonrecurring",
                "capital_pv", "baseline_lcoe"):
        assert key in breakdown
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "hour,p_pv,p_wt,p_dg,p_bs,soc,p_dump,p_lost,load"
    assert len(trace) == 8761


def test_cli_dispatch_writes_schedule(tmp_path):
    assert run_cli(["dispatch", "--seed", 42, "--design", "100,8,45.45",
                    "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    res = doc["results"]
    assert res["feasible"] is True
    assert res["weighted_objective"] <= res["rule_based_weighted_objective"] + 1e-12
    lines = (tmp_path / "schedule.csv").read_text().splitlines()
    assert lines[0] == "hour,p_dg,p_bs,soc,p_res,load,dump,lost"
    assert len(lines) == 25


# The SHA-256 of the dispatch command's files at --design 100,8,45.45
# --seed 42: the config, the search, the evaluation and the CSV formatting
# end to end, which the per-day pins of tests/test_scorer.py do not cover.
DISPATCH_FILES = {
    "default": ("", {
        "result.json":
            "9e8e4dca5c15608012e3fbae0643d47d79ade6c6b604f5c768d9403b2bcba864",
        "schedule.csv":
            "299f5a72aac725897cb744f455573a5598ace770a75c9f424bd21d000513415f"}),
    "pareto-variants": (
        "battery: {chemistry: LA}\ngenerator: {kind: MT}\n"
        "strategy: {cycle_counting: throughput, dg_may_charge_battery: false}\n",
        {"result.json":
            "ddf855787ab5e4d5a49a11603199e0cf68af23eae4e0b8d30c331da5e9a46d01",
         "schedule.csv":
            "2cd82e4631e7e4530353c86770500021aa024c376dcb062a4fd097920dd35ed9"}),
}


@pytest.mark.parametrize("variant", sorted(DISPATCH_FILES))
def test_cli_dispatch_files_are_pinned(tmp_path, variant):
    text, pinned = DISPATCH_FILES[variant]
    cfg = tmp_path / "config.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli(["dispatch", "--seed", 42, "--design", "100,8,45.45",
                    "--config", cfg, "--out", out]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in pinned} == pinned


# The SHA-256 of the files the sizing and pricing commands write at --seed 42
# on the configs of DISPATCH_FILES, as recorded at commit 8237525: the
# cascade, the lifecycle pricing, the baselines, the solvers and the
# formatting end to end.  bench pins its result.json only, since its other
# files hold runtimes.
CLI_COMMANDS = {
    "size": ["--max-evals", 200],
    "simulate": ["--design", "100,8,45.45", "--trace"],
    "breakeven": ["--design", "100,8,45.45"],
    "sweep": ["--parameter", "bs_price", "--values", "100,300",
              "--max-evals", 60],
    "pareto": ["--population", 8, "--generations", 2],
    "bench": ["--max-evals", 60],
}
CLI_FILES = {
    "default": {
        "size": {"result.json": "79f761e375df27d57367b1450ef399b49d2db51a80fe85ed960f698d1b696faa"},
        "simulate": {"result.json": "f15979254f080c7578ed0f93908e2c77268595dc970f7c02a08ffa62d2dcc02e",
                     "trace.csv": "623f31f6a7defadc9957eccbebfc74558f255342475a65fe3dad3807e7f0061a"},
        "breakeven": {"result.json": "aaabca3601522cf5bf79a1c6b8043f4ec1e397a9bfaef2705360a049ec7a514b"},
        "sweep": {"result.json": "f218c9e15d395e205ee48703e8d93eedae33f354475d91cba9670bade1a45632",
                  "sweep_bs_price.csv": "25b2ef3c39ba2062f1b6b1d832612eb7a9d3631f6f4c546cf4e7bedeac0db94c"},
        "pareto": {"result.json": "0553cc0e42f74abf0b133430a1895730708e7f0f36f73b04439f2ffb1bbf0bdd",
                   "pareto.csv": "795127da1a2645cff25322f8ceb60998f344efab44be33c17e9a413dc418a1b6"},
        "bench": {"result.json": "7cf5b693c22a03fa73dd61fae8a177cf3e8282fde1a976248a25838a5064eeb6"},
    },
    "pareto-variants": {
        "size": {"result.json": "c76ef04b2a65f91922f410ed733735f796f7d104b110237f750c16eae214c292"},
        "simulate": {"result.json": "78a254d44e263cadaf0d2852dfa940fd2d58948121d1599141e768bb0634c87e",
                     "trace.csv": "5cee7ed05cf9f1dbe2385b99d770104b578a81c6620fa59c50fa015d503faa34"},
        "breakeven": {"result.json": "b0af592d85bb0afd290ac0231dc97b3fb27247bcab2db397bb093280dc92af46"},
        "sweep": {"result.json": "0bbe6537bb9a52922236172f91332d5e316f1fd2dcc8bd8b1c6e9217f184fa30",
                  "sweep_bs_price.csv": "4f7e67fb5ae9f1c2582c37918748a0680b594ffd4e4c0ba5bc47fbd2a3d305d4"},
        "pareto": {"result.json": "a0d928e8295491905d04a19b4a9db1e85d300aad8a4217ac888da35f52a2e01c",
                   "pareto.csv": "8d62044d7e43a320872e83c7efb1a0c1f05d9c8f37665d218286a954c8e659be"},
        "bench": {"result.json": "aa5e872c6aa13c4f7b90437dbd9759d113c83b65f109b4d5570fabcf19258e45"},
    },
}


@pytest.mark.parametrize("variant, command",
                         [(v, c) for v in sorted(CLI_FILES) for c in CLI_COMMANDS])
def test_cli_files_are_pinned(tmp_path, variant, command):
    pinned = CLI_FILES[variant][command]
    cfg = tmp_path / "config.yaml"
    cfg.write_text(DISPATCH_FILES[variant][0])
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli([command, "--seed", 42, *CLI_COMMANDS[command],
                    "--config", cfg, "--out", out]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in pinned} == pinned


def test_result_records_the_run_arguments_outside_the_config(tmp_path):
    """result.json alone reruns a run: the arguments that are no config key
    are in its results."""
    runs = {"pareto": ["--population", 4, "--generations", 1],
            "dispatch": ["--design", "100,8,45.45"],
            "breakeven": ["--design", "100,8,45.45"]}
    for command, args in runs.items():
        assert run_cli([command, "--seed", 3, *args,
                        "--out", tmp_path / command]) == 0
    results = {command: json.loads((tmp_path / command / "result.json")
                                   .read_text())["results"]
               for command in runs}
    assert (results["pareto"]["population"],
            results["pareto"]["generations"]) == (4, 1)
    assert results["dispatch"]["design"] == [100.0, 8.0, 45.45]
    assert results["breakeven"]["design"] == [100.0, 8.0, 45.45]


def test_cli_bench_table(tmp_path):
    assert run_cli(["bench", "--seed", 42, "--solvers", "pso,ps",
                    "--max-evals", 150, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    table = doc["results"]["table"]
    assert [row["solver"] for row in table] == ["pso", "pattern_search"]
    for row in table:
        assert set(row) == {"solver", "best_point", "best_value", "evaluations"}
    ranked = json.loads((tmp_path / "benchmark.json").read_text())
    assert len(ranked) == 2
    for row in ranked:
        assert row["overall"] == pytest.approx(
            row["runtime_s"] * row["best_value"], rel=1e-9)
    assert (tmp_path / "benchmark.csv").exists()


def test_cli_bench_result_is_reproducible(tmp_path):
    for out in ("a", "b"):
        assert run_cli(["bench", "--seed", 42, "--max-evals", 60,
                        "--out", tmp_path / out]) == 0
    assert ((tmp_path / "a" / "result.json").read_bytes()
            == (tmp_path / "b" / "result.json").read_bytes())


def test_cli_sweep_writes_table(tmp_path):
    assert run_cli(["sweep", "--seed", 42, "--parameter", "bs_price",
                    "--values", "200,300", "--max-evals", 120,
                    "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["results"]["statuses"] == ["ok", "ok"]
    lines = (tmp_path / "sweep_bs_price.csv").read_text().splitlines()
    assert len(lines) == 3


def test_cli_sweep_rejects_a_budget_below_the_swarm_before_any_point(tmp_path):
    """The solver settings are the same at every point, so a budget that
    cannot pay for one swarm sweep is the error ``size`` reports, not a
    sweep of failed rows."""
    cfg = tmp_path / "small_budget.yaml"
    cfg.write_text("sizing: {max_evals: 10}\n")
    for command in (["size"],
                    ["sweep", "--parameter", "bs_price", "--values", "100,300"]):
        assert run_cli([*command, "--seed", 42, "--config", cfg,
                        "--out", tmp_path]) == 2
        doc = json.loads((tmp_path / "result.json").read_text())
        assert doc["status"] == "error"
        assert doc["message"] == ("sizing: max_evals must cover at least one "
                                  "swarm sweep")


def test_cli_error_path_writes_error_document(tmp_path):
    code = run_cli(["breakeven", "--seed", 1, "--out", tmp_path, "--tac", 17097])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert "load-kwh" in doc["message"]


def test_cli_infeasible_baseline_is_an_error(tmp_path):
    cfg = tmp_path / "small_baseline.yaml"
    cfg.write_text("baseline:\n  dg_rated_kw: 10\n")
    code = run_cli(["simulate", "--seed", 42, "--config", cfg,
                    "--out", tmp_path, "--design", "100,8,45.45"])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert "baseline generator" in doc["message"]


@pytest.mark.parametrize("config, design", [
    ("financial: {nominal_rate_fraction: 0.0, inflation_fraction: 0.06}\n",
     "100,30,150"),
    ("financial: {nominal_rate_fraction: 0.04, inflation_fraction: 0.12}\n"
     "battery: {chemistry: LA}\nstrategy: {cycle_counting: throughput}\n",
     "0,0,200"),
])
def test_cli_simulate_with_a_negative_real_rate_is_an_error(tmp_path, config,
                                                           design):
    """Designs in the default search box whose replacements' present worth
    diverges at a negative real rate: 1 + i_adj underflows to 0 in the
    first, the ratio's power overflows in the second.  Both present worths
    are +inf, and simulate writes the error document."""
    cfg = tmp_path / "negative_real_rate.yaml"
    cfg.write_text(config)
    code = run_cli(["simulate", "--seed", 42, "--config", cfg,
                    "--out", tmp_path, "--design", design])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"] == ("results.weighted_objective is inf, "
                              "not a finite number")


# A generator that costs nothing to run: the day's baseline cost of energy
# is 0; with no capital cost either, so is the annual baseline's.
FREE_TO_RUN = {"om_var_dg_usd_per_hour": 0, "om_var_dg_usd_per_kwh": 0,
               "startup_cost_usd": 0, "shutdown_cost_usd": 0,
               "om_fix_dg_fraction_per_year": 0}


@pytest.mark.parametrize("command, capital, message", [
    (["size", "--max-evals", "30"], 0, "annual baseline LCOE is 0.0"),
    (["dispatch", "--design", "100,8,45.45"], 0, "daily baseline COE is 0.0"),
    (["dispatch", "--design", "100,8,45.45"], 781.25,
     "daily baseline COE is 0.0")])
def test_cli_zero_cost_baseline_is_an_error(tmp_path, command, capital,
                                            message):
    """The objectives divide by the baseline; a zero one raised
    ZeroDivisionError (exit 1, a traceback)."""
    cfg = tmp_path / "free.yaml"
    cfg.write_text(yaml.safe_dump({
        "generator": {"fuel_price_usd": 0},
        "costs": {**FREE_TO_RUN, "dg_capital_usd_per_kw": capital}}))
    code = run_cli([*command, "--seed", 42, "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert message in doc["message"]


@pytest.mark.parametrize("command", [
    ["simulate"], ["dispatch", "--day", "4"]])
def test_cli_rejects_climate_with_a_missing_value(tmp_path, command):
    """An empty wind cell at hour 100 (day 4) is an error, not calm air."""
    lines = (resources.files("offgridopt.data")
             .joinpath(CLIMATE_FILENAME).read_text().splitlines())
    cells = lines[1 + 100].split(",")
    cells[2] = ""
    lines[1 + 100] = ",".join(cells)
    csv_path = tmp_path / "gap.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "gap.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"climate_csv": str(csv_path)}}))
    code = run_cli([*command, "--seed", 42, "--design", "100,8,45.45",
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert "wind_ms" in doc["message"]


@pytest.mark.parametrize("column, index, text", [
    ("ghi_kw_m2", 1, "inf"), ("temp_c", 3, "-inf")])
def test_cli_rejects_climate_with_an_infinite_value(tmp_path, column, index,
                                                    text):
    """An infinite cell at hour 12 made ``simulate`` exit 0 with
    ``"status": "ok"`` and write REPG and 1-REF as bare NaN."""
    lines = (resources.files("offgridopt.data")
             .joinpath(CLIMATE_FILENAME).read_text().splitlines())
    cells = lines[1 + 12].split(",")
    cells[index] = text
    lines[1 + 12] = ",".join(cells)
    csv_path = tmp_path / "inf.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "inf.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"climate_csv": str(csv_path)}}))
    code = run_cli(["simulate", "--seed", 42, "--design", "100,8,45.45",
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"] == (f"line 14: infinite value {text!r} in column "
                              f"{column!r}")


@pytest.mark.parametrize("command", [["simulate"], ["dispatch"]])
def test_cli_rejects_a_load_that_sums_to_zero(tmp_path, command):
    csv_path = tmp_path / "zero.csv"
    csv_path.write_text("hour,load_kw\n" + "".join(f"{h},0\n" for h in range(24)))
    cfg = tmp_path / "zero.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"load_csv": str(csv_path)}}))
    code = run_cli([*command, "--seed", 42, "--design", "100,8,45.45",
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert "load sums to zero" in doc["message"]


def test_cli_rejects_a_load_file_with_a_bad_hour(tmp_path):
    csv_path = tmp_path / "load.csv"
    csv_path.write_text("hour,load_kw\n" + "x,5\n" * 24)
    cfg = tmp_path / "load.yaml"
    cfg.write_text(yaml.safe_dump({"data": {"load_csv": str(csv_path)}}))
    code = run_cli(["simulate", "--seed", 42, "--design", "100,8,45.45",
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"] == "line 2: non-integer hour 'x'"


def test_the_config_seed_drives_the_run(tmp_path):
    """``--seed`` sets the config key ``seed``: the file's seed runs like the
    flag, the flag wins over the file, and result.json records one seed."""
    cfg = tmp_path / "seed.yaml"
    cfg.write_text("seed: 7\n")
    run = ["simulate", "--design", "100,8,45.45"]
    assert run_cli([*run, "--config", cfg, "--out", tmp_path / "file"]) == 0
    assert run_cli([*run, "--seed", 7, "--out", tmp_path / "flag"]) == 0
    assert run_cli([*run, "--seed", 42, "--config", cfg,
                    "--out", tmp_path / "over"]) == 0
    file, flag, over = (json.loads((tmp_path / d / "result.json").read_text())
                        for d in ("file", "flag", "over"))
    assert file["results"] == flag["results"]
    assert file["seed"] == file["config"]["seed"] == 7
    assert over["seed"] == over["config"]["seed"] == 42
    assert over["results"] != file["results"]


@pytest.mark.parametrize("text", [
    "pv: 5\n",
    "weights: abc\n",
    "seed: x\n",
    "pv: {eta_ref_fraction: high}\n",
    "generator: {fuel_price_usd: '3.2'}\n",
    "generator: {kind: de}\n",
    "strategy: {dg_may_charge_battery: 'no'}\n",
    "sizing: {bounds_upper: 5}\n",
    "dispatch: {weights: [a, b, c, d]}\n",
    "baseline: {dg_rated_kw: big}\n",
    "converter: {rated_power_kw: 12.52}\n",
    "sizing: {swarm_size: 0}\n",
    "weights: [.nan, 0.25, 0.25, 0.25, 0.25]\n",
    "costs: {pv_capital_usd_per_kw: .nan}\n",
    "battery: {unit_energy_kwh: 0}\n",
    "pv: {eta_ref_fraction: 0.2\n",
])
def test_cli_malformed_config_writes_error_document(tmp_path, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    code = run_cli(["simulate", "--design", "100,8,45.45",
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error" and doc["message"]


@pytest.mark.parametrize("text, key", [
    ("generator: {fuel_price_usd: .inf}\n", "generator.fuel_price_usd"),
    ("pv: {temp_ref_c: .inf}\n", "pv.temp_ref_c"),
    ("pv: {temp_ref_c: -.inf}\n", "pv.temp_ref_c"),
    ("battery: {fade_per_cycle_fraction: .inf}\n",
     "battery.fade_per_cycle_fraction"),
    ("generator: {fuel_price_usd: 1%s}\n" % ("0" * 400),
     "generator.fuel_price_usd"),
], ids=["fuel_price", "temp_ref", "temp_ref_negative", "fade", "huge_int"])
def test_cli_size_rejects_an_infinite_config_value(tmp_path, text, key):
    """The infinities sized to "status": "ok", the first two with a NaN
    best_value; an integer too large for a float raised OverflowError
    (exit 1, a traceback)."""
    cfg = tmp_path / "infinite.yaml"
    cfg.write_text(text)
    code = run_cli(["size", "--seed", 1, "--max-evals", 60, "--config", cfg,
                    "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert f"{key}: expected a number" in doc["message"]


def numeric_config_keys():
    """(section, key, kind) of every numeric config key, from the schema
    tables of ``offgridopt.config``; the section is None for a top-level
    key.  ``kind`` is "int", "float" or "list" (a list of numbers)."""
    specs = {"pv": (config_mod._PV_KEYS, PvSpec),
             "wind": (config_mod._WIND_KEYS, WindSpec),
             "battery": (config_mod._BATTERY_KEYS, BatterySpec),
             "generator": (config_mod._GENERATOR_KEYS, GeneratorSpec),
             "converter": (config_mod._CONVERTER_KEYS, ConverterSpec),
             "financial": (config_mod._FINANCIAL_KEYS, FinancialParams),
             "costs": (config_mod._COST_KEYS, CostTable),
             "strategy": (config_mod._STRATEGY_KEYS, StrategyConfig)}
    kinds = {"data": config_mod._DATA_KEYS, "sizing": config_mod._SIZING_KEYS,
             "dispatch": config_mod._DISPATCH_KEYS,
             "baseline": config_mod._BASELINE_KEYS,
             "breakeven": config_mod._BREAKEVEN_KEYS}
    for section, (keys, cls) in specs.items():
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        kinds[section] = {key: types[field] for key, field in keys.items()}
    out = [(None, "seed", "int"), (None, "weights", "list")]
    for section, table in kinds.items():
        for key, kind in table.items():
            kind = kind.removesuffix(" | None")
            if kind in ("int", "float", "list"):
                out.append((section, key, kind))
    return out


NUMERIC_KEYS = numeric_config_keys()
NOT_A_FLOAT = st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               10 ** 400])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(NUMERIC_KEYS), NOT_A_FLOAT, st.integers(0, 4))
def test_a_non_finite_config_value_is_a_config_error_naming_its_key(
        entry, value, position):
    """NaN, +-inf or an integer beyond the float range in any numeric key
    (in a list, at any of its entries) is a ``ConfigError`` that names the
    key."""
    section, key, kind = entry
    name = key if section is None else f"{section}.{key}"
    if kind == "list":
        default = build_config({}).resolved()
        good = default[key] if section is None else default[section][key]
        good = list(good)
        good[position % len(good)] = value
        value = good
    raw = {key: value} if section is None else {section: {key: value}}
    with pytest.raises(ConfigError) as error:
        build_config(raw)
    assert str(error.value).startswith(f"{name}: ")


@pytest.mark.parametrize("command", [
    ["simulate", "--design", "100,8,45.45"], ["size", "--max-evals", 60]])
def test_cli_never_reports_a_non_finite_result_as_ok(tmp_path, monkeypatch,
                                                    command):
    """A NaN objective used to be written with ``"status": "ok"``."""
    real = cli.simulate_year

    def nan_repg(design, ctx):
        sim = real(design, ctx)
        return dataclasses.replace(
            sim, objectives=sim.objectives._replace(repg=float("nan")))

    monkeypatch.setattr(cli, "simulate_year", nan_repg)
    code = run_cli([*command, "--seed", 42, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error" and doc["results"] == {}
    assert doc["message"].endswith(" is nan, not a finite number")
    assert doc["message"].startswith("results.")


def test_cli_sweep_writes_a_failed_point_without_an_objective(tmp_path):
    """A failed point's objective is null, not NaN, so the sweep still
    succeeds."""
    code = run_cli(["sweep", "--seed", 42, "--parameter", "bs_price",
                    "--values=-50,300", "--max-evals", 60,
                    "--out", tmp_path])
    assert code == 0
    results = json.loads((tmp_path / "result.json").read_text())["results"]
    assert results["statuses"][0].startswith("failed")
    assert results["weighted_obj"][0] is None
    assert results["weighted_obj"][1] > 0


@pytest.mark.parametrize("command, flag, text", [
    (["simulate", "--design", "100,8,45.45"], ["--seed", 1], "seed: x\n"),
    (["size"], ["--max-evals", 60], "sizing: {max_evals: 0}\n"),
], ids=["seed", "max-evals"])
def test_cli_key_flag_does_not_hide_an_invalid_file_value(tmp_path, command,
                                                          flag, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    code = run_cli([*command, *flag, "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error" and doc["message"]


def test_cli_dispatch_rejects_max_patterns_below_the_seed_schedules(tmp_path):
    cfg = tmp_path / "few_patterns.yaml"
    cfg.write_text("dispatch: {max_patterns: 0}\n")
    code = run_cli(["dispatch", "--seed", 42, "--design", "100,8,45.45",
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert "max_patterns" in doc["message"]
    assert not (tmp_path / "schedule.csv").exists()


@pytest.mark.parametrize("command, flag, text", [
    (["size"], ["--seed", "-1"], ""),
    (["dispatch", "--design", "100,8,45.45"], [], "seed: -1\n"),
], ids=["flag", "key"])
def test_cli_rejects_a_negative_seed(tmp_path, command, flag, text):
    """A negative seed raised numpy's ValueError in ``substream_seed``: exit
    1 with a traceback, and no result document."""
    cfg = tmp_path / "seed.yaml"
    cfg.write_text(text)
    code = run_cli([*command, *flag, "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"] == "seed must be >= 0, got -1"


@pytest.mark.parametrize("command", [
    ["simulate", "--design", "100,8,45.45"],
    ["dispatch", "--design", "100,8,45.45"],
    ["breakeven", "--tac", "17097", "--load-kwh", "74251"],
    ["size"],
], ids=["simulate", "dispatch", "breakeven", "size"])
@pytest.mark.parametrize("text, message", [
    ("sizing: {solver: zz}\n", "sizing: unknown solver 'zz'"),
    ("sizing: {max_evals: 20, swarm_size: 30}\n",
     "sizing: max_evals must cover at least one swarm sweep"),
    ("sizing: {bounds_lower: [10, 0, 0], bounds_upper: [0, 30, 200]}\n",
     "sizing: lower bounds exceed upper bounds"),
    ("dispatch: {max_patterns: 1}\n", "dispatch: max_patterns must be >= 3"),
    ("dispatch: {dpsp_max: 1.5}\n", "dispatch: dpsp_max must be in [0, 1]"),
    ("dispatch: {dg_rated_kw: 0}\n",
     "dispatch: dispatch needs a generator with positive rating"),
    ("dispatch: {dg_rated_kw: -3}\n",
     "dispatch: dispatch needs a generator with positive rating"),
    ("breakeven: {extension_cost_usd_per_km: -5}\n",
     "breakeven: ext_cost_per_km must be positive"),
], ids=["solver", "budget", "bounds", "max_patterns", "dpsp_max",
        "dg_rated_zero", "dg_rated_negative", "extension_cost"])
def test_a_config_is_invalid_whatever_the_command(tmp_path, command, text,
                                                  message):
    """Each value was an error only for the command that reads it: the
    others ran with it and exited 0."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    code = run_cli([*command, "--seed", 42, "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"].startswith(message)


@pytest.mark.parametrize("command", ["simulate", "dispatch", "breakeven"])
@pytest.mark.parametrize("day", [400, -1])
def test_a_dispatch_day_outside_the_data_is_invalid_for_every_design_command(
        tmp_path, command, day):
    """Only the data tells how many days there are, so the context that
    loads it rejects the day, whatever the command: ``simulate`` and
    ``breakeven`` ran with it and exited 0."""
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"dispatch: {{day: {day}}}\n")
    code = run_cli([command, "--design", "100,8,45.45", "--seed", 42,
                    "--config", cfg, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"] == f"dispatch: day {day} is outside [0, 365)"


@pytest.mark.parametrize("design, message", [
    ("100.6,8,45", "integer count"), ("100,7.5,45", "integer count"),
    ("nan,8,45", "finite"), ("100,8,nan", "finite"), ("inf,8,45", "finite")])
def test_cli_design_rejects_fractional_and_non_finite_values(tmp_path, design,
                                                             message):
    code = run_cli(["simulate", "--seed", 1, "--design", design,
                    "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert message in doc["message"]


# Flags that set config keys.  The file sets every such key to another
# value than its flag, and keeps the sizing budgets small.
KEY_FLAG_FILE = {"weights": [0.2] * 5,
                 "sizing": {"solver": "pso", "max_evals": 40, "swarm_size": 10},
                 "dispatch": {"day": 1, "weights": [0.25] * 4}}
DESIGN_ARGS = ["--design", "100,8,45.45"]
SWEEP_ARGS = ["--parameter", "dg_rated", "--values", "16"]
# command, arguments, flag, flag text, config key, value recorded for it
KEY_FLAGS = [
    ("size", [], "--solver", "ps", "sizing.solver", "ps"),
    ("size", [], "--max-evals", "25", "sizing.max_evals", 25),
    ("size", [], "--weights", "0.4,0.15,0.15,0.15,0.15", "weights",
     [0.4, 0.15, 0.15, 0.15, 0.15]),
    ("sweep", SWEEP_ARGS, "--max-evals", "25", "sizing.max_evals", 25),
    ("bench", ["--solvers", "pso,ps"], "--max-evals", "25",
     "sizing.max_evals", 25),
    ("dispatch", DESIGN_ARGS, "--weights", "0.4,0.2,0.2,0.2",
     "dispatch.weights", [0.4, 0.2, 0.2, 0.2]),
    ("dispatch", DESIGN_ARGS, "--day", "364", "dispatch.day", 364),
]


def _config_value(config: dict, key: str):
    for name in key.split("."):
        config = config[name]
    return config


@pytest.mark.parametrize(
    "command, args, flag, text, key, value", KEY_FLAGS,
    ids=[f"{c}{f}" for c, _, f, *_ in KEY_FLAGS])
def test_key_flag_is_recorded_and_reproduces_the_run(tmp_path, command, args,
                                                     flag, text, key, value):
    cfg = tmp_path / "file.yaml"
    cfg.write_text(yaml.safe_dump(KEY_FLAG_FILE))
    run = [command, "--seed", 7, *args]
    assert run_cli([*run, "--config", cfg, flag, text,
                    "--out", tmp_path / "flag"]) == 0
    doc = json.loads((tmp_path / "flag" / "result.json").read_text())
    assert _config_value(doc["config"], key) == value     # the flag wins
    saved = tmp_path / "saved.yaml"
    saved.write_text(yaml.safe_dump(doc["config"]))
    assert run_cli([*run, "--config", saved, "--out", tmp_path / "again"]) == 0
    again = json.loads((tmp_path / "again" / "result.json").read_text())
    assert again["config"] == doc["config"]
    assert again["results"] == doc["results"]


# arguments without --seed and --out, and a part of the error message
REJECTED = [
    (["size", "--max-evals", "0"], "sizing.max_evals"),
    (["size", "--max-evals", "-3", "--solver", "sa"], "sizing.max_evals"),
    (["size", "--max-evals", "abc"], "sizing.max_evals: expected an integer"),
    (["sweep", "--parameter", "bs_price", "--max-evals", "0"],
     "sizing.max_evals"),
    (["bench", "--max-evals", "abc"], "sizing.max_evals: expected an integer"),
    (["size", "--weights", "a,b"], "weights: expected a list of numbers"),
    (["size", "--weights", "[0.2,"], "weights: '[0.2,' is not a YAML value"),
    (["dispatch", *DESIGN_ARGS, "--weights", "a,b"],
     "dispatch.weights: expected a list of numbers"),
    (["dispatch", *DESIGN_ARGS, "--day", "2.5"],
     "dispatch.day: expected an integer"),
    (["dispatch", *DESIGN_ARGS, "--day", "400"], "day 400 is outside [0, 365)"),
    (["dispatch", *DESIGN_ARGS, "--day", "-1"], "day -1 is outside [0, 365)"),
    (["size", "--solver", "nope"], "unknown solver 'nope'"),
    (["simulate", "--design", "a,b,c"], "--design"),
    (["sweep", "--parameter", "bs_price", "--values", "x"], "--values"),
    (["sweep", "--parameter", "bs_price", "--workers", "0"], "workers"),
    (["sweep", "--parameter", "bs_price", "--workers", "-2"], "workers"),
    (["pareto", "--generations", "-1"], "generations"),
    (["breakeven", "--tac", "-5", "--load-kwh", "0"], "annual_load_kwh"),
    (["breakeven", "--tac", "-5", "--load-kwh", "74251"], "tac"),
    (["breakeven", "--tac", "17097", "--load-kwh", "74251", *DESIGN_ARGS],
     "--design cannot be given with --tac"),
    (["breakeven", "--load-kwh", "74251", *DESIGN_ARGS], "--load-kwh needs --tac"),
]


@pytest.mark.parametrize("argv, message", REJECTED,
                         ids=[" ".join(argv) for argv, _ in REJECTED])
def test_cli_rejects_bad_flag_values(tmp_path, argv, message):
    code = run_cli([*argv, "--seed", 1, "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert message in doc["message"]


def test_key_flag_into_a_section_that_is_not_a_mapping(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("sizing: []\n")
    code = run_cli(["size", "--seed", 1, "--config", cfg, "--max-evals", 5,
                    "--out", tmp_path])
    assert code == 2
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["status"] == "error"
    assert doc["message"] == "sizing: expected a mapping, got []"


def test_workers_flag_only_on_sweep(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--seed", 1, "--design", "10,2,20",
                 "--workers", 2, "--out", tmp_path])
    assert exc.value.code == 2


def test_cli_bad_config_is_an_error(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("weights: [1, 1, 1, 1, 1]\n")
    code = run_cli(["breakeven", "--seed", 1, "--config", cfg,
                    "--out", tmp_path, "--tac", 17097, "--load-kwh", 74251])
    assert code == 2


def test_cli_entrypoint_runs_as_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "offgridopt.cli", "breakeven", "--seed", "1",
         "--out", str(tmp_path), "--tac", "17097", "--load-kwh", "74251"],
        capture_output=True, text=True)
    assert proc.returncode == 0


def test_cli_does_not_mutate_inputs(tmp_path, default_config):
    from offgridopt.datasets import _data_path, CLIMATE_FILENAME
    before = _data_path(CLIMATE_FILENAME).read_bytes()
    run_cli(["simulate", "--seed", 1, "--design", "10,2,20", "--out", tmp_path])
    assert _data_path(CLIMATE_FILENAME).read_bytes() == before
