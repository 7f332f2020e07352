import json
import subprocess
import sys

import pytest
import yaml

from offgridopt.cli import main
from offgridopt.config import (build_config, build_context, load_config,
                               save_config)
from offgridopt.errors import ConfigError
from offgridopt.seeding import substream_seed


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
    assert ctx.climate.n_hours == 8760
    assert len(ctx.load) == 8760
    assert ctx.baseline_generator.rated_power == 16.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def run_cli(args):
    return main([str(a) for a in args])


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


def test_cli_bench_table(tmp_path):
    assert run_cli(["bench", "--seed", 42, "--solvers", "pso,ps",
                    "--max-evals", 150, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    table = doc["results"]["table"]
    assert len(table) == 2
    for row in table:
        assert row["overall"] == pytest.approx(
            row["runtime_s"] * row["best_value"], rel=1e-9)
    assert (tmp_path / "benchmark.csv").exists()
    assert (tmp_path / "benchmark.json").exists()


def test_cli_sweep_writes_table(tmp_path):
    assert run_cli(["sweep", "--seed", 42, "--parameter", "bs_price",
                    "--values", "200,300", "--max-evals", 120,
                    "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["results"]["statuses"] == ["ok", "ok"]
    lines = (tmp_path / "sweep_bs_price.csv").read_text().splitlines()
    assert len(lines) == 3


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
