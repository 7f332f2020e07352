import csv
import json

import pytest

from offgridopt.cli import main
from offgridopt.solvers import SOLVERS


def run_cli(args):
    return main([str(a) for a in args])


def test_size_weights_override_lands_in_result_config(tmp_path):
    assert run_cli(["size", "--seed", 7, "--max-evals", 120, "--out", tmp_path,
                    "--weights", "0.4,0.15,0.15,0.15,0.15"]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["config"]["weights"] == [0.4, 0.15, 0.15, 0.15, 0.15]


def test_size_continuous_capacity_mode(tmp_path):
    cfg = tmp_path / "cont.yaml"
    cfg.write_text("sizing:\n  integer_counts: false\n")
    assert run_cli(["size", "--seed", 7, "--config", cfg, "--max-evals", 200,
                    "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    point = doc["results"]["best_point"]     # total rated kW for PV and WT
    units = doc["results"]["best_design"]    # fractional unit counts
    assert units[0] == pytest.approx(point[0] / 0.255, rel=1e-9)
    assert units[1] == pytest.approx(point[1] / 3.5, rel=1e-9)
    assert 0.0 <= point[0] <= 100.0 and 0.0 <= point[1] <= 30.0


# One sizing problem behind every command: the same config must mean the
# same search point -> design decoding, solver, budget and swarm size in
# `size`, `sweep`, `pareto` and `bench`.
KW_BOUNDS = [25.5, 105, 200]    # kW: at most 100 PV units and 30 turbines


def write_config(tmp_path, **sizing):
    cfg = tmp_path / "sizing.yaml"
    cfg.write_text(json.dumps({"sizing": sizing}))   # JSON is valid YAML
    return cfg


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_inside_kw_bounds(rows):
    assert rows
    for row in rows:
        assert 0.0 <= float(row["n_s"]) <= 100.0 + 1e-9
        assert 0.0 <= float(row["n_w"]) <= 30.0 + 1e-9


@pytest.mark.parametrize("integer_counts", [True, False])
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_one_value_sweep_reproduces_size(tmp_path, solver, integer_counts):
    cfg = write_config(tmp_path, integer_counts=integer_counts, solver=solver,
                       max_evals=60, swarm_size=10, bounds_upper=KW_BOUNDS)
    assert run_cli(["size", "--seed", 7, "--config", cfg,
                    "--out", tmp_path / "size"]) == 0
    assert run_cli(["sweep", "--seed", 7, "--config", cfg,
                    "--parameter", "dg_rated", "--values", "16",
                    "--out", tmp_path / "sweep"]) == 0
    size = json.loads((tmp_path / "size" / "result.json").read_text())["results"]
    sweep = json.loads((tmp_path / "sweep" / "result.json").read_text())["results"]
    assert size["solver"] == solver
    assert sweep["statuses"] == ["ok"]
    assert sweep["weighted_obj"] == [size["best_value"]]
    [row] = read_csv(tmp_path / "sweep" / "sweep_dg_rated.csv")
    n_s, n_w, e_b = size["best_design"]
    assert float(row["n_s"]) == pytest.approx(n_s, rel=1e-9)
    assert float(row["n_w"]) == pytest.approx(n_w, rel=1e-9)
    assert row["e_b"] == f"{e_b:.3f}"
    if not integer_counts:
        assert_inside_kw_bounds([row])


def test_pareto_reads_kw_bounds_as_size_does(tmp_path):
    cfg = write_config(tmp_path, integer_counts=False, bounds_upper=KW_BOUNDS)
    assert run_cli(["pareto", "--seed", 7, "--config", cfg, "--population", 4,
                    "--generations", 1, "--out", tmp_path]) == 0
    assert_inside_kw_bounds(read_csv(tmp_path / "pareto.csv"))


def test_bench_pso_row_equals_size_with_configured_swarm(tmp_path):
    cfg = write_config(tmp_path, swarm_size=10, max_evals=60)
    assert run_cli(["bench", "--seed", 7, "--config", cfg,
                    "--out", tmp_path / "bench"]) == 0
    assert run_cli(["size", "--seed", 7, "--config", cfg, "--solver", "pso",
                    "--out", tmp_path / "size"]) == 0
    table = json.loads((tmp_path / "bench" / "result.json").read_text())["results"]["table"]
    size = json.loads((tmp_path / "size" / "result.json").read_text())["results"]
    ranked = json.loads((tmp_path / "bench" / "benchmark.json").read_text())
    assert [r["overall"] for r in ranked] == sorted(r["overall"] for r in ranked)
    [pso] = [r for r in table if r["solver"] == "pso"]
    assert pso["best_point"] == size["best_point"]
    assert pso["best_value"] == size["best_value"]
    assert pso["evaluations"] == size["evaluations"]
