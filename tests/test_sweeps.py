import concurrent.futures
import math

import pytest

from offgridopt import sweeps
from offgridopt.economics import Weights
from offgridopt.errors import InputDataError
from offgridopt.seeding import substream_seed
from offgridopt.simulate import Design, SizingProblem, simulate_year
from offgridopt.sweeps import (SweepSpec, apply_override,
                               objective_at_fixed_design, run_sweep,
                               sweep_to_csv)

DESIGN = Design(100, 8, 45.45)
W = Weights((0.2,) * 5)


def test_sweep_spec_validation():
    with pytest.raises(InputDataError):
        SweepSpec("voltage", (1.0,))
    with pytest.raises(InputDataError):
        SweepSpec("fuel_price", ())
    with pytest.raises(InputDataError):
        SweepSpec("fuel_price", (3.0, 1.0))
    with pytest.raises(InputDataError):
        SweepSpec("w1", (0.0, 1.5))
    assert SweepSpec.default("dg_rated").values == (0.0, 4.0, 8.0, 12.0, 16.0, 20.0)


def test_weight_override_splits_remainder_equally(annual_ctx):
    _, w = apply_override(annual_ctx, W, "w3", 0.4)
    assert w.values[2] == pytest.approx(0.4)
    for i in (0, 1, 3, 4):
        assert w.values[i] == pytest.approx(0.15)
    assert sum(w.values) == pytest.approx(1.0, abs=1e-9)


def test_parameter_overrides_touch_the_right_objects(annual_ctx):
    ctx, _ = apply_override(annual_ctx, W, "dg_rated", 8.0)
    assert ctx.generator.rated_power == 8.0
    assert ctx.baseline_generator.rated_power == annual_ctx.baseline_generator.rated_power
    ctx, _ = apply_override(annual_ctx, W, "fuel_price", 6.4)
    assert ctx.generator.fuel_price == 6.4
    assert ctx.baseline_generator.fuel_price == 6.4
    ctx, _ = apply_override(annual_ctx, W, "bs_price", 120.0)
    assert ctx.costs.bs_capital_per_kwh == 120.0


def test_fixed_design_fuel_price_monotonicity(annual_ctx):
    lcoes = []
    for price in (2.0, 4.0, 8.0):
        sim, _ = objective_at_fixed_design(DESIGN, {"fuel_price": price},
                                           annual_ctx, W)
        assert sim.dg_energy_kwh > 0
        lcoes.append(sim.cost.lcoe)
    assert lcoes[0] < lcoes[1] < lcoes[2]


def test_fixed_design_emissions_invariant_to_prices(annual_ctx):
    base, _ = objective_at_fixed_design(DESIGN, {}, annual_ctx, W)
    fuel, _ = objective_at_fixed_design(DESIGN, {"fuel_price": 9.0}, annual_ctx, W)
    bs, _ = objective_at_fixed_design(DESIGN, {"bs_price": 60.0}, annual_ctx, W)
    assert fuel.emissions_kg == pytest.approx(base.emissions_kg, rel=1e-12)
    assert bs.emissions_kg == pytest.approx(base.emissions_kg, rel=1e-12)


def test_fixed_design_bs_price_noop_without_battery(annual_ctx):
    design = Design(40, 6, 0.0)
    base, _ = objective_at_fixed_design(design, {}, annual_ctx, W)
    cheap, _ = objective_at_fixed_design(design, {"bs_price": 50.0}, annual_ctx, W)
    assert cheap.cost.lcoe == pytest.approx(base.cost.lcoe, rel=1e-12)


def test_no_override_reproduces_sizing_run(annual_ctx, default_config):
    sim, value = objective_at_fixed_design(DESIGN, {}, annual_ctx, W)
    direct = simulate_year(DESIGN, annual_ctx)
    stated = 0.0   # the stated weighting, from left to right
    for w, v in zip(W.values, direct.objectives):
        stated += w * v
    assert value.hex() == stated.hex()
    assert sim.cost.tnpc == pytest.approx(direct.cost.tnpc, rel=1e-12)


def test_single_point_sweep_reproduces_unswept_optimum(annual_ctx, default_config):
    problem = SizingProblem(annual_ctx, default_config.search_space(), W,
                            "pso", 400, 30)
    seed = substream_seed(42, "solver")
    unswept = problem.solve(seed)
    rows = run_sweep(SweepSpec("dg_rated", (16.0,)), problem, seed=seed)
    assert rows[0].status == "ok"
    assert rows[0].weighted_obj == pytest.approx(unswept.best_value, rel=1e-9)
    assert rows[0].design.as_vector() == pytest.approx(unswept.best_point)


def test_sweep_keeps_row_count_with_failures(annual_ctx, default_config, tmp_path):
    problem = SizingProblem(annual_ctx, default_config.search_space(), W,
                            "pso", 120, 10)
    rows = run_sweep(SweepSpec("bs_price", (-50.0, 300.0)), problem, seed=1)
    assert len(rows) == 2
    assert rows[0].status.startswith("failed") and math.isnan(rows[0].weighted_obj)
    assert rows[1].status == "ok"
    sweep_to_csv(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("value,n_s,n_w,e_b,")


@pytest.mark.parametrize("solver, max_evals, match", [
    ("pso", 29, "at least one swarm sweep"), ("ga", 49, "the initial population")])
def test_a_budget_below_the_first_generation_is_rejected_with_the_problem(
        annual_ctx, default_config, solver, max_evals, match):
    """Every point of a sweep solves with the problem's settings, so the
    problem itself rejects a budget its solver cannot start with."""
    with pytest.raises(InputDataError, match=match):
        SizingProblem(annual_ctx, default_config.search_space(), W, solver,
                      max_evals, 30)


def test_sweep_point_programming_error_propagates(annual_ctx, default_config,
                                                  monkeypatch):
    """Only invalid inputs become failed rows; a bug inside a point is
    raised, not reported as a failure of that value."""
    def broken(*args, **kwargs):
        raise TypeError("bug inside the sweep point")

    monkeypatch.setattr(sweeps, "simulate_year", broken)
    with pytest.raises(TypeError, match="bug inside"):
        run_sweep(SweepSpec("bs_price", (300.0,)),
                  SizingProblem(annual_ctx, default_config.search_space(), W,
                                "pso", 120, 10), seed=1)


@pytest.mark.parametrize("workers, points, started", [
    (64, 2, 2), (2, 3, 2), (3, 3, 3), (8, 1, 0), (1, 3, 0)])
def test_sweep_starts_no_more_processes_than_points(monkeypatch, workers,
                                                    points, started):
    """The pool starts all its processes on the first submit, so the sweep
    asks for at most one per point, and for none when it runs one point or
    one worker.  The stand-in pool runs the points in this process."""
    pools = []

    class Pool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(sweeps, "_sweep_point", lambda task: task[2])
    values = tuple(100.0 * (i + 1) for i in range(points))
    rows = run_sweep(SweepSpec("bs_price", values), None, workers=workers)
    assert rows == list(values)
    assert pools == ([started] if started else [])


def test_a_sweep_in_two_processes_equals_one_in_this_process(annual_ctx,
                                                             default_config):
    """The workers receive a pickled context that this process has already
    simulated with, and build their own compiled-kernel records."""
    simulate_year(DESIGN, annual_ctx)
    problem = SizingProblem(annual_ctx, default_config.search_space(), W,
                            "pso", 60, 10)
    spec = SweepSpec("fuel_price", (2.0, 4.0))
    here = run_sweep(spec, problem, seed=3)
    assert run_sweep(spec, problem, seed=3, workers=2) == here
    assert [r.status for r in here] == ["ok", "ok"]


def test_generator_rating_sweep_reliability_trend(annual_ctx, default_config):
    problem = SizingProblem(annual_ctx, default_config.search_space(), W,
                            "pso", 600, 20)
    rows = run_sweep(SweepSpec.default("dg_rated"), problem,
                     seed=substream_seed(42, "solver"))
    dpsp = [r.objectives.dpsp for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(dpsp, dpsp[1:]))  # weakly decreasing
    assert dpsp[4] == 0.0 and dpsp[5] == 0.0                   # 16 and 20 kW
    assert dpsp[3] <= 1e-3                                     # 12 kW nearly perfect


def test_fixed_design_fuel_price_weakly_increases_objective(annual_ctx):
    values = []
    for price in (2.0, 6.0, 12.0):
        sim, obj = objective_at_fixed_design(DESIGN, {"fuel_price": price},
                                             annual_ctx, W)
        values.append(sim.cost.tac)
    assert values[0] < values[1] < values[2]
