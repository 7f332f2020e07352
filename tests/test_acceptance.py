"""Acceptance suite: every criterion runs at a pinned tolerance and
prints one pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``
to see them)."""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from offgridopt.devices import (BatterySpec, GeneratorSpec, WindSpec,
                                lead_acid_spec, microturbine_spec,
                                wt_curve_coefficients)
from offgridopt.dispatch import (Scenario, day_context, day_trace, optimize_day,
                                 robustness_suite)
from offgridopt.economics import (CostTable, FinancialParams, Weights, crf,
                                  emission_factor_sum,
                                  microturbine_costs, pw_recurring, real_rate,
                                  break_even_distance)
from offgridopt.seeding import substream_seed
from offgridopt.simulate import (Design, SimulationContext, SizingProblem,
                                 hourly_power_balance_check, simulate_year)
from offgridopt.solvers import (SearchSpace, dominates, ga_minimize,
                                multistart_minimize, pareto_front,
                                pattern_search_minimize, pso_minimize,
                                sa_minimize)
from offgridopt.timeseries import make_peaky_load, flatten_load

RUN_SEED = 42
SOLVER_SEED = substream_seed(RUN_SEED, "solver")


def report(n, label, passed):
    print(f"\n[acceptance] criterion {n:>2} ({label}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {n} ({label}) failed"


@pytest.fixture(scope="module")
def sizing_runs(annual_ctx):
    """Equal-weight PSO sizing for all four technology combinations."""
    w = Weights((0.2,) * 5)
    space = SearchSpace([0, 0, 0], [100, 30, 200], [True, True, False])
    combos = {
        "LI+DE": (BatterySpec(), GeneratorSpec(rated_power=16.0), CostTable()),
        "LI+MT": (BatterySpec(), microturbine_spec(rated_power=16.0),
                  microturbine_costs()),
        "LA+DE": (lead_acid_spec(), GeneratorSpec(rated_power=16.0),
                  CostTable(bs_capital_per_kwh=255.0)),
        "LA+MT": (lead_acid_spec(), microturbine_spec(rated_power=16.0),
                  microturbine_costs(bs_capital_per_kwh=255.0)),
    }
    runs = {}
    for name, (battery, generator, costs) in combos.items():
        ctx = SimulationContext(
            climate=annual_ctx.climate, load=annual_ctx.load,
            pv=annual_ctx.pv, wind=annual_ctx.wind, battery=battery,
            generator=generator, converter=annual_ctx.converter, costs=costs,
            fin=annual_ctx.fin, strategy=annual_ctx.strategy)

        problem = SizingProblem(ctx, space, w, "pso", 2000, 30)
        report = problem.solve(SOLVER_SEED)
        best = problem.design(report.best_point)
        runs[name] = (report.best_value, best, simulate_year(best, ctx))
    return runs


def test_criterion_1_crf_reproduction():
    value = crf(real_rate(FinancialParams()), 25)
    report(1, "CRF", abs(value - 0.0582) <= 1e-4)


def test_criterion_2_break_even_distance():
    crf_value = crf(real_rate(FinancialParams()), 25)
    bed = break_even_distance(17097.0, crf_value, 74251.0, 0.125, 157470.0)
    report(2, "break-even distance", abs(bed - 0.853) <= 0.01)


def test_criterion_3_emission_factor_sums():
    de = emission_factor_sum(GeneratorSpec())
    mt = emission_factor_sum(microturbine_spec())
    ok = abs(de - 0.6774) <= 2e-4 and abs(mt - 0.6555) <= 2e-4
    report(3, "emission factor sums", ok)


def test_criterion_4_solver_oracle_equivalence():
    space = SearchSpace([0, 0, 0], [9, 9, 19], [True, True, True])

    def f(x):
        a, b, c = x
        return ((a - 3) ** 2 + 0.8 * (b - 7) ** 2 + 0.05 * (c - 12) ** 2
                + 0.2 * np.sin(a + b) + 0.01 * a * b)

    points = list(itertools.product(range(10), range(10), range(20)))
    assert len(points) == 2000
    optimum = min((f(np.array(p, dtype=float)), p) for p in points)[1]

    t0 = time.time()
    ok = True
    for solver in (pso_minimize, ga_minimize, sa_minimize,
                   pattern_search_minimize, multistart_minimize):
        result = solver(f, space, max_evals=10000, seed=SOLVER_SEED)
        ok &= tuple(int(v) for v in result.best_point) == optimum
    elapsed = time.time() - t0
    report(4, f"solver-oracle equivalence ({elapsed:.1f}s)", ok and elapsed < 10.0)


def test_criterion_5_simulator_feasibility_suite(annual_ctx):
    rng = np.random.default_rng(RUN_SEED)
    battery = annual_ctx.battery
    peak_dc = annual_ctx.load.peak_kw / annual_ctx.converter.eta_inv
    t0 = time.time()
    ok = True
    for _ in range(200):
        design = Design(int(rng.integers(0, 101)),
                        int(rng.integers(0, 31)),
                        float(rng.uniform(0, 200)))
        rated = float(rng.choice([0.0, 4.0, 8.0, 12.0, 16.0, 20.0]))
        ctx = SimulationContext(
            climate=annual_ctx.climate, load=annual_ctx.load,
            pv=annual_ctx.pv, wind=annual_ctx.wind, battery=battery,
            generator=dataclasses.replace(annual_ctx.generator, rated_power=rated),
            converter=annual_ctx.converter, costs=annual_ctx.costs,
            fin=annual_ctx.fin, strategy=annual_ctx.strategy,
            baseline_generator=annual_ctx.baseline_generator)
        sim = simulate_year(design, ctx)
        ok &= hourly_power_balance_check(sim, ctx.converter, tol=1e-6)[0]
        ok &= sim.soc.min() >= battery.soc_min - 1e-9
        ok &= sim.soc.max() <= battery.soc_max + 1e-9
        online = sim.p_dg > 0
        ok &= bool(np.all(sim.p_dg[online] >= ctx.generator.min_power - 1e-9))
        ok &= bool(np.all(sim.p_dg <= rated + 1e-9))
        for trace in (sim.p_pv, sim.p_wt, sim.p_res, sim.p_dg, sim.p_dump,
                      sim.p_lost):
            ok &= trace.min() >= 0.0
        if rated * ctx.converter.eta_rec >= peak_dc:
            ok &= sim.objectives.dpsp == 0.0
    elapsed = time.time() - t0
    report(5, f"simulator feasibility suite ({elapsed:.0f}s)", ok and elapsed < 60.0)


def test_criterion_6_paper_scale_sizing(sizing_runs):
    value, design, sim = sizing_runs["LI+DE"]
    o = sim.objectives
    ok = (o.dpsp == 0.0
          and (1.0 - o.one_minus_ref) >= 0.94
          and 0.40 <= o.lcoe_norm <= 0.53
          and 0.12 <= value <= 0.17)
    print(f"\n[acceptance]   LI+DE optimum {design.as_vector()} "
          f"obj={value:.4f} lcoe_norm={o.lcoe_norm:.4f} "
          f"ref={1 - o.one_minus_ref:.4f} dpsp={o.dpsp}")
    report(6, "sizing result bands", ok)


def test_criterion_7_technology_ranking(sizing_runs):
    values = {name: run[0] for name, run in sizing_runs.items()}
    ok = all(values["LI+DE"] < values[k] for k in ("LI+MT", "LA+DE", "LA+MT"))
    print(f"\n[acceptance]   objectives: {values}")
    report(7, "technology ranking LI+DE first", ok)


def test_criterion_8_discounting_oracle():
    rng = np.random.default_rng(RUN_SEED)
    ok = True
    for _ in range(1000):
        i = rng.uniform(-0.05, 0.5)
        f = rng.uniform(-0.05, 0.5)
        fin = FinancialParams(nominal_rate=i, inflation=f)
        explicit = sum(((1 + f) / (1 + i)) ** k for k in range(1, 26))
        got = pw_recurring(1.0, fin)
        ok &= abs(got - explicit) <= 1e-6 * max(abs(explicit), 1e-12)
    report(8, "discounting oracle", ok)


def test_criterion_9_dispatch_dominance(annual_ctx):
    ctx = day_context(annual_ctx, Design(100, 8, 45.45), 0,
                      Weights((0.25,) * 4), dpsp_max=0.01)
    result = optimize_day(ctx, seed=SOLVER_SEED)
    ev = result.evaluation
    soc = day_trace(result.schedule, ctx).soc
    ok = (result.feasible
          and ev.weighted <= result.rule_based_evaluation.weighted + 1e-12
          and ev.objectives.dpsp <= 0.01 + 1e-12
          and len(soc) == 25
          and soc.min() >= ctx.sim.battery.soc_min - 1e-9
          and soc.max() <= ctx.sim.battery.soc_max + 1e-9
          and all(v <= 1e-6 for v in ev.violations.values()))
    report(9, "dispatch dominance and feasibility", ok)


def test_criterion_10_robustness_directionality(annual_ctx):
    ctx = day_context(annual_ctx, Design(100, 7, 52.55), 0,
                      Weights((0.25,) * 4), dpsp_max=0.01,
                      generator=GeneratorSpec(rated_power=8.0))
    scenarios = [
        Scenario("baseline"),
        Scenario("low_wind", wind_factor=0.1),
        Scenario("peaky", load=make_peaky_load(ctx.sim.load, 0.30,
                                               substream_seed(RUN_SEED, "peaky-load"))),
        Scenario("flat_shift", load=flatten_load(ctx.sim.load, ctx.res_dc, 0.0)),
    ]
    rows = {r["scenario"]: r for r in robustness_suite(ctx, scenarios,
                                                       seed=SOLVER_SEED)}
    ok = (rows["low_wind"]["ref"] < rows["baseline"]["ref"]
          and rows["flat_shift"]["summary_obj"] < rows["peaky"]["summary_obj"])
    report(10, "robustness directionality", ok)


def test_criterion_11_pareto_integrity(annual_ctx):
    problem = SizingProblem(
        annual_ctx, SearchSpace([0, 0, 0], [100, 30, 200], [True, True, False]),
        Weights((0.2,) * 5), "pso", 2000, 30)

    t0 = time.time()
    front = pareto_front(problem.objectives, problem.space, population=36,
                         generations=25, seed=SOLVER_SEED)
    elapsed = time.time() - t0
    ok = len(front) > 0
    for i, (_, vi) in enumerate(front):
        for j, (_, vj) in enumerate(front):
            if i != j and dominates(vj, vi):
                ok = False
    report(11, f"pareto integrity ({len(front)} pts, {elapsed:.0f}s)",
           ok and elapsed < 600.0)


def test_criterion_12_wt_boundary_conditions():
    rng = np.random.default_rng(RUN_SEED)
    ok = True
    for _ in range(1000):
        vc = rng.uniform(0.5, 6.0)
        vr = vc + rng.uniform(1.0, 12.0)
        vf = vr + rng.uniform(1.0, 15.0)
        spec = WindSpec(cut_in=vc, rated_speed=vr, cut_out=vf)
        a, b, c = wt_curve_coefficients(spec)
        ok &= abs(a + b * vc + c * vc * vc) < 1e-9
        ok &= abs(a + b * vr + c * vr * vr - 1.0) < 1e-9
    report(12, "turbine curve boundary conditions", ok)
