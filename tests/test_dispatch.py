import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _cascade_python, cascade, fixed_om, initial_capital

from offgridopt import dispatch
from offgridopt.config import build_config, build_context
from offgridopt.devices import (BatterySpec, ConverterSpec, GeneratorSpec,
                                PvSpec, WindSpec)
from offgridopt.dispatch import (DispatchContext, DispatchSchedule, Scenario,
                                 SCHEDULE_HEADER, day_context, day_trace,
                                 evaluate_schedule, optimize_day,
                                 robustness_suite, rule_based_schedule,
                                 scenario_scale_climate, suite_to_csv)
from offgridopt.economics import CostTable, FinancialParams, Weights
from offgridopt.errors import InfeasibleBaselineError, InputDataError
from offgridopt.simulate import (CascadeState, Design, SimulationContext,
                                 StrategyConfig, renewable_feed_in)
from offgridopt.timeseries import (ClimateSeries, LoadSeries, flatten_load,
                                   make_peaky_load)

W4 = Weights((0.25, 0.25, 0.25, 0.25))

# the sizing optimum for the default system re-run with an 8 kW generator
RESIZED_8KW = Design(100, 7, 52.55)


def flat_day_ctx(load_kw, rated=16.0, e_b=0.0, res_zero=True):
    """A synthetic 24-h context: no renewables, flat load."""
    irr = np.zeros(24)
    wind = np.zeros(24)
    climate = ClimateSeries(irr, wind, np.full(24, 25.0), 1.0)
    sim = SimulationContext(
        climate=climate, load=LoadSeries(np.full(24, load_kw)),
        pv=PvSpec(), wind=WindSpec(), battery=BatterySpec(),
        generator=GeneratorSpec(rated_power=rated), converter=ConverterSpec(),
        costs=CostTable(), fin=FinancialParams(), strategy=StrategyConfig(),
        baseline_generator=GeneratorSpec(rated_power=16.0))
    return DispatchContext(Design(0, 0, e_b), sim, W4, dpsp_max=0.01)


def daily_fixed_om(ctx):
    """The day's share of the system's annual fixed O&M."""
    design, sim = ctx.design, ctx.sim
    capital = initial_capital(design.pv_kw(sim.pv), design.wt_kw(sim.wind),
                              design.e_b_init, sim.generator.rated_power,
                              sim.costs)
    return fixed_om(capital, sim.costs) / 365.0


@pytest.fixture(scope="module")
def baseline_day(annual_ctx):
    return day_context(annual_ctx, Design(100, 8, 45.45), 0, W4,
                       dpsp_max=0.01)


@pytest.fixture(scope="module")
def day_8kw(annual_ctx):
    return day_context(annual_ctx, RESIZED_8KW, 0, W4, dpsp_max=0.01,
                       generator=GeneratorSpec(rated_power=8.0))


# ---------------------------------------------------------------------------
# The day context
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_day_inputs_are_the_hours_of_the_year(annual_ctx, data):
    """A day's feed-in and DC demand are its 24 hours of the year's, bit for
    bit, for random days and designs."""
    annual = annual_ctx
    if data.draw(st.booleans()):
        annual = dataclasses.replace(
            annual, strategy=StrategyConfig(wt_printed_curve=True))
    integer = data.draw(st.booleans())
    count = st.integers(0, 150).map(float) if integer else st.floats(0.0, 150.0)
    design = Design(data.draw(count), data.draw(count),
                    data.draw(st.floats(0.0, 200.0)), integer_counts=integer)
    day = data.draw(st.integers(0, 364))
    feed_in, demand_dc, _ = annual.hourly_inputs
    _, _, res_dc = renewable_feed_in(design, feed_in, annual.pv, annual.wind,
                                     annual.converter)
    ctx = day_context(annual, design, day, W4)
    hours = slice(24 * day, 24 * (day + 1))
    assert ctx.res_dc.tobytes() == res_dc[hours].tobytes()
    assert ctx.sim.hourly_inputs[1].tobytes() == demand_dc[hours].tobytes()


@pytest.mark.parametrize("baseline, costs, name", [
    (GeneratorSpec(fuel_price=0.0),
     CostTable(om_fix_dg=0.0, om_var_dg_per_hour=0.0, startup_cost=0.0,
               shutdown_cost=0.0), "COE"),
    (GeneratorSpec(emission_factors={}), CostTable(), "emissions")])
def test_a_day_with_a_zero_cost_or_emissions_baseline_is_infeasible(
        annual_ctx, baseline, costs, name):
    """The day's objectives divide by both, and the search's rejection on
    the penalty relies on every objective being >= 0."""
    sim = dataclasses.replace(annual_ctx, costs=costs,
                              baseline_generator=baseline)
    with pytest.raises(InfeasibleBaselineError,
                       match=f"daily baseline {name} is 0.0, not > 0"):
        day_context(sim, Design(100, 8, 45.45), 10, W4)


def test_zero_load_day_is_an_input_error():
    with pytest.raises(InputDataError, match="load sums to zero"):
        flat_day_ctx(0.0)


@pytest.mark.parametrize("soc_start", [float("nan"), float("inf"), 0.0999, 0.9001])
def test_soc_start_outside_the_battery_window_is_an_input_error(baseline_day,
                                                               soc_start):
    """The default window is [0.1, 0.9].  A NaN start would pass every SOC
    bound, since every comparison with NaN is false."""
    with pytest.raises(InputDataError, match=r"soc_start must be in .*\[0\.1, 0\.9\]"):
        dataclasses.replace(baseline_day, soc_start=soc_start)


def test_soc_start_may_sit_on_either_end_of_the_window(baseline_day):
    for soc_start in (0.1, 0.9):
        day = dataclasses.replace(baseline_day, soc_start=soc_start)
        assert day.day_inputs.soc_start == soc_start
        assert day_trace(rule_based_schedule(day), day).soc[0] == soc_start


# ---------------------------------------------------------------------------
# evaluate_schedule
# ---------------------------------------------------------------------------

def test_zero_schedule_zero_res_loses_everything():
    ctx = flat_day_ctx(5.0)
    schedule = DispatchSchedule(np.zeros(24), np.zeros(24))
    ev = evaluate_schedule(schedule, ctx)
    assert ev.objectives.dpsp == pytest.approx(1.0)
    # nothing dispatched: the daily cost is the prorated fixed O&M alone
    assert ev.c_daily == pytest.approx(daily_fixed_om(ctx))


def test_generator_at_rated_meets_flat_load_exactly():
    conv = ConverterSpec()
    rated = 10.0
    load = rated * conv.eta_rec * conv.eta_inv  # what rated output serves
    ctx = flat_day_ctx(load, rated=rated)
    schedule = DispatchSchedule(np.full(24, rated), np.zeros(24))
    ev = evaluate_schedule(schedule, ctx)
    assert ev.objectives.one_minus_ref == pytest.approx(1.0)  # REF = 0
    assert float(day_trace(schedule, ctx).dump.sum()) == pytest.approx(0.0, abs=1e-9)
    assert ev.objectives.dpsp == pytest.approx(0.0, abs=1e-12)


def test_two_hour_minicase_cost_hand_computed():
    ctx = flat_day_ctx(5.0, rated=16.0)
    p_dg = np.zeros(24)
    p_dg[5], p_dg[6] = 6.0, 8.0
    schedule = DispatchSchedule(p_dg, np.zeros(24))
    ev = evaluate_schedule(schedule, ctx)
    liters = 0.246 * (6.0 + 8.0) + 0.08145 * 16.0 * 2
    fuel = 3.20 * liters / 3.78541
    expected = fuel + 0.24 * 2 + 0.45 + 0.23 + daily_fixed_om(ctx)
    assert ev.c_daily == pytest.approx(expected, rel=1e-12)


def test_schedule_csv_columns(baseline_day, tmp_path):
    schedule = rule_based_schedule(baseline_day)
    path = tmp_path / "schedule.csv"
    schedule.write_csv(path, baseline_day)
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == SCHEDULE_HEADER
    assert len(lines) == 25


def test_rule_based_schedule_follows_the_strategy(annual_ctx):
    """Without generator charging the rule-based day is the cascade's day
    without it; on day 0 the setting changes the battery schedule."""
    strategy = dataclasses.replace(annual_ctx.strategy,
                                   dg_may_charge_battery=False)
    day = day_context(dataclasses.replace(annual_ctx, strategy=strategy),
                      Design(100, 8, 45.45), 0, W4)

    def day_run(dg_may_charge):
        return cascade(
            res_dc=day.res_dc, demand_dc=day.sim.hourly_inputs[1],
            battery=day.sim.battery, e_b_init=day.design.e_b_init,
            generator=day.sim.generator, dg_may_charge=dg_may_charge,
            eta_rec=day.sim.converter.eta_rec,
            start=CascadeState(day.soc_start), cycle_counting="reversal")

    p_dg, p_bs, *_ = day_run(False)
    assert not np.array_equal(p_bs, day_run(True)[1])
    schedule = rule_based_schedule(day)
    np.testing.assert_array_equal(schedule.p_dg, p_dg)
    np.testing.assert_array_equal(schedule.p_bs, p_bs)


RULE_VARIANTS = {
    "default": {},
    "LA": {"battery": {"chemistry": "LA"}},
    "MT": {"generator": {"kind": "MT"}},
    "throughput, no generator charging": {
        "strategy": {"cycle_counting": "throughput",
                     "dg_may_charge_battery": False}},
}


@pytest.fixture(scope="module")
def rule_contexts():
    return {name: build_context(build_config(raw), seed=42)
            for name, raw in RULE_VARIANTS.items()}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rule_based_schedule_is_the_cascade_oracle_of_the_day(rule_contexts,
                                                               data):
    """The rule-based day, a run of the compiled cascade over the day's
    context, equals the cascade's oracle over the day's feed-in and DC
    demand from the day's starting SOC, bit for bit: random days, designs
    (fractional unit counts and no battery among them), starting SOCs and
    strategies."""
    annual = rule_contexts[data.draw(st.sampled_from(sorted(RULE_VARIANTS)))]
    integer = data.draw(st.booleans())
    count = st.integers(0, 150).map(float) if integer else st.floats(0.0, 150.0)
    design = Design(data.draw(count), data.draw(count),
                    data.draw(st.just(0.0) | st.floats(0.0, 200.0)),
                    integer_counts=integer)
    battery, strategy = annual.battery, annual.strategy
    day = dataclasses.replace(
        day_context(annual, design, data.draw(st.integers(0, 364)), W4),
        soc_start=data.draw(st.sampled_from([battery.soc_min, battery.soc_max])
                            | st.floats(battery.soc_min, battery.soc_max)))
    p_dg, p_bs, *_ = _cascade_python(
        res_dc=day.res_dc, demand_dc=day.sim.hourly_inputs[1],
        battery=battery, e_b_init=design.e_b_init,
        generator=day.sim.generator,
        dg_may_charge=strategy.dg_may_charge_battery,
        eta_rec=day.sim.converter.eta_rec, start=CascadeState(day.soc_start),
        cycle_counting=strategy.cycle_counting)
    schedule = rule_based_schedule(day)
    assert schedule.p_dg.tobytes() == p_dg.tobytes()
    assert schedule.p_bs.tobytes() == p_bs.tobytes()


# ---------------------------------------------------------------------------
# optimize_day
# ---------------------------------------------------------------------------

def test_optimizer_dominates_rule_based(baseline_day):
    result = optimize_day(baseline_day, seed=7)
    assert result.feasible
    assert result.evaluation.weighted <= result.rule_based_evaluation.weighted + 1e-12
    assert result.evaluation.objectives.dpsp <= baseline_day.dpsp_max + 1e-9
    soc = day_trace(result.schedule, baseline_day).soc
    assert len(soc) == 25
    assert soc.min() >= baseline_day.sim.battery.soc_min - 1e-9
    assert soc.max() <= baseline_day.sim.battery.soc_max + 1e-9


def test_optimizer_never_worse_than_feasible_rule_based():
    # On this day refining the rule-based seed makes it infeasible and the
    # search ends on a feasible schedule worse than the rule-based one.
    ctx = build_context(build_config({}), seed=289683157)
    day = day_context(ctx, Design(100, 8, 45.45), 51, W4,
                      dpsp_max=0.01)
    result = optimize_day(day, max_patterns=120, seed=468857191)
    rb = result.rule_based_evaluation
    assert rb.feasible and result.feasible
    assert result.evaluation.weighted <= rb.weighted
    again = evaluate_schedule(result.schedule, day)
    assert again.feasible and again.weighted == result.evaluation.weighted


@pytest.mark.parametrize("max_patterns", [-1, 0, 2])
def test_optimizer_rejects_max_patterns_below_three(baseline_day, max_patterns):
    with pytest.raises(InputDataError, match="max_patterns"):
        optimize_day(baseline_day, max_patterns=max_patterns)


def test_optimizer_runs_with_max_patterns_three(baseline_day):
    result = optimize_day(baseline_day, max_patterns=3)
    assert result.evaluation.weighted <= result.rule_based_evaluation.weighted


def test_optimizer_respects_zero_dpsp_with_big_generator(annual_ctx):
    ctx = day_context(annual_ctx, Design(0, 0, 0), 0, W4,
                      dpsp_max=0.0,
                      generator=GeneratorSpec(rated_power=20.0))
    result = optimize_day(ctx, seed=1)
    assert result.feasible
    assert result.evaluation.objectives.dpsp == 0.0


def test_optimizer_reports_infeasibility():
    # no generator, no storage, no renewables: the day cannot be served
    ctx = flat_day_ctx(5.0, rated=0.5)
    result = optimize_day(ctx, seed=1)
    assert not result.feasible
    assert result.message
    assert result.evaluation.violations["dpsp"] > 0


def test_optimizer_is_deterministic(baseline_day):
    a = optimize_day(baseline_day, seed=3)
    b = optimize_day(baseline_day, seed=3)
    np.testing.assert_array_equal(a.schedule.p_dg, b.schedule.p_dg)
    np.testing.assert_array_equal(a.schedule.p_bs, b.schedule.p_bs)


def test_small_generator_day_keeps_renewable_share(day_8kw):
    result = optimize_day(day_8kw, seed=7)
    assert result.feasible
    o = result.evaluation.objectives
    assert 1.0 - o.one_minus_ref >= 0.75
    assert 0.0 < o.lcoe_norm <= 0.85
    assert result.evaluation.objectives.dpsp <= 0.01 + 1e-9


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def test_scenario_scaling_cases(baseline_day):
    day = baseline_day.sim.climate
    same = scenario_scale_climate(day, 1.0, 1.0)
    np.testing.assert_array_equal(same.irradiance, day.irradiance)
    np.testing.assert_array_equal(same.wind_speed_ref, day.wind_speed_ref)
    low_solar = scenario_scale_climate(day, 0.1, 1.0)
    np.testing.assert_allclose(low_solar.irradiance, 0.1 * day.irradiance)
    np.testing.assert_array_equal(low_solar.wind_speed_ref, day.wind_speed_ref)
    both = scenario_scale_climate(day, 0.1, 0.1)
    np.testing.assert_allclose(both.wind_speed_ref, 0.1 * day.wind_speed_ref)


def test_identity_scenario_reproduces_baseline(day_8kw):
    rows = robustness_suite(day_8kw, [Scenario("baseline"), Scenario("same")],
                            seed=7)
    assert rows[0]["weighted_obj"] == pytest.approx(rows[1]["weighted_obj"])
    assert rows[0]["coe_norm"] == pytest.approx(rows[1]["coe_norm"])


def test_robustness_directional_findings(day_8kw, tmp_path):
    scenarios = [
        Scenario("baseline"),
        Scenario("low_wind", wind_factor=0.1),
        Scenario("peaky", load=make_peaky_load(day_8kw.sim.load, 0.30, seed=3)),
        Scenario("flat_shift",
                 load=flatten_load(day_8kw.sim.load, day_8kw.res_dc, 0.0)),
        Scenario("flat_shift_curtail",
                 load=flatten_load(day_8kw.sim.load, day_8kw.res_dc, 0.10)),
    ]
    rows = robustness_suite(day_8kw, scenarios, seed=7)
    by_name = {r["scenario"]: r for r in rows}
    assert by_name["low_wind"]["ref"] < by_name["baseline"]["ref"]
    assert by_name["flat_shift"]["summary_obj"] < by_name["peaky"]["summary_obj"]
    # curtailed-day demand is 90 % of the shifted day
    curtailed = flatten_load(day_8kw.sim.load, day_8kw.res_dc, 0.10)
    assert curtailed.total_kwh == pytest.approx(0.9 * day_8kw.sim.load.total_kwh, rel=1e-3)
    suite_to_csv(rows, tmp_path / "suite.csv")
    assert (tmp_path / "suite.csv").read_text().startswith("scenario,")


def test_suite_continues_past_failing_scenario(day_8kw):
    rows = robustness_suite(
        day_8kw,
        [Scenario("bad", irr_factor=-1.0), Scenario("baseline")], seed=7)
    assert rows[0]["feasible"] is False and "error" in rows[0]
    assert rows[1]["feasible"] is True


def test_suite_records_a_zero_load_scenario_as_failed(day_8kw):
    rows = robustness_suite(
        day_8kw, [Scenario("no_load", load=LoadSeries(np.zeros(24)))], seed=7)
    assert rows[0]["feasible"] is False
    assert "load sums to zero" in rows[0]["error"]


@pytest.mark.parametrize("setting, match", [
    ({"max_patterns": 2}, "max_patterns must be >= 3"),
    ({"rated_power": 0.0}, "generator with positive rating"),
])
def test_suite_rejects_settings_no_scenario_changes(day_8kw, setting, match):
    """Too few patterns or a generator without a rating fail every
    scenario alike: the suite raises before the first one runs, rather than
    returning a failed row per scenario."""
    ctx = day_8kw
    if "rated_power" in setting:
        ctx = dataclasses.replace(ctx, sim=dataclasses.replace(
            ctx.sim, generator=GeneratorSpec(rated_power=0.0)))
    with pytest.raises(InputDataError, match=match):
        robustness_suite(ctx, [Scenario("baseline"), Scenario("same")], seed=7,
                         max_patterns=setting.get("max_patterns", 120))


def test_suite_programming_error_propagates(day_8kw, monkeypatch):
    """Only invalid scenario inputs become failed rows; a bug inside a
    scenario is raised."""
    def broken(*args, **kwargs):
        raise TypeError("bug inside the scenario")

    monkeypatch.setattr(dispatch, "optimize_day", broken)
    with pytest.raises(TypeError, match="bug inside"):
        robustness_suite(day_8kw, [Scenario("baseline")], seed=7)
