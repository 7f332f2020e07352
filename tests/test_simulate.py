import copy
import dataclasses
import pickle
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import count_transitions, year_run

from offgridopt import kernels
from offgridopt.config import build_config, build_context
from offgridopt.datasets import (WIND_CORRECTION_FACTOR, load_bundled_climate,
                                 reference_daily_load)
from offgridopt.devices import (BatterySpec, ConverterSpec, GeneratorSpec,
                                PvSpec, WindSpec, hub_wind_speed, pv_power,
                                wt_power)
from offgridopt.economics import (CostTable, FinancialParams, Weights,
                                  weighted_objective)
from offgridopt.errors import InputDataError
from offgridopt.simulate import (Design, SimulationContext, SizingProblem,
                                 StrategyConfig, TRACE_HEADER,
                                 feed_in_profile, hourly_power_balance_check,
                                 renewable_feed_in, simulate_year)
from offgridopt.timeseries import (ClimateSeries, LoadSeries,
                                   generate_annual_load, scale_wind)


@pytest.fixture(scope="module")
def flat_year_ctx():
    """Default system on the bundled climate with a variation-free load
    (peak exactly 12.52 kW), for contracts that reason about the peak."""
    climate = scale_wind(load_bundled_climate(), WIND_CORRECTION_FACTOR)
    load = generate_annual_load(reference_daily_load(), 0.0, seed=0)
    return SimulationContext(
        climate=climate, load=load, pv=PvSpec(), wind=WindSpec(),
        battery=BatterySpec(), generator=GeneratorSpec(rated_power=16.0),
        converter=ConverterSpec(), costs=CostTable(), fin=FinancialParams(),
        strategy=StrategyConfig())


def with_generator(ctx, rated):
    return SimulationContext(
        climate=ctx.climate, load=ctx.load, pv=ctx.pv, wind=ctx.wind,
        battery=ctx.battery,
        generator=dataclasses.replace(ctx.generator, rated_power=rated),
        converter=ctx.converter, costs=ctx.costs, fin=ctx.fin,
        strategy=ctx.strategy, baseline_generator=ctx.baseline_generator)


def test_generator_only_system_meets_flat_year(flat_year_ctx):
    # 16 kW * eta_rec covers the 12.52 kW peak seen through the converter
    sim = simulate_year(Design(0, 0, 0), flat_year_ctx)
    assert sim.objectives.dpsp == 0.0
    assert sim.objectives.one_minus_ref == 1.0  # REF = 0


def test_nothing_generates_means_everything_lost(flat_year_ctx):
    ctx = with_generator(flat_year_ctx, 0.0)
    sim = simulate_year(Design(0, 0, 0), ctx)
    assert sim.objectives.dpsp == pytest.approx(1.0)


def test_power_balance_holds_and_detector_fires(annual_ctx):
    sim = simulate_year(Design(40, 5, 60), annual_ctx)
    ok, bad = hourly_power_balance_check(sim, annual_ctx.converter)
    assert ok and bad == []
    sim.p_dump[1234] += 1.0
    ok, bad = hourly_power_balance_check(sim, annual_ctx.converter)
    assert not ok and bad == [1234]


def test_random_designs_satisfy_hard_invariants(annual_ctx):
    rng = np.random.default_rng(21)
    battery = annual_ctx.battery
    for _ in range(30):
        design = Design(int(rng.integers(0, 101)),
                        int(rng.integers(0, 31)),
                        float(rng.uniform(0, 200)))
        sim = simulate_year(design, annual_ctx)
        assert hourly_power_balance_check(sim, annual_ctx.converter)[0]
        assert sim.soc.min() >= battery.soc_min - 1e-9
        assert sim.soc.max() <= battery.soc_max + 1e-9
        online = sim.p_dg > 0
        assert np.all(sim.p_dg[online] >= annual_ctx.generator.min_power - 1e-9)
        assert np.all(sim.p_dg <= annual_ctx.generator.rated_power + 1e-9)
        for trace in (sim.p_pv, sim.p_wt, sim.p_res, sim.p_dg, sim.p_dump, sim.p_lost):
            assert trace.min() >= 0.0


def test_generator_charging_toggle_never_decreases_dump(annual_ctx):
    rng = np.random.default_rng(4)
    base = annual_ctx
    no_charge = SimulationContext(
        climate=base.climate, load=base.load, pv=base.pv, wind=base.wind,
        battery=base.battery, generator=base.generator,
        converter=base.converter, costs=base.costs, fin=base.fin,
        strategy=dataclasses.replace(base.strategy, dg_may_charge_battery=False),
        baseline_generator=base.baseline_generator)
    for _ in range(5):
        design = Design(int(rng.integers(0, 50)),
                        int(rng.integers(0, 6)),
                        float(rng.uniform(10, 120)))
        with_charge = simulate_year(design, base).dump_kwh
        without = simulate_year(design, no_charge).dump_kwh
        assert without >= with_charge - 1e-9


def test_simulation_is_deterministic(annual_ctx):
    a = simulate_year(Design(50, 6, 80), annual_ctx)
    b = simulate_year(Design(50, 6, 80), annual_ctx)
    np.testing.assert_array_equal(a.p_bs, b.p_bs)
    np.testing.assert_array_equal(a.soc, b.soc)
    assert a.cost.tnpc == b.cost.tnpc


def test_ref_is_zero_exactly_without_renewables(annual_ctx):
    none = simulate_year(Design(0, 0, 50), annual_ctx)
    assert none.objectives.one_minus_ref == 1.0
    some = simulate_year(Design(1, 0, 0), annual_ctx)
    assert some.objectives.one_minus_ref < 1.0


def test_sizing_problem_objective_matches_simulation(annual_ctx, default_config):
    design = Design(60, 6, 70)
    w = Weights((0.2,) * 5)
    problem = SizingProblem(annual_ctx, default_config.search_space(), w,
                            "pso", 2000, 30)
    assert problem.design(design.as_vector()) == design
    direct = weighted_objective(simulate_year(design, annual_ctx).objectives, w)
    assert problem.objective(design.as_vector()) == pytest.approx(direct, rel=1e-12)


def test_trace_csv_has_documented_columns(annual_ctx, tmp_path):
    sim = simulate_year(Design(10, 2, 20), annual_ctx)
    path = tmp_path / "trace.csv"
    sim.write_trace_csv(path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == TRACE_HEADER
    assert len(path.read_text().splitlines()) == 8761


def test_nan_input_rejected(flat_year_ctx):
    demand = flat_year_ctx.load.demand.copy()
    demand[100] = np.nan
    broken = SimulationContext(
        climate=flat_year_ctx.climate, load=LoadSeries(demand),
        pv=flat_year_ctx.pv, wind=flat_year_ctx.wind,
        battery=flat_year_ctx.battery, generator=flat_year_ctx.generator,
        converter=flat_year_ctx.converter, costs=flat_year_ctx.costs,
        fin=flat_year_ctx.fin, strategy=flat_year_ctx.strategy,
        baseline_generator=flat_year_ctx.baseline_generator)
    with pytest.raises(InputDataError, match="load_kw is missing at hour 100"):
        simulate_year(Design(10, 2, 20), broken)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the process's minor page faults (Linux)")
def test_simulate_year_does_not_regrow_the_heap(run_python):
    """Warm ``simulate_year`` calls reuse the memory of the ones before.

    Without scipy loaded, glibc keeps its default heap-trim threshold, so a
    call that frees many separate hourly arrays returns the heap top to the
    system and the next call faults it back in (about 120 minor faults per
    call).  One (8, n) output block per call, whose first free raises that
    threshold, avoids that."""
    out = run_python(textwrap.dedent("""
        import resource, sys
        from offgridopt.config import build_config, build_context
        from offgridopt.simulate import Design, simulate_year

        ctx = build_context(build_config({}))
        design = Design(100, 8, 45.45)
        for _ in range(50):
            simulate_year(design, ctx)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(300):
            simulate_year(design, ctx)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
        print((after - before) / 300)
    """))
    assert float(out) < 5


def test_count_transitions_cases():
    assert count_transitions([True, False, True]) == 2
    assert count_transitions([False, False, False]) == 0
    assert count_transitions([True, True, True]) == 1
    assert count_transitions([False, True, True]) == 1
    assert type(count_transitions([True])) is int


def test_design_validation():
    with pytest.raises(InputDataError):
        Design(1.5, 2.0, 10.0)          # fractional count in integer mode
    with pytest.raises(InputDataError):
        Design(-1, 0, 0)
    for bad in ((np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, np.nan)):
        with pytest.raises(InputDataError, match="finite"):
            Design(*bad, integer_counts=False)


def test_battery_cycle_counting_modes(annual_ctx):
    throughput = SimulationContext(
        climate=annual_ctx.climate, load=annual_ctx.load, pv=annual_ctx.pv,
        wind=annual_ctx.wind, battery=annual_ctx.battery,
        generator=annual_ctx.generator, converter=annual_ctx.converter,
        costs=annual_ctx.costs, fin=annual_ctx.fin,
        strategy=dataclasses.replace(annual_ctx.strategy, cycle_counting="throughput"),
        baseline_generator=annual_ctx.baseline_generator)
    design = Design(60, 6, 60)
    reversal = simulate_year(design, annual_ctx).battery_cycles
    efc = simulate_year(design, throughput).battery_cycles
    assert reversal == int(reversal) and reversal > 0
    assert efc > 0 and efc != reversal


# The benchmark's pareto-variants system: LA battery, MT generator,
# throughput cycle counting and no generator charging.
VARIANT_BRANCHES = {"battery": {"chemistry": "LA"}, "generator": {"kind": "MT"},
                    "strategy": {"cycle_counting": "throughput",
                                 "dg_may_charge_battery": False}}
# objectives.hex() and battery_cycles.hex() of simulate_year at seed 42
PINNED_YEARS = {
    (100, 8, 45.45): (("0x1.3594a1cf263e6p-1", "0x1.10852d4a33f1ap-3",
                       "0x0.0p+0", "0x1.e7c85d850a863p-3",
                       "0x1.503d73b6be1d8p-4"), "0x1.686438918d8c3p+6"),
    (60, 12, 120.0): (("0x1.64cb93724fc0ap-1", "0x1.d6dc6fc8e9003p-4",
                       "0x0.0p+0", "0x1.413485de37cdfp-2",
                       "0x1.058faa3a65c00p-4"), "0x1.0e44a31b3ae6ap+6"),
    (30, 4, 200.0): (("0x1.119bfefb04012p+0", "0x1.5935229104680p-1",
                      "0x1.145fd387f9321p-18", "0x1.903f1d6aef947p-5",
                      "0x1.0a376a385ca9ap-1"), "0x1.05fd47f35fa49p+3"),
}


@pytest.fixture(scope="module")
def variant_ctx():
    return build_context(build_config(VARIANT_BRANCHES), seed=42)


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("design", sorted(PINNED_YEARS))
def test_simulate_year_is_pinned_on_the_variant_branches(variant_ctx, monkeypatch,
                                                         kernel, design):
    """On the compiled year, and on its oracle in the kernel's place."""
    if kernel == "python":
        monkeypatch.setattr(kernels, "run", year_run(variant_ctx))
    sim = simulate_year(Design(*design), variant_ctx)
    assert (tuple(v.hex() for v in sim.objectives),
            sim.battery_cycles.hex()) == PINNED_YEARS[design]


@st.composite
def feed_in_cases(draw):
    """Random PV and wind specs, climate hours and unit counts.  Some cases
    put hub speeds above cut-out."""
    n = draw(st.integers(1, 48))
    pv = PvSpec(eta_ref=draw(st.floats(0.05, 0.3)),
                eta_pc=draw(st.floats(0.8, 1.0)),
                temp_ref=draw(st.floats(15.0, 30.0)),
                irr_noct=draw(st.floats(0.5, 1.0)),
                temp_cell_noct=draw(st.floats(35.0, 60.0)),
                temp_amb_noct=draw(st.floats(15.0, 25.0)),
                beta=draw(st.floats(0.0, 0.02)),
                rated_power=draw(st.floats(0.1, 0.5)),
                collector_area=draw(st.floats(0.5, 3.0)))
    cut_in = draw(st.floats(1.0, 5.0))
    rated_speed = draw(st.floats(cut_in + 0.5, 16.0))
    wind = WindSpec(hub_height=draw(st.floats(5.0, 60.0)),
                    rated_power=draw(st.floats(0.5, 50.0)),
                    cut_in=cut_in, rated_speed=rated_speed,
                    cut_out=draw(st.floats(rated_speed + 0.5, 30.0)),
                    shear_exponent=draw(st.floats(0.05, 0.45)))
    ref_height = draw(st.floats(1.0, 20.0))
    v_ref = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 25.0)))
    if draw(st.booleans()):
        scale = (wind.hub_height / ref_height) ** wind.shear_exponent
        v_ref[draw(st.integers(0, n - 1))] = wind.cut_out / scale * draw(st.floats(1.01, 2.0))
    climate = ClimateSeries(
        draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.2))), v_ref,
        draw(hnp.arrays(np.float64, n, elements=st.floats(-10.0, 50.0))),
        ref_height)
    integer = draw(st.booleans())
    count = st.integers(0, 400).map(float) if integer else st.floats(0.0, 400.0)
    design = Design(draw(count), draw(count), draw(st.floats(0.0, 300.0)),
                    integer_counts=integer)
    return design, climate, pv, wind, ConverterSpec(eta_rec=draw(st.floats(0.5, 1.0)))


@settings(max_examples=300, deadline=None)
@given(feed_in_cases(), st.booleans())
def test_cached_feed_in_equals_device_models(case, printed):
    design, climate, pv, wind, converter = case
    profile = feed_in_profile(climate, pv, wind, printed_curve=printed)
    p_pv, p_wt, res_dc = renewable_feed_in(design, profile, pv, wind, converter)
    v_hub = hub_wind_speed(climate.wind_speed_ref, climate.ref_height, wind)
    pv_ref = pv_power(design.pv_units, climate.irradiance, climate.temp_ambient, pv)
    wt_ref = wt_power(design.wt_units, v_hub, wind, printed_form=printed)
    assert np.array_equal(p_pv, pv_ref)
    assert np.array_equal(p_wt, wt_ref)
    assert np.array_equal(res_dc, pv_ref + converter.eta_rec * wt_ref)


def assert_same_simulation(a, b):
    for name in ("p_pv", "p_wt", "p_res", "p_dg", "p_bs", "soc", "p_dump",
                 "p_lost", "load"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.objectives == b.objectives and a.cost == b.cost


@pytest.mark.parametrize("field", ["climate", "load", "pv", "wind",
                                   "converter", "strategy"])
def test_replaced_context_simulates_like_a_fresh_one(annual_ctx, field):
    climate = annual_ctx.climate
    changed = {
        "climate": dataclasses.replace(
            climate, irradiance=climate.irradiance * 0.8,
            wind_speed_ref=climate.wind_speed_ref * 1.2,
            temp_ambient=climate.temp_ambient + 5.0),
        "load": generate_annual_load(reference_daily_load(), 0.2, seed=7),
        "pv": dataclasses.replace(annual_ctx.pv, beta=0.006),
        "wind": dataclasses.replace(annual_ctx.wind, cut_out=12.0),
        "converter": ConverterSpec(eta_inv=0.8, eta_rec=0.85),
        "strategy": dataclasses.replace(annual_ctx.strategy, wt_printed_curve=True),
    }[field]
    design = Design(80, 10, 60)
    before = simulate_year(design, annual_ctx)  # fills the context's cache
    replaced = simulate_year(design, dataclasses.replace(annual_ctx, **{field: changed}))
    fresh_fields = {f.name: getattr(annual_ctx, f.name)
                    for f in dataclasses.fields(annual_ctx)}
    fresh_fields[field] = changed
    fresh = simulate_year(design, SimulationContext(**fresh_fields))
    assert_same_simulation(replaced, fresh)
    assert replaced.objectives != before.objectives


@pytest.mark.parametrize("clone", [lambda ctx: pickle.loads(pickle.dumps(ctx)),
                                   copy.deepcopy])
def test_a_used_context_travels_without_its_kernel_record(annual_ctx, clone):
    """The compiled year kernel's record holds the addresses of the
    context's arrays; a copy builds its own from its own arrays."""
    design = Design(100, 8, 45.45)
    used = simulate_year(design, annual_ctx)
    assert "year_inputs" in vars(annual_ctx)
    twin = clone(annual_ctx)
    assert "year_inputs" not in vars(twin)
    assert_same_simulation(simulate_year(design, twin), used)
    assert twin.year_inputs.dem != annual_ctx.year_inputs.dem
    assert twin.year_inputs.dem == twin.hourly_inputs[1].ctypes.data


def test_context_fields_cannot_be_reassigned(annual_ctx):
    # the cached hourly inputs would go stale
    with pytest.raises(dataclasses.FrozenInstanceError):
        annual_ctx.climate = annual_ctx.climate
