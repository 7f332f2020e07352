"""The load-following cascade kernel, ``kernels.run``, against its oracle
``_run_python`` in ``tests/reference.py``, bit for bit:

- ``test_compiled_kernel_equals_python_loop_and_keeps_invariants``, the
  kernel's test over a given feed-in, on random specs and hours and on
  stretches that hold the bank full or empty: the run against the oracle,
  the cascade's invariants, the generator's online hours and starts
  against ``count_transitions``, and the run split at a random hour and
  chained through the carried battery state;
- the edges of the divisions the kernel skips, on the same strategies (a
  tie of an hour's surplus or deficit with the room, an efficiency above
  one) and on fixed cases (a tie with the power limit, the sign of a zero
  SOC, a fresh bank);
- ``test_compiled_year_equals_its_python_composition``: feed-in, cascade
  and sums in one call, over random climates;
- both comparisons again over a whole year of four device and strategy
  variants, and the whole ``SimResult`` of a year with the oracles in the
  kernels' place;
- the kernel's sums against ``np.sum``, the record a context fills, and
  building and loading the library."""

import ctypes
import dataclasses
import operator
import shutil
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import (_cascade_python, _run_python, battery_capacity,
                       cascade, count_transitions, use_the_oracles)

from offgridopt import kernels
from offgridopt.config import build_config, build_context
from offgridopt.devices import (CAPACITY_FADE_FLOOR, BatterySpec,
                                ConverterSpec, GeneratorSpec, PvSpec,
                                WindSpec, lead_acid_spec, microturbine_spec,
                                self_discharge_hourly)
from offgridopt.economics import CostTable, FinancialParams
from offgridopt.errors import InputDataError, KernelUnavailableError
from offgridopt.simulate import (CascadeState, Design, FeedInProfile,
                                 SimulationContext, StrategyConfig,
                                 renewable_feed_in, simulate_year)
from offgridopt.timeseries import ClimateSeries, LoadSeries

POWER = st.floats(0.0, 40.0)  # kW on the DC bus


@st.composite
def random_hours(draw, max_hours=72):
    """DC-bus feed-in and demand drawn hour by hour."""
    n = draw(st.integers(1, max_hours))
    return (draw(hnp.arrays(np.float64, n, elements=POWER)),
            draw(hnp.arrays(np.float64, n, elements=POWER)))


@st.composite
def stretched_hours(draw):
    """Feed-in and demand in stretches of surplus hours and of deficit hours,
    long enough to charge a bank of up to 60 kWh full or to drain it empty
    and to keep it there.  A stretch's margin over the demand (or the
    demand's over the feed-in) is one value or varies hour by hour."""
    res, dem = [], []
    surplus = draw(st.booleans())
    for _ in range(draw(st.integers(1, 5))):
        hours = draw(st.integers(1, 48))
        base = np.full(hours, draw(POWER))
        margin = draw(st.floats(0.0, 20.0).map(lambda v: np.full(hours, v))
                      | hnp.arrays(np.float64, hours,
                                   elements=st.floats(0.0, 20.0)))
        res.append(base + margin if surplus else base)
        dem.append(base if surplus else base + margin)
        surplus = not surplus
    return np.concatenate(res), np.concatenate(dem)


@st.composite
def cascade_cases(draw, hours=random_hours(),
                  e_b=st.just(0.0) | st.floats(0.5, 300.0),
                  counting=st.sampled_from(["reversal", "throughput"]),
                  counted_start=False):
    """Random horizon, battery, generator, strategy and start state.  The
    bank may be lossless (round-trip efficiency 1.0), may go down to an SOC
    of 0 and may start faded to the capacity floor.  With ``counted_start``
    the bank starts with throughput and cycles counted, neither zero."""
    res, dem = draw(hours)
    soc_min = draw(st.just(0.0) | st.floats(0.0, 0.6))
    soc_max = draw(st.floats(soc_min + 0.05, 1.0))
    fade = draw(st.sampled_from([0.0, 5.5e-5, 2.14e-4, 0.01]))
    battery = (lead_acid_spec if draw(st.booleans()) else BatterySpec)(
        soc_min=soc_min, soc_max=soc_max,
        round_trip_eff=draw(st.just(1.0) | st.floats(0.5, 1.0)),
        self_discharge_monthly=draw(st.just(0.0) | st.floats(0.0, 0.2)),
        fade_per_cycle=fade, fixed_power_limit=draw(st.booleans()))
    generator = (microturbine_spec if draw(st.booleans()) else GeneratorSpec)(
        rated_power=draw(st.just(0.0) | st.floats(0.5, 30.0)),
        min_fraction=draw(st.floats(0.0, 0.9)))
    # the fade that takes the bank to its capacity floor, and a little more
    to_floor = [] if fade == 0.0 else [(1.0 - CAPACITY_FADE_FLOOR) / fade,
                                       1.01 * (1.0 - CAPACITY_FADE_FLOOR) / fade]
    low = 1.0 if counted_start else 0.0
    start = CascadeState(
        soc=draw(st.floats(soc_min, soc_max)),
        cycles=draw(st.sampled_from([low, *to_floor]) | st.floats(low, 6000.0)),
        throughput=draw(st.just(low) | st.floats(low, 1e4)),
        discharging=draw(st.booleans()))
    return dict(
        res_dc=res, demand_dc=dem, battery=battery,
        e_b_init=draw(e_b),
        generator=generator, dg_may_charge=draw(st.booleans()),
        eta_rec=draw(st.floats(0.5, 1.0)), start=start,
        cycle_counting=draw(counting))


# a bank of at most 60 kWh on stretched hours
HELD_BANKS = cascade_cases(hours=stretched_hours(), e_b=st.floats(0.5, 60.0))
# the same, counting cycles by throughput from a bank that has cycled: the
# compiled kernel reuses its last count while (throughput, e_c) repeat
HELD_THROUGHPUT = cascade_cases(hours=stretched_hours(),
                                e_b=st.floats(0.5, 60.0),
                                counting=st.just("throughput"),
                                counted_start=True)


def run_bits(run):
    """A cascade run as bytes: its five hourly rows and its final state, and
    its counts when it has them, so that equal runs are equal bit for bit
    (-0.0 is not 0.0)."""
    rows = np.stack(run[:5]).tobytes()
    return rows, struct.pack("3d?", *run[5]), *run[6:]


def assert_same_run(a, b):
    assert run_bits(a) == run_bits(b)


def assert_invariants(case, out):
    p_dg, p_bs, soc, dump, lost = out[:5]
    battery, gen = case["battery"], case["generator"]
    balance = (case["res_dc"] + case["eta_rec"] * p_dg + p_bs
               - case["demand_dc"] - dump + lost)
    assert np.abs(balance).max() <= 1e-6
    assert dump.min() >= 0.0 and lost.min() >= 0.0
    if case["e_b_init"] > 0:
        assert soc.min() >= battery.soc_min and soc.max() <= battery.soc_max
    else:
        assert np.all(p_bs == 0.0) and np.all(soc == case["start"].soc)
    on = p_dg > 0.0
    assert np.all(p_dg[on] >= gen.min_power) and np.all(p_dg[on] <= gen.rated_power)
    assert np.all(p_dg[~on] == 0.0)


@settings(max_examples=500, deadline=None)
@given(cascade_cases() | HELD_BANKS | HELD_THROUGHPUT, st.data())
def test_compiled_kernel_equals_python_loop_and_keeps_invariants(case, data):
    """Random hours, and stretches that pin the bank at ``soc_max`` and at
    ``soc_min``, where the compiled kernel reuses its last SOC update and
    throughput cycle count and skips the divisions that cannot bind.  The
    compiled run equals its oracle bit for bit, keeps the cascade's
    invariants, counts (online hours, starts) of ``p_dg > 0`` as
    ``count_transitions`` does, and equals itself split at a random hour
    and chained through the carried battery state."""
    compiled, oracle = cascade(**case), _cascade_python(**case)
    assert_same_run(compiled, oracle)
    assert_invariants(case, compiled)
    for run in (compiled, oracle):
        online = run[0] > 0
        assert run[6] == (int(online.sum()), count_transitions(online))
        assert all(type(n) is int for n in run[6])

    split = data.draw(st.integers(0, len(case["res_dc"])))
    first = cascade(**{**case, "res_dc": case["res_dc"][:split],
                       "demand_dc": case["demand_dc"][:split]})
    second = cascade(**{**case, "res_dc": case["res_dc"][split:],
                        "demand_dc": case["demand_dc"][split:],
                        "start": first[5]})
    joined = [np.concatenate([a, b]) for a, b in zip(first[:5], second[:5])]
    assert_same_run(compiled[:6], (*joined, second[5]))


def hour_energies(case, state):
    """The room left to charge and the energy left to discharge [kWh] at the
    start of the hour that starts from ``state``: the ``x`` that the cascade
    divides by the round-trip efficiency."""
    battery = case["battery"]
    e_c = battery_capacity(case["e_b_init"], state.cycles, battery)
    s = (1.0 - self_discharge_hourly(battery)) * state.soc
    if s < battery.soc_min:
        s = battery.soc_min
    return (battery.soc_max - s) * e_c, (s - battery.soc_min) * e_c


@settings(max_examples=150, deadline=None)
@given(HELD_BANKS | HELD_THROUGHPUT, st.data())
def test_compiled_kernel_equals_python_loop_on_a_tie_with_the_room(case, data):
    """One hour's surplus (or deficit) equals the room left to charge (or
    the energy left to discharge) exactly, the edge of the skipped
    division."""
    k = data.draw(st.integers(0, len(case["res_dc"]) - 1))
    before = _cascade_python(**{**case, "res_dc": case["res_dc"][:k],
                                "demand_dc": case["demand_dc"][:k]})
    room, energy = hour_energies(case, before[5])
    res, dem = case["res_dc"].copy(), case["demand_dc"].copy()
    if data.draw(st.booleans()):
        res[k], dem[k] = room, 0.0
    else:
        res[k], dem[k] = 0.0, energy
    case = {**case, "res_dc": res, "demand_dc": dem}
    assert_same_run(cascade(**case), _cascade_python(**case))


@settings(max_examples=50, deadline=None)
@given(HELD_BANKS | HELD_THROUGHPUT,
       st.floats(1.0, 2.0, exclude_min=True))
def test_compiled_kernel_equals_python_loop_for_an_efficiency_above_one(case,
                                                                        eta):
    """``BatterySpec`` rejects such a bank, but the kernel does not rely on
    that: the divisions it may skip are exact to skip only up to 1."""
    fields = dataclasses.asdict(case["battery"])
    case["battery"] = SimpleNamespace(**{**fields, "round_trip_eff": eta})
    assert_same_run(cascade(**case), _cascade_python(**case))


@pytest.mark.parametrize("charge", [True, False])
@pytest.mark.parametrize("eta", [1.0, 0.9])
def test_compiled_kernel_equals_python_loop_on_a_tie_with_the_power_limit(
        charge, eta):
    """The bank's fixed power limit equals the room left to charge (or the
    energy left to discharge) in the first hour."""
    case = dict(res_dc=np.zeros(3), demand_dc=np.zeros(3),
                battery=BatterySpec(round_trip_eff=eta), e_b_init=20.0,
                generator=GeneratorSpec(), dg_may_charge=True, eta_rec=0.9,
                start=CascadeState(0.5), cycle_counting="reversal")
    room, energy = hour_energies(case, case["start"])
    limit = room if charge else energy
    case["battery"] = BatterySpec(round_trip_eff=eta, fixed_power_limit=True,
                                  rated_power_per_unit=limit)
    (case["res_dc"] if charge else case["demand_dc"])[:] = 2.0 * limit
    compiled = cascade(**case)
    assert_same_run(compiled, _cascade_python(**case))
    assert abs(compiled[1][0]) == limit


@pytest.mark.parametrize("soc_min", [0.0, -0.0])
def test_compiled_kernel_keeps_the_sign_of_a_zero_soc(soc_min):
    """A bank that starts at an SOC of -0.0 or 0.0 with ``soc_min`` 0 and
    idles, charges, drains and idles again: the zeros keep their signs."""
    battery = BatterySpec(soc_min=soc_min, self_discharge_monthly=0.0)
    res = np.array([1.0, 1.0, 3.0, 0.0, 0.0, 1.0, 1.0])
    dem = np.array([1.0, 1.0, 1.0, 9.0, 9.0, 1.0, 1.0])
    for start in (-0.0, 0.0):
        case = dict(res_dc=res, demand_dc=dem, battery=battery, e_b_init=10.0,
                    generator=GeneratorSpec(rated_power=0.0),
                    dg_may_charge=False, eta_rec=0.9,
                    start=CascadeState(start), cycle_counting="reversal")
        compiled = cascade(**case)
        assert_same_run(compiled, _cascade_python(**case))
        assert struct.pack("d", compiled[2][0]) == struct.pack("d", start)


@st.composite
def year_cases(draw, hours=random_hours() | stretched_hours()):
    """A context over random climate hours, whose load is the demand of a
    ``cascade_cases`` draw and whose battery, generator, rectifier and
    strategy are that draw's, with random PV and wind units and a design
    that may have no PV, no wind or no battery."""
    case = draw(cascade_cases(hours=hours))
    load = case["demand_dc"]
    n = len(load)
    if not load.sum() > 0.0:
        load = load + 1.0
    climate = ClimateSeries(
        draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1.2))),
        draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 30.0))),
        draw(hnp.arrays(np.float64, n, elements=st.floats(-10.0, 50.0))),
        draw(st.floats(1.0, 20.0)))
    ctx = SimulationContext(
        climate, LoadSeries(load),
        PvSpec(collector_area=draw(st.floats(0.5, 3.0))),
        WindSpec(rated_power=draw(st.floats(0.5, 50.0))),
        case["battery"], case["generator"],
        ConverterSpec(eta_inv=draw(st.floats(0.5, 1.0)),
                      eta_rec=case["eta_rec"]),
        CostTable(), FinancialParams(),
        StrategyConfig(dg_may_charge_battery=case["dg_may_charge"],
                       cycle_counting=case["cycle_counting"]))
    units = st.just(0) | st.integers(0, 60)
    return ctx, Design(draw(units), draw(units), case["e_b_init"])


def assert_same_year(ctx, design):
    """The compiled run of a design over the context's hours equals its
    Python composition bit for bit: the eight rows, the final state and
    the totals."""
    args = (ctx.year_inputs, design.pv_units, design.wt_units,
            design.e_b_init, CascadeState(ctx.battery.soc_max))
    rows, end, totals = kernels.run(*args)
    py_rows, py_end, py_totals = _run_python(*args)
    assert rows.tobytes() == py_rows.tobytes()
    assert struct.pack("3d?", *end) == struct.pack("3d?", *py_end)
    assert bytes(totals) == bytes(py_totals)


@settings(max_examples=300, deadline=None)
@given(year_cases())
def test_compiled_year_equals_its_python_composition(case):
    """Feed-in, cascade, lost load on the AC side and the sums in one
    compiled call against ``renewable_feed_in``, the oracle's hour loop and
    numpy."""
    assert_same_year(*case)


def sum_in_kernel(values):
    """The kernel's total of a feed-in row: np.sum's, by its definition.
    The feed-in row is ``values`` itself, signed zeros, infinities and NaN
    included: one PV unit of efficiency 1 and area 1 gives p_pv =
    ``1.0 * 1.0 * 1.0 * v``, which is ``v``, and -0.0 wind units give a
    wind term of -0.0, and ``-0.0 + v`` is ``v`` for every double."""
    n = len(values)
    inputs = kernels.cascade_inputs(
        np.zeros(n), BatterySpec(), GeneratorSpec(rated_power=0.0), False,
        0.9, "reversal", profile=FeedInProfile(values, np.ones(n), np.ones(n)),
        pv_area=1.0, wt_rated=1.0, eta_inv=1.0)
    rows, _, totals = kernels.run(inputs, 1.0, -0.0, 0.0, CascadeState(1.0))
    assert rows[2].tobytes() == values.tobytes()
    return totals.res


def same_double(a, b):
    return bits(a) == bits(b) or (np.isnan(a) and np.isnan(b))


def bits(x):
    return struct.pack("d", x)


def test_kernel_sum_is_np_sum():
    """numpy sums pairwise in blocks of up to 128 values.  Every length up
    to 300 and the lengths of a year and of a leap year, on values whose sum
    depends on the order of the additions, signed zeros, infinities and
    NaN."""
    rng = np.random.default_rng(8760)
    for n in (*range(1, 301), 8760, 8784):
        spread = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        cancelling = np.resize([1e16, 1.0, -1e16, 1.0, 3.5e-7], n)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        special = rng.choice([np.inf, -np.inf, np.nan, -0.0, 0.0, 1.0], n)
        for values in (spread, cancelling, -cancelling, zeros,
                       np.full(n, -0.0),
                       np.where(rng.random(n) < 0.1, special, spread),
                       np.where(rng.random(n) < 0.01, special, cancelling)):
            with np.errstate(invalid="ignore"):   # inf + -inf
                expected = np.sum(values)
            assert same_double(sum_in_kernel(values), expected), n


def test_default_start_is_a_fresh_full_bank():
    """A ``CascadeState`` of an SOC alone, the start ``simulate_year`` runs
    a year from, is a bank that has neither cycled nor discharged: its
    first discharge starts a cycle."""
    case = dict(res_dc=np.zeros(1), demand_dc=np.ones(1),
                battery=BatterySpec(), e_b_init=50.0,
                generator=GeneratorSpec(), dg_may_charge=True, eta_rec=0.9,
                start=CascadeState(0.9), cycle_counting="reversal")
    out = cascade(**case)
    full = cascade(**{**case, "start": CascadeState(0.9, 0.0, 0.0, False)})
    assert_same_run(out, full)
    assert out[5].cycles == 1.0 and out[5].discharging


def test_cascade_rejects_bad_inputs():
    """The kernel's record takes arrays of one length only, and the
    strategy counts cycles by reversal or by throughput."""
    with pytest.raises(ValueError, match="arrays of one length"):
        kernels.cascade_inputs(
            np.ones(1), BatterySpec(), GeneratorSpec(), True, 0.9, "reversal",
            profile=FeedInProfile(np.ones(2), np.ones(2), np.ones(2)),
            pv_area=1.0, wt_rated=1.0, eta_inv=1.0)
    with pytest.raises(InputDataError, match="cycle_counting"):
        StrategyConfig(cycle_counting="rainflow")


ANNUAL_VARIANTS = {
    "default": {},
    "LA": {"battery": {"chemistry": "LA"}},
    "MT": {"generator": {"kind": "MT"}},
    "throughput, no generator charging": {
        "strategy": {"cycle_counting": "throughput",
                     "dg_may_charge_battery": False}},
}


@pytest.mark.parametrize("variant", ANNUAL_VARIANTS)
def test_a_context_s_record_holds_its_devices_constants(variant):
    """The record the kernel and its oracle both read carries the context's
    hourly inputs and the constants of its devices and strategy."""
    ctx = build_context(build_config(ANNUAL_VARIANTS[variant]), seed=42)
    feed_in, demand_dc, _ = ctx.hourly_inputs
    battery, generator, strategy = ctx.battery, ctx.generator, ctx.strategy
    record = ctx.year_inputs
    assert all(map(operator.is_, record.arrays, (demand_dc, *feed_in)))
    assert [record.dem, record.irr, record.pv_eta, record.wt_frac] == [
        a.ctypes.data for a in record.arrays]
    assert record.n == 8760
    expected = dict(
        pv_area=ctx.pv.collector_area, wt_rated=ctx.wind.rated_power,
        eta_rec=ctx.converter.eta_rec, eta_inv=ctx.converter.eta_inv,
        eta=battery.round_trip_eff, soc_min=battery.soc_min,
        soc_max=battery.soc_max, leak=self_discharge_hourly(battery),
        fade=battery.fade_per_cycle, fade_floor=CAPACITY_FADE_FLOOR,
        unit_power=battery.rated_power_per_unit,
        unit_energy=battery.unit_energy, p_rated=generator.rated_power,
        p_min=generator.min_power,
        fixed_power_limit=battery.fixed_power_limit,
        dg_may_charge=strategy.dg_may_charge_battery,
        by_throughput=strategy.cycle_counting == "throughput")
    assert {name: getattr(record, name) for name in expected} == expected


@pytest.mark.parametrize("variant", ANNUAL_VARIANTS)
def test_compiled_kernel_equals_python_loop_over_a_year(variant):
    """Random designs of the sizing box, a whole year each."""
    ctx = build_context(build_config(ANNUAL_VARIANTS[variant]), seed=42)
    feed_in, demand_dc, _ = ctx.hourly_inputs
    rng = np.random.default_rng(sum(map(ord, variant)))
    for pv, wt, e_b in zip(rng.integers(0, 101, 6), rng.integers(0, 31, 6),
                           [0.0, *rng.uniform(0.0, 200.0, 5)]):
        design = Design(int(pv), int(wt), float(e_b))
        res_dc = renewable_feed_in(design, feed_in, ctx.pv, ctx.wind,
                                   ctx.converter)[2]
        case = dict(res_dc=res_dc, demand_dc=demand_dc, battery=ctx.battery,
                    e_b_init=design.e_b_init, generator=ctx.generator,
                    dg_may_charge=ctx.strategy.dg_may_charge_battery,
                    eta_rec=ctx.converter.eta_rec,
                    start=CascadeState(ctx.battery.soc_max),
                    cycle_counting=ctx.strategy.cycle_counting)
        assert_same_run(cascade(**case), _cascade_python(**case))


@pytest.mark.parametrize("variant", ANNUAL_VARIANTS)
def test_compiled_year_equals_its_python_composition_over_a_year(variant):
    """Random designs of the sizing box, with and without PV, wind or a
    battery, a whole year each."""
    ctx = build_context(build_config(ANNUAL_VARIANTS[variant]), seed=7919)
    rng = np.random.default_rng(sum(map(ord, variant)))
    for pv, wt, e_b in zip([0, *rng.integers(0, 101, 3)],
                           [*rng.integers(0, 31, 2), 0, 5],
                           [*rng.uniform(0.0, 200.0, 3), 0.0]):
        assert_same_year(ctx, Design(int(pv), int(wt), float(e_b)))


def _same_sim(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("strategy", [
    {},
    {"cycle_counting": "throughput", "dg_may_charge_battery": False},
])
def test_simulate_year_is_identical_on_the_python_fallback(annual_ctx, monkeypatch,
                                                           strategy):
    """The whole ``SimResult`` of the compiled year against the one built
    with the oracles in the kernels' place."""
    ctx = dataclasses.replace(
        annual_ctx, strategy=dataclasses.replace(annual_ctx.strategy, **strategy))
    design = Design(60, 6, 60)
    compiled = simulate_year(design, ctx)
    use_the_oracles(monkeypatch)
    _same_sim(compiled, simulate_year(design, ctx))


def copied_source(tmp_path, monkeypatch, text=None):
    """Point the kernels at a copy of their source in ``tmp_path``, or at
    ``text`` there, so that nothing is cached yet."""
    source = tmp_path / "_cascade.c"
    if text is None:
        shutil.copy(kernels._CASCADE_SOURCE, source)
    else:
        source.write_text(text)
    monkeypatch.setattr(kernels, "_CASCADE_SOURCE", source)
    return source


def test_kernel_build_without_a_compiler_raises_the_documented_error(
        tmp_path, monkeypatch):
    copied_source(tmp_path, monkeypatch)
    monkeypatch.setenv("PATH", str(tmp_path))
    with pytest.raises(KernelUnavailableError, match="cc is not on PATH"):
        kernels._load_cascade()
    assert list((tmp_path / "__pycache__").iterdir()) == []


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_build_reports_a_compile_error(tmp_path, monkeypatch):
    copied_source(tmp_path, monkeypatch, "this is not C;\n")
    with pytest.raises(KernelUnavailableError,
                       match="cc could not compile _cascade.c: .*error"):
        kernels._load_cascade()
    assert list((tmp_path / "__pycache__").iterdir()) == []


def test_kernel_build_reports_a_missing_source(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "_CASCADE_SOURCE", tmp_path / "_cascade.c")
    with pytest.raises(KernelUnavailableError, match="source cannot be read"):
        kernels._load_cascade()


def test_kernel_load_reports_a_library_that_does_not_load(tmp_path,
                                                          monkeypatch):
    broken = tmp_path / "_cascade-broken.so"
    broken.write_bytes(b"not a shared library")
    monkeypatch.setattr(kernels, "_cascade_library", lambda: broken)
    with pytest.raises(KernelUnavailableError, match="does not load"):
        kernels._load_cascade()


def test_every_kernel_of_an_unavailable_library_raises_its_reason():
    """What the package binds when the library cannot be built or loaded."""
    library = kernels._Unavailable("no compiler here")
    for kernel in (library.cascade, library.price, library.day_prices,
                   library.day_hours, library.day_score, library.day_refine):
        with pytest.raises(KernelUnavailableError, match="no compiler here"):
            kernel(None, None, None)
    assert issubclass(KernelUnavailableError, OSError)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_kernel_is_built_once_into_the_bytecode_cache(tmp_path, monkeypatch):
    source = tmp_path / "_cascade.c"
    shutil.copy(kernels._CASCADE_SOURCE, source)
    monkeypatch.setattr(kernels, "_CASCADE_SOURCE", source)
    lib = kernels._cascade_library()
    assert lib.parent == tmp_path / "__pycache__" and lib.name.endswith(".so")
    built = lib.stat().st_mtime_ns
    assert kernels._cascade_library() == lib
    assert lib.stat().st_mtime_ns == built
    assert [p.name for p in lib.parent.iterdir()] == [lib.name]
    assert isinstance(kernels._load_cascade(), ctypes.CDLL)
