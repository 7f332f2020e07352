"""The load-following cascade kernels: the compiled kernel against the
Python reference loop on random specs, the cascade's invariants, chaining
through the carried battery state, and the fallback to the Python loop."""

import dataclasses
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from offgridopt import kernels
from offgridopt.devices import (BatterySpec, GeneratorSpec, lead_acid_spec,
                                microturbine_spec)
from offgridopt.simulate import (CascadeState, Design, _cascade_python,
                                 count_transitions, dispatch_cascade,
                                 simulate_year)

needs_compiled = pytest.mark.skipif(kernels.KERNEL != "c",
                                    reason="the C kernel could not be built")

POWER = st.floats(0.0, 40.0)  # kW on the DC bus


@st.composite
def cascade_cases(draw, max_hours=72):
    """Random horizon, battery, generator, strategy and start state."""
    n = draw(st.integers(1, max_hours))
    res = draw(hnp.arrays(np.float64, n, elements=POWER))
    dem = draw(hnp.arrays(np.float64, n, elements=POWER))
    soc_min = draw(st.floats(0.0, 0.6))
    soc_max = draw(st.floats(soc_min + 0.05, 1.0))
    battery = (lead_acid_spec if draw(st.booleans()) else BatterySpec)(
        soc_min=soc_min, soc_max=soc_max,
        round_trip_eff=draw(st.floats(0.5, 1.0)),
        self_discharge_monthly=draw(st.floats(0.0, 0.2)),
        fade_per_cycle=draw(st.sampled_from([0.0, 5.5e-5, 2.14e-4, 0.01])),
        fixed_power_limit=draw(st.booleans()))
    generator = (microturbine_spec if draw(st.booleans()) else GeneratorSpec)(
        rated_power=draw(st.just(0.0) | st.floats(0.5, 30.0)),
        min_fraction=draw(st.floats(0.0, 0.9)))
    start = CascadeState(
        soc=draw(st.floats(soc_min, soc_max)),
        cycles=draw(st.just(0.0) | st.floats(0.0, 6000.0)),
        throughput=draw(st.just(0.0) | st.floats(0.0, 1e4)),
        discharging=draw(st.booleans()))
    return dict(
        res_dc=res, demand_dc=dem, battery=battery,
        e_b_init=draw(st.just(0.0) | st.floats(0.5, 300.0)),
        generator=generator, dg_may_charge=draw(st.booleans()),
        eta_rec=draw(st.floats(0.5, 1.0)), start=start,
        cycle_counting=draw(st.sampled_from(["reversal", "throughput"])))


def assert_same_run(a, b):
    for x, y in zip(a[:5], b[:5]):
        assert np.array_equal(x, y)
    assert a[5] == b[5]


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


@needs_compiled
@settings(max_examples=300, deadline=None)
@given(cascade_cases())
def test_compiled_kernel_equals_python_loop_and_keeps_invariants(case):
    compiled = kernels.cascade(**case)
    assert_same_run(compiled, _cascade_python(**case))
    assert_invariants(case, compiled)


@settings(max_examples=200, deadline=None)
@given(cascade_cases())
def test_kernels_count_generator_online_hours_and_starts(case):
    """Both kernels count (online hours, starts) of ``p_dg > 0`` as
    ``count_transitions`` does."""
    runs = [_cascade_python(**case)]
    if kernels.KERNEL == "c":
        runs.append(kernels.cascade(**case))
    for run in runs:
        online = run[0] > 0
        assert run[6] == (int(online.sum()), count_transitions(online))
        assert all(type(n) is int for n in run[6])
    assert runs[-1][6] == runs[0][6]


@settings(max_examples=100, deadline=None)
@given(cascade_cases(), st.data())
def test_active_kernel_keeps_invariants_and_chains_exactly(case, data):
    whole = dispatch_cascade(**case)
    assert_invariants(case, whole)
    split = data.draw(st.integers(0, len(case["res_dc"])))
    first = dispatch_cascade(**{**case, "res_dc": case["res_dc"][:split],
                                "demand_dc": case["demand_dc"][:split]})
    second = dispatch_cascade(**{**case, "res_dc": case["res_dc"][split:],
                                 "demand_dc": case["demand_dc"][split:],
                                 "start": first[5]})
    joined = [np.concatenate([a, b]) for a, b in zip(first[:5], second[:5])]
    assert_same_run(whole, (*joined, second[5]))


def test_default_start_is_a_fresh_full_bank():
    out = dispatch_cascade([0.0], [1.0], BatterySpec(), 50.0, GeneratorSpec(),
                           True, 0.9)
    full = dispatch_cascade([0.0], [1.0], BatterySpec(), 50.0, GeneratorSpec(),
                            True, 0.9, start=CascadeState(0.9))
    assert_same_run(out, full)
    assert out[5].cycles == 1.0 and out[5].discharging


def test_cascade_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dispatch_cascade([1.0, 2.0], [1.0], BatterySpec(), 10.0, GeneratorSpec(),
                         True, 0.9)
    with pytest.raises(ValueError):
        dispatch_cascade([1.0], [1.0], BatterySpec(), 10.0, GeneratorSpec(),
                         True, 0.9, cycle_counting="rainflow")


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
    ctx = dataclasses.replace(
        annual_ctx, strategy=dataclasses.replace(annual_ctx.strategy, **strategy))
    design = Design(60, 6, 60)
    active = simulate_year(design, ctx)
    monkeypatch.setattr(kernels, "KERNEL", "python")
    _same_sim(active, simulate_year(design, ctx))


def test_kernel_build_falls_back_without_a_compiler(tmp_path, monkeypatch):
    source = tmp_path / "_cascade.c"
    shutil.copy(kernels._CASCADE_SOURCE, source)
    monkeypatch.setattr(kernels, "_CASCADE_SOURCE", source)
    monkeypatch.setenv("PATH", str(tmp_path))
    assert kernels._load_cascade() is None
    assert list((tmp_path / "__pycache__").iterdir()) == []


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
    assert kernels._load_cascade() is not None
