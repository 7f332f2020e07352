"""The day-schedule scorer: bit for bit against the numpy formulation it
replaced, on random and infeasible schedules, the C day kernel bit for bit
against its Python oracle, the search's penalty-first rejection and price
memo, and pinned ``optimize_day`` results on fixed days, on the kernels
and on their oracles in the kernels' place."""

import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _cascade_python, _day_hours, day_hours, day_sum

from offgridopt import dispatch, economics, kernels
from offgridopt.config import build_config, build_context
from offgridopt.devices import battery_power_limit, battery_step
from offgridopt.dispatch import (CONSTRAINT_TOL, DispatchSchedule,
                                 day_context, day_trace, evaluate_schedule,
                                 optimize_day, rule_based_schedule)
from offgridopt.economics import ObjectiveVector, Weights
from offgridopt.errors import InputDataError
from offgridopt.kernels import DayTotals
from offgridopt.seeding import substream_seed
from offgridopt.simulate import Design

RUN_SEED = 42
W4 = Weights((0.25, 0.25, 0.25, 0.25))
VARIANTS = {
    "LI-DE": {},
    "LA-MT-no-charge": {"battery": {"chemistry": "LA"}, "generator": {"kind": "MT"},
                        "strategy": {"dg_may_charge_battery": False}},
    "LA-DE": {"battery": {"chemistry": "LA"}},
    "LI-MT-min0": {"generator": {"kind": "MT", "min_fraction": 0.0}},
    "LI-DE-min0": {"generator": {"min_fraction": 0.0}},
}


@pytest.fixture(scope="module")
def contexts():
    return {name: build_context(build_config(raw), seed=RUN_SEED)
            for name, raw in VARIANTS.items()}


# ---------------------------------------------------------------------------
# The numpy formulation the scorer replaced, kept as the reference
# ---------------------------------------------------------------------------

def reference_soc(ctx, p_bs):
    soc = np.empty(25)
    soc[0] = ctx.soc_start
    cap = ctx.design.e_b_init
    if cap <= 0:
        soc[:] = ctx.soc_start
        return soc
    for t in range(24):
        soc[t + 1] = battery_step(soc[t], float(p_bs[t]), 1.0, cap, ctx.sim.battery)
    return soc


def reference_evaluate(s, ctx):
    """Objectives, residuals and hours of a schedule, one numpy call per
    quantity."""
    gen, costs, converter = ctx.sim.generator, ctx.sim.costs, ctx.sim.converter
    p_dg = np.asarray(s.p_dg, dtype=float)
    p_bs = np.asarray(s.p_bs, dtype=float)
    soc = reference_soc(ctx, p_bs)

    net = ctx.res_dc + converter.eta_rec * p_dg + p_bs - ctx.demand_dc
    dump = np.maximum(net, 0.0)
    lost = np.maximum(-net, 0.0) * converter.eta_inv

    online = p_dg > CONSTRAINT_TOL
    on_hours = int(online.sum())
    energy = float(p_dg.sum())
    starts = int(np.count_nonzero(online[1:] & ~online[:-1])) + int(online[0])
    stops = int(np.count_nonzero(~online[1:] & online[:-1])) + int(online[-1])

    c_daily = (economics.fuel_cost(gen, energy, on_hours)
               + economics.variable_om(gen, costs, on_hours, energy)
               + costs.startup_cost * starts + costs.shutdown_cost * stops
               + economics.fixed_om(ctx.capital, costs) / 365.0)

    load_kwh = ctx.sim.load.total_kwh
    coe = c_daily / load_kwh
    coe_base, em_base = ctx.daily_baseline
    emissions = economics.emissions_total(energy, gen)
    gen_dc = float(ctx.res_dc.sum()) + converter.eta_rec * energy
    dpsp = float(lost.sum()) / load_kwh
    repg = economics.metrics_repg(float(dump.sum()), gen_dc)
    ref = economics.metrics_ref(float(ctx.res_dc.sum()), gen_dc)

    objectives = ObjectiveVector(
        lcoe_norm=coe / coe_base, em_norm=emissions / em_base,
        dpsp=dpsp, repg=repg, one_minus_ref=1.0 - ref)
    # the stated weighting: products added to 0.0 from left to right
    weighted = 0.0
    for w, v in zip(ctx.weights.values,
                    [objectives.lcoe_norm, objectives.em_norm,
                     objectives.repg, objectives.one_minus_ref]):
        weighted += w * v
    summary5 = float(np.mean([objectives.lcoe_norm, objectives.em_norm, dpsp,
                              objectives.repg, objectives.one_minus_ref]))

    semicont = np.maximum(0.0, np.where(online, gen.min_power - p_dg, 0.0))
    over_rated = np.maximum(0.0, p_dg - gen.rated_power)
    e_b = ctx.design.e_b_init
    power_limit = battery_power_limit(e_b, ctx.sim.battery) if e_b > 0 else 0.0
    over_power = np.maximum(0.0, np.abs(p_bs) - power_limit)
    soc_low = np.maximum(0.0, ctx.sim.battery.soc_min - soc)
    soc_high = np.maximum(0.0, soc - ctx.sim.battery.soc_max)
    violations = {
        "dg_semicontinuous": float(semicont.max()),
        "dg_rated": float(over_rated.max()),
        "battery_power": float(over_power.max()),
        "soc_bounds": float(max(soc_low.max(), soc_high.max())),
        "dpsp": max(0.0, dpsp - ctx.dpsp_max),
    }
    feasible = all(v <= CONSTRAINT_TOL for v in violations.values())
    search_value = weighted + 200.0 * (
        violations["dg_semicontinuous"] + violations["dg_rated"]
        + violations["battery_power"] + 10.0 * violations["soc_bounds"]
        + violations["dpsp"])
    return dict(objectives=objectives, weighted=weighted, summary5=summary5,
                c_daily=c_daily, violations=violations, feasible=feasible,
                search_value=search_value, soc=soc, dump=dump, lost=lost)


def bits(x: float) -> str:
    return float(x).hex()


def use_the_oracles(monkeypatch):
    """Put the Python oracles of the cascade and of the day pass in the
    compiled kernels' place, where the package calls them."""
    monkeypatch.setattr(kernels, "cascade", _cascade_python)
    monkeypatch.setattr(kernels, "day_hours", day_hours)


# ---------------------------------------------------------------------------
# Scorer against the reference
# ---------------------------------------------------------------------------

HOUR_DG = st.sampled_from([0.0, 1e-6, 2e-6]) | st.floats(0.0, 20.0)
HOUR_BS = st.just(0.0) | st.floats(-20.0, 20.0)
# equal weights, whose products are exact, and unequal ones
WEIGHTS4 = (st.sampled_from([W4, Weights((0.3, 0.1, 0.35, 0.25))])
            | st.lists(st.integers(0, 100), min_size=4, max_size=4)
            .filter(any).map(lambda k: Weights(tuple(x / sum(k) for x in k))))


@st.composite
def scored_days(draw, contexts, hour_dg=HOUR_DG, hour_bs=HOUR_BS):
    """A day of one configuration (with or without a battery, from any SOC
    in the battery's window, under equal or unequal weights) and a
    schedule: random hours, or the rule-based schedule with a few hours
    overwritten, so that feasible and infeasible schedules both occur."""
    annual = contexts[draw(st.sampled_from(sorted(VARIANTS)))]
    e_b = draw(st.sampled_from([0.0, 45.45, 150.0]))
    ctx = day_context(annual, Design(100, 8, e_b), draw(st.integers(0, 364)),
                      draw(WEIGHTS4),
                      dpsp_max=draw(st.sampled_from([0.0, 0.01, 0.2])))
    battery = annual.battery
    ctx = dataclasses.replace(ctx, soc_start=draw(
        st.sampled_from([battery.soc_min, battery.soc_max])
        | st.floats(battery.soc_min, battery.soc_max)))
    if draw(st.booleans()):
        p_dg = draw(st.lists(hour_dg, min_size=24, max_size=24))
        p_bs = draw(st.lists(hour_bs, min_size=24, max_size=24))
    else:
        rule = rule_based_schedule(ctx)
        p_dg, p_bs = rule.p_dg.tolist(), rule.p_bs.tolist()
        for _ in range(draw(st.integers(0, 3))):
            h = draw(st.integers(0, 23))
            p_dg[h] = draw(hour_dg)
            p_bs[h] = draw(hour_bs)
    return ctx, DispatchSchedule(np.array(p_dg), np.array(p_bs))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_scorer_equals_the_numpy_reference_bit_for_bit(contexts, data):
    ctx, schedule = data.draw(scored_days(contexts))
    ev = evaluate_schedule(schedule, ctx)
    ref = reference_evaluate(schedule, ctx)
    assert bits(ev.weighted) == bits(ref["weighted"])
    assert bits(ev.search_value) == bits(ref["search_value"])
    assert bits(ev.summary5) == bits(ref["summary5"])
    assert bits(ev.c_daily) == bits(ref["c_daily"])
    for name in ("lcoe_norm", "em_norm", "dpsp", "repg", "one_minus_ref"):
        assert bits(getattr(ev.objectives, name)) == bits(getattr(ref["objectives"], name))
    assert list(ev.violations) == list(ref["violations"])
    assert {k: bits(v) for k, v in ev.violations.items()} == \
        {k: bits(v) for k, v in ref["violations"].items()}
    assert ev.feasible is ref["feasible"]

    trace = day_trace(schedule, ctx)
    for name in ("soc", "dump", "lost"):
        assert getattr(trace, name).tobytes() == ref[name].tobytes()


def test_a_dispatch_day_cannot_be_changed_in_place(contexts):
    """The day kernel and its oracle read the day from ``day_inputs``,
    derived once: a day changed in place would leave it behind."""
    day = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 10, W4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        day.soc_start = 0.2


def test_a_replaced_start_scores_alike_on_both_kernels(contexts, monkeypatch):
    """A day replaced with another starting SOC is scored from that SOC by
    the kernels and by their oracles in the kernels' place, and both agree
    bit for bit."""
    day = dataclasses.replace(
        day_context(contexts["LI-DE"], Design(100, 8, 45.45), 10, W4),
        soc_start=0.2)

    def scored(schedule):
        ev = evaluate_schedule(schedule, day)
        return (bits(ev.weighted), bits(ev.c_daily), ev.feasible,
                ev.objectives.as_array().tobytes(),
                [bits(v) for v in ev.violations.values()],
                [hours.tobytes() for hours in day_trace(schedule, day)])

    schedule = rule_based_schedule(day)
    compiled = scored(schedule)
    use_the_oracles(monkeypatch)
    assert rule_based_schedule(day).p_bs.tobytes() == schedule.p_bs.tobytes()
    assert scored(schedule) == compiled
    assert day_trace(schedule, day).soc[0] == 0.2
    assert evaluate_schedule(schedule, day).violations["soc_bounds"] < 1e-4


SIGNED_ZERO = st.sampled_from([0.0, -0.0])
# Days of signed zeros: the sign of a tied extreme or of a zero sum depends
# on the order of the comparisons and additions.
ZERO_DAY = (st.lists(SIGNED_ZERO, min_size=24, max_size=24)
            | SIGNED_ZERO.map(lambda zero: [zero] * 24))


def exact(value):
    return value.hex() if isinstance(value, float) else value


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_compiled_day_hours_equals_the_python_twin_bit_for_bit(contexts, data):
    ctx, schedule = data.draw(scored_days(contexts, HOUR_DG | SIGNED_ZERO,
                                          HOUR_BS | SIGNED_ZERO))
    if data.draw(st.booleans()):
        schedule = DispatchSchedule(data.draw(ZERO_DAY), data.draw(ZERO_DAY))
    compiled_rows, twin_rows = np.empty(73), np.empty(73)
    compiled = kernels.day_hours(schedule._address, ctx.day_inputs,
                                 compiled_rows.ctypes.data)
    twin = _day_hours(ctx.day_inputs, schedule._rows, twin_rows)
    fields = [name for name, _ in DayTotals._fields_]
    assert [exact(getattr(compiled, name)) for name in fields] == \
        [exact(getattr(twin, name)) for name in fields]
    assert compiled_rows.tobytes() == twin_rows.tobytes()


# Thresholds of the search's compare: any float, NaN and the infinities
# included, the signed zeros, and values at and next to the candidate's own.
THRESHOLD = st.floats() | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_rejecting_a_candidate_on_its_penalty_is_sound(contexts, data):
    """The search value is weighted + penalty, bit for bit, and never below
    the penalty, so no threshold rejects on the penalty a candidate whose
    search value it would accept; on the kernel and on its oracle."""
    ctx, schedule = data.draw(scored_days(contexts))
    kernel = data.draw(st.sampled_from([kernels.day_hours, day_hours]))
    h = kernel(schedule._address, ctx.day_inputs, None)
    ev = evaluate_schedule(schedule, ctx, h)
    assert bits(ev.search_value) == bits(ev.weighted + h.penalty)
    assert ev.search_value >= h.penalty
    near = [ev.search_value, h.penalty,
            np.nextafter(ev.search_value, np.inf) + 1e-12,
            np.nextafter(h.penalty, -np.inf) + 1e-12]
    for b in data.draw(st.lists(THRESHOLD, max_size=4)) + near:
        bar = b - 1e-12
        assert not (h.penalty >= bar and ev.search_value < bar)


def scored_bits(ev):
    return (bits(ev.weighted), bits(ev.search_value), bits(ev.c_daily),
            ev.feasible, [bits(v) for v in ev.objectives],
            [bits(v) for v in ev.residuals])


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_the_price_memo_is_never_stale(contexts, monkeypatch, kernel):
    """Schedules whose (energy, online hours, starts) repeat the last one's,
    and schedules whose key differs, scored in turn on one context: each
    scores as on a fresh context, bit for bit."""
    if kernel == "python":
        use_the_oracles(monkeypatch)
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 51, W4)
    rule = rule_based_schedule(ctx)
    p_dg, p_bs = rule.p_dg.copy(), rule.p_bs.copy()
    on = np.flatnonzero(p_dg > CONSTRAINT_TOL)
    assert on.size >= 2
    moved_bs = p_bs.copy()
    moved_bs[3] += 0.5                  # same key, other lost load and dump
    more = p_dg.copy()
    more[on[0]] += 0.25                 # other energy
    # Hours t and t + 8 are added first in np.sum's lane t, so swapping
    # them keeps the energy's bits and moves the hours online.
    t = next(t for t in range(8) if (p_dg[t] > 0) != (p_dg[t + 8] > 0))
    shifted = p_dg.copy()
    shifted[[t, t + 8]] = p_dg[[t + 8, t]]
    off = p_dg.copy()
    off[on[1]] = 0.0                    # fewer hours online and other starts
    schedules = [DispatchSchedule(*rows) for rows in (
        (p_dg, p_bs), (p_dg, moved_bs), (more, p_bs), (p_dg, p_bs),
        (shifted, p_bs), (p_dg, moved_bs), (off, moved_bs), (off, p_bs),
        (p_dg, p_bs))]
    keys = []
    for schedule in schedules:
        ev = evaluate_schedule(schedule, ctx)
        fresh = evaluate_schedule(schedule, dataclasses.replace(ctx))
        assert scored_bits(ev) == scored_bits(fresh)
        h = _day_hours(ctx.day_inputs, schedule._rows)
        keys.append((h.energy, h.online, h.starts))
    assert keys[0] == keys[1] == keys[3] == keys[8]
    assert keys[4][0] == keys[0][0] and keys[4] != keys[0]
    assert len(set(keys)) == 4


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("hours", [23, 25])
def test_scoring_rejects_a_schedule_of_other_than_24_hours(contexts, monkeypatch,
                                                           kernel, hours):
    """The C kernel reads 2 x 24 numbers from a schedule's block: a schedule
    of another length cannot be made, and its rows cannot be rebound, so
    neither the kernel nor its oracle is reached."""
    if kernel == "python":
        use_the_oracles(monkeypatch)
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 0, W4)
    for p_dg, p_bs in ((np.ones(hours), np.ones(24)), (np.ones(24), np.ones(hours))):
        with pytest.raises(InputDataError, match="must hold 24 hours"):
            evaluate_schedule(DispatchSchedule(p_dg, p_bs), ctx)
        with pytest.raises(InputDataError, match="must hold 24 hours"):
            day_trace(DispatchSchedule(p_dg, p_bs), ctx)
    schedule = DispatchSchedule(np.ones(24), np.ones(24))
    with pytest.raises(AttributeError):
        schedule.p_dg = np.ones(hours)


@pytest.mark.parametrize("row, value", [
    ("p_dg", np.nan), ("p_dg", np.inf), ("p_dg", -np.inf), ("p_dg", -1e-9),
    ("p_bs", np.nan), ("p_bs", np.inf), ("p_bs", -np.inf)])
def test_a_schedule_the_scorer_cannot_judge_is_an_input_error(contexts, row,
                                                              value):
    """A NaN hour compares false with every bound, so it scored feasible,
    and a negative generator hour left no generator residual."""
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 10, W4)
    rule = rule_based_schedule(ctx)
    hours = {"p_dg": rule.p_dg.copy(), "p_bs": rule.p_bs.copy()}
    hours[row][5] = value
    with pytest.raises(InputDataError, match=row):
        DispatchSchedule(hours["p_dg"], hours["p_bs"])


def test_a_negative_hour_of_an_all_off_day_is_an_input_error():
    """Such a day used to reach the fuel bill, which raised, although the
    scorer reports infeasibility and never raises it."""
    with pytest.raises(InputDataError, match="p_dg must hold hours >= 0"):
        DispatchSchedule(np.r_[np.zeros(23), -1.0], np.zeros(24))


def test_a_schedule_keeps_signed_zeros(contexts):
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 10, W4)
    schedule = DispatchSchedule(np.full(24, -0.0), np.full(24, -0.0))
    assert schedule._rows.tobytes() == np.full((2, 24), -0.0).tobytes()
    assert evaluate_schedule(schedule, ctx).violations["dg_rated"] == 0.0


@pytest.mark.parametrize("row", ["p_dg", "p_bs"])
def test_a_schedule_s_rows_are_read_only(contexts, row):
    """A NaN written into a row after construction reached the scorer,
    which called the day feasible."""
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 10, W4)
    schedule = rule_based_schedule(ctx)
    scored = evaluate_schedule(schedule, ctx)
    with pytest.raises(ValueError, match="read-only"):
        getattr(schedule, row)[5] = np.nan
    assert evaluate_schedule(schedule, ctx) == scored


def test_a_copied_schedule_has_a_block_of_its_own(contexts):
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 51, W4)
    schedule = rule_based_schedule(ctx)
    for twin in (schedule.copy(), copy.deepcopy(schedule),
                 pickle.loads(pickle.dumps(schedule))):
        assert twin._address != schedule._address
        assert evaluate_schedule(twin, ctx) == evaluate_schedule(schedule, ctx)
        twin._rows[0] = 0.0
        assert schedule.p_dg.any()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | SIGNED_ZERO,
                min_size=24, max_size=24))
def test_day_sum_is_np_sum(hours):
    assert bits(day_sum(hours)) == bits(np.sum(np.array(hours)))


def test_day_sum_keeps_the_sum_order_of_np_sum():
    """Values whose sum depends on the order of the additions."""
    hours = [1e16, 1.0, -1e16, 1.0] * 6
    in_turn = 0.0
    for h in hours:
        in_turn += h
    assert bits(day_sum(hours)) == bits(np.sum(np.array(hours)))
    assert day_sum(hours) != in_turn


# ---------------------------------------------------------------------------
# Pinned optimize_day results
# ---------------------------------------------------------------------------

# weighted.hex(), feasible, the SHA-256 of p_dg.tobytes() + p_bs.tobytes(),
# the number of hours passes and the number of candidates priced by
# optimize_day on design 100,8,45.45 at run seed 42, as the dispatch command
# runs it.  The hours passes (one per candidate, and one per evaluate_schedule
# call made without the search's own pass) hold the search to the candidates
# it scores; the priced count holds the rejection on the penalty to what it
# skips.
PINNED = {
    ("LI-DE", 0): ("0x1.3f27e4c384852p-4", True,
                   "440b2a855a5c0a33809893b1bb917df62b81911b7468cdee4ac8ab95a5ff52c4",
                   4126, 1404),
    ("LI-DE", 51): ("0x1.08bed63441d98p-2", True,
                    "1290905ef298e88f1a55497adea9547c972b32965f8ce0181e5bbdc4e575ee63",
                    12182, 6074),
    ("LI-DE", 150): ("0x1.ebe15e5ce23f5p-5", True,
                     "525f19bd939fb00d27cf02708660f919a345d804cf18eb7b6c1bd95ef0e9e9f6",
                     6542, 4258),
    ("LI-DE", 300): ("0x1.bb2b34460a282p-4", True,
                     "59dc56ec500b5a7f600d9c86c6c8468f2a07f90a11a40d6a4dac1ee5f8e5712c",
                     2787, 1488),
    ("LA-MT-no-charge", 0): (
        "0x1.4eaae0358bbc8p-2", True,
        "c9722b20031bbd1fad1f8c3bc3de66b25ac73169552fa3cd1b31aab7fec66f22",
        27212, 14179),
    ("LA-MT-no-charge", 51): (
        "0x1.af10ab01c4262p-2", True,
        "479761ec680df9f29f3d0302802c026b95591a9c976647066c03140b7366d9bb",
        29703, 18211),
    ("LA-MT-no-charge", 150): (
        "0x1.05a29f5d712e0p-2", True,
        "23e2cf30aeb26cdaff14545c31844cb5b034dc3fec148734fa5c779ffa2f914b",
        15295, 9206),
    ("LA-MT-no-charge", 300): (
        "0x1.0560ed880bd30p-2", True,
        "c4c298892f2f55040e53faf3a27509ace6611c76e09c4e1d6997f7b974208fa2",
        2787, 1485),
}


def pinned_result(contexts, monkeypatch, variant, day):
    """The pinned numbers of a day, counting the hours passes of the day
    kernel in place and the scorer's calls given the search's own hours,
    through the module attributes the search calls them by."""
    passes, priced = [], []
    hours_pass, score = kernels.day_hours, dispatch.evaluate_schedule

    def counted_pass(*args):
        passes.append(None)
        return hours_pass(*args)

    def counted_score(s, ctx, hours=None):
        if hours is not None:
            priced.append(None)
        return score(s, ctx, hours)

    monkeypatch.setattr(kernels, "day_hours", counted_pass)
    monkeypatch.setattr(dispatch, "evaluate_schedule", counted_score)
    config = build_config(VARIANTS[variant])
    ctx = day_context(contexts[variant], Design(100, 8, 45.45), day,
                      Weights(tuple(config.dispatch["weights"])),
                      dpsp_max=config.dispatch["dpsp_max"],
                      generator=config.dispatch_generator())
    result = optimize_day(ctx, max_patterns=config.dispatch["max_patterns"],
                          seed=substream_seed(RUN_SEED, "solver"))
    schedule = hashlib.sha256(result.schedule.p_dg.tobytes()
                              + result.schedule.p_bs.tobytes()).hexdigest()
    return (result.evaluation.weighted.hex(), result.feasible, schedule,
            len(passes), len(priced))


@pytest.mark.parametrize("variant, day", sorted(PINNED))
def test_optimize_day_is_pinned(contexts, monkeypatch, variant, day):
    assert pinned_result(contexts, monkeypatch, variant, day) == PINNED[variant, day]


@pytest.mark.parametrize("variant, day", sorted(PINNED))
def test_optimize_day_is_pinned_on_the_python_fallback(contexts, monkeypatch,
                                                       variant, day):
    """The same numbers with the oracles in the kernels' place."""
    use_the_oracles(monkeypatch)
    assert pinned_result(contexts, monkeypatch, variant, day) == PINNED[variant, day]
