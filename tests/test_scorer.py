"""The day kernels and the dispatch search that runs on them:

- ``test_day_kernels_equal_their_oracles_bit_for_bit``, the one test of
  ``day_hours`` and ``day_score``: a drawn day and schedule against the
  numpy formulation the scorer replaced (``reference_evaluate``), and
  each kernel against its oracle;
- ``test_compiled_day_refine_equals_the_oracle_bit_for_bit``, the one test
  of ``day_refine``;
- what a schedule accepts and keeps (24 finite hours, read-only rows,
  signed zeros, copies of its own), and ``day_sum`` against ``np.sum``;
- ``optimize_day`` pinned on fixed days (``PINNED``) on the kernels, and
  on one of them with the oracles in the kernels' place."""

import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (_day_hours, daily_baseline, day_refine, day_score,
                       day_sum, emissions_total, fixed_om, fuel_cost,
                       initial_capital, metrics_ref, metrics_repg,
                       use_the_oracles, variable_om)

from offgridopt import kernels
from offgridopt.config import build_config, build_context
from offgridopt.devices import battery_power_limit, battery_step
from offgridopt.dispatch import (CONSTRAINT_TOL, DispatchEvaluation,
                                 DispatchSchedule, day_context, day_trace,
                                 evaluate_schedule, optimize_day,
                                 rule_based_schedule)
from offgridopt.economics import ObjectiveVector, Weights
from offgridopt.errors import InputDataError
from offgridopt.kernels import DayEvaluation, DayInputs, DayTotals
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

    net = (ctx.res_dc + converter.eta_rec * p_dg + p_bs
           - ctx.sim.hourly_inputs[1])
    dump = np.maximum(net, 0.0)
    lost = np.maximum(-net, 0.0) * converter.eta_inv

    online = p_dg > CONSTRAINT_TOL
    on_hours = int(online.sum())
    energy = float(p_dg.sum())
    starts = int(np.count_nonzero(online[1:] & ~online[:-1])) + int(online[0])
    stops = int(np.count_nonzero(~online[1:] & online[:-1])) + int(online[-1])

    design, sim = ctx.design, ctx.sim
    capital = initial_capital(
        design.pv_kw(sim.pv), design.wt_kw(sim.wind), design.e_b_init,
        gen.rated_power, costs)
    c_daily = (fuel_cost(gen, energy, on_hours)
               + variable_om(gen, costs, on_hours, energy)
               + costs.startup_cost * starts + costs.shutdown_cost * stops
               + fixed_om(capital, costs) / 365.0)

    load_kwh = ctx.sim.load.total_kwh
    coe = c_daily / load_kwh
    coe_base, em_base = daily_baseline(sim.baseline_generator, costs, load_kwh)
    emissions = emissions_total(energy, gen)
    gen_dc = float(ctx.res_dc.sum()) + converter.eta_rec * energy
    dpsp = float(lost.sum()) / load_kwh
    repg = metrics_repg(float(dump.sum()), gen_dc)
    ref = metrics_ref(float(ctx.res_dc.sum()), gen_dc)

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
def test_day_kernels_equal_their_oracles_bit_for_bit(contexts, data):
    """One drawn day and schedule against every reference of the day's
    pass and score: random and rule-based schedules, signed zeros, all-zero
    days, diesel and microturbine days, random weights, infeasible
    schedules, days without a battery, and days whose DC-side generation
    ``res_kwh + eta_rec * E`` is zero, where REPG and REF are 0.

    - ``evaluate_schedule`` and ``day_trace`` against the numpy
      formulation: objectives, residuals, search value, ``summary5``,
      ``c_daily``, feasibility and the trace's rows;
    - ``kernels.day_hours`` against ``_day_hours``: the totals and the 73
      rows;
    - ``kernels.day_score`` against ``day_score``: the search value, with
      and without a record, and the record."""
    ctx, schedule = data.draw(scored_days(contexts, HOUR_DG | SIGNED_ZERO,
                                          HOUR_BS | SIGNED_ZERO))
    day = ctx.day_inputs
    family = data.draw(st.sampled_from(["drawn", "zero day", "no generation"]))
    if family == "zero day":
        schedule = DispatchSchedule(data.draw(ZERO_DAY), data.draw(ZERO_DAY))
    elif family == "no generation":
        # no generator output, and a record without feed-in: nothing is
        # generated (the day itself keeps its feed-in)
        schedule = DispatchSchedule(data.draw(ZERO_DAY), schedule.p_bs)
        day = DayInputs.from_buffer_copy(day)
        day.res_kwh = data.draw(SIGNED_ZERO)

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

    compiled_rows, twin_rows = np.empty(73), np.empty(73)
    compiled = kernels.day_hours(schedule._address, ctx.day_inputs,
                                 compiled_rows.ctypes.data)
    twin = _day_hours(ctx.day_inputs, schedule._rows, twin_rows)
    fields = [name for name, _ in DayTotals._fields_]
    assert [exact(getattr(compiled, name)) for name in fields] == \
        [exact(getattr(twin, name)) for name in fields]
    assert compiled_rows.tobytes() == twin_rows.tobytes()

    compiled, oracle = DayEvaluation(), DayEvaluation()
    value = kernels.day_score(schedule._address, day, compiled)
    assert bits(value) == bits(day_score(schedule._address, day, oracle))
    assert bits(value) == bits(kernels.day_score(schedule._address, day, None))
    assert bytes(compiled) == bytes(oracle)
    assert bits(compiled.search_value) == bits(value)


def at_and_beyond_the_bounds(day: DayInputs):
    """Setpoints of ``p_dg`` and of ``p_bs`` on the bounds of the day's
    search, between them and 3 kW beyond them (an OFF hour among them)."""
    p_rated = day.price.p_rated
    return ([0.0, day.p_min, day.p_min / 2, p_rated, p_rated + 3.0],
            [-day.p_lim, day.p_lim, -day.p_lim - 3.0, day.p_lim + 3.0])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compiled_day_refine_equals_the_oracle_bit_for_bit(contexts, data):
    """``day_refine`` runs the sweeps of the Python loop it replaced, bit
    for bit: the schedule's block after the call, the refined schedule's
    evaluation and the number of schedules scored, on ON and OFF patterns
    (all-off days among them), from setpoints at and beyond their bounds,
    on days with and without a battery (``p_lim`` 0), in the five
    configurations."""
    ctx, schedule = data.draw(scored_days(contexts))
    day = ctx.day_inputs
    p_dg, p_bs = schedule.p_dg.copy(), schedule.p_bs.copy()
    if data.draw(st.booleans()):
        p_dg[:] = 0.0
    dg_bounds, bs_bounds = at_and_beyond_the_bounds(day)
    for t in data.draw(st.lists(st.integers(0, 23), max_size=4)):
        p_dg[t] = data.draw(st.sampled_from(dg_bounds))
        p_bs[t] = data.draw(st.sampled_from(bs_bounds))
    compiled, oracle = DispatchSchedule(p_dg, p_bs), DispatchSchedule(p_dg, p_bs)
    compiled_ev, oracle_ev = DispatchEvaluation(), DispatchEvaluation()
    scored = kernels.day_refine(compiled._address, day, compiled_ev)
    assert scored == day_refine(oracle._address, day, oracle_ev)
    assert compiled._rows.tobytes() == oracle._rows.tobytes()
    assert bytes(compiled_ev) == bytes(oracle_ev)


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
    assert bytes(evaluate_schedule(schedule, ctx)) == bytes(scored)


def test_a_copied_schedule_has_a_block_of_its_own(contexts):
    ctx = day_context(contexts["LI-DE"], Design(100, 8, 45.45), 51, W4)
    schedule = rule_based_schedule(ctx)
    for twin in (copy.copy(schedule), copy.deepcopy(schedule),
                 pickle.loads(pickle.dumps(schedule))):
        assert twin._address != schedule._address
        assert (bytes(evaluate_schedule(twin, ctx))
                == bytes(evaluate_schedule(schedule, ctx)))
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

# weighted.hex(), feasible, the SHA-256 of p_dg.tobytes() + p_bs.tobytes()
# and the number of schedules optimize_day scores on design 100,8,45.45 at
# run seed 42, as the dispatch command runs it.  The count (one per
# candidate, one at the start and one at the end of each pattern refined,
# and one for the rule-based schedule) holds the search to the candidates
# it scores: the calls of day_score, plus the schedules day_refine reports
# having scored.
PINNED = {
    ("LI-DE", 0): ("0x1.3f27e4c384852p-4", True,
                   "440b2a855a5c0a33809893b1bb917df62b81911b7468cdee4ac8ab95a5ff52c4",
                   4157),
    ("LI-DE", 51): ("0x1.08bed63441d98p-2", True,
                    "1290905ef298e88f1a55497adea9547c972b32965f8ce0181e5bbdc4e575ee63",
                    12209),
    ("LI-DE", 150): ("0x1.ebe15e5ce23f5p-5", True,
                     "525f19bd939fb00d27cf02708660f919a345d804cf18eb7b6c1bd95ef0e9e9f6",
                     6569),
    ("LI-DE", 300): ("0x1.bb2b34460a282p-4", True,
                     "59dc56ec500b5a7f600d9c86c6c8468f2a07f90a11a40d6a4dac1ee5f8e5712c",
                     2813),
    ("LA-MT-no-charge", 0): (
        "0x1.4eaae0358bbc8p-2", True,
        "c9722b20031bbd1fad1f8c3bc3de66b25ac73169552fa3cd1b31aab7fec66f22",
        27305),
    ("LA-MT-no-charge", 51): (
        "0x1.af10ab01c4262p-2", True,
        "479761ec680df9f29f3d0302802c026b95591a9c976647066c03140b7366d9bb",
        29757),
    ("LA-MT-no-charge", 150): (
        "0x1.05a29f5d712e0p-2", True,
        "23e2cf30aeb26cdaff14545c31844cb5b034dc3fec148734fa5c779ffa2f914b",
        15337),
    ("LA-MT-no-charge", 300): (
        "0x1.0560ed880bd30p-2", True,
        "c4c298892f2f55040e53faf3a27509ace6611c76e09c4e1d6997f7b974208fa2",
        2813),
}


def pinned_result(contexts, monkeypatch, variant, day):
    """The pinned numbers of a day, counting the schedules scored in
    place through the module attributes the package calls the day kernels
    by: each call of ``day_score`` and the count each ``day_refine``
    returns."""
    scored, score, refine = [], kernels.day_score, kernels.day_refine

    def counted_score(*args):
        scored.append(1)
        return score(*args)

    def counted_refine(*args):
        scored.append(refine(*args))
        return scored[-1]

    monkeypatch.setattr(kernels, "day_score", counted_score)
    monkeypatch.setattr(kernels, "day_refine", counted_refine)
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
            sum(scored))


@pytest.mark.parametrize("variant, day", sorted(PINNED))
def test_optimize_day_is_pinned(contexts, monkeypatch, variant, day):
    assert pinned_result(contexts, monkeypatch, variant, day) == PINNED[variant, day]


@pytest.mark.parametrize("variant, day", [("LI-DE", 0)])
def test_optimize_day_is_pinned_on_the_python_fallback(contexts, monkeypatch,
                                                       variant, day):
    """The same numbers with the oracles in the kernels' place, on one
    day: the oracles compose as the package calls the kernels."""
    use_the_oracles(monkeypatch)
    assert pinned_result(contexts, monkeypatch, variant, day) == PINNED[variant, day]
