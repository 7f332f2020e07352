import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offgridopt import economics
from offgridopt.config import build_config, build_context
from offgridopt.devices import GeneratorSpec, microturbine_spec
from offgridopt.dispatch import (day_context, evaluate_schedule, optimize_day,
                                 rule_based_schedule)
from offgridopt.economics import (CostTable, FinancialParams, ObjectiveVector,
                                  Weights, adjusted_rate, annual_recurring,
                                  baseline_metrics, break_even_distance, crf,
                                  emission_factor_sum, emissions_total,
                                  fixed_om, initial_capital,
                                  lcoe, metrics_dpsp, metrics_ref,
                                  metrics_repg, pw_nonrecurring, pw_recurring,
                                  real_rate, weighted_objective)
from offgridopt.errors import InfeasibleBaselineError, InputDataError
from offgridopt.simulate import Design, simulate_year

FIN = FinancialParams()  # i = 9 %, f = 5.7 %, 25 years
EQUAL = Weights((0.2,) * 5)


# ---------------------------------------------------------------------------
# Discounting
# ---------------------------------------------------------------------------

def test_real_rate_default_and_limits():
    assert real_rate(FIN) == pytest.approx((0.09 - 0.057) / 1.057, rel=1e-12)
    assert real_rate(FIN) == pytest.approx(0.031221, abs=1e-6)
    assert real_rate(FinancialParams(nominal_rate=0.05, inflation=0.05)) == 0.0
    assert real_rate(FinancialParams(nominal_rate=0.03, inflation=0.057)) < 0.0


def test_crf_reference_and_limits():
    assert crf(real_rate(FIN), 25) == pytest.approx(0.0582, abs=1e-4)
    assert crf(0.0, 25) == pytest.approx(1.0 / 25.0)
    assert crf(0.1, 1) == pytest.approx(1.1)
    with pytest.raises(InputDataError):
        crf(-1.5, 10)


def brute_force_pw(cost, i, f, years):
    # independent oracle: explicit year-by-year discounted sum
    return sum(cost * ((1 + f) / (1 + i)) ** k for k in range(1, years + 1))


def test_pw_recurring_matches_explicit_sum():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        i = rng.uniform(-0.05, 0.5)
        f = rng.uniform(-0.05, 0.5)
        fin = FinancialParams(nominal_rate=i, inflation=f)
        got = pw_recurring(1234.5, fin)
        want = brute_force_pw(1234.5, i, f, 25)
        assert got == pytest.approx(want, rel=1e-6)


def test_pw_recurring_equal_rates_limit():
    fin = FinancialParams(nominal_rate=0.07, inflation=0.07)
    assert pw_recurring(1000.0, fin) == pytest.approx(25000.0)
    assert pw_recurring(0.0, FIN) == 0.0


def test_adjusted_rate_values():
    assert adjusted_rate(FIN, 1.0) == pytest.approx(0.09)
    # independent evaluation by repeated multiplication
    num = 1.0
    for _ in range(10):
        num *= 1.09
    den = 1.0
    for _ in range(9):
        den *= 1.057
    assert adjusted_rate(FIN, 10.0) == pytest.approx(num / den - 1.0, rel=1e-12)
    assert adjusted_rate(FIN, 10.0) == pytest.approx(0.437441, abs=1e-6)
    zero = FinancialParams(nominal_rate=0.0, inflation=0.0)
    assert adjusted_rate(zero, 5.0) == pytest.approx(0.0)


def test_pw_nonrecurring_zero_and_limits():
    assert pw_nonrecurring(0.0, FIN, 10.0) == 0.0
    assert pw_nonrecurring(5000.0, FIN, math.inf) == 0.0
    same = FinancialParams(nominal_rate=0.06, inflation=0.06)
    assert pw_nonrecurring(100.0, same, 4.0) == pytest.approx(2500.0)


def test_pw_nonrecurring_against_explicit_schedule_strong_discounting():
    # explicit oracle: one payment at each replacement year L, 2L, ... <= T,
    # escalated with inflation and discounted at the nominal rate.  The
    # closed form annualizes the stream, so agreement requires the tail
    # beyond the horizon to be strongly discounted.
    fin = FinancialParams(nominal_rate=0.20, inflation=0.02)
    L, cost = 3.0, 10000.0
    x = (1 + fin.inflation) / (1 + fin.nominal_rate)
    explicit = sum(cost * x ** (L * k)
                   for k in range(1, int(fin.system_lifetime / L) + 1))
    closed = pw_nonrecurring(cost, fin, L)
    assert closed == pytest.approx(explicit, rel=0.10)


# ---------------------------------------------------------------------------
# Cost aggregation
# ---------------------------------------------------------------------------

def test_initial_capital_zero_system():
    cap = initial_capital(0, 0, 0, 0, CostTable(), include_converter=False)
    assert cap.total == 0.0


def test_initial_capital_reference_system():
    # 15 modules (3.825 kW), 4 turbines (14 kW), 106.53 kWh, 16 kW DG
    cap = initial_capital(3.825, 14.0, 106.53, 16.0, CostTable())
    assert cap.pv == pytest.approx(1210 * 3.825)
    assert cap.wt == pytest.approx(1500 * 14.0)
    assert cap.bs == pytest.approx(300 * 106.53)
    assert cap.dg == pytest.approx(781.25 * 16.0)
    assert cap.converter == pytest.approx(2800.0)
    assert cap.total == pytest.approx(72887.25, abs=0.01)


def test_initial_capital_affine_in_capacities():
    costs = CostTable()
    one = initial_capital(2.0, 7.0, 50.0, 16.0, costs)
    two = initial_capital(4.0, 14.0, 100.0, 32.0, costs)
    assert two.total == pytest.approx(2 * one.total - costs.converter_capital)


def test_annual_recurring_offline_generator_is_fixed_om_only():
    costs = CostTable()
    gen = GeneratorSpec(rated_power=16.0)
    cap = initial_capital(3.825, 14.0, 106.53, 16.0, costs)
    c = annual_recurring(cap, gen, costs, dg_energy_kwh=0.0,
                         dg_online_hours=0, dg_starts=0)
    assert c == pytest.approx(fixed_om(cap, costs))


def test_annual_recurring_counts_fuel_om_and_switching():
    costs = CostTable()
    gen = GeneratorSpec(rated_power=16.0)
    cap = initial_capital(0.0, 0.0, 0.0, 16.0, costs, include_converter=False)
    c = annual_recurring(cap, gen, costs, dg_energy_kwh=100.0,
                         dg_online_hours=10, dg_starts=2)
    fuel = 3.20 * (0.246 * 100.0 + 0.08145 * 16.0 * 10) / 3.78541
    expected = (0.02 * cap.dg + 0.24 * 10 + fuel + 2 * 0.45 + 2 * 0.23)
    assert c == pytest.approx(expected, rel=1e-12)


def test_lcoe_reference_value_and_scaling():
    crf_value = 0.0582
    tnpc = 17097.0 / crf_value
    assert lcoe(tnpc, crf_value, 74251.0) == pytest.approx(0.2303, abs=1e-4)
    assert lcoe(0.0, crf_value, 74251.0) == 0.0
    assert lcoe(tnpc, crf_value, 2 * 74251.0) == pytest.approx(0.2303 / 2, abs=1e-4)
    with pytest.raises(InputDataError):
        lcoe(tnpc, crf_value, 0.0)


# ---------------------------------------------------------------------------
# Emissions
# ---------------------------------------------------------------------------

def test_emission_factors_cannot_change_after_construction():
    """The generator keeps a read-only copy of its factors, so the sum it
    derives once cannot go stale, also after a pickle round trip."""
    factors = dict(GeneratorSpec().emission_factors)
    gen = GeneratorSpec(emission_factors=factors)
    total = gen.emission_factor_total
    factors["CO2"] = 10.0
    for spec in (gen, pickle.loads(pickle.dumps(gen))):
        with pytest.raises(TypeError):
            spec.emission_factors["CO2"] = 10.0
        assert spec == gen
        assert spec.emission_factor_total == total == emission_factor_sum(spec)
        assert emissions_total(3.0, spec) == total * 3.0


def test_emission_factor_sums():
    de = emission_factor_sum(GeneratorSpec())
    mt = emission_factor_sum(microturbine_spec())
    # exact species sums, and the published rounded totals
    assert de == pytest.approx(0.677510, abs=1e-9)
    assert mt == pytest.approx(0.655483, abs=1e-9)
    assert de == pytest.approx(0.6774, abs=2e-4)
    assert mt == pytest.approx(0.6555, abs=2e-4)


def test_emissions_total_linear():
    gen = GeneratorSpec()
    assert emissions_total(0.0, gen) == 0.0
    assert emissions_total(1000.0, gen) == pytest.approx(677.51, rel=1e-9)
    assert emissions_total(2000.0, gen) == pytest.approx(2 * emissions_total(1000.0, gen))


# ---------------------------------------------------------------------------
# Reliability metrics and scalarization
# ---------------------------------------------------------------------------

def test_metrics_definitions():
    assert metrics_dpsp(0.0, 100.0) == 0.0
    assert metrics_ref(0.0, 50.0) == 0.0           # all generation fossil
    assert metrics_repg(1.0, 10.0) == pytest.approx(0.1)
    assert metrics_repg(0.0, 0.0) == 0.0
    assert metrics_ref(0.0, 0.0) == 0.0
    with pytest.raises(InputDataError):
        metrics_dpsp(1.0, 0.0)


def test_weighted_objective_reference_row():
    obj = ObjectiveVector(0.4645, 0.0537, 0.0, 0.1252, 0.0399)
    assert weighted_objective(obj, EQUAL) == pytest.approx(0.1367, abs=1e-4)
    zeros = ObjectiveVector(0, 0, 0, 0, 0)
    assert weighted_objective(zeros, EQUAL) == 0.0
    selector = Weights((1.0, 0.0, 0.0, 0.0, 0.0))
    assert weighted_objective(obj, selector) == pytest.approx(0.4645)


def test_weighted_objective_monotone_in_components():
    w = EQUAL
    base = ObjectiveVector(0.4, 0.1, 0.0, 0.2, 0.1)
    bumped = ObjectiveVector(0.4, 0.1, 0.05, 0.2, 0.1)
    assert weighted_objective(bumped, w) > weighted_objective(base, w)


def stated_order(values, weights) -> float:
    """The stated weighting with exact arithmetic: each product, then each
    partial sum from 0.0, left to right, rounded to nearest on its own."""
    total = 0.0
    for w, v in zip(weights, values):
        product = float(Fraction(w) * Fraction(v))
        total = float(Fraction(total) + Fraction(product))
    return total


def fused_chain(values, weights) -> float:
    """The same chain with each product added exactly, a fused multiply-add
    per term, as a BLAS dot kernel may compute it."""
    total = 0.0
    for w, v in zip(weights, values):
        total = float(Fraction(total) + Fraction(w) * Fraction(v))
    return total


@st.composite
def weighted_rows(draw):
    """Random 4- or 5-vectors (an ``ObjectiveVector`` for 5) and weights."""
    n = draw(st.sampled_from([4, 5]))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
               .filter(lambda r: sum(r) > 0))
    total = sum(raw)
    weights = Weights(tuple(r / total for r in raw))
    values = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    return (ObjectiveVector(*values) if n == 5 else tuple(values)), weights


@given(weighted_rows())
def test_weighted_objective_is_the_stated_order_bit_for_bit(row):
    values, weights = row
    got = weighted_objective(values, weights)
    assert type(got) is float
    assert got.hex() == stated_order(values, weights.values).hex()


def test_weighted_objective_rounds_each_product_on_its_own():
    """A row on which the fused chain (0.18) and the stated order differ."""
    obj = ObjectiveVector(0.5, 0.1, 0.1, 0.1, 0.1)
    assert fused_chain(obj, EQUAL.values) == 0.18
    assert stated_order(obj, EQUAL.values) == 0.18000000000000005
    assert weighted_objective(obj, EQUAL) == 0.18000000000000005


def test_dispatch_weights_through_weighted_objective(annual_ctx):
    """Under unequal weights, a scored schedule's ``weighted`` is
    ``weighted_objective`` of its four objectives, bit for bit."""
    w = Weights((0.3, 0.1, 0.35, 0.25))
    for day in (10, 100, 200, 300):
        ctx = day_context(annual_ctx, Design(100, 8, 45.45), day, w)
        for s in (rule_based_schedule(ctx),
                  optimize_day(ctx, max_patterns=8).schedule):
            ev = evaluate_schedule(s, ctx)
            o = ev.objectives
            four = (o.lcoe_norm, o.em_norm, o.repg, o.one_minus_ref)
            assert ev.weighted.hex() == weighted_objective(four, w).hex()
            assert ev.weighted.hex() == stated_order(four, w.values).hex()


def test_weights_validation():
    with pytest.raises(InputDataError):
        Weights((0.5, 0.5, 0.5, 0.0, 0.0))
    with pytest.raises(InputDataError):
        Weights((0.5, 0.6, -0.1, 0.0, 0.0))
    with pytest.raises(InputDataError):
        weighted_objective(ObjectiveVector(0, 0, 0, 0, 0), Weights((0.5, 0.5)))


SPEC_FIELDS = ([(CostTable, f.name) for f in dataclasses.fields(CostTable)]
               + [(GeneratorSpec, f.name) for f in dataclasses.fields(GeneratorSpec)
                  if f.name != "kind"])


@pytest.mark.parametrize("spec, name", SPEC_FIELDS,
                         ids=[f"{spec.__name__}.{name}" for spec, name in SPEC_FIELDS])
def test_a_nan_spec_field_is_an_input_error(spec, name):
    """A NaN fails every ordered compare, so each check is written to fail
    on it; a NaN fuel price once scored a day feasible with weighted NaN."""
    nan = float("nan")
    value = {"CO2": nan} if name == "emission_factors" else nan
    with pytest.raises(InputDataError):
        spec(**{name: value})


# ---------------------------------------------------------------------------
# Generator-only baseline
# ---------------------------------------------------------------------------

def test_baseline_reference_lcoe(annual_ctx):
    base = baseline_metrics(annual_ctx.load, GeneratorSpec(rated_power=16.0),
                            CostTable(), FIN)
    assert base.lcoe == pytest.approx(0.4968, rel=0.10)
    assert base.emissions == pytest.approx(
        emission_factor_sum(GeneratorSpec()) * annual_ctx.load.total_kwh, rel=1e-12)


def test_baseline_microturbine_emits_less_per_kwh(annual_ctx):
    de = baseline_metrics(annual_ctx.load, GeneratorSpec(rated_power=16.0),
                          CostTable(), FIN)
    mt = baseline_metrics(annual_ctx.load, microturbine_spec(rated_power=16.0),
                          economics.microturbine_costs(), FIN)
    energy = annual_ctx.load.total_kwh
    assert mt.emissions / energy < de.emissions / energy


def test_baseline_rejects_undersized_generator(annual_ctx):
    with pytest.raises(InfeasibleBaselineError):
        baseline_metrics(annual_ctx.load, GeneratorSpec(rated_power=8.0),
                         CostTable(), FIN)


# a generator that costs nothing to run: no fuel bill, O&M or switching cost
FREE_TO_RUN = dict(om_fix_dg=0.0, om_var_dg_per_hour=0.0,
                   om_var_dg_per_kwh=0.0, startup_cost=0.0, shutdown_cost=0.0)


@pytest.mark.parametrize("gen, costs, name", [
    (GeneratorSpec(fuel_price=0.0),
     CostTable(dg_capital_per_kw=0.0, **FREE_TO_RUN), "LCOE"),
    (microturbine_spec(fuel_price=0.0),
     economics.microturbine_costs(dg_capital_per_kw=0.0, **FREE_TO_RUN),
     "LCOE"),
    (GeneratorSpec(emission_factors={}), CostTable(), "emissions")])
def test_baseline_rejects_a_zero_cost_or_emissions(annual_ctx, gen, costs,
                                                   name):
    """The objectives divide by both; a zero one raised ZeroDivisionError
    in the first evaluation."""
    with pytest.raises(InfeasibleBaselineError,
                       match=f"annual baseline {name} is 0.0, not > 0"):
        baseline_metrics(annual_ctx.load, gen, costs, FIN)


# baseline (lcoe, emissions) and the tnpc, tac and lcoe of design 100,8,45.45
# at run seed 42, as float.hex(); the annual and the baseline lifecycle
# costs are one computation, which must keep these bits.
LIFECYCLE_PINS = {
    "default": ({}, ("0x1.fd6391a834dccp-2", "0x1.8748c8040bd8ap+15",
                     "0x1.fdfaf33c5707ap+17", "0x1.dafd090bc0c43p+13",
                     "0x1.a5175f570a86fp-3")),
    "LA-MT": ({"battery": {"chemistry": "LA"}, "generator": {"kind": "MT"}},
              ("0x1.5de3d7e72ad13p-2", "0x1.7a901fcce8813p+15",
               "0x1.7587cfea58346p+18", "0x1.5be6aac976c36p+14",
               "0x1.346cb10f6f4eep-2")),
    "fixed-replacement": (
        {"strategy": {"battery_replacement": "fixed", "replacement_years": 10}},
        ("0x1.fd6391a834dccp-2", "0x1.8748c8040bd8ap+15",
         "0x1.d53ba8b1cfd1cp+17", "0x1.b5097a69228aep+13",
         "0x1.83723e4942c49p-3")),
}


@pytest.mark.parametrize("name", sorted(LIFECYCLE_PINS))
def test_baseline_and_annual_lifecycle_cost_are_pinned(name):
    raw, pinned = LIFECYCLE_PINS[name]
    ctx = build_context(build_config(raw), seed=42)
    cost = simulate_year(Design(100, 8, 45.45), ctx).cost
    got = (ctx.baseline.lcoe, ctx.baseline.emissions, cost.tnpc, cost.tac,
           cost.lcoe)
    assert tuple(v.hex() for v in got) == pinned


# ---------------------------------------------------------------------------
# Break-even distance
# ---------------------------------------------------------------------------

def test_break_even_reference_case():
    bed = break_even_distance(17097.0, 0.0582, 74251.0, 0.125, 157470.0)
    assert bed == pytest.approx(0.853, abs=0.01)


def test_break_even_zero_and_scaling():
    assert break_even_distance(0.125 * 1000.0, 0.06, 1000.0, 0.125, 5000.0) == 0.0
    one = break_even_distance(20000.0, 0.0582, 74251.0, 0.125, 100000.0)
    half = break_even_distance(20000.0, 0.0582, 74251.0, 0.125, 200000.0)
    assert half == pytest.approx(one / 2.0)
