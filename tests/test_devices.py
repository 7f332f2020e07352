import numpy as np
import pytest
from reference import battery_capacity

from offgridopt.devices import (BatterySpec, GeneratorSpec, PvSpec, WindSpec,
                                battery_power_limit, battery_step,
                                hub_wind_speed, microturbine_spec,
                                pv_efficiency, pv_power,
                                wt_curve_coefficients, wt_power)
from offgridopt.economics import LITERS_PER_GALLON, fuel_cost
from offgridopt.errors import InputDataError


# ---------------------------------------------------------------------------
# PV
# ---------------------------------------------------------------------------

def test_pv_efficiency_reference_conditions():
    # zero irradiance at the reference temperature: both corrections vanish
    assert pv_efficiency(0.0, 25.0, PvSpec()) == pytest.approx(0.154)


def test_pv_efficiency_typical_operating_point():
    # 1 - 0.9*0.0045*(0.8/0.8)*25.7 - 0.0045*(20-25) = 0.918415
    eta = pv_efficiency(0.8, 20.0, PvSpec())
    assert eta == pytest.approx(0.154 * 0.918415, rel=1e-9)
    assert eta == pytest.approx(0.14144, abs=5e-5)


def test_pv_efficiency_clamps_at_zero():
    hot = PvSpec(beta=0.02)
    assert pv_efficiency(8.0, 90.0, hot) == 0.0


def test_pv_power_zero_cases():
    assert pv_power(10, 0.0, 25.0, PvSpec()) == 0.0
    assert pv_power(0, 0.9, 25.0, PvSpec()) == 0.0


def test_pv_power_chain_value():
    # 15 modules * 0.14143591 * 1.4602 m2 * 0.8 kW/m2
    p = pv_power(15, 0.8, 20.0, PvSpec())
    assert p == pytest.approx(15 * 0.154 * 0.918415 * 1.4602 * 0.8, rel=1e-9)
    assert p == pytest.approx(2.478, abs=1e-3)


def test_pv_power_linear_in_modules_and_irradiance():
    spec = PvSpec()
    p1 = pv_power(1, 0.5, 22.0, spec)
    assert pv_power(7, 0.5, 22.0, spec) == pytest.approx(7 * p1, rel=1e-12)
    # linear in irradiance at fixed temperature only while the temperature
    # correction is frozen; compare through the efficiency product instead
    eta = pv_efficiency(0.5, 22.0, spec)
    assert p1 == pytest.approx(eta * spec.collector_area * 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# Wind turbine
# ---------------------------------------------------------------------------

def test_hub_wind_speed_values():
    spec = WindSpec()
    assert hub_wind_speed(5.0, 14.5, spec) == pytest.approx(5.0)
    assert hub_wind_speed(0.0, 1.0, spec) == 0.0
    assert hub_wind_speed(3.19, 1.0, spec) == pytest.approx(3.19 * 14.5 ** 0.14, rel=1e-12)
    assert hub_wind_speed(3.19, 1.0, spec) == pytest.approx(4.639, abs=1e-3)


def test_wt_curve_coefficients_reference_values():
    a, b, c = wt_curve_coefficients(WindSpec())
    assert a == pytest.approx(0.12244, abs=1e-5)
    assert b == pytest.approx(-0.08590, abs=1e-5)
    assert c == pytest.approx(0.015062, abs=1e-6)


def test_wt_curve_boundary_conditions_random_specs():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        vc = rng.uniform(0.5, 6.0)
        vr = vc + rng.uniform(1.0, 12.0)
        vf = vr + rng.uniform(1.0, 15.0)
        spec = WindSpec(cut_in=vc, rated_speed=vr, cut_out=vf)
        a, b, c = wt_curve_coefficients(spec)
        assert abs(a + b * vc + c * vc * vc) < 1e-9
        assert abs(a + b * vr + c * vr * vr - 1.0) < 1e-9


def test_wt_printed_form_violates_boundaries():
    spec = WindSpec()
    a, b, c = wt_curve_coefficients(spec, printed_form=True)
    at_rated = a + b * spec.rated_speed + c * spec.rated_speed ** 2
    assert at_rated == pytest.approx(1.544, abs=1e-3)


def test_wt_power_piecewise_regions():
    spec = WindSpec()
    assert wt_power(4, 1.0, spec) == 0.0            # below cut-in
    assert wt_power(4, 15.0, spec) == pytest.approx(14.0)  # rated plateau
    assert wt_power(4, 25.0, spec) == 0.0           # beyond cut-out


def test_wt_power_continuity_random_specs():
    rng = np.random.default_rng(9)
    for _ in range(200):
        vc = rng.uniform(0.5, 6.0)
        vr = vc + rng.uniform(1.0, 12.0)
        vf = vr + rng.uniform(1.0, 15.0)
        spec = WindSpec(cut_in=vc, rated_speed=vr, cut_out=vf)
        below = wt_power(1, vc - 1e-12, spec)
        at_ci = wt_power(1, vc, spec)
        assert abs(at_ci - below) < 1e-9 * spec.rated_power + 1e-9
        at_rated = wt_power(1, vr, spec)
        assert abs(at_rated - spec.rated_power) < 1e-9


# ---------------------------------------------------------------------------
# Battery
# ---------------------------------------------------------------------------

def no_leak_battery(**kw):
    kw.setdefault("self_discharge_monthly", 0.0)
    return BatterySpec(**kw)


def test_battery_step_no_flow_no_leak():
    spec = no_leak_battery()
    assert battery_step(0.5, 0.0, 1.0, 100.0, spec) == pytest.approx(0.5)


def test_battery_step_discharge_value():
    spec = no_leak_battery()
    soc = battery_step(0.9, 3.68, 1.0, 100.0, spec)
    assert soc == pytest.approx(0.9 - 3.312 / 100.0, rel=1e-12)
    assert soc == pytest.approx(0.86688)


def test_battery_step_charge_sign_convention():
    spec = no_leak_battery()
    assert battery_step(0.5, -5.0, 1.0, 100.0, spec) == pytest.approx(0.545)


def test_battery_step_round_trip_is_soc_neutral_under_symmetric_efficiency():
    # the efficiency multiplies the energy moved in both directions, so a
    # charge followed by an equal discharge returns the SOC exactly
    spec = no_leak_battery()
    soc = battery_step(0.5, -5.0, 1.0, 100.0, spec)
    soc = battery_step(soc, 5.0, 1.0, 100.0, spec)
    assert soc == pytest.approx(0.5, abs=1e-15)


def test_battery_step_leak_rate_prorated_monthly():
    spec = BatterySpec()
    soc = battery_step(0.9, 0.0, 1.0, 100.0, spec)
    assert soc == pytest.approx(0.9 * (1 - 0.075 / 730.0), rel=1e-12)


def test_battery_capacity_fade_and_floor():
    spec = BatterySpec()
    assert battery_capacity(100.0, 0, spec) == 100.0
    assert battery_capacity(100.0, 1000, spec) == pytest.approx(94.5)
    assert battery_capacity(100.0, 100000, spec) == pytest.approx(70.0)


def test_battery_power_limit_modes():
    spec = BatterySpec()
    assert battery_power_limit(13.5, spec) == pytest.approx(3.68)
    assert battery_power_limit(27.0, spec) == pytest.approx(7.36)
    fixed = BatterySpec(fixed_power_limit=True)
    assert battery_power_limit(27.0, fixed) == pytest.approx(3.68)


# ---------------------------------------------------------------------------
# Backup generator fuel law (priced by economics.fuel_cost)
# ---------------------------------------------------------------------------

def de_fuel_liters(p_gen, hours=1.0, rated=16.0):
    """Diesel litres burned at constant output ``p_gen`` for ``hours``:
    the fuel bill at a price of one dollar per litre."""
    spec = GeneratorSpec(rated_power=rated, fuel_price=LITERS_PER_GALLON)
    return fuel_cost(spec, p_gen * hours, hours)


def test_de_fuel_liters_values():
    assert de_fuel_liters(16.0) == pytest.approx(5.2392)
    assert de_fuel_liters(4.8) == pytest.approx(0.246 * 4.8 + 0.08145 * 16)
    assert de_fuel_liters(4.8) == pytest.approx(2.484, abs=1e-4)
    assert de_fuel_liters(0.0, hours=0.0) == 0.0


def test_de_fuel_liters_affine_with_idle_intercept():
    # the b*P_rated term is paid for every online hour, whatever the output
    f0 = de_fuel_liters(0.0)
    assert f0 == pytest.approx(0.08145 * 16.0)
    assert de_fuel_liters(0.0, hours=3.0) == pytest.approx(3.0 * f0)
    for p in (2.0, 7.5, 13.0):
        assert de_fuel_liters(p) == pytest.approx(f0 + 0.246 * p, rel=1e-12)


def test_de_fuel_cost_per_gallon():
    spec = GeneratorSpec(rated_power=16.0, fuel_price=3.20)
    # 3.78541 L is one US gallon: a*E = 3.78541 L at E = 3.78541 / a kWh
    assert fuel_cost(spec, 3.78541 / 0.246, 0.0) == pytest.approx(3.20)
    assert fuel_cost(spec, 16.0, 1.0) == pytest.approx(4.429, abs=1e-3)
    assert fuel_cost(spec, 0.0, 0.0) == 0.0


def test_mt_fuel_consumption():
    # at a price of 1 $/MMBtu the fuel bill is the gas burned in MMBtu
    spec = microturbine_spec(rated_power=61.0, fuel_price=1.0)
    assert fuel_cost(spec, 61.0, 1.0) == pytest.approx(0.84)
    assert fuel_cost(spec, 0.0, 0.0) == 0.0
    spec16 = microturbine_spec(rated_power=16.0, fuel_price=1.0)
    assert fuel_cost(spec16, 16.0, 1.0) == pytest.approx(0.2203, abs=1e-4)
    # no standing term: online hours cost nothing without output
    assert fuel_cost(spec16, 0.0, 24.0) == 0.0


def test_device_outputs_nonnegative_random_inputs():
    rng = np.random.default_rng(13)
    pv, wt = PvSpec(), WindSpec()
    for _ in range(200):
        assert pv_power(rng.integers(0, 50), rng.uniform(0, 1.2),
                        rng.uniform(-5, 45), pv) >= 0.0
        assert wt_power(rng.integers(0, 20), rng.uniform(0, 30), wt) >= 0.0
