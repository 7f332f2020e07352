import numpy as np
import pytest

from offgridopt.datasets import (RAW_WIND_MEAN, WIND_CORRECTION_FACTOR,
                                 load_bundled_climate,
                                 load_bundled_daily_load,
                                 reference_daily_load,
                                 synthesize_timbila_climate)
from offgridopt.timeseries import generate_annual_load, scale_wind


def test_daily_profile_summary_statistics():
    daily = reference_daily_load()
    assert daily.peak_kw == pytest.approx(12.52, abs=1e-6)
    assert daily.demand.min() == pytest.approx(3.21, abs=1e-6)
    assert daily.demand.mean() == pytest.approx(8.48, abs=1e-3)
    assert len(daily) == 24


def test_bundled_daily_load_matches_generator():
    shipped = load_bundled_daily_load()
    generated = reference_daily_load()
    np.testing.assert_allclose(shipped.demand, generated.demand, atol=1e-4)


def test_bundled_climate_matches_generator():
    shipped = load_bundled_climate()
    generated = synthesize_timbila_climate()
    assert len(shipped) == 8760
    np.testing.assert_allclose(shipped.irradiance, generated.irradiance, atol=1e-4)
    np.testing.assert_allclose(shipped.wind_speed_ref, generated.wind_speed_ref,
                               atol=1e-4)
    np.testing.assert_allclose(shipped.temp_ambient, generated.temp_ambient,
                               atol=1e-4)


def test_bundled_climate_statistics():
    raw = load_bundled_climate()
    assert raw.wind_speed_ref.mean() == pytest.approx(RAW_WIND_MEAN, abs=1e-3)
    corrected = scale_wind(raw, WIND_CORRECTION_FACTOR)
    assert corrected.wind_speed_ref.mean() == pytest.approx(
        RAW_WIND_MEAN * WIND_CORRECTION_FACTOR, abs=1e-2)
    daily_ghi = raw.irradiance.sum() / 365.0
    assert 4.5 <= daily_ghi <= 6.5
    assert not np.isnan([raw.irradiance, raw.wind_speed_ref,
                         raw.temp_ambient]).any()


def test_bundled_annual_load_is_seeded():
    daily = load_bundled_daily_load()
    a = generate_annual_load(daily, 0.2, seed=5)
    b = generate_annual_load(daily, 0.2, seed=5)
    c = generate_annual_load(daily, 0.2, seed=6)
    np.testing.assert_array_equal(a.demand, b.demand)
    assert not np.array_equal(a.demand, c.demand)
    assert len(a) == 8760


def test_synthesizer_is_deterministic():
    a = synthesize_timbila_climate()
    b = synthesize_timbila_climate()
    np.testing.assert_array_equal(a.wind_speed_ref, b.wind_speed_ref)
