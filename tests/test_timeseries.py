import math

import numpy as np
import pytest

from offgridopt.errors import InputDataError, ParseError, SchemaError
from offgridopt.timeseries import (ClimateSeries, LoadSeries,
                                   flatten_load, generate_annual_load,
                                   make_peaky_load, read_climate_csv,
                                   read_load_csv, scale_wind,
                                   write_climate_csv, write_load_csv)


def climate(irr, wind, temp=None, ref_height=1.0):
    irr = np.asarray(irr, dtype=float)
    if temp is None:
        temp = np.full_like(irr, 25.0)
    return ClimateSeries(irr, np.asarray(wind, dtype=float), temp, ref_height)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def test_read_climate_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    original = climate(rng.uniform(0, 1, 48), rng.uniform(0, 10, 48),
                       rng.uniform(15, 35, 48))
    path = tmp_path / "climate.csv"
    write_climate_csv(path, original)
    loaded = read_climate_csv(path)
    assert len(loaded) == 48
    np.testing.assert_allclose(loaded.irradiance, original.irradiance, atol=1e-4)
    np.testing.assert_allclose(loaded.wind_speed_ref, original.wind_speed_ref, atol=1e-4)


def test_read_climate_csv_accepts_daily_slice(tmp_path):
    path = tmp_path / "day.csv"
    write_climate_csv(path, climate(np.zeros(24), np.ones(24)))
    assert len(read_climate_csv(path)) == 24


def test_read_climate_csv_reports_bad_cell_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,ghi_kw_m2,wind_ms,temp_c\n"
                    "2018-01-01T00:00,0.1,2.0,25\n"
                    "2018-01-01T01:00,0.1,oops,25\n")
    with pytest.raises(ParseError) as err:
        read_climate_csv(path)
    assert "line 3" in str(err.value)
    assert "wind_ms" in str(err.value)


def test_read_climate_csv_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("timestamp,ghi_kw_m2,wind_ms,temp_c\n"
                    "2018-01-01T00:00,0.1,2.0\n")
    with pytest.raises(SchemaError):
        read_climate_csv(path)


def test_read_climate_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,ghi,wind,temp\n")
    with pytest.raises(SchemaError):
        read_climate_csv(path)


def test_read_climate_csv_keeps_missing_cells_as_nan(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("timestamp,ghi_kw_m2,wind_ms,temp_c\n"
                    "2018-01-01T00:00,0.1,,25\n"
                    "2018-01-01T01:00,0.2,3.0,26\n")
    series = read_climate_csv(path)
    assert math.isnan(series.wind_speed_ref[0])
    assert series.wind_speed_ref[1] == 3.0


def test_read_load_csv_roundtrip(tmp_path):
    path = tmp_path / "load.csv"
    write_load_csv(path, LoadSeries(np.linspace(3, 12, 24)))
    loaded = read_load_csv(path)
    assert len(loaded) == 24
    assert loaded.demand[0] == pytest.approx(3.0, abs=1e-4)


@pytest.mark.parametrize("hours, message", [
    (["0", "1", "2.5"], "line 4: non-integer hour '2.5'"),
    (["0", "1", "1"], "line 4: expected hour 2, got 1"),
    (["0", "2", "1"], "line 3: expected hour 1, got 2"),
], ids=["non-integer", "repeated", "out-of-order"])
def test_read_load_csv_requires_the_hours_in_order(tmp_path, hours, message):
    path = tmp_path / "load.csv"
    path.write_text("hour,load_kw\n" + "".join(f"{h},5\n" for h in hours))
    with pytest.raises(ParseError) as exc:
        read_load_csv(path)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Wind correction
# ---------------------------------------------------------------------------

def test_scale_wind_matches_station_calibration():
    rng = np.random.default_rng(1)
    wind = rng.uniform(0, 2, 8760)
    wind *= 0.86 / wind.mean()
    scaled = scale_wind(climate(np.zeros(8760), wind), 3.70)
    assert scaled.wind_speed_ref.mean() == pytest.approx(3.182, abs=1e-3)


def test_scale_wind_identity_and_multiply():
    series = climate([0, 0, 0], [1.0, 2.0, 3.0])
    same = scale_wind(series, 1.0)
    np.testing.assert_array_equal(same.wind_speed_ref, [1, 2, 3])
    doubled = scale_wind(series, 2.0)
    np.testing.assert_array_equal(doubled.wind_speed_ref, [2, 4, 6])
    np.testing.assert_array_equal(doubled.irradiance, series.irradiance)


def test_scale_wind_rejects_nonpositive_factor():
    with pytest.raises(InputDataError):
        scale_wind(climate([0], [1.0]), 0.0)


# ---------------------------------------------------------------------------
# Load synthesis
# ---------------------------------------------------------------------------

def daily_profile():
    return LoadSeries(5.0 + 3.0 * np.sin(np.linspace(0, 2 * np.pi, 24)) ** 2)


def test_generate_annual_load_zero_variation_tiles_daily():
    daily = daily_profile()
    annual = generate_annual_load(daily, 0.0, seed=1)
    assert len(annual) == 8760
    np.testing.assert_allclose(annual.demand.reshape(365, 24),
                               np.tile(daily.demand, (365, 1)))


def test_generate_annual_load_first_day_is_exact_and_bounded():
    daily = daily_profile()
    annual = generate_annual_load(daily, 0.2, seed=7)
    np.testing.assert_array_equal(annual.demand[:24], daily.demand)
    ratio = annual.demand.reshape(365, 24) / daily.demand[None, :]
    assert ratio.min() >= 0.8 - 1e-12
    assert ratio.max() <= 1.2 + 1e-12


def test_generate_annual_load_preserves_daily_shape():
    daily = daily_profile()
    annual = generate_annual_load(daily, 0.2, seed=7)
    days = annual.demand.reshape(365, 24)
    ratios = days / daily.demand[None, :]
    assert np.allclose(ratios, ratios[:, :1])  # one factor per day


def test_generate_annual_load_is_deterministic():
    daily = daily_profile()
    a = generate_annual_load(daily, 0.2, seed=3)
    b = generate_annual_load(daily, 0.2, seed=3)
    np.testing.assert_array_equal(a.demand, b.demand)


def test_generate_annual_load_rejects_bad_variation():
    with pytest.raises(InputDataError):
        generate_annual_load(daily_profile(), 1.0, seed=0)


def test_make_peaky_load_bounds_and_determinism():
    base = daily_profile()
    assert np.array_equal(make_peaky_load(base, 0.0, 1).demand, base.demand)
    peaky = make_peaky_load(base, 0.3, seed=5)
    ratio = peaky.demand / base.demand
    assert ratio.min() >= 0.7 - 1e-12 and ratio.max() <= 1.3 + 1e-12
    again = make_peaky_load(base, 0.3, seed=5)
    np.testing.assert_array_equal(peaky.demand, again.demand)
    with pytest.raises(InputDataError):
        make_peaky_load(base, 1.2, seed=0)


def test_flatten_load_conserves_energy():
    base = daily_profile()
    res = np.maximum(np.sin(np.linspace(0, np.pi, 24)), 0)
    flat = flatten_load(base, res, 0.0)
    assert flat.total_kwh == pytest.approx(base.total_kwh, rel=1e-3)


def test_flatten_load_curtailment_scales_total():
    base = daily_profile()
    res = np.maximum(np.sin(np.linspace(0, np.pi, 24)), 0)
    flat = flatten_load(base, res, 0.10)
    assert flat.total_kwh == pytest.approx(0.9 * base.total_kwh, rel=1e-3)


def test_flatten_load_constant_profile_is_fixed_point():
    base = LoadSeries(np.full(24, 6.0))
    flat = flatten_load(base, np.full(24, 2.0), 0.0)
    np.testing.assert_allclose(flat.demand, base.demand, rtol=1e-9)


def test_flatten_load_random_inputs_conserve_energy():
    rng = np.random.default_rng(11)
    for _ in range(25):
        base = LoadSeries(rng.uniform(1, 10, 24))
        res = rng.uniform(0, 5, 24)
        flat = flatten_load(base, res, 0.0)
        assert flat.total_kwh == pytest.approx(base.total_kwh, rel=1e-3)
