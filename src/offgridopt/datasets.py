"""Bundled reconstruction of the rural-Kenya case-study dataset.

The original station records are not redistributable, so the repository
ships a deterministic synthetic year built to reproduce the study system's
behavior under this package's physical component models: equatorial
irradiance around 6 kWh/m2/day, a nocturnal-jet wind regime productive
enough for wind to carry the system (station sensors under-read by the
usual factor, hence the 3.70 wind correction that ``config.load_dataset``
applies by default), a mild tropical temperature cycle, and a rural village
daily load profile with 12.52 kW evening peak, 3.21 kW night minimum and
8.48 kW mean.

``tools/build_bundled_data.py`` regenerates the CSVs under
``offgridopt/data`` from these functions; tests assert the shipped files
match.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .timeseries import (ClimateSeries, LoadSeries, read_climate_csv,
                         read_load_csv)

WIND_CORRECTION_FACTOR = 3.70
RAW_WIND_MEAN = 1.15            # station-level annual mean [m/s] at 1 m
CLIMATE_FILENAME = "timbila_climate_2018.csv"
LOAD_FILENAME = "village_daily_load.csv"
DATASET_SEED = 20180101


def reference_daily_load() -> LoadSeries:
    """Characteristic 24-h village profile: 3.21 kW night floor, morning and
    midday commercial activity, 12.52 kW evening peak, 8.48 kW mean."""
    lo, hi, mean_target = 3.21, 12.52, 8.48
    shape = np.array([
        0.12, 0.06, 0.02, 0.00, 0.04, 0.14,   # 0-5  night floor, pre-dawn
        0.34, 0.52, 0.68, 0.80, 0.90, 0.89,   # 6-11 daylight ramp, pumping
        0.86, 0.78, 0.70, 0.66, 0.68, 0.80,   # 12-17 afternoon shoulder
        0.95, 1.00, 0.98, 0.84, 0.55, 0.30,   # 18-23 evening peak, wind-down
    ])
    demand = lo + (hi - lo) * shape
    # rescale the interior hours so the mean lands exactly on target while
    # the fixed minimum (hour 3) and the peak (hour 19) stay put
    free = (shape > 0.0) & (shape < 1.0)
    need = mean_target * 24 - demand[~free].sum() - lo * free.sum()
    have = (demand[free] - lo).sum()
    demand[free] = lo + (demand[free] - lo) * (need / have)
    return LoadSeries(np.round(demand, 4))


def synthesize_timbila_climate(seed: int = DATASET_SEED) -> ClimateSeries:
    """Deterministic synthetic hourly climate year at 1 m reference height.

    Wind follows the East African channel-flow pattern: spread across the
    whole day with a nocturnal-jet tilt (strongest around 03:00, weakest
    mid-afternoon, so it complements the midday PV peak), a strong trade
    season around June-September, and multi-day lull episodes from the
    persistent day-to-day term.  The series is scaled so the raw annual mean
    equals RAW_WIND_MEAN before the 3.70 correction is applied downstream.
    """
    rng = np.random.default_rng(seed)
    days = np.arange(365)
    hours = np.arange(24)

    # --- irradiance ---------------------------------------------------
    # --- wind day-to-day state (needed first: lulls correlate with sky) ---
    season = 0.95 + 0.18 * np.exp(-0.5 * ((days - 200) / 70.0) ** 2)
    day_ar = np.empty(365)
    day_ar[0] = 1.0
    shocks = rng.normal(0.0, 0.14, size=365)
    for d in range(1, 365):
        day_ar[d] = 0.75 * day_ar[d - 1] + 0.25 + shocks[d]
    day_factor = season * np.clip(day_ar, 0.55, 1.60)

    # --- irradiance ---------------------------------------------------
    daylength = 12.1 + 0.25 * np.sin(2 * np.pi * (days - 80) / 365)
    sunrise = 12.25 - daylength / 2
    peak_irr = 0.92 + 0.02 * np.cos(2 * np.pi * (days - 15) / 365)
    cloud_day = 0.24 + 0.72 * rng.beta(5.5, 1.6, size=365)
    # calm spells are anticyclonic and clear: wind lulls do not coincide
    # with heavily overcast days
    cloud_day = np.maximum(cloud_day, 1.40 - day_factor)
    t_rel = (hours[None, :] - sunrise[:, None]) / daylength[:, None]
    envelope = np.where((t_rel > 0) & (t_rel < 1),
                        np.sin(np.pi * np.clip(t_rel, 0, 1)) ** 1.15, 0.0)
    hour_noise = np.clip(rng.normal(1.0, 0.08, size=(365, 24)), 0.75, 1.25)
    irradiance = peak_irr[:, None] * cloud_day[:, None] * envelope * hour_noise
    irradiance = np.clip(irradiance, 0.0, 1.15).ravel()

    # --- wind speed at 1 m --------------------------------------------
    # nocturnal-jet diurnal cycle: the flow accelerates sharply after the
    # afternoon decoupling (14-17 h), peaks through the evening, relaxes to
    # a steady overnight level, decays late morning once PV has taken over,
    # and troughs over the PV peak (11-14 h)
    diurnal = np.array([
        1.30, 1.05, 0.95, 0.95, 0.95, 0.95,   # 0-5  steady overnight flow
        0.95, 0.95, 0.92, 0.80, 0.62, 0.45,   # 6-11 late-morning decay
        0.45, 0.45, 0.52, 0.90, 1.40, 1.75,   # 12-17 afternoon acceleration
        1.75, 1.75, 1.75, 1.72, 1.62, 1.48,   # 18-23 evening maximum
    ])
    # hour-to-hour gusts are strongly autocorrelated; log-AR(1) keeps the
    # series from flapping across the supply/demand line every other hour
    steps = rng.normal(0.0, 0.065, size=8760)
    log_gust = np.empty(8760)
    log_gust[0] = steps[0]
    for t in range(1, 8760):
        log_gust[t] = 0.85 * log_gust[t - 1] + steps[t]
    gust = np.exp(log_gust).reshape(365, 24)
    wind = day_factor[:, None] * diurnal[None, :] * gust
    wind = wind.ravel()
    wind *= RAW_WIND_MEAN / wind.mean()

    # --- ambient temperature ------------------------------------------
    seasonal_t = 25.0 + 2.0 * np.cos(2 * np.pi * (days - 45) / 365)
    diurnal_t = 3.8 * np.cos(2 * np.pi * (hours - 14.0) / 24)
    temp = (seasonal_t[:, None] + diurnal_t[None, :]
            + rng.normal(0.0, 0.7, size=(365, 24))).ravel()

    return ClimateSeries(irradiance, wind, temp, ref_height=1.0)


def _data_path(name: str):
    return resources.files("offgridopt.data").joinpath(name)


def load_bundled_climate() -> ClimateSeries:
    """Read the shipped climate CSV, wind speeds as measured (uncorrected)."""
    with resources.as_file(_data_path(CLIMATE_FILENAME)) as path:
        return read_climate_csv(path)


def load_bundled_daily_load() -> LoadSeries:
    with resources.as_file(_data_path(LOAD_FILENAME)) as path:
        return read_load_csv(path)

