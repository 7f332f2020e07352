"""Hourly climate and load series: CSV ingestion, checks and synthesis,
and the CSV format of every file the package writes.

Climate CSV schema (header required): ``timestamp,ghi_kw_m2,wind_ms,temp_c``
with ISO-8601 timestamps, dot-decimal numbers and empty cells for missing
values.  Load CSV schema: ``hour,load_kw``.  Missing values are carried
internally as NaN, never as a numeric sentinel.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta

import numpy as np

from .errors import InputDataError, ParseError, SchemaError

CLIMATE_HEADER = ["timestamp", "ghi_kw_m2", "wind_ms", "temp_c"]
LOAD_HEADER = ["hour", "load_kw"]


@dataclass
class ClimateSeries:
    """Hourly irradiance [kW/m2], wind speed [m/s] at ``ref_height`` [m] and
    ambient temperature [degC].  All arrays share one length (8760 for a year,
    24 for a daily slice); NaN marks a missing observation."""

    irradiance: np.ndarray
    wind_speed_ref: np.ndarray
    temp_ambient: np.ndarray
    ref_height: float = 1.0

    def __post_init__(self):
        self.irradiance = np.asarray(self.irradiance, dtype=float)
        self.wind_speed_ref = np.asarray(self.wind_speed_ref, dtype=float)
        self.temp_ambient = np.asarray(self.temp_ambient, dtype=float)
        n = len(self.irradiance)
        if len(self.wind_speed_ref) != n or len(self.temp_ambient) != n:
            raise InputDataError("climate series lengths differ")
        if self.ref_height <= 0:
            raise InputDataError("ref_height must be positive")
        for name, arr in (("irradiance", self.irradiance),
                          ("wind_speed_ref", self.wind_speed_ref)):
            vals = arr[~np.isnan(arr)]
            if vals.size and vals.min() < 0:
                raise InputDataError(f"{name} contains negative values")

    def __len__(self):
        return len(self.irradiance)

    def slice(self, start: int, stop: int) -> "ClimateSeries":
        return ClimateSeries(
            self.irradiance[start:stop].copy(),
            self.wind_speed_ref[start:stop].copy(),
            self.temp_ambient[start:stop].copy(),
            self.ref_height,
        )


@dataclass
class LoadSeries:
    """Hourly electrical demand [kW], length 24 or 8760."""

    demand: np.ndarray

    def __post_init__(self):
        self.demand = np.asarray(self.demand, dtype=float)
        if self.demand.size and np.nanmin(self.demand) < 0:
            raise InputDataError("demand contains negative values")

    def __len__(self):
        return len(self.demand)

    @property
    def total_kwh(self) -> float:
        return float(self.demand.sum())

    @property
    def peak_kw(self) -> float:
        return float(self.demand.max())

    def day(self, d: int) -> "LoadSeries":
        return LoadSeries(self.demand[24 * d:24 * (d + 1)].copy())


def require_complete(climate: ClimateSeries, load: LoadSeries) -> None:
    """Raise ``InputDataError`` naming the CSV column and the first hour of
    the first missing (NaN) or infinite value in the hourly inputs of a
    simulation, column by column."""
    columns = (("ghi_kw_m2", climate.irradiance),
               ("wind_ms", climate.wind_speed_ref),
               ("temp_c", climate.temp_ambient), ("load_kw", load.demand))
    for column, values in columns:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            hour = bad[0]
            what = "missing" if np.isnan(values[hour]) else f"{values[hour]}"
            raise InputDataError(f"{column} is {what} at hour {hour} of "
                                 f"{len(values)}; every hour needs a finite "
                                 "value")


def _parse_cell(text: str, column: str, line: int) -> float:
    """The number in a CSV cell; an empty cell is missing (NaN)."""
    text = text.strip()
    if text == "":
        return float("nan")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"non-numeric value {text!r} in column {column!r}", line=line) from None
    if math.isinf(value):
        raise ParseError(f"infinite value {text!r} in column {column!r}", line=line)
    return value


def _data_rows(path, header: list[str]):
    """The line numbers and cells of the non-empty data rows of a CSV file
    that starts with ``header`` and whose rows all have its columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None:
            raise SchemaError(f"{path}: empty file")
        if [h.strip() for h in found] != header:
            raise SchemaError(f"{path}: expected header {','.join(header)!r}, "
                              f"got {','.join(found)!r}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SchemaError(f"{path}: line {line_no}: expected "
                                  f"{len(header)} columns, got {len(row)}")
            yield line_no, row


def read_climate_csv(path) -> ClimateSeries:
    """Load an hourly climate CSV (see module docstring for the schema).

    Rows must be in timestamp order; empty cells become NaN (missing) rather
    than being silently zeroed.  Wind speeds are read as measured at 1 m.
    """
    irr, wind, temp = [], [], []
    prev_ts = None
    for line_no, row in _data_rows(path, CLIMATE_HEADER):
        try:
            ts = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"bad timestamp {row[0]!r}", line=line_no) from None
        if prev_ts is not None and ts <= prev_ts:
            raise ParseError(f"timestamp {row[0]!r} not increasing", line=line_no)
        prev_ts = ts
        g = _parse_cell(row[1], "ghi_kw_m2", line_no)
        w = _parse_cell(row[2], "wind_ms", line_no)
        t = _parse_cell(row[3], "temp_c", line_no)
        if (not np.isnan(g) and g < 0) or (not np.isnan(w) and w < 0):
            raise ParseError("negative irradiance or wind speed", line=line_no)
        irr.append(g)
        wind.append(w)
        temp.append(t)
    return ClimateSeries(np.array(irr), np.array(wind), np.array(temp))


def read_load_csv(path) -> LoadSeries:
    """Load an hourly demand CSV with header ``hour,load_kw``.  The hours
    are the integers 0, 1, 2, ... in order, as ``write_load_csv`` writes
    them."""
    demand = []
    for line_no, row in _data_rows(path, LOAD_HEADER):
        try:
            hour = int(row[0])
        except ValueError:
            raise ParseError(f"non-integer hour {row[0]!r}", line=line_no) from None
        if hour != len(demand):
            raise ParseError(f"expected hour {len(demand)}, got {hour}", line=line_no)
        demand.append(_parse_cell(row[1], "load_kw", line_no))
    arr = np.array(demand)
    if np.isnan(arr).any():
        raise ParseError("load file contains missing values")
    return LoadSeries(arr)


def write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` as CSV in the one format of every
    CSV the package writes: UTF-8 with LF line ends on every platform, so a
    rerun reproduces the file byte for byte."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_climate_csv(path, series: ClimateSeries, start="2018-01-01T00:00"):
    """Write a ClimateSeries back to the documented CSV schema."""
    t0 = datetime.fromisoformat(start)
    columns = (series.irradiance, series.wind_speed_ref, series.temp_ambient)
    write_csv(path, CLIMATE_HEADER, (
        [(t0 + timedelta(hours=h)).isoformat(timespec="minutes"),
         *("" if np.isnan(v) else f"{v:.4f}" for v in values)]
        for h, values in enumerate(zip(*columns))))


def write_load_csv(path, series: LoadSeries):
    write_csv(path, LOAD_HEADER,
              ([h, f"{v:.4f}"] for h, v in enumerate(series.demand)))


def scale_wind(series: ClimateSeries, factor: float) -> ClimateSeries:
    """Multiply the wind-speed channel by a calibration factor (> 0)."""
    if factor <= 0:
        raise InputDataError(f"wind correction factor must be > 0, got {factor}")
    return replace(series, wind_speed_ref=series.wind_speed_ref * factor)


def generate_annual_load(daily: LoadSeries, variation: float, seed: int) -> LoadSeries:
    """Tile a 24-hour profile into a year with day-to-day random scaling.

    Day 1 is the profile verbatim; every later day is the whole profile scaled
    by one factor drawn uniformly from [1 - variation, 1 + variation], so the
    intra-day shape is preserved while day-to-day totals fluctuate.
    Deterministic for a given seed.
    """
    if not 0 <= variation < 1:
        raise InputDataError(f"variation must be in [0, 1), got {variation}")
    if len(daily) != 24:
        raise InputDataError(f"daily profile must have 24 entries, got {len(daily)}")
    rng = np.random.default_rng(seed)
    factors = np.concatenate([[1.0], rng.uniform(1 - variation, 1 + variation, 364)])
    demand = (factors[:, None] * daily.demand[None, :]).ravel()
    return LoadSeries(demand)


def make_peaky_load(base: LoadSeries, amplitude: float, seed: int) -> LoadSeries:
    """Scale every hour by an independent uniform factor in
    [1 - amplitude, 1 + amplitude]; deterministic per seed."""
    if not 0 <= amplitude < 1:
        raise InputDataError(f"amplitude must be in [0, 1), got {amplitude}")
    rng = np.random.default_rng(seed)
    factors = rng.uniform(1 - amplitude, 1 + amplitude, len(base))
    return LoadSeries(base.demand * factors)


def flatten_load(base: LoadSeries, res_profile: np.ndarray,
                 curtail_fraction: float = 0.0) -> LoadSeries:
    """Shift demand toward the renewable availability profile, then smooth.

    Procedure: redistribute the total energy proportionally to the normalized
    RES profile, blend 50/50 with the original shape, apply a centered 3-hour
    moving average, renormalize so total energy is conserved, and finally
    scale by (1 - curtail_fraction).
    """
    if not 0 <= curtail_fraction < 1:
        raise InputDataError(f"curtail_fraction must be in [0, 1), got {curtail_fraction}")
    res = np.asarray(res_profile, dtype=float)
    if len(res) != len(base):
        raise InputDataError("res_profile length must match the load series")

    total = base.demand.sum()
    res_sum = res.sum()
    if res_sum > 0:
        target = total * res / res_sum
    else:
        target = np.full_like(base.demand, total / len(base))
    blended = 0.5 * base.demand + 0.5 * target

    # centered 3-hour moving average with shrinking windows at the edges
    kernel = np.ones(3)
    counts = np.convolve(np.ones_like(blended), kernel, mode="same")
    smoothed = np.convolve(blended, kernel, mode="same") / counts

    s = smoothed.sum()
    if s > 0:
        smoothed *= total / s
    return LoadSeries(smoothed * (1 - curtail_fraction))
