"""Regenerate the bundled dataset CSVs under src/offgridopt/data.

Run from the repository root:  python tools/build_bundled_data.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from offgridopt.datasets import (CLIMATE_FILENAME, LOAD_FILENAME,
                                 reference_daily_load,
                                 synthesize_timbila_climate)
from offgridopt.timeseries import write_climate_csv, write_load_csv


def main():
    data_dir = pathlib.Path(__file__).resolve().parents[1] / "src" / "offgridopt" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    climate = synthesize_timbila_climate()
    write_climate_csv(data_dir / CLIMATE_FILENAME, climate, start="2018-01-01T00:00")
    print(f"wrote {data_dir / CLIMATE_FILENAME} ({len(climate)} rows, "
          f"mean wind {climate.wind_speed_ref.mean():.4f} m/s, "
          f"mean daily GHI {climate.irradiance.sum() / 365:.2f} kWh/m2)")

    daily = reference_daily_load()
    write_load_csv(data_dir / LOAD_FILENAME, daily)
    print(f"wrote {data_dir / LOAD_FILENAME} (peak {daily.peak_kw:.2f} kW, "
          f"mean {daily.demand.mean():.2f} kW, min {daily.demand.min():.2f} kW)")


if __name__ == "__main__":
    main()
