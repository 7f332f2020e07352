"""Sensitivity of the optimal design to storage price and fuel price.

The storage-price sweep re-optimizes the whole system at each price; the
fuel-price block holds the design fixed to isolate the direct cost effect
(which is analytically monotone) from re-sizing effects.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from offgridopt.config import build_config, build_context
from offgridopt.seeding import substream_seed
from offgridopt.simulate import Design
from offgridopt.sweeps import (SweepSpec, objective_at_fixed_design,
                               run_sweep, sweep_to_csv)

budget = int(sys.argv[1]) if len(sys.argv) > 1 else 600

config = build_config({"sizing": {"max_evals": budget, "swarm_size": 20}})
ctx = build_context(config, seed=42)

spec = SweepSpec("bs_price", (50.0, 150.0, 300.0))
rows = run_sweep(spec, config.sizing_problem(ctx),
                 seed=substream_seed(42, "solver"))

print("re-optimized design vs storage price [$/kWh]:")
print(f"{'price':>6} {'n_s':>4} {'n_w':>4} {'E_b':>7} {'lcoe_n':>7} "
      f"{'cycles':>7} {'obj':>7}")
for r in rows:
    print(f"{r.value:>6.0f} {r.design.pv_units:>4g} "
          f"{r.design.wt_units:>4g} {r.design.e_b_init:>7.1f} "
          f"{r.objectives.lcoe_norm:>7.3f} {r.bs_cycles:>7.0f} "
          f"{r.weighted_obj:>7.4f}")
sweep_to_csv(rows, "sweep_bs_price.csv")

print("\nfixed-design fuel-price effect (no re-optimization):")
design = Design(100, 8, 45.45)
for price in (2.0, 3.2, 6.0, 12.0):
    sim, obj = objective_at_fixed_design(design, {"fuel_price": price}, ctx,
                                         config.weights)
    print(f"  diesel at {price:>5.2f} $/gal: LCOE {sim.cost.lcoe:.4f} $/kWh, "
          f"emissions {sim.emissions_kg:,.0f} kg (unchanged), obj {obj:.4f}")
