"""Simulate one year of the reference hybrid microgrid.

Loads the bundled climate/load dataset, runs the hourly load-following
simulation for a hand-picked design, and prints the five objectives plus
the full lifecycle cost breakdown.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from offgridopt.config import build_config, build_context
from offgridopt.economics import weighted_objective
from offgridopt.simulate import Design, hourly_power_balance_check, simulate_year

config = build_config({})                 # case-study defaults: LI + 16 kW diesel
ctx = build_context(config, seed=42)

design = Design(100, 8, 45.45)
sim = simulate_year(design, ctx)

print(f"design: {int(design.pv_units)} PV modules "
      f"({design.pv_kw(ctx.pv):.2f} kW), {int(design.wt_units)} turbines "
      f"({design.wt_kw(ctx.wind):.1f} kW), {design.e_b_init:.1f} kWh storage")
print(f"annual load served: {sim.load_kwh:,.0f} kWh, "
      f"lost {sim.lost_kwh:.1f} kWh, dumped {sim.dump_kwh:,.0f} kWh")
print(f"generator: {sim.dg_online_hours} h online, "
      f"{sim.dg_energy_kwh:,.0f} kWh, {sim.dg_starts} starts")
print(f"battery cycles: {sim.battery_cycles:.0f}")

o = sim.objectives
print("\nobjectives (all normalized to the generator-only baseline):")
print(f"  LCOE      {o.lcoe_norm:.4f}   (absolute {sim.cost.lcoe:.4f} $/kWh "
      f"vs baseline {sim.cost.baseline_lcoe:.4f})")
print(f"  emissions {o.em_norm:.4f}   ({sim.emissions_kg:,.0f} kg/y)")
print(f"  DPSP      {o.dpsp:.5f}")
print(f"  dump      {o.repg:.4f}")
print(f"  1 - REF   {o.one_minus_ref:.4f}")
print(f"  weighted (equal weights): "
      f"{weighted_objective(o, config.weights):.4f}")

print("\ncost breakdown [$]:")
for key, value in sim.cost.as_dict().items():
    print(f"  {key:<20} {value:>12,.2f}")

ok, bad = hourly_power_balance_check(sim, ctx.converter)
print(f"\nhourly power balance holds: {ok}")

sim.write_trace_csv("trace_reference_system.csv")
print("hourly trace written to trace_reference_system.csv")
