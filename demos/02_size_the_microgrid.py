"""Globally optimize the PV / turbine / battery sizes.

Runs particle swarm optimization over [n_s, n_w, E_b_init] with equal
weights on the five objectives, then reports the optimum and its metrics.
Pass a smaller budget as the first argument for a quick look
(e.g. ``python demos/02_size_the_microgrid.py 500``).
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from offgridopt.config import build_config, build_context
from offgridopt.seeding import substream_seed
from offgridopt.simulate import simulate_year

budget = int(sys.argv[1]) if len(sys.argv) > 1 else 2000

config = build_config({"sizing": {"max_evals": budget}})
problem = config.sizing_problem(build_context(config, seed=42))

t0 = time.time()
report = problem.solve(substream_seed(42, "solver"))
print(f"PSO finished in {time.time() - t0:.0f}s after {report.evaluations} "
      f"simulated years")

best = problem.design(report.best_point)
sim = simulate_year(best, problem.ctx)
o = sim.objectives
print(f"\noptimal design [n_s, n_w, E_b] = "
      f"[{int(best.pv_units)}, {int(best.wt_units)}, {best.e_b_init:.2f}]")
print(f"weighted objective      {report.best_value:.4f}")
print(f"normalized LCOE         {o.lcoe_norm:.4f}")
print(f"normalized emissions    {o.em_norm:.4f}")
print(f"DPSP                    {o.dpsp:.5f}")
print(f"dump ratio              {o.repg:.4f}")
print(f"renewable fraction      {1 - o.one_minus_ref:.4f}")
print(f"generator online hours  {sim.dg_online_hours}")
print(f"battery cycles per year {sim.battery_cycles:.0f}")
