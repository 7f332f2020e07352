"""Benchmark the five global solvers on the sizing problem.

Each solver gets the same evaluation budget and seed; the table ranks them
by the overall metric (runtime x best objective, lower is better).
"""

import pathlib
import sys
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from offgridopt.config import build_config, build_context
from offgridopt.seeding import substream_seed
from offgridopt.solvers import SOLVERS, benchmark_to_csv

budget = int(sys.argv[1]) if len(sys.argv) > 1 else 1000

config = build_config({"sizing": {"max_evals": budget}})
problem = config.sizing_problem(build_context(config, seed=42))
seed = substream_seed(42, "solver")
reports = sorted((replace(problem, solver=name).solve(seed)
                  for name in SOLVERS), key=lambda r: r.overall)

print(f"{'solver':<16} {'t [s]':>8} {'min obj':>9} {'overall':>9}  best point")
for r in reports:
    point = ", ".join(f"{v:g}" for v in r.best_point)
    print(f"{r.solver:<16} {r.runtime_s:>8.2f} {r.best_value:>9.4f} "
          f"{r.overall:>9.3f}  [{point}]")

benchmark_to_csv(reports, "solver_benchmark.csv")
print("\ntable written to solver_benchmark.csv")
