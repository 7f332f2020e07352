"""Trace the Pareto front of the five sizing objectives.

Uses nondominated sorting with crowding-distance selection, then prints the
endpoints of the cost / emissions trade-off to show what pursuing a single
goal costs in the others.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from offgridopt.config import build_config, build_context
from offgridopt.seeding import substream_seed
from offgridopt.solvers import pareto_front

config = build_config({})
problem = config.sizing_problem(build_context(config, seed=42))
front = pareto_front(problem.objectives, problem.space,
                     population=36, generations=25,
                     seed=substream_seed(42, "solver"))
print(f"non-dominated set: {len(front)} designs\n")

values = np.array([v for _, v in front])
points = np.array([p for p, _ in front])
labels = ["lcoe_norm", "em_norm", "dpsp", "repg", "1-ref"]

for k, label in enumerate(labels):
    i = int(np.argmin(values[:, k]))
    d, v = problem.design(points[i]), values[i]
    print(f"best {label:<10}: "
          f"[{d.pv_units:g}, {d.wt_units:g}, {d.e_b_init:.1f}]  "
          + "  ".join(f"{n}={x:.3f}" for n, x in zip(labels, v)))

print("\nevery returned design is mutually non-dominated; the spread shows")
print("that pushing any single objective to its minimum drags others up.")
