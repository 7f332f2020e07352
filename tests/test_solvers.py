import ast
import dataclasses
import itertools
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from offgridopt.config import build_config
from offgridopt.errors import ConfigError, InputDataError
from offgridopt.solvers import (SearchSpace, _crowding_distance,
                                _Evaluator, _nondominated_sort,
                                benchmark_to_csv,
                                benchmark_to_json, dominates, ga_minimize,
                                multistart_minimize, pareto_front,
                                pattern_search_minimize, pso_minimize,
                                sa_minimize)

BOX3 = SearchSpace([-5, -5, -5], [5, 5, 5], [False] * 3)
INT3 = SearchSpace([0, 0, 0], [9, 9, 19], [True, True, True])


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def grid_objective(x):
    a, b, c = x
    return ((a - 3) ** 2 + 0.8 * (b - 7) ** 2 + 0.05 * (c - 12) ** 2
            + 0.2 * np.sin(a + b) + 0.01 * a * b)


GRID_OPTIMUM = min(
    (grid_objective(np.array(p, dtype=float)), p)
    for p in itertools.product(range(10), range(10), range(20)))[1]


def test_search_space_validation():
    with pytest.raises(InputDataError):
        SearchSpace([0, 1], [1], [False, False])
    with pytest.raises(InputDataError):
        SearchSpace([2], [1], [False])


def test_pso_solves_sphere():
    report = pso_minimize(sphere, BOX3, max_evals=3000, seed=7)
    assert report.best_value < 1e-4
    assert report.evaluations <= 3000


def test_ga_solves_sphere():
    report = ga_minimize(sphere, BOX3, max_evals=5000, seed=7)
    assert report.best_value < 1e-3


def test_pattern_search_smooth_and_nonsmooth():
    box2 = SearchSpace([-3, -3], [4, 4], [False, False])
    quad = pattern_search_minimize(lambda x: (x[0] - 1.3) ** 2 + (x[1] + 0.7) ** 2,
                                   box2, max_evals=3000)
    assert quad.best_value < 1e-10
    kink = pattern_search_minimize(lambda x: abs(x[0]) + abs(x[1]), box2,
                                   max_evals=3000)
    assert abs(kink.best_point[0]) < 1e-5 and abs(kink.best_point[1]) < 1e-5


def test_multistart_finds_global_basin():
    # two quadratic wells; the global one spans well over 10 % of the box
    def two_basin(x):
        d1 = (x[0] - 3.0) ** 2 + (x[1] - 3.0) ** 2
        d2 = 0.3 + 0.5 * ((x[0] + 2.0) ** 2 + (x[1] + 2.0) ** 2)
        return min(d1, d2)

    space = SearchSpace([-5, -5], [5, 5], [False, False])
    report = multistart_minimize(two_basin, space, n_starts=50,
                                 max_evals=8000, seed=3)
    assert report.best_point[0] == pytest.approx(3.0, abs=1e-3)
    assert report.best_point[1] == pytest.approx(3.0, abs=1e-3)


def test_scipy_optimize_is_loaded_only_by_multistart(run_python):
    """Importing the package, its CLI and a PSO sizing run load no part of
    scipy; the Nelder-Mead restarts of ``multistart_minimize`` load
    ``scipy.optimize`` when they first run."""
    out = run_python(textwrap.dedent("""
        import sys
        import numpy as np
        import offgridopt, offgridopt.cli
        from offgridopt import build_config, build_context
        from offgridopt.simulate import SizingProblem

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        cfg = build_config({})
        SizingProblem(build_context(cfg), cfg.search_space(), cfg.weights,
                      "pso", 200, 30).solve(seed=1)
        before = scipy_modules()
        offgridopt.multistart_minimize(
            lambda x: float(np.sum(x ** 2)),
            offgridopt.SearchSpace([-1, -1], [1, 1], [False, False]),
            n_starts=2, max_evals=40)
        print(repr((before, "scipy.optimize" in sys.modules)))
    """))
    before, after = ast.literal_eval(out.strip().splitlines()[-1])
    assert before == []
    assert after


def test_multistart_single_start_is_local_search():
    report = multistart_minimize(sphere, BOX3, n_starts=1, max_evals=2000, seed=1)
    assert report.best_value < 1e-4


@pytest.mark.parametrize("solver", [pso_minimize, ga_minimize, sa_minimize,
                                    pattern_search_minimize, multistart_minimize])
def test_every_solver_hits_integer_grid_optimum(solver):
    report = solver(grid_objective, INT3, max_evals=10000, seed=11)
    assert tuple(int(v) for v in report.best_point) == GRID_OPTIMUM


def test_ga_population_of_one_still_returns_valid_report():
    report = ga_minimize(sphere, BOX3, population=1, max_evals=500, seed=5)
    assert np.isfinite(report.best_value)
    assert report.best_value == pytest.approx(sphere(report.best_point))


def test_reports_are_in_bounds_integral_and_fresh():
    for solver in (pso_minimize, ga_minimize, sa_minimize,
                   pattern_search_minimize, multistart_minimize):
        report = solver(grid_objective, INT3, max_evals=1500, seed=2)
        assert np.all(report.best_point >= INT3.lower - 1e-12)
        assert np.all(report.best_point <= INT3.upper + 1e-12)
        assert np.allclose(report.best_point, np.round(report.best_point))
        assert report.best_value == pytest.approx(grid_objective(report.best_point))
        assert report.overall == pytest.approx(report.runtime_s * report.best_value)


def test_deterministic_per_seed():
    a = pso_minimize(sphere, BOX3, max_evals=1000, seed=9)
    b = pso_minimize(sphere, BOX3, max_evals=1000, seed=9)
    np.testing.assert_array_equal(a.best_point, b.best_point)
    assert a.best_value == b.best_value
    assert a.evaluations == b.evaluations


def test_incumbent_monotone_in_budget():
    values = [pso_minimize(sphere, BOX3, max_evals=budget, seed=4).best_value
              for budget in (200, 500, 1500, 3000)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-15


# ---------------------------------------------------------------------------
# Pareto front
# ---------------------------------------------------------------------------

def test_a_generation_is_rounded_at_once_and_scored_until_the_budget_ends():
    space = SearchSpace([0, 0], [10, 1], [True, False])
    seen = []

    def objective(x):
        seen.append(x.tolist())
        return x.sum()

    ev = _Evaluator(objective, space, max_evals=4)
    generation = np.array([[1.4, 0.25], [2.6, 0.5], [11.0, -1.0]])
    assert ev.generation(generation) == [1.25, 3.5, 10.0]
    assert seen == [space.round_point(x).tolist() for x in generation]
    assert ev.generation(generation) == [1.25]
    assert ev.exhausted and ev.count == 4
    assert ev.generation(generation) == []
    assert len(seen) == 4


def test_dominates_definition():
    assert dominates(np.array([1.0, 2.0]), np.array([1.0, 3.0]))
    assert not dominates(np.array([1.0, 3.0]), np.array([2.0, 2.0]))
    assert not dominates(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_pareto_front_biobjective_span():
    space = SearchSpace([-1], [3], [False])
    front = pareto_front(lambda x: np.array([x[0] ** 2, (x[0] - 2) ** 2]),
                         space, population=24, generations=30, seed=5)
    xs = np.array([p[0][0] for p in front])
    assert xs.min() >= -0.05 and xs.max() <= 2.05
    assert xs.min() <= 0.3 and xs.max() >= 1.7   # front is spread out
    for i, (_, vi) in enumerate(front):
        for j, (_, vj) in enumerate(front):
            assert i == j or not dominates(vj, vi)


def test_pareto_front_recovers_discrete_front():
    # integer knob with a lookup table of 3-objective values; exactly four
    # of the six points are mutually non-dominated
    table = {
        0: (1.0, 5.0, 3.0),
        1: (2.0, 4.0, 2.0),
        2: (3.0, 3.0, 1.0),
        3: (4.0, 1.0, 4.0),
        4: (2.0, 4.5, 2.5),   # dominated by 1
        5: (5.0, 5.0, 5.0),   # dominated by everything
    }
    space = SearchSpace([0], [5], [True])
    front = pareto_front(lambda x: np.array(table[int(x[0])]), space,
                         population=16, generations=25, seed=2)
    found = sorted({int(p[0][0]) for p in front})
    assert found == [0, 1, 2, 3]


def test_pareto_front_drops_duplicate_members():
    # six integer points map onto two incomparable objective vectors, so
    # the final population of eight repeats points; each survives once
    space = SearchSpace([0], [5], [True])
    front = pareto_front(lambda x: np.array([1.0, 2.0] if x[0] < 3 else [2.0, 1.0]),
                         space, population=8, generations=3, seed=0)
    assert {tuple(v) for _, v in front} == {(1.0, 2.0), (2.0, 1.0)}
    points = [float(p[0]) for p, _ in front]
    assert len(points) == len(set(points)) <= 6


def reference_fronts(values):
    """Fronts by the definition: the members no remaining member dominates,
    removed front by front, each in ascending index order."""
    remaining = list(range(len(values)))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(dominates(values[j], values[i]) for j in remaining)]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def reference_crowding(values):
    """NSGA-II crowding distance, one element at a time."""
    n, m = values.shape
    dist = np.zeros(n)
    for k in range(m):
        order = np.argsort(values[:, k])
        span = values[order[-1], k] - values[order[0], k]
        dist[order[0]] = dist[order[-1]] = np.inf
        if span < 1e-15:
            continue
        for i in range(1, n - 1):
            dist[order[i]] += (values[order[i + 1], k] - values[order[i - 1], k]) / span
    return dist


@st.composite
def objective_sets(draw):
    """1-40 points with 2-6 objectives; small integers give ties and
    duplicates."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(2, 6))
    elements = draw(st.sampled_from([st.integers(0, 3).map(float),
                                     st.floats(-1e3, 1e3)]))
    return draw(hnp.arrays(np.float64, (n, m), elements=elements))


@settings(max_examples=300, deadline=None)
@given(objective_sets())
@example(np.array([[1.0, 2.0]]))
@example(np.array([[1.0, 2.0], [1.0, 2.0]]))
@example(np.array([[1.0, 2.0], [0.0, 3.0]]))
@example(np.array([[1.0, 2.0, 0.0], [1.0, 2.0, 1.0]]))
def test_sorting_matches_brute_force_reference(values):
    fronts = _nondominated_sort(values)
    assert [f.tolist() for f in fronts] == reference_fronts(values)
    assert np.array_equal(_crowding_distance(values), reference_crowding(values))
    for front in fronts:
        assert np.array_equal(_crowding_distance(values[front]),
                              reference_crowding(values[front]))


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------

def test_benchmark_overall_and_outputs(tmp_path):
    reports = [solver(grid_objective, INT3, max_evals=800, seed=1)
               for solver in (pso_minimize, pattern_search_minimize)]
    for r in reports:
        assert r.overall == pytest.approx(r.runtime_s * r.best_value)
    benchmark_to_csv(reports, tmp_path / "bench.csv")
    benchmark_to_json(reports, tmp_path / "bench.json")
    header = (tmp_path / "bench.csv").read_text().splitlines()[0]
    assert header == "solver,runtime_s,min_obj,overall,best_point"


def test_benchmark_same_solver_twice_gives_identical_solutions():
    a, b = [pso_minimize(grid_objective, INT3, max_evals=600, seed=3)
            for _ in range(2)]
    np.testing.assert_array_equal(a.best_point, b.best_point)
    assert a.best_value == b.best_value


def test_benchmark_rejects_unknown_solver(annual_ctx):
    """The config rejects the name for every command, and a sizing problem
    made without a config rejects it too."""
    with pytest.raises(ConfigError, match="sizing: unknown solver 'nope'"):
        build_config({"sizing": {"solver": "nope"}})
    problem = build_config({}).sizing_problem(annual_ctx)
    with pytest.raises(InputDataError, match="unknown solver 'nope'"):
        dataclasses.replace(problem, solver="nope")
