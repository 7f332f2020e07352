"""Derivative-free global optimizers for the non-convex, non-smooth sizing
objective, plus Pareto-front generation and the solver benchmark tables.

All solvers share the same contract: box bounds with an optional per-
dimension integer mask (integer dimensions are rounded at evaluation time
and in reported points), a hard evaluation budget, stall-based early
termination, and full determinism for a given seed.  The reported best
value is always a fresh re-evaluation of the reported best point.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputDataError
from .timeseries import write_csv

STALL_ITERS = 50
STALL_TOL = 1e-6

# PSO inertia weight and acceleration coefficients (constriction values)
PSO_OMEGA = 0.729
PSO_C1 = PSO_C2 = 1.49445
# GA population when none is given, and its crossover and per-dimension
# mutation probabilities
GA_POPULATION = 50
GA_CROSSOVER_RATE = 0.8
GA_MUTATION_RATE = 0.1
# SA geometric cooling: start temperature, factor and steps per temperature
SA_T_INITIAL = 1.0
SA_COOLING = 0.95
SA_STEPS_PER_TEMP = 20
# pattern search: mesh tolerance and the factors applied on success/failure
PS_MESH_TOL = 1e-6
PS_EXPAND = 2.0
PS_CONTRACT = 0.5


@dataclass(frozen=True)
class SearchSpace:
    """Box-constrained search space with integer-dimension flags."""

    lower: np.ndarray
    upper: np.ndarray
    integer_mask: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "integer_mask",
                           np.asarray(self.integer_mask, dtype=bool))
        if not (len(self.lower) == len(self.upper) == len(self.integer_mask)):
            raise InputDataError("search-space vectors must share one length")
        if np.any(self.lower > self.upper):
            raise InputDataError("lower bounds exceed upper bounds")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def round_point(self, x: np.ndarray) -> np.ndarray:
        """``x`` clipped to the box with its integer dimensions rounded: a
        fresh array of one point, or of a (K, d) generation of points."""
        out = np.clip(x, self.lower, self.upper)
        out[..., self.integer_mask] = np.round(out[..., self.integer_mask])
        return out


@dataclass
class SolverReport:
    solver: str
    best_point: np.ndarray
    best_value: float
    runtime_s: float
    evaluations: int
    overall: float = field(init=False)

    def __post_init__(self):
        self.overall = self.runtime_s * self.best_value

    def as_dict(self) -> dict:
        return {
            "solver": self.solver,
            "best_point": [float(v) for v in self.best_point],
            "best_value": float(self.best_value),
            "runtime_s": float(self.runtime_s),
            "evaluations": int(self.evaluations),
            "overall": float(self.overall),
        }


class _Evaluator:
    """Budget-tracking wrapper that rounds integer dimensions."""

    def __init__(self, objective, space: SearchSpace, max_evals: int):
        self.objective = objective
        self.space = space
        self.max_evals = max_evals
        self.count = 0

    @property
    def exhausted(self) -> bool:
        return self.count >= self.max_evals

    def generation(self, xs) -> list[float]:
        """The values of the rows of a (K, d) generation, rounded in one
        call and scored in order until the budget runs out: one value per
        row scored."""
        points = self.space.round_point(np.asarray(xs, dtype=float))
        values = []
        for x in points[:max(self.max_evals - self.count, 0)]:
            self.count += 1
            values.append(float(self.objective(x)))
        return values

    def __call__(self, x) -> float:
        return self.generation(np.asarray(x, dtype=float)[None])[0]


# what the budget must cover, of the solvers that evaluate a first
# generation whole before they can report a point
_FIRST_GENERATION = {"pso": "at least one swarm sweep",
                     "ga": "the initial population"}


def require_budget(solver: str, max_evals: int, first_generation: int):
    """Raise ``InputDataError`` unless ``max_evals`` covers the
    ``first_generation`` evaluations of ``solver``: PSO's swarm or the GA's
    population.  The other solvers take any budget."""
    if solver in _FIRST_GENERATION and max_evals < first_generation:
        raise InputDataError(
            f"max_evals must cover {_FIRST_GENERATION[solver]}")


def _report(name, ev: _Evaluator, best_x, t0) -> SolverReport:
    best_x = ev.space.round_point(np.asarray(best_x, dtype=float))
    value = float(ev.objective(best_x))  # re-evaluate: no stale caching
    return SolverReport(name, best_x, value, time.perf_counter() - t0, ev.count)


def pso_minimize(objective, space: SearchSpace, swarm_size: int = 30,
                 max_evals: int = 2000, seed: int = 0) -> SolverReport:
    """Particle swarm with inertia-weight velocity update
    v <- w*v + c1*r1*(pbest - x) + c2*r2*(gbest - x)."""
    require_budget("pso", max_evals, swarm_size)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ev = _Evaluator(objective, space, max_evals)
    lo, hi = space.lower, space.upper
    span = hi - lo

    x = lo + rng.uniform(size=(swarm_size, space.dim)) * span
    v = rng.uniform(-1, 1, size=(swarm_size, space.dim)) * span * 0.1
    fx = np.array(ev.generation(x))
    pbest, fpbest = x.copy(), fx.copy()
    g = int(np.argmin(fpbest))
    gbest, fgbest = pbest[g].copy(), fpbest[g]

    stall = 0
    while not ev.exhausted and stall < STALL_ITERS:
        r1 = rng.uniform(size=(swarm_size, space.dim))
        r2 = rng.uniform(size=(swarm_size, space.dim))
        v = PSO_OMEGA * v + PSO_C1 * r1 * (pbest - x) + PSO_C2 * r2 * (gbest - x)
        x = np.clip(x + v, lo, hi)
        prev_best = fgbest
        for i, fi in enumerate(ev.generation(x)):
            if fi < fpbest[i]:
                fpbest[i] = fi
                pbest[i] = x[i].copy()
                if fi < fgbest:
                    fgbest = fi
                    gbest = x[i].copy()
        if prev_best - fgbest <= STALL_TOL * max(abs(prev_best), 1e-12):
            stall += 1
        else:
            stall = 0
    return _report("pso", ev, gbest, t0)


def ga_minimize(objective, space: SearchSpace,
                population: int = GA_POPULATION, max_evals: int = 2000,
                seed: int = 0) -> SolverReport:
    """Genetic algorithm: tournament selection, blend crossover, gaussian
    mutation.  Fitness is the objective itself: every candidate lies inside
    the bounds, so no bound-violation penalty is needed."""
    require_budget("ga", max_evals, population)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ev = _Evaluator(objective, space, max_evals)
    lo, hi = space.lower, space.upper
    span = np.where(hi > lo, hi - lo, 1.0)

    pop = lo + rng.uniform(size=(population, space.dim)) * (hi - lo)
    fit = np.array(ev.generation(pop))
    best_i = int(np.argmin(fit))
    best_x, best_f = pop[best_i].copy(), fit[best_i]

    stall = 0
    while not ev.exhausted and stall < STALL_ITERS:
        children = np.empty_like(pop)
        for k in range(population):
            i, j = rng.integers(population, size=2)
            a = pop[i] if fit[i] <= fit[j] else pop[j]
            i, j = rng.integers(population, size=2)
            b = pop[i] if fit[i] <= fit[j] else pop[j]
            if rng.uniform() < GA_CROSSOVER_RATE:
                alpha = rng.uniform(-0.25, 1.25, size=space.dim)
                child = alpha * a + (1 - alpha) * b
            else:
                child = a.copy()
            mutate = rng.uniform(size=space.dim) < GA_MUTATION_RATE
            child = np.where(mutate, child + rng.normal(0, 0.15, space.dim) * span, child)
            children[k] = np.clip(child, lo, hi)
        prev_best = best_f
        for k, fk in enumerate(ev.generation(children)):
            # steady-state elitism: child replaces current worst if better
            worst = int(np.argmax(fit))
            if fk < fit[worst]:
                fit[worst] = fk
                pop[worst] = children[k]
            if fk < best_f:
                best_f = fk
                best_x = children[k].copy()
        if prev_best - best_f <= STALL_TOL * max(abs(prev_best), 1e-12):
            stall += 1
        else:
            stall = 0
    return _report("ga", ev, best_x, t0)


def sa_minimize(objective, space: SearchSpace, max_evals: int = 2000,
                seed: int = 0) -> SolverReport:
    """Simulated annealing: worse moves accepted with the Metropolis
    probability exp(-dE/T), geometric cooling."""
    t0_clock = time.perf_counter()
    rng = np.random.default_rng(seed)
    ev = _Evaluator(objective, space, max_evals)
    lo, hi = space.lower, space.upper
    span = np.where(hi > lo, hi - lo, 1.0)

    x = lo + rng.uniform(size=space.dim) * (hi - lo)
    fx = ev(x)
    best_x, best_f = x.copy(), fx
    temp = SA_T_INITIAL
    while not ev.exhausted:
        for _ in range(SA_STEPS_PER_TEMP):
            if ev.exhausted:
                break
            cand = np.clip(x + rng.normal(0, 0.1, space.dim) * span, lo, hi)
            fc = ev(cand)
            de = fc - fx
            # a downhill move draws no random number; seeded runs rely on it
            if de <= 0 or rng.uniform() < np.exp(-de / temp):
                x, fx = cand, fc
                if fx < best_f:
                    best_x, best_f = x.copy(), fx
        temp = SA_COOLING * temp
    return _report("sa", ev, best_x, t0_clock)


def pattern_search_minimize(objective, space: SearchSpace,
                            max_evals: int = 2000, seed: int = 0) -> SolverReport:
    """Compass (direct pattern) search: poll +/- mesh along each axis,
    expand on success, contract on failure, stop when the mesh falls below
    tolerance.  The first mesh is a quarter of each span; integer
    dimensions poll in whole steps and never shrink below a unit mesh.
    The search starts at a seeded random point."""
    t0 = time.perf_counter()
    ev = _Evaluator(objective, space, max_evals)
    lo, hi = space.lower, space.upper
    span = np.where(hi > lo, hi - lo, 1.0)
    integer = space.integer_mask

    x = lo + np.random.default_rng(seed).uniform(size=space.dim) * (hi - lo)
    x = space.round_point(x)  # polls must stay on the integer lattice
    mesh = span / 4.0
    mesh = np.where(integer, np.maximum(np.round(mesh), 1.0), mesh)
    fx = ev(x)
    cont = ~integer

    while not ev.exhausted:
        improved = False
        for d in range(space.dim):
            for sign in (1.0, -1.0):
                if ev.exhausted:
                    break
                cand = x.copy()
                cand[d] = np.clip(cand[d] + sign * mesh[d], lo[d], hi[d])
                if cand[d] == x[d]:
                    continue
                fc = ev(cand)
                if fc < fx:
                    x, fx = cand, fc
                    improved = True
                    break
        if improved:
            mesh = np.where(cont, np.minimum(mesh * PS_EXPAND, span), mesh)
            continue
        cont_done = not np.any(cont) or np.all(mesh[cont] < PS_MESH_TOL)
        int_done = not np.any(integer) or np.all(mesh[integer] <= 1.0)
        if cont_done and int_done:
            break
        mesh = np.where(cont, mesh * PS_CONTRACT, mesh)
        mesh = np.where(integer, np.maximum(np.round(mesh * PS_CONTRACT), 1.0), mesh)
    return _report("pattern_search", ev, x, t0)


def _integer_polish(ev: _Evaluator, space: SearchSpace, x, fx):
    """Local +-1 neighborhood descent on integer dimensions."""
    integer_dims = np.nonzero(space.integer_mask)[0]
    if integer_dims.size == 0:
        return x, fx
    x = space.round_point(np.asarray(x, dtype=float))
    improved = True
    while improved and not ev.exhausted:
        improved = False
        for d in integer_dims:
            for step in (1.0, -1.0):
                cand = x.copy()
                cand[d] = np.clip(cand[d] + step, space.lower[d], space.upper[d])
                if cand[d] == x[d] or ev.exhausted:
                    continue
                fc = ev(cand)
                if fc < fx:
                    x, fx = cand, fc
                    improved = True
    return x, fx


def multistart_minimize(objective, space: SearchSpace, n_starts: int = 25,
                        max_evals: int = 2000, seed: int = 0) -> SolverReport:
    """Uniform random restarts, each refined by a Nelder-Mead simplex
    search (bounds enforced), with an integer neighborhood polish on masked
    dimensions.  Approximates multiple-start/global search solvers."""
    # Imported here, not at the top: scipy.optimize takes about 0.6 s and
    # 40 MB to load, and no other solver needs it.
    from scipy.optimize import minimize

    if n_starts < 1:
        raise InputDataError("n_starts must be >= 1")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ev = _Evaluator(objective, space, max_evals)
    lo, hi = space.lower, space.upper
    bounds = list(zip(lo, hi))
    per_start = max(max_evals // n_starts, 10)

    starts = [lo + rng.uniform(size=space.dim) * (hi - lo) for _ in range(n_starts)]
    best_x, best_f = None, np.inf
    for s in starts:
        if ev.exhausted:
            break
        budget = min(per_start, ev.max_evals - ev.count)
        res = minimize(ev, s, method="Nelder-Mead", bounds=bounds,
                       options={"maxfev": budget, "xatol": 1e-6, "fatol": 1e-9})
        x, fx = _integer_polish(ev, space, res.x, float(res.fun))
        if fx < best_f:
            best_x, best_f = x, fx
    return _report("multistart", ev, best_x, t0)


SOLVERS = {
    "pso": pso_minimize,
    "ga": ga_minimize,
    "sa": sa_minimize,
    "ps": pattern_search_minimize,
    "ms": multistart_minimize,
}


def benchmark_to_csv(reports: list[SolverReport], path):
    write_csv(path, ["solver", "runtime_s", "min_obj", "overall", "best_point"],
              ([r.solver, f"{r.runtime_s:.4f}", f"{r.best_value:.6f}",
                f"{r.overall:.4f}", " ".join(f"{v:g}" for v in r.best_point)]
               for r in reports))


def benchmark_to_json(reports: list[SolverReport], path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.as_dict() for r in reports], fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Multiobjective search (nondominated sorting + crowding distance)
# ---------------------------------------------------------------------------

def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """True if objective vector a Pareto-dominates b (all <=, one <)."""
    return bool(np.all(a <= b) and np.any(a < b))


def _dominance(values: np.ndarray) -> np.ndarray:
    """Matrix whose entry [i, j] is True where row i of ``values``
    Pareto-dominates row j."""
    a, b = values[:, None, :], values[None, :, :]
    return np.all(a <= b, axis=2) & np.any(a < b, axis=2)


def _nondominated_sort(values: np.ndarray) -> list[np.ndarray]:
    """Fronts of ``values``, best first, each in ascending index order.

    Every member of a front is dominated only by members of earlier fronts,
    so removing a front subtracts its dominance rows from the counts.
    """
    dominance = _dominance(values)
    dom_count = dominance.sum(axis=0)
    unranked = np.ones(len(values), dtype=bool)
    fronts = []
    current = np.nonzero(dom_count == 0)[0]
    while current.size:
        fronts.append(current)
        unranked[current] = False
        dom_count -= dominance[current].sum(axis=0)
        current = np.nonzero(unranked & (dom_count == 0))[0]
    return fronts


def _crowding_distance(values: np.ndarray) -> np.ndarray:
    n, m = values.shape
    dist = np.zeros(n)
    for k in range(m):
        order = np.argsort(values[:, k])
        vmin, vmax = values[order[0], k], values[order[-1], k]
        dist[order[0]] = dist[order[-1]] = np.inf
        if vmax - vmin < 1e-15:
            continue
        dist[order[1:-1]] += (values[order[2:], k] - values[order[:-2], k]) / (vmax - vmin)
    return dist


def pareto_front(objectives, space: SearchSpace, population: int = 40,
                 generations: int = 40, seed: int = 0):
    """Evolutionary multiobjective search (nondominated sorting + crowding
    distance selection).  ``objectives`` maps a point to a vector of values
    to minimize.  Returns a list of (point, values) pairs that is strictly
    mutually non-dominated."""
    if population < 4:
        raise InputDataError("population must be >= 4")
    if generations < 0:
        raise InputDataError("generations must be >= 0")
    rng = np.random.default_rng(seed)
    lo, hi = space.lower, space.upper
    span = np.where(hi > lo, hi - lo, 1.0)

    def evaluate(generation):
        rows = []
        for x in space.round_point(generation):
            vals = np.asarray(objectives(x), dtype=float)
            if vals.ndim != 1 or len(vals) < 2:
                raise InputDataError("objectives must return a vector of >= 2 values")
            rows.append(vals)
        return np.array(rows)

    pop = lo + rng.uniform(size=(population, space.dim)) * (hi - lo)
    vals = evaluate(pop)

    for _ in range(generations):
        children = np.empty_like(pop)
        for k in range(population):
            i, j = rng.integers(population, size=2)
            a = pop[i] if rng.uniform() < 0.5 else pop[j]
            i, j = rng.integers(population, size=2)
            b = pop[i] if rng.uniform() < 0.5 else pop[j]
            alpha = rng.uniform(-0.1, 1.1, size=space.dim)
            child = alpha * a + (1 - alpha) * b
            mutate = rng.uniform(size=space.dim) < 0.2
            child = np.where(mutate, child + rng.normal(0, 0.1, space.dim) * span, child)
            children[k] = np.clip(child, lo, hi)
        child_vals = evaluate(children)

        all_pop = np.vstack([pop, children])
        all_vals = np.vstack([vals, child_vals])
        fronts = _nondominated_sort(all_vals)
        keep = []
        for front in fronts:
            if len(keep) + len(front) <= population:
                keep.extend(front.tolist())
            else:
                dist = _crowding_distance(all_vals[front])
                order = front[np.argsort(-dist)]
                keep.extend(order[: population - len(keep)].tolist())
                break
        keep = np.array(keep, dtype=int)
        pop, vals = all_pop[keep], all_vals[keep]

    # final strict filter: drop any dominated member, and any member close
    # (np.allclose, the earlier member as reference) to an earlier kept one
    rounded = space.round_point(pop)
    dominated = _dominance(vals).any(axis=0)
    close = (np.isclose(rounded[:, None], rounded[None]).all(axis=2)
             & np.isclose(vals[:, None], vals[None]).all(axis=2))
    kept = []
    for i in np.nonzero(~dominated)[0]:
        if not close[i, kept].any():
            kept.append(i)
    return [(rounded[i], vals[i]) for i in kept]
