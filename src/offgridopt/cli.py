"""Command-line entry point.

Subcommands: ``simulate``, ``size``, ``dispatch``, ``pareto``, ``sweep``,
``breakeven``, ``bench``.  Every run writes ``result.json`` (embedding the
fully resolved config and seed, so reruns are reproducible from the result
file alone) plus the CSV artifacts of the module it drives.  Exit status is
0 iff the result document reports success; results that hold a NaN or an
infinity are an error.

A flag declared with ``_key_flag`` sets one config key: ``main`` merges it
into the YAML mapping before ``build_config`` checks it, so ``result.json``
records it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import dispatch as dispatch_mod
from . import economics, solvers, sweeps
from .config import SCHEMA_VERSION, build_config, build_context, read_mapping
from .economics import Weights, weighted_objective
from .errors import ConfigError, InputDataError
from .seeding import substream_seed
from .simulate import Design, simulate_year
from .timeseries import write_csv


def _numbers(text: str, flag: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise InputDataError(f"{flag} expects comma-separated numbers, "
                             f"got {text!r}") from None


def _parse_design(text: str) -> Design:
    parts = _numbers(text, "--design")
    if len(parts) != 3:
        raise InputDataError("--design expects 'n_s,n_w,e_b_init'")
    return Design(*parts)


def _objective_summary(sim) -> dict:
    o = sim.objectives
    return {
        "lcoe_norm": o.lcoe_norm, "em_norm": o.em_norm, "dpsp": o.dpsp,
        "repg": o.repg, "one_minus_ref": o.one_minus_ref,
        "dg_online_hours": sim.dg_online_hours,
        # every start has its shutdown
        "dg_starts": sim.dg_starts, "dg_stops": sim.dg_starts,
        "battery_cycles": sim.battery_cycles,
        "dg_energy_kwh": sim.dg_energy_kwh,
        "res_energy_kwh": sim.res_energy_kwh,
        "dump_kwh": sim.dump_kwh, "lost_kwh": sim.lost_kwh,
        "load_kwh": sim.load_kwh, "emissions_kg": sim.emissions_kg,
        "cost_breakdown": sim.cost.as_dict(),
    }


def _write_result(out_dir: Path, command: str, config, results: dict,
                  status: str = "ok", message: str = "") -> Path:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "status": status,
        "message": message,
        "seed": config.seed if config is not None else None,
        "config": config.resolved() if config is not None else None,
        "results": results,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "result.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    return path


def _require_finite(value, where: str = "results") -> None:
    """Raise ``InputDataError`` naming the first number in ``value`` (a
    command's results) that is NaN or infinite: a run that computed one
    has not succeeded, whatever its inputs."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        for i, item in enumerate(value):
            _require_finite(item, f"{where}[{i}]")
    elif (isinstance(value, (float, np.floating))
          and not math.isfinite(value)):
        raise InputDataError(f"{where} is {value}, not a finite number")


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def cmd_simulate(args, config) -> dict:
    ctx = build_context(config)
    design = _parse_design(args.design)
    sim = simulate_year(design, ctx)
    results = {
        "design": list(design.as_vector()),
        "weighted_objective": weighted_objective(sim.objectives, config.weights),
        **_objective_summary(sim),
    }
    if args.trace:
        sim.write_trace_csv(Path(args.out) / "trace.csv")
        results["trace_csv"] = "trace.csv"
    return results


def cmd_size(args, config) -> dict:
    problem = config.sizing_problem(build_context(config))
    report = problem.solve(substream_seed(config.seed, "solver"))
    design = problem.design(report.best_point)
    sim = simulate_year(design, problem.ctx)
    # deliberately no wall-clock fields: same seed => byte-identical result
    return {
        "solver": problem.solver,
        "best_point": [float(v) for v in report.best_point],
        "best_design": list(design.as_vector()),
        "best_value": report.best_value,
        "evaluations": report.evaluations,
        **_objective_summary(sim),
    }


def cmd_dispatch(args, config) -> dict:
    ctx = build_context(config)
    design = _parse_design(args.design)
    weights4 = Weights(tuple(config.dispatch["weights"]))
    day = config.dispatch["day"]
    dctx = dispatch_mod.day_context(
        ctx, design, day, weights4, dpsp_max=config.dispatch["dpsp_max"],
        generator=config.dispatch_generator())
    result = dispatch_mod.optimize_day(
        dctx, seed=substream_seed(config.seed, "solver"),
        max_patterns=config.dispatch["max_patterns"])
    out = Path(args.out)
    result.schedule.write_csv(out / "schedule.csv", dctx)
    ev, rb = result.evaluation, result.rule_based_evaluation
    return {
        "design": list(design.as_vector()),
        "day": day,
        "feasible": result.feasible,
        "message": result.message,
        "weighted_objective": ev.weighted,
        "summary_objective": ev.summary5,
        "rule_based_weighted_objective": rb.weighted,
        "coe_norm": ev.objectives.lcoe_norm,
        "em_norm": ev.objectives.em_norm,
        "dpsp": ev.objectives.dpsp,
        "repg": ev.objectives.repg,
        "ref": 1.0 - ev.objectives.one_minus_ref,
        "c_daily_usd": ev.c_daily,
        "violations": ev.violations,
        "schedule_csv": "schedule.csv",
    }


def cmd_pareto(args, config) -> dict:
    problem = config.sizing_problem(build_context(config))
    front = solvers.pareto_front(problem.objectives, problem.space,
                                 population=args.population,
                                 generations=args.generations,
                                 seed=substream_seed(config.seed, "solver"))
    write_csv(Path(args.out) / "pareto.csv",
              ["n_s", "n_w", "e_b", "lcoe_norm", "em_norm", "dpsp", "repg",
               "one_minus_ref"],
              (problem.design(point).csv_cells() + [f"{v:.6f}" for v in vals]
               for point, vals in front))
    return {"n_points": len(front), "pareto_csv": "pareto.csv",
            "population": args.population, "generations": args.generations}


def cmd_sweep(args, config) -> dict:
    if args.values:
        spec = sweeps.SweepSpec(args.parameter,
                                tuple(_numbers(args.values, "--values")))
    else:
        spec = sweeps.SweepSpec.default(args.parameter)
    problem = config.sizing_problem(build_context(config))
    rows = sweeps.run_sweep(spec, problem,
                            seed=substream_seed(config.seed, "solver"),
                            workers=args.workers)
    out = Path(args.out)
    sweeps.sweep_to_csv(rows, out / f"sweep_{args.parameter}.csv")
    return {
        "parameter": args.parameter,
        "values": list(spec.values),
        "statuses": [r.status for r in rows],
        # a failed point has no objective
        "weighted_obj": [None if r.design is None else r.weighted_obj
                         for r in rows],
        "sweep_csv": f"sweep_{args.parameter}.csv",
    }


def cmd_breakeven(args, config) -> dict:
    crf_value = economics.system_crf(config.fin)
    extra = {}
    if args.tac is not None:
        tac, load_kwh = args.tac, args.load_kwh
        if load_kwh is None:
            raise InputDataError("--load-kwh is required with --tac")
        if args.design is not None:
            raise InputDataError("--design cannot be given with --tac")
    else:
        if args.load_kwh is not None:
            raise InputDataError("--load-kwh needs --tac")
        if not args.design:
            raise InputDataError("breakeven needs --tac/--load-kwh or --design")
        design = _parse_design(args.design)
        sim = simulate_year(design, build_context(config))
        tac, load_kwh = sim.cost.tac, sim.load_kwh
        extra = {"design": list(design.as_vector()),
                 "cost_breakdown": sim.cost.as_dict()}
    bed = economics.break_even_distance(
        tac, crf_value, load_kwh,
        config.breakeven["grid_lcoe_usd_per_kwh"],
        config.breakeven["extension_cost_usd_per_km"])
    return {"tac_usd": tac, "annual_load_kwh": load_kwh, "crf": crf_value,
            "grid_lcoe_usd_per_kwh": config.breakeven["grid_lcoe_usd_per_kwh"],
            "extension_cost_usd_per_km": config.breakeven["extension_cost_usd_per_km"],
            "break_even_distance_km": bed, **extra}


def cmd_bench(args, config) -> dict:
    """Every named solver on the configured sizing problem.  The result
    lists each solver's outcome in ``--solvers`` order; the timed table,
    ranked by the overall metric (runtime x best value, lower is better),
    goes to ``benchmark.csv`` and ``benchmark.json``."""
    problem = config.sizing_problem(build_context(config))
    seed = substream_seed(config.seed, "solver")
    reports = [replace(problem, solver=name.strip()).solve(seed)
               for name in args.solvers.split(",")]
    ranked = sorted(reports, key=lambda r: r.overall)
    out = Path(args.out)
    solvers.benchmark_to_csv(ranked, out / "benchmark.csv")
    solvers.benchmark_to_json(ranked, out / "benchmark.json")
    # deliberately no wall-clock fields: same seed => byte-identical result
    return {"table": [{"solver": r.solver,
                       "best_point": [float(v) for v in r.best_point],
                       "best_value": r.best_value,
                       "evaluations": r.evaluations} for r in reports],
            "benchmark_csv": "benchmark.csv",
            "benchmark_json": "benchmark.json"}


COMMANDS = {
    "simulate": cmd_simulate,
    "size": cmd_size,
    "dispatch": cmd_dispatch,
    "pareto": cmd_pareto,
    "sweep": cmd_sweep,
    "breakeven": cmd_breakeven,
    "bench": cmd_bench,
}


# argparse dest of a flag that sets a config key: this prefix, then the key
_KEY_DEST = "config key "


def _key_flag(p, flag: str, key: str, help: str) -> None:
    """Declare ``flag`` as setting config key ``key`` (``section.name``, or
    a top-level name) for this run."""
    p.add_argument(flag, dest=_KEY_DEST + key,
                   metavar=flag[2:].upper().replace("-", "_"),
                   help=f"{help} (sets config key {key})")


def _with_flags(raw: dict, args) -> dict:
    """``raw``, a mapping that ``build_config`` accepts, with every given key
    flag's value at its config key, over the file's value.  Flag text is read
    as a YAML value, a comma list as a flow sequence."""
    raw = dict(raw)
    for dest, text in vars(args).items():
        if not dest.startswith(_KEY_DEST) or text is None:
            continue
        key = dest[len(_KEY_DEST):]
        try:
            value = yaml.safe_load(f"[{text}]" if "," in text else text)
        except yaml.YAMLError:
            raise ConfigError(f"{key}: {text!r} is not a YAML value") from None
        section, _, name = key.rpartition(".")
        if not section:
            raw[name] = value
            continue
        raw[section] = {**(raw.get(section) or {}), name: value}
    return raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offgridopt",
        description="Design and dispatch of islanded hybrid microgrids.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="YAML config path (defaults apply if omitted)")
        _key_flag(p, "--seed", "seed", "top-level run seed")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="hourly annual simulation of one design")
    common(p)
    p.add_argument("--design", required=True, help="n_s,n_w,e_b_init")
    p.add_argument("--trace", action="store_true", help="write hourly trace CSV")

    p = sub.add_parser("size", help="global sizing optimization")
    common(p)
    _key_flag(p, "--solver", "sizing.solver",
              "one of " + ",".join(sorted(solvers.SOLVERS)))
    _key_flag(p, "--max-evals", "sizing.max_evals", "evaluation budget")
    _key_flag(p, "--weights", "weights", "w1,w2,w3,w4,w5")

    p = sub.add_parser("dispatch", help="day-ahead dispatch optimization")
    common(p)
    p.add_argument("--design", required=True, help="n_s,n_w,e_b_init")
    _key_flag(p, "--day", "dispatch.day", "day of the year, from 0")
    _key_flag(p, "--weights", "dispatch.weights", "w1,w2,w3,w4")

    p = sub.add_parser("pareto", help="multiobjective Pareto front of the sizing problem")
    common(p)
    p.add_argument("--population", type=int, default=36)
    p.add_argument("--generations", type=int, default=30)

    p = sub.add_parser("sweep", help="single-parameter sensitivity sweep")
    common(p)
    p.add_argument("--parameter", required=True, choices=sweeps.SWEEP_PARAMETERS)
    p.add_argument("--values", default=None, help="comma-separated override values")
    _key_flag(p, "--max-evals", "sizing.max_evals", "evaluation budget")
    p.add_argument("--workers", type=int, default=1,
                   help="processes that run sweep points in parallel")

    p = sub.add_parser("breakeven", help="grid-extension break-even distance")
    common(p)
    p.add_argument("--tac", type=float, default=None, help="total annualized cost [$]")
    p.add_argument("--load-kwh", type=float, default=None, help="annual load [kWh]")
    p.add_argument("--design", default=None, help="simulate this design for TAC")

    p = sub.add_parser("bench", help="benchmark solvers on the sizing problem")
    common(p)
    p.add_argument("--solvers", default="pso,ga,sa,ps,ms")
    _key_flag(p, "--max-evals", "sizing.max_evals", "evaluation budget")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = None
    try:
        raw = read_mapping(args.config) if args.config else {}
        build_config(raw)   # a flag must not hide an invalid value in the file
        config = build_config(_with_flags(raw, args))
        results = COMMANDS[args.command](args, config)
        _require_finite(results)
        _write_result(out_dir, args.command, config, results)
        return 0
    except (InputDataError, ConfigError, OSError) as exc:
        _write_result(out_dir, args.command, config, {},
                      status="error", message=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
