"""Command-line interface: check a scenario, run an experiment, or redo stats."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ContractError, LtlSyntaxError, MissionInfeasible, ScenarioError, ValidationError
from .product import offline_phase
from .scenario import load_scenario
from .sim import emit_outputs, format_stats, recompute_stats_from_trace, run_experiment


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", type=Path, help="scenario file (INI format)")
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument("--runs", type=int, default=None, help="override the number of runs")
    parser.add_argument(
        "--iterations", type=int, default=None, help="override iterations per run"
    )
    parser.add_argument("--pot", default=None, help="override the potential function")
    parser.add_argument("--pref", default=None, help="override the preference function")


def _overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.iterations is not None:
        overrides["iterations"] = args.iterations
    if args.pot is not None:
        overrides["potential"] = args.pot
    if args.pref is not None:
        overrides["preference"] = args.pref
    return overrides


def command_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    label_ok = offline.accepting_label_condition
    print(f"scenario:            {scenario.name}")
    print(f"states:              {scenario.ts.n}")
    print(f"mission:             {scenario.formula_text}")
    print(f"automaton states:    {offline.ba.n_states} ({len(offline.ba.accepting)} accepting)")
    print(f"product states:      {offline.product.n} ({offline.trimmed.n} after trimming)")
    print(f"surveillance states: {int(offline.trimmed.s_pi_inf.sum())} recurrent in product")
    print(f"optimality condition: {'holds' if label_ok else 'does not hold'}")
    for stage, seconds in offline.timings.items():
        print(f"{stage + ' time:':<21}{seconds:.3f}s")
    total = sum(offline.timings.values())
    print(f"offline time:        {total:.2f}s")
    if not offline.feasible:
        print("Mission cannot be accomplished.")
        return 1
    print("feasible:            yes")
    return 0


def command_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, _overrides(args))
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"cannot create output directory {args.out}: {exc}") from exc
    try:
        result = run_experiment(scenario)
    except MissionInfeasible as exc:
        print(exc)
        return 1
    paths = emit_outputs(result, args.out)
    print(format_stats(result.stats))
    print()
    for kind, path in paths.items():
        print(f"{kind:<12} {path}")
    return 0


def command_stats(args: argparse.Namespace) -> int:
    stats = recompute_stats_from_trace(args.trace)
    print(format_stats(stats))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surplan",
        description="surveillance planning with local reward collection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a scenario and report offline analysis")
    _add_scenario_arguments(check)
    check.set_defaults(handler=command_check)

    run = sub.add_parser("run", help="run an experiment and write traces and statistics")
    _add_scenario_arguments(run)
    run.add_argument(
        "--out", type=Path, default=Path("out"), help="output directory (default: ./out)"
    )
    run.set_defaults(handler=command_run)

    stats = sub.add_parser("stats", help="recompute statistics from an existing trace")
    stats.add_argument("trace", type=Path, help="trace.csv written by the run command")
    stats.set_defaults(handler=command_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioError, ValidationError, LtlSyntaxError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
