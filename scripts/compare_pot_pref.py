"""Sweep all six potential/preference pairs on one scenario and tabulate
mean inter-survey time and mean reward per transition for each pair."""

import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from surplan import ScenarioError, load_scenario, offline_phase, rewards, run_experiment
from surplan.cli import _say

POTENTIALS = tuple(rewards.POTENTIALS)
PREFERENCES = tuple(rewards.PREFERENCES)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "scenario", nargs="?", type=Path,
        default=Path(__file__).resolve().parent.parent / "scenarios" / "default_grid.ini",
        help="scenario file (default: the shipped 10x10 case study, default_grid.ini)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--iterations", type=int, default=None)
    args = parser.parse_args()

    # the loader validates the overrides as it validates a scenario file's settings
    overrides = {
        key: value
        for key, value in (
            ("seed", args.seed), ("runs", args.runs), ("iterations", args.iterations)
        )
        if value is not None
    }
    try:
        scenario = load_scenario(args.scenario, overrides)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    _say(
        f"{scenario.name}: {scenario.runs} runs x {scenario.iterations} iterations, "
        f"seed {scenario.seed}"
    )
    _say(f"{'potential':<12} {'preference':<12} {'inter-survey':>14} {'reward/step':>14}")
    for pot in POTENTIALS:
        for pref in PREFERENCES:
            result = run_experiment(
                dataclasses.replace(
                    scenario, potential_name=pot, preference_name=pref
                ),
                offline=offline,
            )
            survey = result.stats.inter_survey_time.avg
            reward = result.stats.reward_per_transition.avg
            _say(f"{pot:<12} {pref:<12} {survey:>14.2f} {reward:>14.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
