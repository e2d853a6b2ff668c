"""Run the default 10x10 case study once and print the full report."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from surplan import ScenarioError, default_case_study, format_stats, offline_phase, run_experiment
from surplan.cli import _say


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pot", default="max-sum", help="potential function")
    parser.add_argument("--pref", default="threshold", help="preference function")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--iterations", type=int, default=100)
    args = parser.parse_args()

    try:
        scenario = default_case_study(
            potential_name=args.pot,
            preference_name=args.pref,
            seed=args.seed,
            runs=args.runs,
            iterations=args.iterations,
        )
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    _say(f"mission:          {scenario.formula_text}")
    _say(f"automaton states: {offline.ba.n_states} ({len(offline.ba.accepting)} accepting)")
    _say(f"product states:   {offline.product.n} ({offline.trimmed.n} after trimming)")
    _say(f"offline time:     {sum(offline.timings.values()):.2f}s")
    _say()

    result = run_experiment(scenario, offline=offline)
    _say(format_stats(result.stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
