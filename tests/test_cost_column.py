"""The trace's cost column, recomputed row by row from definitions alone.

Each row's cost is the chosen move's potential plus, when the move shortens
the least weight to a surveyed state, the preference. Here the potentials
come from the local runs enumerated one move at a time and the literal
formulas, the indicator from two heap Dijkstra searches and the elapsed weight
from the walk back over the system prefix; the preference is its formula.
Every sum along a run or a prefix, here and in the library, is taken in
travel order, so each row is compared with ``==`` on fractional weights too.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from surplan import sim
from surplan.ltl import parse
from surplan.planner import Planner
from surplan.product import offline_phase
from surplan.scenario import load_scenario
from surplan.sim import run_single
from surplan.ts import TransitionSystem

from conftest import elapsed_walkback, random_ts, ts_shortening_indicator
from system_runs import literal_potential, local_runs, run_times

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PAIRS = [
    (pot, pref)
    for pot in ("max-sum", "max-single")
    for pref in ("threshold", "cubic", "cube-root")
]


def literal_preference(name, threshold, elapsed, max_potential):
    if name == "threshold":
        return 0.0 if elapsed <= threshold else max_potential + 1.0
    if name == "cubic":
        return (elapsed / threshold) ** 3 * max_potential
    return (elapsed / threshold) ** (1.0 / 3.0) * max_potential


class CostReplay:
    """Recomputes the cost column of runs over one system, caching the runs
    of each move and the indicator of each move across runs."""

    def __init__(self, scenario):
        ts = self.ts = scenario.ts
        self.surveyed = [q for q in range(ts.n) if scenario.surveillance_prop in ts.labels[q]]
        self.runs = {}
        self.indicators = {}

    def move_runs(self, scenario, q_k, q):
        key = (q_k, q)
        if key not in self.runs:
            self.runs[key] = [
                (r.states, run_times(self.ts, r))
                for r in local_runs(self.ts, q, q_k, scenario.visibility, scenario.horizon)
            ]
        return self.runs[key]

    def indicator(self, q, q_next):
        if (q, q_next) not in self.indicators:
            self.indicators[q, q_next] = ts_shortening_indicator(self.ts, q, q_next, self.surveyed)
        return self.indicators[q, q_next]

    def check(self, scenario, records, fields) -> int:
        """Asserts every decision row's cost; returns how many were checked."""
        ts = self.ts
        refresh = scenario.refresh_value if scenario.potential_name == "max-sum" else 0.0
        prefix = [ts.index[rec.ts_state] for rec in records]
        for k in range(1, len(records)):
            q_k, chosen, values = prefix[k - 1], prefix[k], fields[k - 1]
            pots = {
                q: literal_potential(
                    self.move_runs(scenario, q_k, q), q_k, values, scenario.potential_name, refresh
                )
                for q in ts.successors(q_k)
            }
            elapsed = elapsed_walkback(ts, prefix[:k], self.surveyed)
            pref = literal_preference(
                scenario.preference_name,
                scenario.preference_threshold,
                elapsed,
                max(pots.values()),
            )
            expected = pots[chosen] + self.indicator(q_k, chosen) * pref
            assert records[k].cost == expected, (k, records[k].cost, expected)
        return len(records) - 1


@pytest.fixture
def recorded_fields(monkeypatch):
    """The reward values each decision of a run saw, in order."""
    fields = []
    original = Planner.step

    def recording(self, field):
        fields.append(field.values.copy())
        return original(self, field)

    monkeypatch.setattr(Planner, "step", recording)
    return fields


def replay_pairs(scenario, offline, fields, seed) -> int:
    replay = CostReplay(scenario)
    checked = 0
    for i, (pot, pref) in enumerate(PAIRS):
        paired = dataclasses.replace(scenario, potential_name=pot, preference_name=pref)
        fields.clear()
        run = run_single(offline, paired, 0, np.random.default_rng([seed, i]))
        assert len(fields) == paired.iterations
        checked += replay.check(paired, run.records, fields)
    return checked


def test_cost_column_replays_from_definitions_on_default_grid(recorded_fields):
    scenario = load_scenario(SCENARIOS / "default_grid.ini", {"iterations": 25})
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    assert replay_pairs(scenario, offline, recorded_fields, 5) == 6 * 25


@pytest.mark.parametrize(
    "weights, horizon",
    [((1.0, 2.0, 3.0), 10.0), ((0.5, 0.75, 1.25, 2.0), 5.0), ((0.3, 0.7, 1.1), 2.8)],
    ids=["integer", "dyadic", "fractional"],
)
def test_cost_column_replays_from_definitions_on_random_systems(
    recorded_fields, weights, horizon
):
    """Random systems under ``G F a & G F sur & G !b``, whose product cuts
    some runs of a move, with every move within sight, a low preference
    threshold so the step preference fires, and horizons whose runs reach 8
    positions and more."""
    base = load_scenario(SCENARIOS / "triangle.ini", {"iterations": 40})
    rng = np.random.default_rng(73)
    systems = 0
    while systems < 4:
        ts = random_ts(rng, int(rng.integers(4, 8)), extra_edges=8, weights=weights)
        scenario = dataclasses.replace(
            base,
            ts=ts,
            formula=parse("G F a & G F sur & G !b", ts.propositions),
            formula_text="G F a & G F sur & G !b",
            visibility=ts.max_weight,
            horizon=horizon,
            preference_threshold=4.0,
        )
        offline = offline_phase(ts, scenario.formula, scenario.surveillance_prop)
        if not offline.feasible:
            continue
        systems += 1
        assert replay_pairs(scenario, offline, recorded_fields, systems) == 6 * 40


def test_later_runs_look_up_no_state_an_earlier_run_looked_up(monkeypatch):
    """Every run builds its own cost evaluator, but the per-state lookups of
    successors and fan moves live on the shared local-run cache: the second
    run looks up no state the first run did, its initial state included."""
    scenario = load_scenario(SCENARIOS / "default_grid.ini", {"runs": 2, "iterations": 40})
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    lookups = []
    run, successors = sim.run_single, TransitionSystem.successors

    def counted_run(*args, **kwargs):
        lookups.append([])
        return run(*args, **kwargs)

    def counted_successors(self, q):
        lookups[-1].append(q)
        return successors(self, q)

    monkeypatch.setattr(sim, "run_single", counted_run)
    monkeypatch.setattr(TransitionSystem, "successors", counted_successors)
    sim.run_experiment(scenario, offline=offline)
    first, second = (set(states) for states in lookups)
    assert scenario.ts.initial in first
    assert not first & second, sorted(first & second)
