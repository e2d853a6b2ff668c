"""Simulation runner: statistics, trace files, reproducibility, monitors."""

import csv
import json
import math
import statistics
from pathlib import Path

import pytest

from surplan.errors import ContractError
from surplan.planner import ATTRACTION_TIE_TOLERANCE, Planner
from surplan.product import offline_phase
from surplan.scenario import load_scenario
from surplan.sim import (
    MetricStats,
    RunResult,
    StepRecord,
    compute_stats,
    emit_outputs,
    read_trace,
    recompute_stats_from_trace,
    run_experiment,
    write_timeseries,
    write_trace,
)

from mission_checks import check_alternation, check_never_visits

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="module")
def triangle_result():
    scenario = load_scenario(SCENARIOS / "triangle.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    return scenario, run_experiment(scenario, offline=offline)


def test_metric_stats_hand_example():
    stats = MetricStats.from_samples([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert stats.run_means == (2.0, 5.0)
    assert stats.run_variances == (
        statistics.pvariance([1.0, 2.0, 3.0]),
        statistics.pvariance([4.0, 5.0, 6.0]),
    )
    assert stats.avg == 3.5
    assert stats.var == pytest.approx(2.0 / 3.0)
    assert stats.spread_percent == pytest.approx(100.0 * statistics.pstdev([2.0, 5.0]) / 3.5)


def test_metric_stats_empty_and_single():
    stats = MetricStats.from_samples([[], [7.0]])
    assert math.isnan(stats.run_means[0])
    assert stats.run_means[1] == 7.0
    assert stats.avg == 7.0
    assert math.isnan(stats.spread_percent)


def test_run_metrics_derive_from_records(triangle_result):
    _, result = triangle_result
    run = result.runs[0]
    # reward samples exclude the step-0 row
    assert len(run.rewards) == len(run.records) - 1
    times = [rec.time for rec in run.records if rec.survey]
    assert run.survey_times == times
    assert run.inter_survey_times == [b - a for a, b in zip(times, times[1:])]


def test_experiment_shape_and_determinism(triangle_result):
    scenario, result = triangle_result
    assert len(result.runs) == scenario.runs
    for run in result.runs:
        assert len(run.records) == scenario.iterations + 1
        assert run.records[0].step == 0
        assert run.records[0].attraction is None and run.records[0].cost is None
        assert run.records[0].reward == 0.0
    again = run_experiment(scenario, offline=result.offline)
    for a, b in zip(result.runs, again.runs):
        assert a.records == b.records


def test_trace_round_trip_and_stats_recomputation(tmp_path, triangle_result):
    _, result = triangle_result
    paths = emit_outputs(result, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "stats.json",
        "stats.txt",
        "timeseries.csv",
        "trace.csv",
    ]
    records = read_trace(paths["trace"])
    flat = [rec for run in result.runs for rec in run.records]
    assert records == flat

    redone = recompute_stats_from_trace(paths["trace"])
    for metric in ("reward_per_transition", "inter_survey_time"):
        mine = getattr(result.stats, metric)
        theirs = getattr(redone, metric)
        assert mine.run_means == theirs.run_means
        assert mine.run_variances == theirs.run_variances
        assert abs(mine.avg - theirs.avg) <= 1e-9
        assert abs(mine.var - theirs.var) <= 1e-9

    payload = json.loads(paths["stats_json"].read_text())
    assert payload["stats"]["reward_per_transition"]["avg"] == pytest.approx(
        result.stats.reward_per_transition.avg
    )
    assert payload["runs"] == len(result.runs)
    assert payload["offline_seconds"] >= 0.0


def test_stats_json_reports_local_run_cache_sizes(tmp_path, triangle_result):
    scenario, result = triangle_result
    payload = json.loads(emit_outputs(result, tmp_path)["stats_json"].read_text())
    block = payload["local_runs"]
    assert set(block) == {
        "fans", "searches", "nodes", "classes", "cells", "segments", "hits", "misses",
        "relations", "build_seconds", "views",
    }
    cache = result.offline.local_run_cache(scenario.visibility, scenario.horizon)
    # the relations interned for admission, at least the roots' identities
    assert block["relations"] == cache.sizes()["relations"] >= 1
    assert 1 <= block["fans"] <= len(cache.fans)
    # the first fan searches; a fan whose set an earlier search kept does not
    assert 1 <= block["searches"] <= block["fans"]
    assert block["nodes"] <= sum(len(fan.state) for fan in cache.fans.values())
    # every fan holds at least one run, and a segment for its move and for
    # the subset the automaton state of the product move admits
    assert block["nodes"] >= block["fans"]
    # every fan holds at least one class, and every class at least one node
    assert block["fans"] <= block["classes"] <= block["nodes"]
    # the shipped triangle scores by max-sum, which indexes no cell
    assert scenario.potential_name == "max-sum" and block["cells"] == 0
    assert block["segments"] >= 2 * block["fans"]
    # every miss built one fan; every other lookup hit
    assert block["misses"] == block["fans"]
    assert block["hits"] > block["misses"]
    # the time spent building the fans, a part of the run's decisions
    assert 0 < block["build_seconds"] <= cache.sizes()["build_seconds"]
    # one decision view per product state some decision left, whose system
    # and automaton states name it
    left = {(rec.ts_state, rec.ba_state) for run in result.runs for rec in run.records[:-1]}
    assert block["views"] == len(left) == len(cache.views)


@pytest.mark.parametrize(
    "overrides",
    # with max-single, a decision that sees no reward scores every move 0
    [{}, {"potential": "max-single", "preference": "cubic"}],
)
def test_stats_json_reports_planner_ties_and_zero_attraction_steps(
    tmp_path, monkeypatch, overrides
):
    infos = []
    original = Planner.step

    def recorded(self, field):
        infos.append(original(self, field))
        return infos[-1]

    monkeypatch.setattr(Planner, "step", recorded)
    result = run_experiment(load_scenario(SCENARIOS / "triangle.ini", overrides))
    payload = json.loads(emit_outputs(result, tmp_path)["stats_json"].read_text())
    ties = sum(
        1
        for info in infos
        if sum(a >= max(info.attractions) - ATTRACTION_TIE_TOLERANCE for a in info.attractions) > 1
    )
    zero = sum(1 for info in infos if max(info.attractions) == 0.0)
    assert len(infos) == result.scenario.runs * result.scenario.iterations
    assert payload["planner"] == {"ties": ties, "zero_attraction_steps": zero}
    assert ties > 0
    assert (zero > 0) == bool(overrides)
    # only max-single, which takes a run's best position, indexes class cells
    assert (payload["local_runs"]["cells"] > 0) == bool(overrides)


def test_stats_json_reports_the_longest_accepting_core_gap(tmp_path):
    """Each run's longest stretch between accepting-core visits, bounded by
    the run's first and last rows, from a plain loop over trace.csv."""
    scenario = load_scenario(SCENARIOS / "default_grid.ini", {"runs": 2, "iterations": 150})
    result = run_experiment(scenario)
    paths = emit_outputs(result, tmp_path)
    trimmed = result.offline.trimmed
    core = {
        (trimmed.ts.state_name(q), s)
        for q, s, f in zip(trimmed.ts_of.tolist(), trimmed.ba_of.tolist(), trimmed.f_inf)
        if f
    }
    by_run = {}
    with open(paths["trace"], newline="") as handle:
        for row in csv.DictReader(handle):
            by_run.setdefault(int(row["run"]), []).append(row)
    expected = []
    for rows in by_run.values():
        longest_steps, longest_weight = 0, 0.0
        last_step, last_time = 0, 0.0
        for i, row in enumerate(rows):
            step, time = int(row["step"]), float(row["time"])
            if (row["ts_state"], int(row["ba_state"])) in core or i == len(rows) - 1:
                longest_steps = max(longest_steps, step - last_step)
                longest_weight = max(longest_weight, time - last_time)
                last_step, last_time = step, time
        expected.append({"steps": longest_steps, "weight": longest_weight})
    payload = json.loads(paths["stats_json"].read_text())
    assert payload["longest_core_gap"] == expected
    # the runs visit the core, and not only at their ends
    assert all(0 < gap["steps"] < scenario.iterations for gap in expected)


@pytest.mark.parametrize("name", ["default_grid.ini", "triangle.ini"])
def test_stats_json_reports_survey_visits_counted_from_the_trace(tmp_path, name):
    """Each run's visits to each surveyed system state, by name, equal a
    recount of trace.csv's rows with the survey flag set; a surveyed state
    no row visits reads 0."""
    scenario = load_scenario(SCENARIOS / name, {"runs": 2, "iterations": 120})
    result = run_experiment(scenario)
    paths = emit_outputs(result, tmp_path)
    ts = scenario.ts
    surveyed = [
        ts.state_name(q) for q in range(ts.n) if scenario.surveillance_prop in ts.labels[q]
    ]
    expected = [dict.fromkeys(surveyed, 0) for _ in range(scenario.runs)]
    with open(paths["trace"], newline="") as handle:
        for row in csv.DictReader(handle):
            if row["survey"] == "1":
                expected[int(row["run"])][row["ts_state"]] += 1
    payload = json.loads(paths["stats_json"].read_text())
    assert payload["survey_visits"] == expected
    assert all(sum(visits.values()) > 0 for visits in expected)


def test_step_records_refuse_assignment_and_compare_by_field():
    record = StepRecord(0, 1, 2.0, "q1", 0, "mission", 1.5, 2.5, 3.0, 0.0, True)
    with pytest.raises(AttributeError):
        record.reward = 1.0
    assert record == StepRecord(0, 1, 2.0, "q1", 0, "mission", 1.5, 2.5, 3.0, 0.0, True)
    assert record != StepRecord(0, 1, 2.0, "q1", 0, "mission", 1.5, 2.5, 4.0, 0.0, True)
    assert hash(record) == hash(StepRecord(*record))


def test_stats_json_reports_step_latency_tail(tmp_path, triangle_result):
    _, result = triangle_result
    payload = json.loads(emit_outputs(result, tmp_path)["stats_json"].read_text())
    median = payload["online_step_seconds_median"]
    p95 = payload["online_step_seconds_p95"]
    top = payload["online_step_seconds_max"]
    assert 0.0 < median <= p95 <= top
    assert top == max(result.step_seconds)


def test_stats_json_reports_offline_stage_timings(tmp_path):
    scenario = load_scenario(SCENARIOS / "triangle.ini", {"runs": 1, "iterations": 5})
    result = run_experiment(scenario)
    payload = json.loads(emit_outputs(result, tmp_path)["stats_json"].read_text())
    stages = payload["offline_stages"]
    assert list(stages) == ["automaton", "product", "distances", "trim"]
    assert stages == result.offline.timings
    assert all(seconds >= 0.0 for seconds in stages.values())
    # offline_seconds is the stages' total, as `surplan check` prints it
    assert payload["offline_seconds"] == sum(stages.values())


def test_a_run_handed_an_offline_result_reports_its_stage_total(tmp_path, triangle_result):
    """offline_seconds is the handed result's offline time, not the near-zero
    time the run spent obtaining the result."""
    _, result = triangle_result
    payload = json.loads(emit_outputs(result, tmp_path)["stats_json"].read_text())
    assert payload["offline_stages"] == result.offline.timings
    assert payload["offline_seconds"] == sum(payload["offline_stages"].values()) > 0.0


def test_a_run_refuses_an_offline_result_over_another_system():
    """The runs name and reward the states of the offline result's system, so
    one built over another system than the scenario's is refused, not read
    with the scenario's state names."""
    grid = load_scenario(SCENARIOS / "default_grid.ini", {"runs": 1, "iterations": 5})
    triangle = load_scenario(SCENARIOS / "triangle.ini")
    offline = offline_phase(triangle.ts, triangle.formula, triangle.surveillance_prop)
    with pytest.raises(ContractError, match="another system"):
        run_experiment(grid, offline=offline)


def test_timeseries_accumulates_and_resets(tmp_path, triangle_result):
    _, result = triangle_result
    path = tmp_path / "ts.csv"
    write_timeseries(result.runs, path)
    lines = path.read_text().strip().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    for run in result.runs:
        mine = [row for row in rows if int(row[0]) == run.index]
        acc = 0.0
        for rec, row in zip(run.records, mine):
            acc += rec.reward
            assert float(row[1]) == rec.time
            assert float(row[2]) == acc
            if rec.survey:
                acc = 0.0


def test_run_seeds_choose_generator_material(tmp_path):
    scenario = load_scenario(
        SCENARIOS / "triangle.ini", {"runs": 2, "iterations": 25}
    )
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    base = run_experiment(scenario, offline=offline)
    from dataclasses import replace

    reseeded = replace(scenario, run_seeds=(401, 402))
    other = run_experiment(reseeded, offline=offline)
    assert any(
        a.records != b.records for a, b in zip(base.runs, other.runs)
    )
    again = run_experiment(reseeded, offline=offline)
    for a, b in zip(other.runs, again.runs):
        assert a.records == b.records


def test_monitors_on_synthetic_records(triangle_ts):
    def rec(step, name, survey=False):
        return StepRecord(
            run=0,
            step=step,
            time=float(step),
            ts_state=name,
            ba_state=0,
            subgoal="surveillance",
            attraction=0.0,
            cost=0.0,
            reward=0.0,
            elapsed=0.0,
            survey=survey,
        )

    # q0 carries a, q2 carries b; q1 is plain
    good = [rec(0, "q0"), rec(1, "q1"), rec(2, "q2"), rec(3, "q1"), rec(4, "q0")]
    assert check_alternation(good, triangle_ts, "a", "b") == []
    bad = [rec(0, "q0"), rec(1, "q1"), rec(2, "q0")]
    assert check_alternation(bad, triangle_ts, "a", "b") == [2]
    assert check_never_visits(good, triangle_ts, "b") == [2]
    assert check_never_visits([rec(0, "q1")], triangle_ts, "b") == []


def test_trace_rejects_missing_columns(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("run,step\n0,0\n")
    with pytest.raises(Exception):
        read_trace(path)


def test_write_trace_blank_cost_round_trips(tmp_path, triangle_result):
    _, result = triangle_result
    path = tmp_path / "t.csv"
    write_trace(result.runs, path)
    head = path.read_text().splitlines()
    first_data = head[1].split(",")
    # the step-0 row leaves attraction and cost empty
    assert first_data[6] == "" and first_data[7] == ""
    parsed = read_trace(path)
    assert parsed[0].attraction is None and parsed[0].cost is None
