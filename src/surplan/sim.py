"""Simulation runner: repeated planner executions plus statistics and traces.

One experiment executes the planner for a fixed number of iterations on a
scenario, several times with fresh reward fields, and reports two metrics per
run: the average reward collected per transition and the time between
consecutive surveys.  Cross-run aggregation follows the convention that AVG
is the mean of per-run averages, VAR the mean of per-run variances, and the
spread of per-run averages is reported as a percentage of their mean.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractError, ScenarioError
from .planner import CostEvaluator, Planner
from .product import OfflineResult, offline_phase
from .rewards import DecaySpawnDynamics, RewardField, make_potential, make_preference
from .scenario import Scenario


@dataclass(frozen=True)
class StepRecord:
    """One row of the per-step trace.

    The step-0 row describes the initial position; no decision was taken to
    get there, so its attraction and cost are None.
    """

    run: int
    step: int
    time: float
    ts_state: str
    ba_state: int
    subgoal: str
    attraction: float | None
    cost: float | None
    reward: float
    elapsed: float
    survey: bool


@dataclass
class RunResult:
    """Everything recorded about a single planner execution."""

    index: int
    records: list[StepRecord]
    accepting_positions: list[int]
    step_seconds: list[float]
    # Planner.tied_steps and Planner.zero_attraction_steps after the run
    ties: int = 0
    zero_attraction_steps: int = 0

    @property
    def rewards(self) -> list[float]:
        return [r.reward for r in self.records if r.step > 0]

    @property
    def survey_times(self) -> list[float]:
        return [r.time for r in self.records if r.survey]

    @property
    def inter_survey_times(self) -> list[float]:
        times = self.survey_times
        return [b - a for a, b in zip(times, times[1:])]


@dataclass(frozen=True)
class MetricStats:
    """Per-run averages and variances of one metric, aggregated across runs.

    ``avg`` is the mean of the per-run averages and ``var`` the mean of the
    per-run population variances.  ``spread_percent`` expresses the standard
    deviation of the per-run averages as a percentage of their mean.
    """

    run_means: tuple[float, ...]
    run_variances: tuple[float, ...]
    avg: float
    var: float
    spread_percent: float

    @staticmethod
    def from_samples(per_run: Sequence[Sequence[float]]) -> "MetricStats":
        means = tuple(_mean(sample) for sample in per_run)
        variances = tuple(_population_variance(sample) for sample in per_run)
        avg = _mean([m for m in means if not math.isnan(m)])
        var = _mean([v for v in variances if not math.isnan(v)])
        finite = [m for m in means if not math.isnan(m)]
        if len(finite) >= 2 and avg != 0.0 and not math.isnan(avg):
            spread = 100.0 * statistics.pstdev(finite) / abs(avg)
        else:
            spread = float("nan")
        return MetricStats(means, variances, avg, var, spread)

    def as_dict(self) -> dict:
        return {
            "run_means": list(self.run_means),
            "run_variances": list(self.run_variances),
            "avg": self.avg,
            "var": self.var,
            "spread_percent": self.spread_percent,
        }


def _mean(sample: Sequence[float]) -> float:
    return statistics.fmean(sample) if sample else float("nan")


def _population_variance(sample: Sequence[float]) -> float:
    if not sample:
        return float("nan")
    return statistics.pvariance(sample)


@dataclass(frozen=True)
class ExperimentStats:
    reward_per_transition: MetricStats
    inter_survey_time: MetricStats

    def as_dict(self) -> dict:
        return {
            "reward_per_transition": self.reward_per_transition.as_dict(),
            "inter_survey_time": self.inter_survey_time.as_dict(),
        }


@dataclass
class ExperimentResult:
    scenario: Scenario
    offline: OfflineResult
    runs: list[RunResult]
    stats: ExperimentStats
    offline_seconds: float
    # LocalRunCache.sizes() of the offline result's cache after the runs
    local_runs: dict[str, int]

    @property
    def planner(self) -> dict[str, int]:
        """Tied decisions and zero-attraction fallbacks, summed over runs."""
        return {
            "ties": sum(run.ties for run in self.runs),
            "zero_attraction_steps": sum(run.zero_attraction_steps for run in self.runs),
        }

    @property
    def step_seconds(self) -> list[float]:
        return [s for run in self.runs for s in run.step_seconds]


def compute_stats(runs: Sequence[RunResult]) -> ExperimentStats:
    return ExperimentStats(
        reward_per_transition=MetricStats.from_samples([run.rewards for run in runs]),
        inter_survey_time=MetricStats.from_samples([run.inter_survey_times for run in runs]),
    )


def run_single(
    offline: OfflineResult,
    scenario: Scenario,
    run_index: int,
    rng: np.random.Generator,
    iterations: int | None = None,
) -> RunResult:
    """Execute the planner once against freshly burned-in reward dynamics.

    The planner and the reward dynamics share ``rng``, so a run is fully
    reproducible from its seed.
    """
    iterations = scenario.iterations if iterations is None else iterations
    ts = scenario.ts
    potential = make_potential(scenario.potential_name, refresh_value=scenario.refresh_value)
    preference = make_preference(scenario.preference_name, threshold=scenario.preference_threshold)
    dynamics = DecaySpawnDynamics(rng, spawn_probability=scenario.spawn_probability)
    fld = RewardField(ts.n)
    dynamics.burn_in(fld, scenario.burn_in)

    planner = Planner(
        offline,
        potential,
        preference,
        visibility=scenario.visibility,
        horizon=scenario.horizon,
        rng=rng,
    )
    evaluator = CostEvaluator(
        ts,
        potential,
        preference,
        scenario.visibility,
        scenario.horizon,
        surveillance_prop=scenario.surveillance_prop,
        local_runs=planner.local_runs,
    )
    product = planner.product

    initial = planner.current
    records = [
        StepRecord(
            run=run_index,
            step=0,
            time=0.0,
            ts_state=ts.state_name(int(product.ts_of[initial])),
            ba_state=int(product.ba_of[initial]),
            subgoal=planner.subgoal,
            attraction=None,
            cost=None,
            reward=0.0,
            elapsed=0.0,
            survey=bool(product.surveillance[initial]),
        )
    ]
    prefix_ts = [int(product.ts_of[initial])]
    step_seconds: list[float] = []

    for _ in range(iterations):
        started = time.perf_counter()
        info = planner.step(fld)
        step_seconds.append(time.perf_counter() - started)
        cost = evaluator.cost(prefix_ts, info.ts_state, fld)
        prefix_ts.append(info.ts_state)
        reward = dynamics.on_collect(fld, info.ts_state)
        dynamics.evolve(fld, info.weight)
        records.append(
            StepRecord(
                run=run_index,
                step=info.step,
                time=info.time,
                ts_state=ts.state_name(info.ts_state),
                ba_state=info.ba_state,
                subgoal=info.subgoal_after,
                attraction=info.attraction,
                cost=cost,
                reward=reward,
                elapsed=info.elapsed_used,
                survey=info.survey,
            )
        )

    return RunResult(
        index=run_index,
        records=records,
        accepting_positions=list(planner.accepting_positions),
        step_seconds=step_seconds,
        ties=planner.tied_steps,
        zero_attraction_steps=planner.zero_attraction_steps,
    )


def run_seed_for(scenario: Scenario, run_index: int) -> list[int] | int:
    """Seed material for one run: explicit per-run seed or (seed, index) pair."""
    if scenario.run_seeds is not None:
        return scenario.run_seeds[run_index]
    return [scenario.seed, run_index]


def run_experiment(
    scenario: Scenario,
    offline: OfflineResult | None = None,
) -> ExperimentResult:
    """Run the offline phase once and the planner ``scenario.runs`` times."""
    started = time.perf_counter()
    if offline is None:
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    offline_seconds = time.perf_counter() - started

    runs = []
    for r in range(scenario.runs):
        rng = np.random.default_rng(run_seed_for(scenario, r))
        runs.append(run_single(offline, scenario, r, rng))
    return ExperimentResult(
        scenario=scenario,
        offline=offline,
        runs=runs,
        stats=compute_stats(runs),
        offline_seconds=offline_seconds,
        local_runs=offline.local_run_cache(scenario.visibility, scenario.horizon).sizes(),
    )


TRACE_COLUMNS = (
    "run",
    "step",
    "time",
    "ts_state",
    "ba_state",
    "subgoal",
    "attraction",
    "cost",
    "reward",
    "elapsed",
    "survey",
)


def write_trace(runs: Sequence[RunResult], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for run in runs:
            for rec in run.records:
                writer.writerow(
                    [
                        rec.run,
                        rec.step,
                        repr(rec.time),
                        rec.ts_state,
                        rec.ba_state,
                        rec.subgoal,
                        "" if rec.attraction is None else repr(rec.attraction),
                        "" if rec.cost is None else repr(rec.cost),
                        repr(rec.reward),
                        repr(rec.elapsed),
                        int(rec.survey),
                    ]
                )


def write_timeseries(runs: Sequence[RunResult], path: str | Path) -> None:
    """Accumulated reward since the last survey, sampled at every arrival.

    Rows at survey steps show the total right before transmission; the
    accumulator restarts from zero afterwards.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["run", "time", "collected_since_survey"])
        for run in runs:
            acc = 0.0
            for rec in run.records:
                acc += rec.reward
                writer.writerow([rec.run, repr(rec.time), repr(acc)])
                if rec.survey:
                    acc = 0.0


def read_trace(path: str | Path) -> list[StepRecord]:
    """The records of a trace file; ScenarioError if it cannot be read or parsed."""
    records = []
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            missing = set(TRACE_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ScenarioError(f"trace {path} is missing columns {sorted(missing)}")
            for row in reader:
                try:
                    records.append(
                        StepRecord(
                            run=int(row["run"]),
                            step=int(row["step"]),
                            time=float(row["time"]),
                            ts_state=row["ts_state"],
                            ba_state=int(row["ba_state"]),
                            subgoal=row["subgoal"],
                            attraction=float(row["attraction"]) if row["attraction"] else None,
                            cost=float(row["cost"]) if row["cost"] else None,
                            reward=float(row["reward"]),
                            elapsed=float(row["elapsed"]),
                            survey=bool(int(row["survey"])),
                        )
                    )
                except (TypeError, ValueError) as exc:  # TypeError: a short row
                    raise ScenarioError(f"trace {path} line {reader.line_num}: {exc}") from exc
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ScenarioError(f"cannot read trace {path}: {exc}") from exc
    return records


def recompute_stats_from_trace(path: str | Path) -> ExperimentStats:
    """Rebuild the experiment statistics from a trace file alone."""
    by_run: dict[int, list[StepRecord]] = {}
    for rec in read_trace(path):
        by_run.setdefault(rec.run, []).append(rec)
    runs = [
        RunResult(index=i, records=recs, accepting_positions=[], step_seconds=[])
        for i, recs in sorted(by_run.items())
    ]
    return compute_stats(runs)


def format_stats(stats: ExperimentStats) -> str:
    def fmt(x: float) -> str:
        return "nan" if math.isnan(x) else f"{x:.4f}"

    lines = []
    header = f"{'metric':<24}{'AVG':>12}{'VAR':>12}{'spread':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, metric in (
        ("reward per transition", stats.reward_per_transition),
        ("inter-survey time", stats.inter_survey_time),
    ):
        spread = metric.spread_percent
        spread_text = "nan" if math.isnan(spread) else f"{spread:.1f}%"
        lines.append(f"{name:<24}{fmt(metric.avg):>12}{fmt(metric.var):>12}{spread_text:>10}")
        lines.append(f"{'  per-run means':<24}" + "  ".join(fmt(m) for m in metric.run_means))
        lines.append(f"{'  per-run variances':<24}" + "  ".join(fmt(v) for v in metric.run_variances))
    return "\n".join(lines)


def emit_outputs(result: ExperimentResult, out_dir: str | Path) -> dict[str, Path]:
    """Write trace.csv, timeseries.csv, stats.txt and stats.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": out / "trace.csv",
        "timeseries": out / "timeseries.csv",
        "stats_text": out / "stats.txt",
        "stats_json": out / "stats.json",
    }
    write_trace(result.runs, paths["trace"])
    write_timeseries(result.runs, paths["timeseries"])
    paths["stats_text"].write_text(format_stats(result.stats) + "\n")
    step_seconds = result.step_seconds
    payload = {
        "scenario": result.scenario.name,
        "potential": result.scenario.potential_name,
        "preference": result.scenario.preference_name,
        "seed": result.scenario.seed,
        "runs": result.scenario.runs,
        "iterations": result.scenario.iterations,
        "stats": result.stats.as_dict(),
        "offline_seconds": result.offline_seconds,
        "offline_stages": result.offline.timings,
        "online_step_seconds_median": float(np.median(step_seconds)) if step_seconds else None,
        "online_step_seconds_p95": float(np.percentile(step_seconds, 95)) if step_seconds else None,
        "online_step_seconds_max": max(step_seconds) if step_seconds else None,
        "local_runs": result.local_runs,
        "planner": result.planner,
    }
    paths["stats_json"].write_text(json.dumps(payload, indent=2) + "\n")
    return paths


def check_never_visits(records: Sequence[StepRecord], ts, prop: str) -> list[int]:
    """Steps whose arrival state carries ``prop``; empty means never visited."""
    return [
        rec.step
        for rec in records
        if prop in ts.label(ts.state_id(rec.ts_state))
    ]


def check_alternation(records: Sequence[StepRecord], ts, first: str, second: str) -> list[int]:
    """Steps violating strict alternation between ``first`` and ``second`` visits.

    Visiting a state labeled with one of the two propositions twice without
    visiting the other in between is a violation.  States carrying both
    propositions are rejected outright.
    """
    violations = []
    last: str | None = None
    for rec in records:
        label = ts.label(ts.state_id(rec.ts_state))
        has_first = first in label
        has_second = second in label
        if has_first and has_second:
            raise ContractError(
                f"state {rec.ts_state!r} carries both {first!r} and {second!r};"
                " alternation is not checkable"
            )
        if has_first:
            if last == first:
                violations.append(rec.step)
            last = first
        elif has_second:
            if last == second:
                violations.append(rec.step)
            last = second
    return violations
