"""Fast tests of the benchmark's own code.

    python -m pytest perfbench/tests -q

Each workload runs shrunk, end to end and traced, through ``run.py``; the
printed metrics must be exactly those ``BENCHMARK.json`` declares. The output
checks must also reject traces and products that break the properties they
guard.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from workloads import SHRUNK, WORKLOADS, scenario_text  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--shrink",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert list(SHRUNK) == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_shrunk_workload_runs_with_every_check_passing(workload, trace):
    code, lines = run_bench(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    info = json.loads(lines[-2])
    assert all(len(sha) == 64 for sha in info["trace_sha256"]) and info["product_states"] > 0


def test_missing_program_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [
            sys.executable, str(tmp_path / BENCH.name / "run.py"),
            "--workload", "case_study", "--seed", "1", "--seconds", "0", "--trace", "0",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_scenario_text_takes_the_seed():
    text = scenario_text(WORKLOADS["case_study"], 12345)
    assert "seed = 12345" in text
    assert text.replace("12345", "1") == scenario_text(WORKLOADS["case_study"], 1)


# -- the checks reject what they guard against --------------------------------

WORKLOAD = SHRUNK["case_study"]


def write_run(tmp_path, cells, rewards, times=None):
    """A one-run trace and stats file for a hand-written path."""
    if times is None:
        times = [0.0]
        for a, b in zip(cells, cells[1:]):
            times.append(times[-1] + (checks.move_weight(WORKLOAD, a, b) or 0.0))
    rows = ["run,step,time,ts_state,ba_state,subgoal,attraction,cost,reward,elapsed,survey"]
    for step, ((r, c), t, x) in enumerate(zip(cells, times, rewards)):
        rows.append(f"0,{step},{t!r},r{r}c{c},0,surveillance,,,{x!r},0.0,0")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(rows) + "\n")
    stats = tmp_path / "stats.json"
    moves = rewards[1:]
    means = [sum(moves) / len(moves)]
    stats.write_text(json.dumps({"stats": {"reward_per_transition": {"run_means": means}}}))
    return trace, stats


def check(tmp_path, cells, rewards, times=None):
    workload = replace(WORKLOAD, runs=1, iterations=len(cells) - 1)
    trace, stats = write_run(tmp_path, cells, rewards, times)
    return checks.check_trace(workload, trace, stats, core=set(), gap_bound=1e9)


GOOD_PATH = [(9, 0), (8, 0), (7, 1), (6, 0), (5, 0), (5, 1)]


def test_a_good_path_passes(tmp_path):
    assert check(tmp_path, GOOD_PATH, [0.0, 3.0, 0.0, 60.0, 0.0, 1.0]) == []


@pytest.mark.parametrize(
    "cells, rewards, times, expected",
    [
        (GOOD_PATH[:2] + [(6, 1)], [0.0, 0.0, 0.0], None, "path"),
        (GOOD_PATH, [0.0] * 6, [0.0, 2.0, 5.0, 8.0, 10.0, 13.0], "time"),
        (GOOD_PATH + [(4, 1)], [0.0] * 7, None, "unsafe"),
        (GOOD_PATH, [0.0, 61.0, 0.0, 0.0, 0.0, 0.0], None, "reward"),
        (GOOD_PATH, [0.0, -1.0, 0.0, 0.0, 0.0, 0.0], None, "reward"),
    ],
)
def test_trace_checks_reject_broken_runs(tmp_path, cells, rewards, times, expected):
    failures = check(tmp_path, cells, rewards, times)
    assert failures and all(f.startswith(expected) for f in failures)


def test_alternation_break_is_rejected(tmp_path):
    path = [(9, col) for col in range(10)] + [(9, 8), (9, 9)]
    failures = check(tmp_path, path, [0.0] * len(path))
    assert failures == ["alternation: run 0 visits b twice in a row (step 11)"]


def test_reward_per_transition_must_match_stats(tmp_path):
    trace, stats = write_run(tmp_path, GOOD_PATH, [0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
    stats.write_text(json.dumps({"stats": {"reward_per_transition": {"run_means": [0.7]}}}))
    workload = replace(WORKLOAD, runs=1, iterations=5)
    failures = checks.check_trace(workload, trace, stats, core=set(), gap_bound=1e9)
    assert len(failures) == 1 and failures[0].startswith("reward")


def test_core_visits_must_keep_within_the_bound(tmp_path):
    workload = replace(WORKLOAD, runs=1, iterations=5)
    trace, stats = write_run(tmp_path, GOOD_PATH, [0.0] * 6)
    core = {("r7c1", 0)}
    assert checks.check_trace(workload, trace, stats, core, gap_bound=3.0) == []
    assert checks.check_trace(workload, trace, stats, core, gap_bound=2.0)
    assert checks.check_trace(workload, trace, stats, {("r0c0", 0)}, gap_bound=2.0)


def chain_product(w_pi, marks):
    """Three states 0 -> 1 -> 2 -> 2 with unit weights; state 2 is surveyed."""
    return SimpleNamespace(
        n=3,
        edge_src=np.array([0, 1, 2]),
        edge_dst=np.array([1, 2, 2]),
        edge_weight=np.array([1.0, 1.0, 1.0]),
        w_pi=np.array(w_pi),
        w_phi_v=np.array(w_pi),
        s_pi_inf=np.array([False, False, True]),
        f_inf=np.array([False, False, True]),
        ind_pi=np.array(marks),
    )


def test_product_check_accepts_exact_fields():
    assert checks.check_product(chain_product([2.0, 1.0, 0.0], [True, True, False])) == []


def test_product_check_rejects_a_wrong_distance():
    failures = checks.check_product(chain_product([3.0, 1.0, 0.0], [True, True, False]))
    assert any(f.startswith("bellman") for f in failures)


def test_product_check_rejects_a_missing_descent_mark():
    failures = checks.check_product(chain_product([2.0, 1.0, 0.0], [False, True, False]))
    assert any(f.startswith("descent") for f in failures)


def test_decision_check_rejects_a_non_maximal_choice():
    good = SimpleNamespace(step=1, attraction=5.0, attractions=(1.0, 5.0))
    bad = SimpleNamespace(step=2, attraction=1.0, attractions=(1.0, 5.0))
    assert checks.check_decisions([good]) == []
    assert checks.check_decisions([good, bad]) == ["attraction: step 2 chose 1.0, the best was 5.0"]
