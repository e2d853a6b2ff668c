"""The benchmark workloads' traces, pinned.

Each benchmark workload's first round (round seed 1000) is written from
``perfbench/workloads.py``, loaded from disk and run the way ``surplan run``
runs a scenario file. Its ``trace.csv`` must keep the SHA-256 the benchmark
records for it, so a change that moves a single decision fails here.
"""

import hashlib

import pytest

from surplan.product import offline_phase
from surplan.scenario import load_scenario
from surplan.sim import emit_outputs, run_experiment

PINS = {
    "case_study": "34830cceef4e83f3692698043e5bb689132651f7f582a842c5c6f8ab8398c305",
    "long_patrol": "dd825e224e0b9ed79d11211a98d63a5cbd7ae9608b551f12a7ff570d2c2506d9",
    "large_mission": "4419efa1eddb75939985e1dddedbc4a83b110b105a4eaeecf002e5f58e62c216",
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_workload_round_traces_are_pinned(tmp_path, workloads, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(workloads.scenario_text(workloads.WORKLOADS[name], 1000))
    scenario = load_scenario(path)
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    result = run_experiment(scenario, offline=offline)
    paths = emit_outputs(result, tmp_path / "out")
    assert hashlib.sha256(paths["trace"].read_bytes()).hexdigest() == PINS[name]
