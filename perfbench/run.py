"""surplan benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh single-threaded process (``measure.py``) with
``PYTHONHASHSEED`` and the BLAS/OpenMP thread counts pinned. With
``--trace 0`` the last line of output is the end-to-end result. With
``--trace 1`` the workload runs twice, once plain and once with spans around
surplan's public functions, and the last line holds the per-layer metrics plus
the tracing overhead (traced minus plain median round wall time). The line
before the result records the trace's SHA-256 and the automaton and product
sizes. Outputs go to ``perfbench/out/<workload>/``. The exit code is 0 when
every output check passed, 1 when one failed and 2 when no result was made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# metric -> unit; --trace 0 reports the first table, --trace 1 the second
END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "decision_p50_ms": "ms",
    "decision_p95_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "scenario.load_s": "s",
    "ts.min_weights_s": "s",
    "buchi.to_buchi_s": "s",
    "buchi.states": "count",
    "buchi.letters": "count",
    "product.build_s": "s",
    "product.states": "count",
    "product.edges": "count",
    "product.all_pairs_s": "s",
    "product.inf_sets_self_s": "s",
    "product.surveillance_distance_s": "s",
    "product.mission_distance_s": "s",
    "product.trim_s": "s",
    "product.trimmed_states": "count",
    "product.trimmed_edges": "count",
    "ts.enumerate.planner_s": "s",
    "rewards.bundle.planner_s": "s",
    "planner.bundle_builds": "count",
    "planner.distinct_bundle_keys": "count",
    "planner.bundle_hit_ratio": "ratio",
    "ts.runs_enumerated": "count",
    "rewards.bundle_cells": "count",
    "ts.enumerate.cost_s": "s",
    "rewards.bundle.cost_s": "s",
    "rewards.potential.cost_s": "s",
    "planner.cost_bundle_builds": "count",
    "planner.cost_self_s": "s",
    "rewards.potential_s": "s",
    "rewards.potential_calls": "count",
    "planner.step_self_s": "s",
    "planner.alpha_s": "s",
    "rewards.dynamics_s": "s",
    "planner.ties": "count",
    "planner.zero_attraction_steps": "count",
    "sim.run_self_s": "s",
    "sim.emit_s": "s",
    "sim.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class NoResult(Exception):
    pass


def run_workload(args, traced: bool, deadline: float) -> dict:
    """Start one workload process, wait for it, and return its result."""
    out = HERE / "out" / args.workload / ("traced" if traced else "plain")
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", str(out),
    ]
    command += ["--trace"] * traced + ["--shrink"] * args.shrink
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **PINNED_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise NoResult(f"{args.workload} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise NoResult(f"{args.workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true", help="small inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    deadline = time.monotonic() + DEADLINE_S

    try:
        plain = run_workload(args, False, deadline)
        traced = run_workload(args, True, deadline) if args.trace else None
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = [plain] if traced is None else [plain, traced]
    failures = [f for r in results for f in r["failures"]]
    if traced is None:
        values = plain["metrics"]
        units = END_TO_END_UNITS
        info = plain["info"]
    else:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["metrics"]["wall_s"] - plain["metrics"]["wall_s"]
        units = LAYER_UNITS
        info = traced["info"]
        shared = zip(traced["info"]["trace_sha256"], plain["info"]["trace_sha256"])
        if any(a != b for a, b in shared):
            failures.append("determinism: the traced run wrote a different trace")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": sum(r["operations"] for r in results),
                "failed": 0,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
