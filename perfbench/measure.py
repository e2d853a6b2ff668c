"""One workload in one process: timed rounds of the ``surplan run`` path.

A round is what ``surplan run`` does for a scenario file: ``load_scenario``
and ``offline_phase`` (set-up), ``run_experiment`` (online) and
``emit_outputs``. Rounds repeat until the time budget is spent (at least
``MIN_ROUNDS``); round k uses the experiment seed ``round_seed(seed, k)``, so a
run averages over many reward histories and paths.

The host's speed switches between a fast and a slow state (up to twice as
slow) every second or so, and stays mostly slow or mostly fast for minutes at
a time. So before and after each timed segment (set-up, online, output) the
benchmark times a fixed reference kernel, and reports every segment at the
host speed at which the kernel takes ``REFERENCE_KERNEL_S``. A segment shorter
than ``SCALED_SEGMENT_S`` lands in one state and is scaled by the two kernel
times around it; a longer one spans many switches and is scaled by the mean
of all kernel times of the run. The kernel belongs to the benchmark, so a
change to surplan moves scaled and measured times alike; raw medians are kept
in ``info``.

The outputs are checked and one JSON line is printed. Started by ``run.py``
with pinned threads and hash seed; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import surplan  # noqa: E402
from surplan import planner, product, scenario, sim  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import SHRUNK, WORKLOADS, scenario_text  # noqa: E402

# set-up time is the median of at least this many rounds
MIN_ROUNDS = 3
# round seeds of different benchmark seeds never meet below this many rounds
SEEDS_PER_RUN = 1000
# the reference kernel's typical time on the host the bounds were set on
REFERENCE_KERNEL_S = 0.001
# segments at least this long span several host speed changes
SCALED_SEGMENT_S = 2.0
MAX_THREADS = 2


@dataclass(frozen=True)
class Round:
    """One round's segment times as measured and the kernel times around them."""

    # set-up, online, output
    segments: tuple[float, float, float]
    # before set-up, between the segments, after output
    kernels: tuple[float, float, float, float]
    step_seconds: list[float]
    trace_sha256: str


def round_seed(seed: int, k: int) -> int:
    return seed * SEEDS_PER_RUN + k


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def reference_kernel() -> float:
    """Fixed interpreter-bound work with a few small array operations."""
    table: dict[int, int] = {}
    total = 0
    vector = np.zeros(64)
    for i in range(4000):
        key = i & 255
        total += table.get(key, 0) + i * i % 7
        table[key] = total & 0xFFFF
        if i % 64 == 0:
            vector += np.where(vector > 1.0, 0.5, 1.5)
    return total + float(vector.sum())


def kernel_seconds() -> float:
    """Best of three timings of the reference kernel."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - started)
    return best


def run_round(scenario_path: Path, out: Path):
    """One ``surplan run``; returns its timings and what the checks need."""
    k0 = kernel_seconds()
    t0 = time.perf_counter()
    loaded = scenario.load_scenario(scenario_path)
    offline = product.offline_phase(loaded.ts, loaded.formula, loaded.surveillance_prop)
    t1 = time.perf_counter()
    k1 = kernel_seconds()
    t2 = time.perf_counter()
    result = sim.run_experiment(loaded, offline=offline)
    t3 = time.perf_counter()
    k2 = kernel_seconds()
    t4 = time.perf_counter()
    paths = sim.emit_outputs(result, out)
    t5 = time.perf_counter()
    k3 = kernel_seconds()
    timed = Round(
        segments=(t1 - t0, t3 - t2, t5 - t4),
        kernels=(k0, k1, k2, k3),
        step_seconds=result.step_seconds,
        trace_sha256=sha256(paths["trace"]),
    )
    return timed, loaded, offline


def speed_factors(rounds: list[Round]) -> list[tuple[float, float, float]]:
    """Per round, each segment's factor to the reference host speed."""
    run_kernel = statistics.fmean(k for r in rounds for k in r.kernels)
    factors = []
    for r in rounds:
        around = [
            (r.kernels[i] + r.kernels[i + 1]) / 2 if seconds < SCALED_SEGMENT_S else run_kernel
            for i, seconds in enumerate(r.segments)
        ]
        factors.append(tuple(REFERENCE_KERNEL_S / k for k in around))
    return factors


def thread_count() -> int:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    raise RuntimeError("no thread count in /proc/self/status")


def replay_decisions(loaded, offline, out: Path) -> tuple[list, str]:
    """Run the experiment again, untimed, keeping every StepInfo."""
    infos = []
    original = planner.Planner.step

    def recording_step(self, field):
        info = original(self, field)
        infos.append(info)
        return info

    with spans.patched([(planner.Planner, "step", recording_step)]):
        replay = sim.run_experiment(loaded, offline=offline)
    paths = sim.emit_outputs(replay, out / "replay")
    return infos, sha256(paths["trace"])


def verify(workload, infos, offline, out: Path) -> list[str]:
    """Every property check on the last round's outputs and decisions."""
    failures = []
    trimmed = offline.trimmed
    failures += checks.check_decisions(infos)
    failures += checks.check_product(trimmed)
    failures += checks.check_trace(
        workload,
        out / "trace.csv",
        out / "stats.json",
        checks.accepting_core(trimmed),
        checks.core_gap_bound(trimmed),
    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--shrink", action="store_true")
    args = parser.parse_args(argv)

    if Path(surplan.__file__).resolve().parent != ROOT / "src" / "surplan":
        print(f"surplan imported from {surplan.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = (SHRUNK if args.shrink else WORKLOADS)[args.workload]
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    scenario_path = out / "scenario.ini"

    tracer = spans.Tracer() if args.trace else None
    rounds: list[Round] = []
    layers: list[dict] = []
    begun = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - begun < args.seconds:
        # drop the previous round's product before building the next one
        loaded = offline = None
        scenario_path.write_text(scenario_text(workload, round_seed(args.seed, len(rounds))))
        if tracer is None:
            timed, loaded, offline = run_round(scenario_path, out)
        else:
            with tracer.installed():
                timed, loaded, offline = run_round(scenario_path, out)
            round_spans = tracer.take()
            layers.append(spans.layer_metrics(round_spans))
        rounds.append(timed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    threads = thread_count()
    failures = []
    if tracer is None:
        # the timed rounds wrap nothing, so decisions are seen in a replay
        infos, replay_sha = replay_decisions(loaded, offline, out)
        if replay_sha != rounds[-1].trace_sha256:
            failures.append("determinism: a replay with the same seed wrote a different trace")
    else:
        infos = spans.step_infos(round_spans)
        spans.write_spans(round_spans, out / "spans.csv")

    failures += verify(workload, infos, offline, out)
    if threads > MAX_THREADS:
        failures.append(f"threads: the workload process ran {threads} threads")

    factors = speed_factors(rounds)
    scaled = [[s * f for s, f in zip(r.segments, fr)] for r, fr in zip(rounds, factors)]
    steps = [s * fr[1] for r, fr in zip(rounds, factors) for s in r.step_seconds]
    metrics = {
        "setup_s": statistics.median(setup for setup, _, _ in scaled),
        "steps_per_s": statistics.median(
            len(r.step_seconds) / online for r, (_, online, _) in zip(rounds, scaled)
        ),
        "decision_p50_ms": 1e3 * percentile(steps, 50),
        "decision_p95_ms": 1e3 * percentile(steps, 95),
        "wall_s": statistics.median(sum(segments) for segments in scaled),
        "peak_rss_mb": peak_rss_mb,
    }
    # a round's layer times take the factor of its wall time
    for layer, r, segments in zip(layers, rounds, scaled):
        factor = sum(segments) / sum(r.segments)
        for name in layer:
            if name.endswith("_s"):
                layer[name] *= factor
    result = {
        "correct": not failures,
        "failures": failures,
        "operations": sum(len(r.step_seconds) + 1 for r in rounds),
        "metrics": metrics,
        "layers": (
            {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
            if layers
            else None
        ),
        "info": {
            "workload": workload.name,
            "rounds": len(rounds),
            "decisions_per_round": len(rounds[0].step_seconds),
            "kernel_ms_mean": 1e3 * statistics.fmean(k for r in rounds for k in r.kernels),
            "raw_wall_s_median": statistics.median(sum(r.segments) for r in rounds),
            "round_seeds": [round_seed(args.seed, k) for k in range(len(rounds))],
            "trace_sha256": [r.trace_sha256 for r in rounds],
            "buchi_states": offline.ba.n_states,
            "buchi_letters": 2 ** len(offline.ba.propositions),
            "product_states": offline.product.n,
            "product_edges": len(offline.product.edge_src),
            "trimmed_states": offline.trimmed.n,
            "trimmed_edges": len(offline.trimmed.edge_src),
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
