"""Properties every workload's outputs must have, checked by plain loops.

Nothing here calls surplan. Grid moves, weights and labels come from the
workload description, the trace is parsed from its CSV text, and the product's
distance fields are checked against their defining equations. Each check
returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

from workloads import (
    DIAGONAL_WEIGHT,
    HORIZONTAL_WEIGHT,
    PREFERENCE_THRESHOLD,
    UNSAFE,
    VERTICAL_WEIGHT,
    Cell,
    Workload,
)

INF = math.inf
# the planner counts candidates within this distance of the best as tied
TIE_TOLERANCE = 1e-9
# the largest value a freshly spawned reward package can hold
MAX_REWARD = 60.0
# failures reported per check before the rest are summarised
MAX_MESSAGES = 5

_CELL = re.compile(r"r(\d+)c(\d+)")


def cell_of(name: str) -> Cell:
    match = _CELL.fullmatch(name)
    if match is None:
        raise ValueError(f"{name!r} is not a grid cell name")
    return int(match.group(1)), int(match.group(2))


def move_weight(workload: Workload, a: Cell, b: Cell) -> float | None:
    """Weight of the grid move a -> b, None when there is no such move."""
    dr, dc = b[0] - a[0], b[1] - a[1]
    inside = 0 <= b[0] < workload.rows and 0 <= b[1] < workload.cols
    if not inside or max(abs(dr), abs(dc)) != 1:
        return None
    if dr and dc:
        return DIAGONAL_WEIGHT
    return VERTICAL_WEIGHT if dr else HORIZONTAL_WEIGHT


def _same(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9 * max(1.0, abs(a))


class _Report:
    def __init__(self):
        self.messages: list[str] = []
        self._counts: dict[str, int] = {}

    def fail(self, check: str, message: str) -> None:
        count = self._counts.get(check, 0) + 1
        self._counts[check] = count
        if count <= MAX_MESSAGES:
            self.messages.append(f"{check}: {message}")

    def done(self) -> list[str]:
        for check, count in self._counts.items():
            if count > MAX_MESSAGES:
                self.messages.append(f"{check}: {count - MAX_MESSAGES} more failures")
        return self.messages


def read_trace(path: Path) -> dict[int, list[dict]]:
    """trace.csv rows grouped by run, in file order, with typed fields."""
    runs: dict[int, list[dict]] = {}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            typed = {
                "step": int(row["step"]),
                "time": float(row["time"]),
                "cell": cell_of(row["ts_state"]),
                "ts_state": row["ts_state"],
                "ba_state": int(row["ba_state"]),
                "reward": float(row["reward"]),
            }
            runs.setdefault(int(row["run"]), []).append(typed)
    return runs


def accepting_core(trimmed) -> set[tuple[str, int]]:
    """(system state name, automaton state) of every recurrent accepting state."""
    return {
        (trimmed.ts.state_name(int(q)), int(s))
        for q, s, f in zip(trimmed.ts_of, trimmed.ba_of, trimmed.f_inf)
        if f
    }


def core_gap_bound(trimmed) -> float:
    """Steps allowed between accepting-core visits.

    In the style of the acceptance test on long runs: on each of the two legs
    of a cycle the preference lets the robot chase rewards for up to the
    threshold weight, and coming back costs as much again, before the leg's own
    distance (at most the largest finite surveillance distance, or mission
    metric) is covered. The weight is turned into steps by the lightest edge.
    """
    finite_pi = [x for x in trimmed.w_pi.tolist() if x < INF]
    finite_v = [x for x in trimmed.w_phi_v.tolist() if x < INF]
    weight = 4.0 * PREFERENCE_THRESHOLD + max(finite_pi) + max(finite_v)
    return weight / float(min(trimmed.edge_weight.tolist()))


def check_trace(
    workload: Workload,
    trace_path: Path,
    stats_path: Path,
    core: set[tuple[str, int]],
    gap_bound: float,
) -> list[str]:
    """Every run is a timed grid path that keeps the mission and the reward rules."""
    report = _Report()
    runs = read_trace(trace_path)
    stats = json.loads(Path(stats_path).read_text())
    run_means = stats["stats"]["reward_per_transition"]["run_means"]
    if sorted(runs) != list(range(workload.runs)):
        report.fail("runs", f"trace holds runs {sorted(runs)}, expected {workload.runs}")
    cells_of = {prop: set(cells) for prop, cells in workload.labels.items()}
    iterations = workload.iterations

    for r, rows in sorted(runs.items()):
        if [row["step"] for row in rows] != list(range(iterations + 1)):
            report.fail("steps", f"run {r} does not number steps 0..{iterations}")
            continue
        cells = [row["cell"] for row in rows]
        if cells[0] != workload.initial or rows[0]["time"] != 0.0:
            report.fail("path", f"run {r} does not start at {workload.initial} at time 0")

        time = 0.0
        for step, (prev, row) in enumerate(zip(rows, rows[1:]), start=1):
            weight = move_weight(workload, prev["cell"], row["cell"])
            if weight is None:
                report.fail("path", f"run {r} step {step}: {prev['cell']} -> {row['cell']} is no move")
                break
            time += weight
            if row["time"] != time:
                report.fail("time", f"run {r} step {step}: time {row['time']}, expected {time}")
                break

        unsafe = [i for i, c in enumerate(cells) if c in cells_of[UNSAFE]]
        if unsafe:
            report.fail("unsafe", f"run {r} visits {UNSAFE} at steps {unsafe[:5]}")

        if workload.alternation is not None:
            first, second = workload.alternation
            last = None
            for i, c in enumerate(cells):
                prop = first if c in cells_of[first] else second if c in cells_of[second] else None
                if prop is None:
                    continue
                if prop == last:
                    report.fail("alternation", f"run {r} visits {prop} twice in a row (step {i})")
                    break
                last = prop

        for prop in workload.patrol:
            if not any(c in cells_of[prop] for c in cells):
                report.fail("patrol", f"run {r} never visits {prop}")

        rewards = [row["reward"] for row in rows[1:]]
        if rows[0]["reward"] != 0.0 or any(not 0.0 <= x <= MAX_REWARD for x in rewards):
            report.fail("reward", f"run {r} collects a reward outside [0, {MAX_REWARD}]")
        if r < len(run_means) and not _same(math.fsum(rewards) / len(rewards), run_means[r]):
            report.fail(
                "reward",
                f"run {r} reward per transition {math.fsum(rewards) / len(rewards)}"
                f" differs from stats.json's {run_means[r]}",
            )

        visits = [row["step"] for row in rows if (row["ts_state"], row["ba_state"]) in core]
        if len(visits) < workload.min_core_visits:
            report.fail("core", f"run {r} visits the accepting core {len(visits)} times")
        gaps = [b - a for a, b in zip(visits, visits[1:])]
        first_visit = visits[0] if visits else iterations
        tail = iterations - visits[-1] if visits else 0
        if first_visit > 2.0 * gap_bound or max(gaps + [tail]) > gap_bound:
            report.fail(
                "core",
                f"run {r} core visits {visits[:10]}... exceed the {gap_bound:.1f}-step bound",
            )
    return report.done()


def check_product(trimmed) -> list[str]:
    """Bellman equations of both distance fields and the surveillance descent marks.

    w_pi is 0 on the recurrent surveillance states and elsewhere the least
    edge weight plus successor distance; the mission metric's total part is
    w_pi on the accepting core, or less through a successor. Every state with
    a finite positive w_pi needs an out-edge marked as shortening it, and an
    edge is marked exactly when it shortens w_pi.
    """
    report = _Report()
    n = trimmed.n
    src = trimmed.edge_src.tolist()
    dst = trimmed.edge_dst.tolist()
    weight = trimmed.edge_weight.tolist()
    w_pi = trimmed.w_pi.tolist()
    v = trimmed.w_phi_v.tolist()
    surveyed = trimmed.s_pi_inf.tolist()
    accepting = trimmed.f_inf.tolist()
    marks = trimmed.ind_pi.tolist()

    best_pi = [0.0 if surveyed[p] else INF for p in range(n)]
    best_v = [w_pi[p] if accepting[p] else INF for p in range(n)]
    has_descent = [False] * n
    for e in range(len(src)):
        a, b = src[e], dst[e]
        if not surveyed[a]:
            best_pi[a] = min(best_pi[a], weight[e] + w_pi[b])
        best_v[a] = min(best_v[a], weight[e] + v[b])
        shortens = w_pi[a] > w_pi[b]
        if bool(marks[e]) != shortens:
            report.fail("descent", f"edge {e} ({a} -> {b}) is marked {bool(marks[e])}")
        has_descent[a] = has_descent[a] or shortens
    for p in range(n):
        if not _same(w_pi[p], best_pi[p]):
            report.fail("bellman", f"w_pi[{p}] = {w_pi[p]}, its equation gives {best_pi[p]}")
        if not _same(v[p], best_v[p]):
            report.fail("bellman", f"w_phi_v[{p}] = {v[p]}, its equation gives {best_v[p]}")
        if 0.0 < w_pi[p] < INF and not has_descent[p]:
            report.fail("descent", f"state {p} with w_pi {w_pi[p]} has no shortening edge")
    return report.done()


def check_decisions(infos) -> list[str]:
    """Each decision takes an attraction that is the maximum of its step's."""
    report = _Report()
    for info in infos:
        best = max(info.attractions)
        if info.attraction not in info.attractions or info.attraction < best - TIE_TOLERANCE:
            report.fail(
                "attraction",
                f"step {info.step} chose {info.attraction}, the best was {best}",
            )
    return report.done()
