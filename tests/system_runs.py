"""Finite runs of a transition system, by definition.

Test helpers: run weights and arrival times summed along a run, the
visibility region of a state (from the heap Dijkstra in ``conftest``), the
local runs after a move, enumerated one move at a time, and the literal
potential of a set of runs. The local-run cache, the trace's cost column and
the loader's visibility check are compared against these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from surplan.errors import ContractError, ValidationError
from surplan.ts import TransitionSystem, enumerate_budget_runs

from conftest import dijkstra_oracle_from, move_weights


@dataclass(frozen=True)
class FiniteRun:
    """A nonempty sequence of state ids joined by transitions."""

    states: tuple[int, ...]

    def __post_init__(self):
        if not self.states:
            raise ValidationError("a finite run must contain at least one state")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)


def run_weight(ts: TransitionSystem, run: FiniteRun) -> float:
    """Sum of transition weights along the run; 0 for a single state."""
    return run_times(ts, run)[-1]


def run_times(ts: TransitionSystem, run: FiniteRun) -> tuple[float, ...]:
    """Cumulative arrival times along the run, starting at 0.

    Consecutive entries differ by exactly the weight of the taken transition;
    no time is spent inside states.
    """
    weights = move_weights(ts)
    times = [0.0]
    for a, b in zip(run.states, run.states[1:]):
        if (a, b) not in weights:
            raise ValidationError(f"({ts.names[a]!r}, {ts.names[b]!r}) is not a transition")
        times.append(times[-1] + weights[a, b])
    return tuple(times)


def visibility_set(ts: TransitionSystem, q_k: int, v: float) -> frozenset[int]:
    """States whose minimum run weight from ``q_k`` is at most ``v``.

    Always contains ``q_k`` itself. Whether every direct successor falls
    inside the set is a scenario-level assumption checked separately by
    :func:`validate_visibility_assumption`.
    """
    if v < 0:
        raise ContractError("visibility radius must be nonnegative")
    distance = dijkstra_oracle_from(ts.n, move_weights(ts), q_k)
    return frozenset(q for q, d in enumerate(distance) if d <= v)


def local_runs(
    ts: TransitionSystem, q: int, q_k: int, v: float, h: float
) -> list[FiniteRun]:
    """Candidate collection runs available after moving from ``q_k`` to ``q``.

    Enumerates every finite run that starts at ``q``, stays inside the
    visibility region of ``q_k``, and whose weight plus the weight of the
    entry transition ``(q_k, q)`` does not exceed the horizon ``h``.
    """
    weights = move_weights(ts)
    if (q_k, q) not in weights:
        raise ContractError(
            f"({ts.names[q_k]!r}, {ts.names[q]!r}) is not a transition"
        )
    if h < ts.max_weight:
        raise ContractError(
            f"horizon {h} is below the largest transition weight {ts.max_weight}"
        )
    allowed = np.zeros(ts.n, dtype=bool)
    allowed[list(visibility_set(ts, q_k, v))] = True
    entry = weights[q_k, q]
    return [
        FiniteRun(states)
        for states, _ in enumerate_budget_runs(
            ts.successors, lambda a, b: weights[a, b], allowed, q, entry, h
        )
    ]


def literal_potential(runs, q_k, values, name, refresh):
    """The best run's score: a position pays its reward less the weight spent
    reaching it, if positive and its state is neither ``q_k`` nor earlier in
    the run; max-sum adds a run's payments (``refresh`` for a position that
    pays nothing), max-single takes its best payment."""
    best_sum, best_single = -np.inf, 0.0
    for states, cums in runs:
        total = 0.0
        for i, q in enumerate(states):
            gain = values[q] - cums[i]
            if gain > 0 and q != q_k and q not in states[:i]:
                total += gain
                best_single = max(best_single, gain)
            else:
                total += refresh
        best_sum = max(best_sum, total)
    return best_sum if name == "max-sum" else best_single
