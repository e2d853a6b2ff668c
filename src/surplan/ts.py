"""Weighted deterministic transition systems.

States carry sets of atomic propositions, transitions carry strictly positive
weights interpreted as travel times. All state identifiers are dense integers
internally; a name table maps them back to the identifiers used in scenario
files and traces.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from .errors import ValidationError

INF = math.inf


class TransitionSystem:
    """Finite weighted digraph with labeled states and an initial state.

    :param names: unique state names.
    :param initial: name of the initial state.
    :param transitions: mapping ``(source name, target name) -> weight``.
    :param propositions: the atomic propositions states may be labeled with.
    :param labels: mapping ``state name -> iterable of propositions``; states
        missing from the mapping carry the empty label.
    """

    def __init__(
        self,
        names: Sequence[str],
        initial: str,
        transitions: Mapping[tuple[str, str], float],
        propositions: Iterable[str],
        labels: Mapping[str, Iterable[str]],
    ):
        names = tuple(names)
        if not names:
            raise ValidationError("a transition system needs at least one state")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate state names")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.n = len(names)
        if initial not in self.index:
            raise ValidationError(f"initial state {initial!r} is not a state")
        self.initial = self.index[initial]
        self.propositions = frozenset(propositions)

        label_map: dict[str, frozenset[str]] = {}
        for name, props in labels.items():
            if name not in self.index:
                raise ValidationError(f"label given for unknown state {name!r}")
            props = frozenset(props)
            stray = props - self.propositions
            if stray:
                raise ValidationError(
                    f"state {name!r} labeled with undeclared propositions {sorted(stray)}"
                )
            label_map[name] = props
        self.labels: tuple[frozenset[str], ...] = tuple(
            label_map.get(name, frozenset()) for name in names
        )

        weight_of: dict[tuple[int, int], float] = {}
        for (a, b), w in transitions.items():
            if a not in self.index or b not in self.index:
                raise ValidationError(f"transition ({a!r}, {b!r}) references unknown state")
            w = float(w)
            if not (w > 0.0) or math.isinf(w):
                raise ValidationError(
                    f"transition ({a!r}, {b!r}) must have a finite positive weight, got {w}"
                )
            weight_of[(self.index[a], self.index[b])] = w
        self.weight_of = weight_of

        succ: list[list[int]] = [[] for _ in range(self.n)]
        for (i, j) in weight_of:
            succ[i].append(j)
        self.succ: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(js)) for js in succ)
        for i, js in enumerate(self.succ):
            if not js:
                raise ValidationError(f"state {names[i]!r} has no outgoing transition")

        # the moves in CSR form, in the order of succ: the moves out of i go
        # to move_dst[move_ptr[i]:move_ptr[i + 1]] with weights move_weight[...]
        self.move_ptr = np.cumsum([0] + [len(js) for js in self.succ])
        self.move_dst = np.array([j for js in self.succ for j in js], dtype=np.int64)
        self.move_weight = np.array([weight_of[(i, j)] for i, js in enumerate(self.succ) for j in js])
        # the same moves for scipy's searches, with int32 copies of the index
        # arrays: scipy would copy int64 ones on every search, and the
        # expansions measured faster indexing with int64
        self.graph = csr_array(
            (self.move_weight, self.move_dst.astype(np.int32), self.move_ptr.astype(np.int32)),
            shape=(self.n, self.n),
        )

        self.max_weight = max(weight_of.values())

    def successors(self, i: int) -> tuple[int, ...]:
        return self.succ[i]

    def weight(self, i: int, j: int) -> float:
        try:
            return self.weight_of[(i, j)]
        except KeyError:
            raise ValidationError(
                f"({self.names[i]!r}, {self.names[j]!r}) is not a transition"
            ) from None

    def label(self, i: int) -> frozenset[str]:
        return self.labels[i]

    def state_id(self, name: str) -> int:
        return self.index[name]

    def state_name(self, i: int) -> str:
        return self.names[i]


# Nothing in surplan calls this; it stays only because perfbench/spans.py
# patches it here and in surplan.product to time it.
def min_weight_matrix(n: int, edges: Iterable[tuple[int, int, float]]) -> np.ndarray:
    """All-pairs minimum path weights of a weighted digraph.

    Entry ``[i, j]`` is the least total weight of a path from i to j, 0 on the
    diagonal and infinity where no path exists.
    """
    src, dst, wgt = [], [], []
    for i, j, w in edges:
        if i != j:
            src.append(i)
            dst.append(j)
            wgt.append(w)
    graph = csr_array((wgt, (src, dst)), shape=(n, n))
    dist = dijkstra(graph, directed=True)
    np.fill_diagonal(dist, 0.0)
    return dist


def visible_distances(ts: TransitionSystem, q_k: int, v: float) -> np.ndarray:
    """Minimum run weight from ``q_k`` to every state, infinite beyond ``v``."""
    # min_only gives the same row with less per-call work in scipy
    return dijkstra(ts.graph, indices=q_k, limit=v, min_only=True)


def validate_visibility_assumption(ts: TransitionSystem, v: float) -> None:
    """Reject systems where some direct successor is not visible.

    The planner assumes that from any state the robot can see every state it
    may move to next; scenarios violating that are refused at load time. A
    move of weight at most ``v`` is visible by itself; any other move needs
    a search from its source, bounded by ``v``.
    """
    searched: dict[int, np.ndarray] = {}
    for (i, j), w in ts.weight_of.items():
        if w <= v:
            continue
        if i not in searched:
            searched[i] = visible_distances(ts, i, v)
        if searched[i][j] > v:
            raise ValidationError(
                f"successor {ts.names[j]!r} of {ts.names[i]!r} lies outside the "
                f"visibility radius (no run of weight <= {v})"
            )


def enumerate_budget_runs(
    succ_fn: Callable[[int], Sequence[int]],
    weight_fn: Callable[[int, int], float],
    allowed: np.ndarray,
    origin: int,
    entry_weight: float,
    h: float,
) -> list[tuple[tuple[int, ...], tuple[float, ...]]]:
    """All runs from ``origin`` whose weight plus ``entry_weight`` stays
    within ``h``, visiting only states marked in ``allowed``.

    Revisits are permitted; the zero-length run ``(origin,)`` qualifies
    whenever the origin itself is allowed and the entry fits the budget.
    Returns ``(states, cumulative weights)`` pairs. The comparison is kept in
    the form "run weight + entry weight <= h" so results match a literal
    reading of the definition under floating point.
    """
    out: list[tuple[tuple[int, ...], tuple[float, ...]]] = []
    if not allowed[origin] or entry_weight > h:
        return out
    stack: list[tuple[tuple[int, ...], tuple[float, ...]]] = [((origin,), (0.0,))]
    while stack:
        states, cums = stack.pop()
        out.append((states, cums))
        last = states[-1]
        base = cums[-1]
        for nxt in succ_fn(last):
            if not allowed[nxt]:
                continue
            total = base + weight_fn(last, nxt)
            if total + entry_weight <= h:
                stack.append((states + (nxt,), cums + (total,)))
    return out
