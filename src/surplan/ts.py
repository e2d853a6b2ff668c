"""Weighted deterministic transition systems.

States carry sets of atomic propositions, transitions carry strictly positive
weights interpreted as travel times. All state identifiers are dense integers
internally; a name table maps them back to the identifiers used in scenario
files and traces.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from .errors import ValidationError


class TransitionSystem:
    """Finite weighted digraph with labeled states and an initial state.

    The moves are kept only as CSR arrays, with no per-move dict or tuple:
    the moves out of state ``i`` go to ``move_dst[move_ptr[i]:move_ptr[i + 1]]``,
    in ascending order, with weights ``move_weight[...]``.

    :param names: unique state names; state ``i`` is ``names[i]``.
    :param initial: name of the initial state.
    :param src, dst, weight: the moves as aligned sequences of source id,
        target id and weight, in any order.
    :param propositions: the atomic propositions states may be labeled with.
    :param labels: mapping ``state name -> iterable of propositions``; states
        missing from the mapping carry the empty label.
    """

    def __init__(
        self,
        names: Sequence[str],
        initial: str,
        src: Sequence[int],
        dst: Sequence[int],
        weight: Sequence[float],
        propositions: Iterable[str],
        labels: Mapping[str, Iterable[str]],
    ):
        names = tuple(names)
        if not names:
            raise ValidationError("a transition system needs at least one state")
        self.names = names
        self.index = dict(zip(names, range(len(names))))
        self.n = len(names)
        if len(self.index) != self.n:
            raise ValidationError("duplicate state names")
        if initial not in self.index:
            raise ValidationError(f"initial state {initial!r} is not a state")
        self.initial = self.index[initial]
        self.propositions = frozenset(propositions)

        # a frozenset given as a label is kept, not copied, so states may share one
        props = list(map(frozenset, labels.values()))
        try:
            labeled = np.fromiter(map(self.index.__getitem__, labels), np.int64, len(props))
        except KeyError:
            labeled = None
        if labeled is None or not self.propositions.issuperset(frozenset().union(*props)):
            for name, held in zip(labels, props):
                if name not in self.index:
                    raise ValidationError(f"label given for unknown state {name!r}")
                stray = held - self.propositions
                if stray:
                    raise ValidationError(
                        f"state {name!r} labeled with undeclared propositions {sorted(stray)}"
                    )
        state_label = np.full(self.n, frozenset(), dtype=object)
        state_label[labeled] = props
        self.labels: tuple[frozenset[str], ...] = tuple(state_label.tolist())

        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        if not src.shape == dst.shape == weight.shape == (len(src),):
            raise ValidationError("src, dst and weight must be aligned 1-D sequences")
        unknown = (src < 0) | (src >= self.n) | (dst < 0) | (dst >= self.n)
        if unknown.any():
            k = unknown.argmax()
            raise ValidationError(f"transition ({src[k]}, {dst[k]}) references unknown state")
        bad = ~(weight > 0.0) | np.isinf(weight)
        if bad.any():
            k = bad.argmax()
            raise ValidationError(f"transition ({names[src[k]]!r}, {names[dst[k]]!r})"
                                  f" must have a finite positive weight, got {weight[k]}")
        order = np.lexsort((dst, src))
        src, dst, weight = src[order], dst[order], weight[order]
        repeated = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        if repeated.any():
            k = repeated.argmax()
            raise ValidationError(f"transition ({names[src[k]]!r}, {names[dst[k]]!r}) is given twice")
        out_degree = np.bincount(src, minlength=self.n)
        if not out_degree.all():
            raise ValidationError(f"state {names[out_degree.argmin()]!r} has no outgoing transition")
        self.move_ptr = np.concatenate(([0], np.cumsum(out_degree)))
        self.move_dst, self.move_weight = dst, weight
        # the same moves for scipy's searches, with int32 copies of the index
        # arrays: scipy would copy int64 ones on every search, and the
        # expansions measured faster indexing with int64
        self.graph = csr_array(
            (self.move_weight, self.move_dst.astype(np.int32), self.move_ptr.astype(np.int32)),
            shape=(self.n, self.n),
        )

        self.max_weight = float(weight.max())

    def successors(self, i: int) -> np.ndarray:
        """Targets of the moves out of ``i``, ascending: a view of ``move_dst``."""
        return self.move_dst[self.move_ptr[i] : self.move_ptr[i + 1]]

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
    src = np.repeat(np.arange(ts.n), np.diff(ts.move_ptr))
    for i in np.unique(src[ts.move_weight > v]).tolist():
        # a move of weight at most v is never hidden: test all of i's moves
        dst = ts.successors(i)
        hidden = dst[visible_distances(ts, i, v)[dst] > v]
        if len(hidden):
            raise ValidationError(
                f"successor {ts.names[hidden[0]]!r} of {ts.names[i]!r} lies outside the "
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
