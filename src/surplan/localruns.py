"""Local runs, enumerated once per system move and shared by every caller.

A potential scores a move ``q_k -> q`` by the rewards collectible on local
runs: runs that start at ``q``, stay inside the visibility region of ``q_k``
and, together with the move's own weight, fit the horizon. They depend only
on the system, the visibility range and the horizon, so one cache holds them
as one :class:`RunBundle` per system move, built on first use and kept for
every run planned over the same offline result.

The planner moves on the trimmed product, where a move into product state
``dst`` allows only the system runs from ``ts_of[dst]`` that some trimmed
product path from ``dst`` projects onto. Its bundle is that subset of the
system bundle's rows. A trimmed product edge is a system edge paired with an
automaton move over the label of the state being left, both endpoints kept,
so the subset follows from pushing sets of automaton states along the rows.
Duplicate projections, which the product enumeration would produce, never
change a maximum and are not materialised.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .rewards import RunBundle
from .ts import TransitionSystem


class LocalRunCache:
    """Local-run bundles of one system, visibility range and horizon.

    ``system`` maps ``q_k * ts.n + q`` to the bundle of the system move
    ``q_k -> q``; ``planner`` maps ``q_k * product.n + dst`` to the bundle of
    every trimmed product edge from a state over ``q_k`` into ``dst``. Both
    fill lazily. ``product`` may be None when only system moves are scored.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        product,
        visibility: float,
        horizon: float,
    ):
        self.ts = ts
        self.product = product
        self.visibility = float(visibility)
        self.horizon = float(horizon)
        self.system: dict[int, RunBundle] = {}
        self.planner: dict[int, RunBundle] = {}
        # successor lists in CSR form: the moves out of q are
        # _succ[_indptr[q]:_indptr[q + 1]] with weights _weight[...]
        self._indptr = np.cumsum([0] + [len(js) for js in ts.succ])
        self._succ = np.array([j for js in ts.succ for j in js], dtype=np.int64)
        self._weight = np.array(
            [ts.weight_of[(i, j)] for i, js in enumerate(ts.succ) for j in js]
        )
        # per system move bundle, which rows each automaton state can start
        self._admits: dict[int, np.ndarray] = {}
        if product is not None:
            ba = product.ba
            letters = list(dict.fromkeys(ts.labels))
            letter_id = {letter: i for i, letter in enumerate(letters)}
            self._letter_of = np.array([letter_id[l] for l in ts.labels], dtype=np.int64)
            self._delta = np.zeros((len(letters), ba.n_states, ba.n_states), dtype=bool)
            for i, letter in enumerate(letters):
                for s in range(ba.n_states):
                    self._delta[i, s, list(ba.successors(s, letter))] = True
            self._kept = np.zeros((ts.n, ba.n_states), dtype=bool)
            self._kept[product.ts_of, product.ba_of] = True
            self._edge_key = (
                product.ts_of[product.edge_src] * product.n + product.edge_dst
            ).tolist()

    def sizes(self) -> dict[str, int]:
        """Bundles built so far and the rows they hold; a planner bundle
        that keeps every row is its system bundle and counts once."""
        held = {id(b): b.n_runs for b in (*self.system.values(), *self.planner.values())}
        return {
            "system_bundles": len(self.system),
            "planner_bundles": len(self.planner),
            "rows": sum(held.values()),
        }

    def system_bundle(self, q_k: int, q: int) -> RunBundle:
        """Local runs after the system move ``q_k -> q``."""
        key = q_k * self.ts.n + q
        bundle = self.system.get(key)
        if bundle is None:
            bundle = self._build_system(key)
        return bundle

    def for_edge(self, edge: int) -> RunBundle:
        """Local runs after taking the trimmed product edge ``edge``."""
        key = self._edge_key[edge]
        bundle = self.planner.get(key)
        if bundle is None:
            bundle = self._build_subset(key)
        return bundle

    def _build_system(self, key: int) -> RunBundle:
        ts = self.ts
        q_k, q = divmod(key, ts.n)
        entry = ts.weight(q_k, q)
        allowed = ts.min_weights[q_k] <= self.visibility
        if not allowed[q] or entry > self.horizon:
            raise ContractError("a local run set must contain at least one run")
        # one level per run length: the last state, the weight so far and the
        # row of the run one shorter that each run extends
        states, cums = np.array([q]), np.array([0.0])
        levels = [(None, states, cums)]
        while True:
            starts = self._indptr[states]
            counts = self._indptr[states + 1] - starts
            parent = np.repeat(np.arange(len(states)), counts)
            # each run's moves, numbered from where its children start
            first = np.cumsum(counts) - counts
            move = np.arange(len(parent)) + np.repeat(starts - first, counts)
            nxt = self._succ[move]
            total = cums[parent] + self._weight[move]
            fits = allowed[nxt] & (total + entry <= self.horizon)
            if not fits.any():
                break
            states, cums = nxt[fits], total[fits]
            levels.append((parent[fits], states, cums))

        width = len(levels)
        n_rows = sum(len(level[1]) for level in levels)
        ts_states = np.full((n_rows, width), -1, dtype=np.int64)
        valid = np.zeros((n_rows, width), dtype=bool)
        cumw = np.zeros((n_rows, width), dtype=np.float64)
        novel = np.zeros((n_rows, width), dtype=bool)
        path = np.array([[q]])
        path_cumw = np.array([[0.0]])
        path_novel = np.array([[q != q_k]])
        row = 0
        for length, (parent, states, cums) in enumerate(levels, start=1):
            if length > 1:
                earlier = path[parent]
                fresh = (states != q_k) & ~(earlier == states[:, None]).any(axis=1)
                path = np.column_stack((earlier, states))
                path_cumw = np.column_stack((path_cumw[parent], cums))
                path_novel = np.column_stack((path_novel[parent], fresh))
            end = row + len(states)
            ts_states[row:end, :length] = path
            valid[row:end, :length] = True
            cumw[row:end, :length] = path_cumw
            novel[row:end, :length] = path_novel
            row = end
        bundle = RunBundle(ts_states, valid, cumw, novel)
        self.system[key] = bundle

        if self.product is not None:
            # reach[r, s0, s]: automaton state s can sit at the end of row r
            # on some trimmed product path that starts in (q, s0)
            reach = np.diag(self._kept[q])[None]
            last = np.array([q])
            admits = [reach.any(axis=2)]
            for parent, states, _ in levels[1:]:
                step = self._delta[self._letter_of[last[parent]]]
                reach = np.matmul(reach[parent], step) & self._kept[states][:, None, :]
                last = states
                admits.append(reach.any(axis=2))
            self._admits[key] = np.concatenate(admits)
        return bundle

    def _build_subset(self, key: int) -> RunBundle:
        product = self.product
        q_k, dst = divmod(key, product.n)
        q = int(product.ts_of[dst])
        system = self.system_bundle(q_k, q)
        rows = np.flatnonzero(self._admits[q_k * self.ts.n + q][:, product.ba_of[dst]])
        if len(rows) == system.n_runs:
            bundle = system
        else:
            # rows are ordered by length, so the last one sets the width; no
            # wider, as numpy groups a row's sum by the row's width
            width = int(system.valid[rows[-1]].sum())
            bundle = RunBundle(
                system.ts_states[rows, :width],
                system.valid[rows, :width],
                system.cumw[rows, :width],
                system.novel[rows, :width],
            )
        self.planner[key] = bundle
        return bundle
