"""Local runs, enumerated once per system state and shared by every caller.

A potential scores a move ``q_k -> q`` by the rewards collectible on local
runs: runs that start at ``q``, stay inside the visibility region of ``q_k``
and, together with the move's own weight, fit the horizon. They depend only
on the system, the visibility range and the horizon, so one cache holds them
as one :class:`RunBundle` per system move, kept for every run planned over
the same offline result. The first lookup of any move out of ``q_k`` builds
the bundles of every move out of ``q_k`` at once: one frontier expansion, a
fan, seeded with all of ``q_k``'s successors and split by move afterwards.
Each decision's ``cost`` column asks for every one of them anyway.

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
from .ts import TransitionSystem, visible_distances


class LocalRunCache:
    """Local-run bundles of one system, visibility range and horizon.

    ``system`` maps ``q_k * ts.n + q`` to the bundle of the system move
    ``q_k -> q``; ``planner`` maps ``q_k * product.n + dst`` to the bundle of
    every trimmed product edge from a state over ``q_k`` into ``dst``. Both
    fill lazily, ``system`` one fan of moves out of a state at a time.
    ``product`` may be None when only system moves are scored. ``hits`` and
    ``misses`` count the lookups through :meth:`system_bundle` and
    :meth:`planner_bundle` that found their bundle held or did not.
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
        self.hits = 0
        self.misses = 0
        # system states whose fan has been expanded
        self._fanned: set[int] = set()
        # per system move bundle, which rows each automaton state can start
        self._admits: dict[int, np.ndarray] = {}
        if product is not None:
            ba = product.ba
            letters = list(dict.fromkeys(ts.labels))
            letter_id = {letter: i for i, letter in enumerate(letters)}
            self._letter_of = np.array([letter_id[l] for l in ts.labels], dtype=np.int64)
            # 0/1 transition matrices, one per letter, for float products
            self._delta = np.zeros((len(letters), ba.n_states, ba.n_states), dtype=np.float32)
            for i, letter in enumerate(letters):
                for s in range(ba.n_states):
                    self._delta[i, s, list(ba.successors(s, letter))] = 1.0
            self._kept = np.zeros((ts.n, ba.n_states), dtype=bool)
            self._kept[product.ts_of, product.ba_of] = True

    def sizes(self) -> dict[str, int]:
        """Bundles built so far and the rows they hold, fans expanded and
        lookups served; a planner bundle that keeps every row is its system
        bundle and counts once."""
        held = {id(b): b.n_runs for b in (*self.system.values(), *self.planner.values())}
        return {
            "system_bundles": len(self.system),
            "planner_bundles": len(self.planner),
            "rows": sum(held.values()),
            "fans": len(self._fanned),
            "hits": self.hits,
            "misses": self.misses,
        }

    def system_bundle(self, q_k: int, q: int) -> RunBundle:
        """Local runs after the system move ``q_k -> q``."""
        key = q_k * self.ts.n + q
        bundle = self.system.get(key)
        if bundle is not None:
            self.hits += 1
            return bundle
        self.misses += 1
        if q_k not in self._fanned:
            self._build_fan(q_k)
            bundle = self.system.get(key)
            if bundle is not None:
                return bundle
        self.ts.weight(q_k, q)
        raise ContractError("a local run set must contain at least one run")

    def planner_bundle(self, q_k: int, dst: int) -> RunBundle:
        """Local runs after any trimmed product edge from a state over
        ``q_k`` into the product state ``dst``."""
        key = q_k * self.product.n + dst
        bundle = self.planner.get(key)
        if bundle is not None:
            self.hits += 1
            return bundle
        self.misses += 1
        return self._build_subset(key)

    def _build_fan(self, q_k: int) -> None:
        """Bundles of every move out of ``q_k``, from one frontier expansion.

        The expansion is seeded with every successor that is visible and
        whose entry weight fits the horizon, and each row remembers the move
        it started with. Within one run length the rows of a move keep the
        order a separate expansion of that move would give them, so a stable
        sort by move splits the fan into the same bundles.
        """
        ts = self.ts
        self._fanned.add(q_k)
        allowed = visible_distances(ts, q_k, self.visibility) <= self.visibility
        ptr, succ, weight = ts.move_ptr, ts.move_dst, ts.move_weight
        moves, entry = succ[ptr[q_k] : ptr[q_k + 1]], weight[ptr[q_k] : ptr[q_k + 1]]
        seeded = allowed[moves] & (entry <= self.horizon)
        roots, entry = moves[seeded], entry[seeded]
        if not len(roots):
            return
        # one level per run length: the last state, the weight so far, the
        # row of the run one shorter that each run extends, and its move
        states, cums, root = roots, np.zeros(len(roots)), np.arange(len(roots))
        levels = [(None, states, cums, root)]
        while True:
            starts = ptr[states]
            counts = ptr[states + 1] - starts
            parent = np.repeat(np.arange(len(states)), counts)
            # each run's moves, numbered from where its children start
            first = np.cumsum(counts) - counts
            move = np.arange(len(parent)) + np.repeat(starts - first, counts)
            nxt = succ[move]
            total = cums[parent] + weight[move]
            fits = allowed[nxt] & (total + entry[root[parent]] <= self.horizon)
            if not fits.any():
                break
            parent = parent[fits]
            states, cums, root = nxt[fits], total[fits], root[parent]
            levels.append((parent, states, cums, root))

        width = len(levels)
        n_rows = sum(len(level[1]) for level in levels)
        ts_states = np.full((n_rows, width), -1, dtype=np.int64)
        valid = np.zeros((n_rows, width), dtype=bool)
        cumw = np.zeros((n_rows, width), dtype=np.float64)
        novel = np.zeros((n_rows, width), dtype=bool)
        path = roots[:, None]
        path_cumw = np.zeros((len(roots), 1))
        path_novel = (roots != q_k)[:, None]
        row = 0
        for length, (parent, states, cums, _) in enumerate(levels, start=1):
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
        admits = None if self.product is None else self._admission(levels, n_rows)

        root_of = np.concatenate([level[3] for level in levels])
        order = np.argsort(root_of, kind="stable")
        ends = np.cumsum(np.bincount(root_of, minlength=len(roots))).tolist()
        base = q_k * ts.n
        for i, q in enumerate(roots.tolist()):
            rows = order[ends[i - 1] if i else 0 : ends[i]]
            # rows are ordered by length, so the last one sets the width
            cut = int(valid[rows[-1]].sum())
            self.system[base + q] = RunBundle(
                ts_states[rows, :cut], valid[rows, :cut], cumw[rows, :cut], novel[rows, :cut]
            )
            if admits is not None:
                self._admits[base + q] = admits[rows]

    def _admission(self, levels, n_rows: int) -> np.ndarray:
        """Which start automaton states admit each row of a fan.

        ``admits[r, s0]`` holds when some trimmed product path from
        ``(q, s0)``, ``q`` the first state of row ``r``, projects onto the
        row. Each live ``(row, s0)`` pair carries the automaton states that
        can sit at the row's end; a pair advances by one 2-D product with the
        transition matrix of the label it leaves, then is masked by the kept
        ``(q, s)`` pairs and dropped once no state is left.
        """
        _, roots, _, _ = levels[0]
        n_ba = self._kept.shape[1]
        admits = np.zeros((n_rows, n_ba), dtype=bool)
        # the live pairs: their row within the current level, their start
        # state and the automaton states that can end the row
        row, s0 = np.nonzero(self._kept[roots])
        reach = np.zeros((len(row), n_ba), dtype=np.float32)
        reach[np.arange(len(row)), s0] = 1.0
        admits[row, s0] = True
        last, offset = roots, 0
        for parent, states, _, _ in levels[1:]:
            letter = self._letter_of[last[row]]
            step = np.empty_like(reach)
            for a in np.unique(letter).tolist():
                at = letter == a
                step[at] = reach[at] @ self._delta[a]
            # the children of one row are contiguous in the next level
            counts = np.bincount(parent, minlength=len(last))[row]
            first = np.searchsorted(parent, row)
            pair = np.repeat(np.arange(len(row)), counts)
            child = np.arange(len(pair)) + np.repeat(first - (np.cumsum(counts) - counts), counts)
            live = (step > 0)[pair] & self._kept[states[child]]
            alive = live.any(axis=1)
            row, s0, reach = child[alive], s0[pair[alive]], live[alive].astype(np.float32)
            offset += len(last)
            admits[offset + row, s0] = True
            last = states
        return admits

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
