"""Local runs, enumerated once per system state and shared by every caller.

A potential scores a move ``q_k -> q`` by the rewards on local runs: runs
from ``q`` inside the visibility region of ``q_k`` that, with the move's
weight, fit the horizon. One cache holds them for every run over an offline
result as one prefix tree (a fan) per ``q_k``. A move into product state
``dst`` allows the runs some trimmed product path from ``dst`` projects
onto. Each move's runs and each such subset is a segment of nodes; one pass
over a fan and one ``np.maximum.reduceat`` score every segment at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .ts import TransitionSystem, visible_distances


def path_sums(
    values: np.ndarray, parent: np.ndarray, bounds: list[int], width: int, start: int = 0
) -> np.ndarray:
    """Each node's path summed exactly as ``np.add.reduce`` sums its
    positions ``start`` to ``start + width`` padded with zeros to ``width``
    values; level ``d`` is nodes ``bounds[d]:bounds[d + 1]``. numpy adds
    fewer than 8 values left to right; up to 128 it sums eight lanes over the
    first ``width - width % 8``, pairs them up, then adds the rest; past 128
    it adds the sums of two halves cut at a multiple of 8. Shallower nodes
    sum to 0 and deeper ones carry their ancestor's sum."""
    if width > 128:
        half = width // 2 - width // 2 % 8
        left = path_sums(values, parent, bounds, half, start)
        return left + path_sums(values, parent, bounds, width - half, start + half)
    sums = values.copy()
    sums[: bounds[start]] = 0.0
    lanes = [np.zeros_like(values) for _ in range(8)] if width >= 8 else []
    for d in range(start, len(bounds) - 1):
        lo, hi, k = bounds[d], bounds[d + 1], d - start
        up = parent[lo:hi]
        if k >= width:
            sums[lo:hi] = sums[up]
        elif k < width - width % 8:
            if k:
                for lane in lanes:
                    lane[lo:hi] = lane[up]
            lanes[k % 8][lo:hi] += values[lo:hi]
            r = [lane[lo:hi] for lane in lanes]
            sums[lo:hi] = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        elif k:
            sums[lo:hi] += sums[up]
    return sums


@dataclass(frozen=True)
class Fan:
    """The local runs after every move out of one system state, as a tree.

    A node is a run, of length ``d + 1`` in ``bounds[d]:bounds[d + 1]``, with
    the run it extends (``parent``, -1 at roots), its last ``state``, weight
    ``cumw`` and whether that state is ``novel`` (not the state left and not
    earlier in the run). ``moves`` maps each successor with runs to its root,
    also its segment; ``subsets[root, s]`` is the segment automaton state
    ``s`` admits (-1: none; no columns without a product). Segment ``j`` is
    ``index[starts[j]:starts[j + 1]]``, offset by ``c * len(state)`` when
    summed in width ``widths[c]``.
    """

    moves: dict[int, int]
    parent: np.ndarray
    state: np.ndarray
    cumw: np.ndarray
    novel: np.ndarray
    bounds: list[int]
    subsets: np.ndarray
    index: np.ndarray
    starts: np.ndarray
    widths: list[int]


class LocalRunCache:
    """Local-run fans of one system, visibility range and horizon, built on
    first use; ``product`` is None when only system moves are scored.
    ``hits`` and ``misses`` count fan lookups that found the fan built or not.
    """

    def __init__(self, ts: TransitionSystem, product, visibility: float, horizon: float):
        self.ts = ts
        self.product = product
        self.visibility = float(visibility)
        self.horizon = float(horizon)
        self.fans: dict[int, Fan] = {}
        self.hits = 0
        self.misses = 0
        self._edge_segments: dict[int, np.ndarray] = {}
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
        """Fans built, the nodes and segments they hold, and fan lookups."""
        fans = self.fans.values()
        nodes, segments = sum(len(f.state) for f in fans), sum(len(f.starts) for f in fans)
        return dict(fans=len(fans), nodes=nodes, segments=segments, hits=self.hits, misses=self.misses)

    def fan(self, q_k: int) -> Fan:
        """The local runs after every move out of ``q_k``."""
        fan = self.fans.get(q_k)
        if fan is None:
            self.misses += 1
            fan = self.fans[q_k] = self._build_fan(q_k)
        else:
            self.hits += 1
        return fan

    def edge_segments(self, p_k: int) -> np.ndarray:
        """The segment of each trimmed product edge out of ``p_k``, in order."""
        segments = self._edge_segments.get(p_k)
        if segments is None:
            product = self.product
            fan = self.fan(int(product.ts_of[p_k]))
            dst = product.edge_dst[product.edge_ptr[p_k] : product.edge_ptr[p_k + 1]]
            roots = [fan.moves.get(q, -1) for q in product.ts_of[dst].tolist()]
            if -1 in roots:
                raise ContractError("a local run set must contain at least one run")
            segments = self._edge_segments[p_k] = fan.subsets[roots, product.ba_of[dst]]
        return segments

    def scores(self, q_k: int, potential, values: np.ndarray) -> np.ndarray:
        """Every segment's potential under the rewards ``values``: the best
        of its runs, each combining its positions' ``node_values``."""
        fan = self.fan(q_k)
        nodes = potential.node_values(fan.state, fan.cumw, fan.novel, values)
        if potential.combine is np.add:
            sums = [path_sums(nodes, fan.parent, fan.bounds, w) for w in fan.widths]
            paths = sums[0] if len(sums) == 1 else np.concatenate(sums)
        elif potential.combine is np.maximum:
            # a segment holds every prefix of its runs: its best node is its best position
            paths = nodes if len(fan.widths) == 1 else np.tile(nodes, len(fan.widths))
        else:
            raise ContractError("a potential combines a run's positions by np.add or np.maximum")
        return np.maximum.reduceat(paths[fan.index], fan.starts)

    def _build_fan(self, q_k: int) -> Fan:
        """The tree of every move out of ``q_k``: one frontier expansion from
        every visible successor whose entry weight fits the horizon."""
        ts = self.ts
        allowed = visible_distances(ts, q_k, self.visibility) <= self.visibility
        ptr, succ, weight = ts.move_ptr, ts.move_dst, ts.move_weight
        moves, entry = succ[ptr[q_k] : ptr[q_k + 1]], weight[ptr[q_k] : ptr[q_k + 1]]
        seeded = allowed[moves] & (entry <= self.horizon)
        roots, entry = moves[seeded], entry[seeded]
        # one level per run length: the run of the level before that each
        # run extends, its last state, its weight so far and its root
        states, cums, root = roots, np.zeros(len(roots)), np.arange(len(roots))
        levels = [(np.full(len(roots), -1), states, cums, root)]
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

        sizes = [len(level[1]) for level in levels]
        bounds = np.cumsum([0] + sizes).tolist()
        parent = np.concatenate([level[0] + at for level, at in zip(levels, [0] + bounds)])
        state, cumw, root = (np.concatenate([level[i] for level in levels]) for i in (1, 2, 3))
        # a state is novel unless it is q_k or an ancestor's; up holds the
        # d-th ancestors of the nodes from bounds[d] on
        novel = state != q_k
        up = parent[bounds[1] :]
        for d in range(1, len(levels)):
            novel[bounds[d] :] &= state[up] != state[bounds[d] :]
            up = parent[up[sizes[d] :]]

        # every move's runs, then every subset a start automaton state
        # admits, each in node order, from one stable sort
        n_moves, n_ba = len(roots), 0 if self.product is None else self._kept.shape[1]
        key, index = root, np.arange(len(state))
        if n_ba:
            admitted, s0 = self._admission(levels, bounds)
            key = np.concatenate([root, n_moves + root[admitted] * n_ba + s0])
            index = np.concatenate([index, admitted])
        order = np.argsort(key, kind="stable")
        key, index = key[order], index[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        subsets = np.full(n_moves * n_ba, -1)
        subsets[key[starts[n_moves:]] - n_moves] = np.arange(n_moves, len(starts))
        subsets = subsets.reshape(n_moves, n_ba)
        # a segment sums as a row as wide as its longest run, and rows alike
        # sum alike: all below 8, up to 128 those with as many lane values
        width = np.maximum.reduceat(np.repeat(np.arange(1, len(levels) + 1), sizes)[index], starts)
        alike = np.where(width < 8, 0, np.where(width <= 128, width - width % 8, width))
        classes, rank = np.unique(alike, return_inverse=True)
        if len(classes) > 1:
            index = index + np.repeat(rank * len(state), np.diff(starts, append=len(index)))
        # a fan without runs keeps one class, which scores nothing
        widths = [int(width[rank == c].max()) for c in range(len(classes))] or [1]
        moves = dict(zip(roots.tolist(), range(n_moves)))
        return Fan(moves, parent, state, cumw, novel, bounds, subsets, index, starts, widths)

    def _admission(self, levels, bounds: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """The (node, start automaton state ``s0``) pairs where some trimmed
        product path from ``(q, s0)``, ``q`` the node's root, projects onto
        the node's run. Each live pair carries the automaton states that can
        end its run; it advances by one 2-D product with the transition
        matrix of the label it leaves, is masked by the kept ``(q, s)`` pairs
        and is dropped once no state is left."""
        _, roots, _, _ = levels[0]
        n_ba = self._kept.shape[1]
        # the live pairs: their row within the current level, their start
        # state and the automaton states that can end the row
        row, s0 = np.nonzero(self._kept[roots])
        reach = np.zeros((len(row), n_ba), dtype=np.float32)
        reach[np.arange(len(row)), s0] = 1.0
        nodes, starts = [row], [s0]
        last = roots
        for (parent, states, _, _), offset in zip(levels[1:], bounds[1:]):
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
            nodes.append(offset + row)
            starts.append(s0)
            last = states
        return np.concatenate(nodes), np.concatenate(starts)
