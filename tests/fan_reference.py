"""The local-run fan built without pruning, admitted pair by pair and sorted
in int64: the oracle for ``surplan.localruns.LocalRunCache._build_fan`` and
its cache set-up.

``_build_fan`` expands only the runs whose lightest move still fits the
horizon, reads each node's relation from a lazy table during the expansion,
and scores through run classes. This is the build it replaces: every run
offers all of its moves, the horizon test drops the children that do not
fit, admission lists every (node, start automaton state) pair by the first
formulation (``FirstAdmission``), and one stable int64 argsort of one key
per node and per pair splits the fan into segments, each a list of nodes.
The tree fields, ``moves`` and ``subsets`` must be equal to the library's,
dtype included, and every segment must hold the same nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from surplan.localruns import LocalRunCache
from surplan.ts import visible_distances

from automaton_views import successors


@dataclass(frozen=True)
class ReferenceFan:
    """A fan whose segment ``j`` is the node list ``index[starts[j]:starts[j + 1]]``;
    the other fields mean what they mean on ``surplan.localruns.Fan``."""

    moves: dict[int, int]
    parent: np.ndarray
    state: np.ndarray
    cumw: np.ndarray
    novel: np.ndarray
    bounds: list[int]
    subsets: np.ndarray
    index: np.ndarray
    starts: np.ndarray


class FirstAdmission:
    """Admission as first formulated, the reference for the interned
    relations: every (node, start state) pair carries a float32 row of the
    automaton states that can end its run, advanced level by level by one
    masked 2-D product per letter."""

    def __init__(self, ts, product):
        ba = product.ba
        letters = list(dict.fromkeys(ts.labels))
        letter_id = {letter: i for i, letter in enumerate(letters)}
        self._letter_of = np.array([letter_id[l] for l in ts.labels], dtype=np.int64)
        # 0/1 transition matrices, one per letter, for float products
        self._delta = np.zeros((len(letters), ba.n_states, ba.n_states), dtype=np.float32)
        for i, letter in enumerate(letters):
            for s in range(ba.n_states):
                self._delta[i, s, list(successors(ba, s, letter))] = 1.0
        self._kept = np.zeros((ts.n, ba.n_states), dtype=bool)
        self._kept[product.ts_of, product.ba_of] = True

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

    def admission(self, parent, state, bounds):
        """The pairs of a fan's tree, its levels rebuilt as the expansion
        hands them over: parents numbered within the level above."""
        levels = [
            (parent[lo:hi] - above, state[lo:hi], None, None)
            for lo, hi, above in zip(bounds[:-1], bounds[1:], [0] + bounds[:-2])
        ]
        return self._admission(levels, bounds)


def reference_kept(cache: LocalRunCache) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of automaton states kept with each system state, and
    each system state's row id, from a 2-D ``np.unique``."""
    product = cache.product
    kept = np.zeros((cache.ts.n, product.ba.n_states), dtype=bool)
    kept[product.ts_of, product.ba_of] = True
    rows, ids = np.unique(kept, axis=0, return_inverse=True)
    return rows, ids.reshape(-1)


def reference_build_fan(
    cache: LocalRunCache, q_k: int, admission: FirstAdmission
) -> ReferenceFan:
    """The tree of every move out of ``q_k``: one frontier expansion from
    every visible successor whose entry weight fits the horizon;
    ``admission`` is the ``FirstAdmission`` of the cache's system and
    product."""
    ts, horizon = cache.ts, cache.horizon
    allowed = visible_distances(ts, q_k, cache.visibility) <= cache.visibility
    ptr, succ, weight = ts.move_ptr, ts.move_dst, ts.move_weight
    moves, entry = succ[ptr[q_k] : ptr[q_k + 1]], weight[ptr[q_k] : ptr[q_k + 1]]
    seeded = allowed[moves] & (entry <= horizon)
    roots, entry = moves[seeded], entry[seeded]
    # one level per run length: the run of the level before that each run
    # extends, its last state, its weight so far and its root
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
        fits = allowed[nxt] & (total + entry[root[parent]] <= horizon)
        if not fits.any():
            break
        parent = parent[fits]
        states, cums, root = nxt[fits], total[fits], root[parent]
        levels.append((parent, states, cums, root))

    sizes = [len(level[1]) for level in levels]
    bounds = np.cumsum([0] + sizes).tolist()
    parent = np.concatenate([level[0] + at for level, at in zip(levels, [0] + bounds)])
    state, cumw, root = (np.concatenate([level[i] for level in levels]) for i in (1, 2, 3))
    # a state is novel unless it is q_k or an ancestor's; up holds the d-th
    # ancestors of the nodes from bounds[d] on
    novel = state != q_k
    up = parent[bounds[1] :]
    for d in range(1, len(levels)):
        novel[bounds[d] :] &= state[up] != state[bounds[d] :]
        up = parent[up[sizes[d] :]]

    # every move's runs, then every subset a start automaton state admits,
    # each in node order, from one stable sort
    n_moves = len(roots)
    n_ba = cache.product.ba.n_states
    admitted, s0 = admission.admission(parent, state, bounds)
    key = np.concatenate([root, n_moves + root[admitted] * n_ba + s0])
    index = np.concatenate([np.arange(len(state)), admitted])
    order = np.argsort(key, kind="stable")
    key, index = key[order], index[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    subsets = np.full(n_moves * n_ba, -1)
    subsets[key[starts[n_moves:]] - n_moves] = np.arange(n_moves, len(starts))
    subsets = subsets.reshape(n_moves, n_ba)
    moves = dict(zip(roots.tolist(), range(n_moves)))
    return ReferenceFan(moves, parent, state, cumw, novel, bounds, subsets, index, starts)
