"""The local-run fan built without pruning and sorted in int64: the oracle for
``surplan.localruns.LocalRunCache._build_fan`` and its cache set-up.

``_build_fan`` expands only the runs whose lightest move still fits the
horizon, and sorts its segment keys in the smallest integer type that holds
them. This is the build it replaces: every run offers all of its moves, the
horizon test drops the children that do not fit, and one stable int64 argsort
splits the fan into segments. The fans must be equal in every field, dtype
included. Admission is the library's own (``LocalRunCache._admission``); the
tests hold it against its first formulation separately.
"""

from __future__ import annotations

import numpy as np

from surplan.localruns import Fan, LocalRunCache
from surplan.ts import visible_distances


def reference_kept(cache: LocalRunCache) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of automaton states kept with each system state, and
    each system state's row id, from a 2-D ``np.unique``."""
    product = cache.product
    kept = np.zeros((cache.ts.n, product.ba.n_states), dtype=bool)
    kept[product.ts_of, product.ba_of] = True
    rows, ids = np.unique(kept, axis=0, return_inverse=True)
    return rows, ids.reshape(-1)


def reference_build_fan(cache: LocalRunCache, q_k: int) -> Fan:
    """The tree of every move out of ``q_k``: one frontier expansion from
    every visible successor whose entry weight fits the horizon."""
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
    n_ba = 0 if cache.product is None else cache.product.ba.n_states
    key, index = root, np.arange(len(state))
    if n_ba:
        admitted, s0 = cache._admission(parent, state, bounds)
        key = np.concatenate([root, n_moves + root[admitted] * n_ba + s0])
        index = np.concatenate([index, admitted])
    order = np.argsort(key, kind="stable")
    key, index = key[order], index[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    subsets = np.full(n_moves * n_ba, -1)
    subsets[key[starts[n_moves:]] - n_moves] = np.arange(n_moves, len(starts))
    subsets = subsets.reshape(n_moves, n_ba)
    moves = dict(zip(roots.tolist(), range(n_moves)))
    return Fan(moves, parent, state, cumw, novel, bounds, subsets, index, starts)
