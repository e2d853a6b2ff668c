"""Lasso words over a mission automaton: witness runs and bulk acceptance.

Test helpers: the automaton tests check ``to_buchi`` against the formula
semantics through these, and ``lasso_acceptance_table`` against
``lasso_accepts`` on samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from surplan.buchi import BuchiAutomaton
from surplan.errors import ContractError
from surplan.ltl import Letter

from automaton_views import successors, transitions
from conftest import tarjan_scc


def find_accepting_lasso_run(
    ba: BuchiAutomaton, stem: Sequence[Letter], loop: Sequence[Letter]
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """Witness run of the automaton over the lasso word, if one exists.

    Nodes pair an automaton state with a word position; the loop's last
    position wraps to its first. Returns a path from the initial node and a
    cycle through an accepting node (endpoints repeated), or None when the
    word is rejected.
    """
    if len(loop) == 0:
        raise ContractError("the loop part of a lasso must be nonempty")
    word = [frozenset(x) for x in stem] + [frozenset(x) for x in loop]
    n_pos = len(word)
    wrap = len(stem)

    def succ_pos(i: int) -> int:
        return i + 1 if i + 1 < n_pos else wrap

    start = (ba.initial, 0)
    parents: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    nodes: list[tuple[int, int]] = [start]
    adj: dict[tuple[int, int], list[tuple[int, int]]] = {}
    queue = [start]
    while queue:
        node = queue.pop()
        state, pos = node
        targets = []
        for t in successors(ba, state, word[pos]):
            nxt = (t, succ_pos(pos))
            targets.append(nxt)
            if nxt not in parents:
                parents[nxt] = node
                nodes.append(nxt)
                queue.append(nxt)
        adj[node] = targets
    idx = {node: i for i, node in enumerate(nodes)}
    labels = tarjan_scc(len(nodes), [[idx[t] for t in adj[node]] for node in nodes])
    internal = set()
    for node, targets in adj.items():
        for t in targets:
            if labels[idx[node]] == labels[idx[t]]:
                internal.add(labels[idx[node]])
    anchor = None
    for node in nodes:
        state, _ = node
        if state in ba.accepting and labels[idx[node]] in internal:
            anchor = node
            break
    if anchor is None:
        return None

    path: list[tuple[int, int]] = []
    cursor: tuple[int, int] | None = anchor
    while cursor is not None:
        path.append(cursor)
        cursor = parents[cursor]
    path.reverse()

    # shortest cycle through the anchor inside its component
    component = labels[idx[anchor]]
    cycle_parents: dict[tuple[int, int], tuple[int, int]] = {}
    frontier = [anchor]
    found = None
    visited = {anchor}
    while frontier and found is None:
        nxt_frontier = []
        for node in frontier:
            for t in adj.get(node, []):
                if labels[idx[t]] != component:
                    continue
                if t == anchor:
                    found = node
                    break
                if t not in visited:
                    visited.add(t)
                    cycle_parents[t] = node
                    nxt_frontier.append(t)
            if found is not None:
                break
        frontier = nxt_frontier
    if found is None:
        return None
    chain = [found]
    while chain[-1] != anchor:
        chain.append(cycle_parents[chain[-1]])
    chain.reverse()
    cycle = chain + [anchor]
    return path, cycle


def lasso_accepts(
    ba: BuchiAutomaton, stem: Sequence[Letter], loop: Sequence[Letter]
) -> bool:
    """Whether the automaton accepts stem followed by loop repeated forever."""
    return find_accepting_lasso_run(ba, stem, loop) is not None


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0


def _closure_reflexive(v: np.ndarray) -> np.ndarray:
    n = v.shape[0]
    reach = v | np.eye(n, dtype=bool)
    steps = max(1, int(np.ceil(np.log2(max(n, 2)))) + 1)
    for _ in range(steps):
        reach = reach | _bool_matmul(reach, reach)
    return reach


def lasso_acceptance_table(
    ba: BuchiAutomaton, max_stem: int, max_loop: int
) -> np.ndarray:
    """Acceptance of every lasso from ``enumerate_lassos`` over the automaton
    alphabet, vectorized across words.

    One traversal relation per loop word is composed from per-letter boolean
    matrices while tracking whether an accepting state was entered; a loop is
    viable from the states that can reach a strongly connected component
    containing such a flagged traversal. Checked against
    :func:`lasso_accepts` on samples in the test suite.
    """
    letters = ba.letters
    n_letters = len(letters)
    size = ba.n_states
    acc = np.zeros(size, dtype=bool)
    for s in ba.accepting:
        acc[s] = True
    letter_index = {letter: i for i, letter in enumerate(letters)}
    step = np.zeros((n_letters, size, size), dtype=bool)
    for s, letter, t in transitions(ba):
        step[letter_index[letter], s, t] = True
    step_f = step & acc[None, None, :]

    chunks: list[np.ndarray] = []
    for stem_len in range(max_stem + 1):
        for loop_len in range(1, max_loop + 1):
            # reachable state sets after every stem of this length
            stems = np.zeros((1, size), dtype=bool)
            stems[0, ba.initial] = True
            for _ in range(stem_len):
                parts = [_bool_matmul(stems, step[d]) for d in range(n_letters)]
                stems = np.stack(parts, axis=1).reshape(-1, size)
            # viable start states per loop of this length
            pairs: list[tuple[np.ndarray, np.ndarray]] = [
                (step[d], step_f[d]) for d in range(n_letters)
            ]
            for _ in range(loop_len - 1):
                nxt: list[tuple[np.ndarray, np.ndarray]] = []
                for v, vf in pairs:
                    for d in range(n_letters):
                        nxt.append(
                            (
                                _bool_matmul(v, step[d]),
                                _bool_matmul(vf, step[d])
                                | _bool_matmul(v, step_f[d]),
                            )
                        )
                pairs = nxt
            good_starts = np.zeros((len(pairs), size), dtype=bool)
            for li, (v, vf) in enumerate(pairs):
                if not v.any():
                    continue
                labels = np.array(tarjan_scc(size, [np.flatnonzero(row).tolist() for row in v]))
                same = labels[:, None] == labels[None, :]
                flagged = vf & same
                if not flagged.any():
                    continue
                good_nodes = np.zeros(size, dtype=bool)
                xs, ys = np.nonzero(flagged)
                good_labels = set(labels[x] for x in xs) | set(labels[y] for y in ys)
                for i in range(size):
                    if labels[i] in good_labels:
                        good_nodes[i] = True
                reach = _closure_reflexive(v)
                good_starts[li] = (reach & good_nodes[None, :]).any(axis=1)
            table = _bool_matmul(stems, good_starts.T)
            chunks.append(table.ravel())
    return np.concatenate(chunks)
