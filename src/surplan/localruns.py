"""Local runs, enumerated once per system state and shared by every caller.

A potential scores a move ``q_k -> q`` by the rewards on local runs: runs
from ``q`` inside the visibility region of ``q_k`` that, with the move's
weight, fit the horizon. One cache holds them for every run over an offline
result as one prefix tree (a fan) per ``q_k``, built one level per run
length; only the runs whose state's lightest move still fits the horizon
offer their moves to the next level. A move into product state ``dst``
allows the runs some trimmed product path from ``dst`` projects onto. To
find them, each node carries the id of one relation, from every start
automaton state to the states that can end its run; the cache interns the
relations and fills its tables of steps and meets between them only for the
keys the fans meet, a subset construction built on the fly. Each move's runs
and each such subset is a segment of nodes, ordered by one stable sort of
small integer keys (a radix sort); one pass over a fan and one
``np.maximum.reduceat`` score every segment at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .ts import TransitionSystem, visible_distances


def path_sums(values: np.ndarray, parent: np.ndarray, bounds: list[int]) -> np.ndarray:
    """Each node's ``values`` summed along its path in travel order: its
    parent's sum plus its own value; level ``d`` is nodes
    ``bounds[d]:bounds[d + 1]``."""
    sums = values.copy()
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        sums[lo:hi] += sums[parent[lo:hi]]
    return sums


def out_moves(
    ptr: np.ndarray, states: np.ndarray, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every move out of the states of ``nodes``, node-major, as its node
    and its index in the CSR move arrays whose row pointers are ``ptr``."""
    at = states[nodes]
    starts = ptr[at]
    counts = ptr[at + 1] - starts
    node = np.repeat(nodes, counts)
    # each node's moves, numbered from where its moves start in the result
    first = np.cumsum(counts) - counts
    return node, np.arange(len(node)) + np.repeat(starts - first, counts)


@dataclass(frozen=True)
class Fan:
    """The local runs after every move out of one system state, as a tree.

    A node is a run, of length ``d + 1`` in ``bounds[d]:bounds[d + 1]``, with
    the run it extends (``parent``, -1 at roots), its last ``state``, weight
    ``cumw`` and whether that state is ``novel`` (not the state left and not
    earlier in the run). ``moves`` maps each successor with runs to its root,
    also its segment; ``subsets[root, s]`` is the segment automaton state
    ``s`` admits (-1: none; no columns without a product). Segment ``j`` is
    ``index[starts[j]:starts[j + 1]]``.
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
        # each state's lightest move; TransitionSystem refuses a state without one
        self._lightest = np.minimum.reduceat(ts.move_weight, ts.move_ptr[:-1])
        # the relations admission has interned, numbered by their ids
        self._relations: list[np.ndarray] = []
        if product is not None:
            ba, table = product.ba, product.letters
            n_letters = len(table.letters)
            self._letter_of = table.letter_of
            # boolean transition matrices, one per letter, read on table misses
            self._delta = np.zeros((n_letters, ba.n_states, ba.n_states), dtype=bool)
            rows = np.repeat(np.arange(n_letters * ba.n_states), np.diff(table.ptr))
            self._delta.reshape(-1, ba.n_states)[rows, table.target] = True
            kept = np.zeros((ts.n, ba.n_states), dtype=bool)
            kept[product.ts_of, product.ba_of] = True
            # the distinct rows of automaton states kept with a system state,
            # in row order, found by a 1-D unique of the rows packed to bytes
            packed = np.packbits(kept, axis=1)
            packed = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
            _, first, self._kept_id = np.unique(packed, return_index=True, return_inverse=True)
            self._kept = kept[first]
            # a relation is an n_ba x n_ba boolean matrix whose row s0 holds
            # the automaton states that can end a run started in s0; by id,
            # its nonempty rows and the lazy tables step[letter, id] and
            # meet[id, kept id], -1 where not filled yet
            self._relation_id: dict[bytes, int] = {}
            self._nonempty = np.zeros((0, ba.n_states), dtype=bool)
            self._step = np.full((n_letters, 0), -1, dtype=np.intp)
            self._meet = np.full((0, len(self._kept)), -1, dtype=np.intp)
            self._root = np.array([self._intern(np.diag(row)) for row in self._kept], dtype=np.intp)
            self._grow()

    def sizes(self) -> dict[str, int]:
        """Fans built, the nodes and segments they hold, fan lookups, and the
        automaton-state relations interned for admission."""
        fans = self.fans.values()
        nodes, segments = sum(len(f.state) for f in fans), sum(len(f.starts) for f in fans)
        return dict(
            fans=len(fans), nodes=nodes, segments=segments, hits=self.hits, misses=self.misses,
            relations=len(self._relations),
        )

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
            paths = path_sums(nodes, fan.parent, fan.bounds)
        elif potential.combine is np.maximum:
            # a segment holds every prefix of its runs: its best node is its best position
            paths = nodes
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
        # run extends, its last state, its weight so far and its root, with
        # its root's entry weight alongside. A run offers its moves only if
        # the lightest one fits, added in the order of the horizon test:
        # rounding is monotone, so no other move fits when that one does not.
        states, cums, root = roots, np.zeros(len(roots)), np.arange(len(roots))
        levels = [(np.full(len(roots), -1), states, cums, root)]
        while True:
            live = np.flatnonzero((cums + self._lightest[states]) + entry <= self.horizon)
            if not len(live):
                break
            parent, move = out_moves(ptr, states, live)
            nxt = succ[move]
            total = cums[parent] + weight[move]
            fits = allowed[nxt] & (total + entry[parent] <= self.horizon)
            parent = parent[fits]
            if not len(parent):
                break
            states, cums, entry, root = nxt[fits], total[fits], entry[parent], root[parent]
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
        # admits, each in node order: the keys are below n_moves * (1 + n_ba),
        # so a stable sort of them in the smallest type that holds them is a
        # radix sort for up to 16 bits
        n_moves, n_ba = len(roots), 0 if self.product is None else self._kept.shape[1]
        key, index = root, np.arange(len(state))
        if n_ba:
            admitted, s0 = self._admission(parent, state, bounds)
            key = np.concatenate([root, n_moves + root[admitted] * n_ba + s0])
            index = np.concatenate([index, admitted])
        small = key.astype(np.min_scalar_type(n_moves * (1 + n_ba)))
        index = index[np.argsort(small, kind="stable")]
        # each key present is a segment, which starts where the smaller keys end
        count = np.bincount(key)
        present = np.flatnonzero(count)
        starts = (np.cumsum(count) - count)[present]
        subsets = np.full(n_moves * n_ba, -1)
        subsets[present[n_moves:] - n_moves] = np.arange(n_moves, len(present))
        subsets = subsets.reshape(n_moves, n_ba)
        moves = dict(zip(roots.tolist(), range(n_moves)))
        return Fan(moves, parent, state, cumw, novel, bounds, subsets, index, starts)

    def _admission(
        self, parent: np.ndarray, state: np.ndarray, bounds: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (node, start automaton state ``s0``) pairs, node-major, where
        some trimmed product path from ``(q, s0)``, ``q`` the node's root,
        projects onto the node's run. Each node carries one interned relation:
        the automaton states that can end its run from each ``s0``. A root's
        is the identity on the states kept with it. A child's is its parent's
        stepped by the label the parent's state emits, then met with the
        states kept with its own: one gather from each lazy table per level."""
        rel = np.empty(len(state), dtype=np.intp)
        rel[: bounds[1]] = self._root[self._kept_id[state[: bounds[1]]]]
        letter, kept = self._letter_of[state], self._kept_id[state]
        relations = self._relations

        def step(a, r):
            return relations[r] @ self._delta[a]

        def meet(r, k):
            return relations[r] & self._kept[k]

        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            up = parent[lo:hi]
            stepped = self._lookup(self._step, letter[up], rel[up], step)
            rel[lo:hi] = self._lookup(self._meet, stepped, kept[lo:hi], meet)
        # np.nonzero of the 2-D rows, from the 1-D one, which is faster
        n_ba = self._nonempty.shape[1]
        pairs = np.flatnonzero(np.take(self._nonempty, rel, axis=0))
        nodes = pairs // n_ba
        return nodes, pairs - nodes * n_ba

    def _lookup(self, table: np.ndarray, rows: np.ndarray, cols: np.ndarray, make) -> np.ndarray:
        """``table[rows, cols]``, first filling each entry not filled yet with
        the id of the relation ``make(row, col)``, one call per distinct key."""
        width = table.shape[1]
        at = rows * width + cols
        found = np.take(table, at)
        missing = found < 0
        if missing.any():
            keys, inverse = np.unique(at[missing], return_inverse=True)
            made = np.array([self._intern(make(*divmod(k, width))) for k in keys.tolist()])
            table[keys // width, keys % width] = made
            found[missing] = made[inverse]
            self._grow()
        return found

    def _intern(self, relation: np.ndarray) -> int:
        """The id of ``relation``, numbering it if new."""
        key = relation.tobytes()
        rel = self._relation_id.get(key)
        if rel is None:
            rel = self._relation_id[key] = len(self._relations)
            self._relations.append(relation)
        return rel

    def _grow(self) -> None:
        """Give every relation interned since the last call its nonempty
        rows and its unfilled entries in both tables."""
        new = self._relations[len(self._nonempty) :]
        if new:
            self._nonempty = np.concatenate([self._nonempty, [r.any(axis=1) for r in new]])
            self._step = np.pad(self._step, ((0, 0), (0, len(new))), constant_values=-1)
            self._meet = np.pad(self._meet, ((0, len(new)), (0, 0)), constant_values=-1)
