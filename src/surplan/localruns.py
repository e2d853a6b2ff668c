"""Local runs, enumerated once per system state and shared by every caller.

A potential scores a move ``q_k -> q`` by the rewards on local runs: runs
from ``q`` inside the visibility region of ``q_k`` that, with the move's
weight, fit the horizon. One cache holds them for every run over an offline
result as one prefix tree (a fan) per ``q_k``, built one level per run
length; only the runs whose state's lightest move still fits the horizon
offer their moves to the next level. The visibility region comes from one
bounded search per neighbourhood: a fan whose region no earlier search found
searches from ``q_k`` and from each successor the trimmed product holds
whose region is not found yet, and keeps their regions, as the next decision
leaves one of them; a kept region is dropped once its fan is built. A move
into product state ``dst`` allows the runs some trimmed product path from
``dst`` projects onto. To find them, each node carries the id of one
relation, from every start automaton state to the states that can end its
run. A child's relation
depends only on its parent's and on the class of the move between them: the
letter the move's source emits and the automaton states kept with its
target. The expansion reads it from one lazy table, ``child[relation, move
class]``, that the cache fills the first time a key occurs, a subset
construction built on the fly. The nodes of one root and one relation form
a run class. A fan lists its nodes by class, and each segment it scores
(each move's runs, then each subset of them that a start automaton state
admits) is a list of classes. One pass over a fan and two
``np.maximum.reduceat`` score every class, then every segment. Which runs a
fan holds, and so every move's segment, depends on the system alone; the
product only decides which subsets each run belongs to.

A node's value depends only on its cell: its state, weight so far and
novelty. The first time a best-position (``np.maximum``) potential scores a
fan, the cache indexes each class's few distinct cells, which that potential
then values instead of every node; a summing one still reads every node.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import ContractError


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
    ends = ptr[1:][at]
    counts = ends - ptr[at]
    node = nodes.repeat(counts)
    # each node's moves run up to its row end, as its places in the result
    # run up to the count so far
    move = (ends - counts.cumsum()).repeat(counts)
    move += np.arange(len(node))
    return node, move


def key_type(bound: int) -> np.dtype:
    """The narrowest unsigned type that holds integers below ``bound``, the
    type integer keys are sorted in: integers sort faster the narrower they
    are, and for up to 16 bits numpy's stable sort is a radix sort."""
    return np.min_scalar_type(max(bound - 1, 0))


def group(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable sort of ``key``, whose values lie below ``bound``: the
    order, the distinct keys and where each starts in the order. The keys are
    sorted, and returned, in the ``key_type`` of ``bound``."""
    small = key.astype(key_type(bound))
    order = small.argsort(kind="stable")
    ordered = small[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = first.nonzero()[0]
    return order, ordered[starts], starts


def class_cells(fan: "Fan") -> tuple[np.ndarray, ...]:
    """Each class's distinct cells, class after class: states, weights so
    far, novelty, and where each class starts. A node's cell is keyed by its
    rank among the fan's distinct weights and among its distinct states and
    by its novelty, so the table that marks every node's key, class by
    class, has one entry per class, weight, state and novelty of the fan."""
    cumw, state = fan.cumw, fan.state
    weights = np.unique(cumw)
    # non-negative, so they order like their bits, which search faster as integers
    key = weights.view(np.int64).searchsorted(cumw.view(np.int64))
    # the fan's states in first-seen order, through a scratch table whose
    # entries are read only where written: first one node of each state,
    # then twice the state's rank
    nodes = np.arange(len(state))
    slot = np.empty(int(state.max(initial=0)) + 1, dtype=np.intp)
    slot[state] = nodes
    states = state[slot[state] == nodes]
    slot[states] = 2 * nodes[: len(states)]
    dims = (len(fan.starts), len(weights), len(states), 2)
    # ((class * weights + rank) * states + state rank) * 2 + novel: the
    # node's part in node order, then the class's in class order
    key *= 2 * dims[2]
    key += slot[state]
    key += fan.novel
    key = key[fan.index]
    class_keys = np.arange(dims[0]) * (dims[1] * dims[2] * 2)
    key += class_keys.repeat(np.diff(fan.starts, append=len(key)))
    seen = np.zeros(math.prod(dims), dtype=bool)
    seen[key] = True
    keys = seen.nonzero()[0]
    _, rank, at, novel = np.unravel_index(keys, dims)
    return states[at], weights[rank], novel == 1, keys.searchsorted(class_keys)


def extended(table: np.ndarray, rows: int, fill) -> np.ndarray:
    """``table`` with ``rows`` rows of ``fill`` appended."""
    return np.concatenate([table, np.full((rows,) + table.shape[1:], fill, dtype=table.dtype)])


@dataclass(frozen=True)
class Fan:
    """The local runs after every move out of one system state, as a tree.

    A node is a run, of length ``d + 1`` in ``bounds[d]:bounds[d + 1]``, with
    the run it extends (``parent``, -1 at roots), its last ``state``, weight
    ``cumw`` and whether that state is ``novel`` (not the state left and not
    earlier in the run). A class is the nodes of one root and one relation,
    ordered by root: class ``c`` is ``index[starts[c]:starts[c + 1]]``.
    ``moves`` maps each successor with runs to its root, also its segment;
    ``subsets[root, s]`` is the segment automaton state ``s`` admits (-1:
    none). Segment ``j`` is the classes
    ``segments[segment_starts[j]:segment_starts[j + 1]]``: a move's are all
    classes of its root, a subset's those of its root whose relation admits
    its start state.
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
    segments: np.ndarray
    segment_starts: np.ndarray


class DecisionView(NamedTuple):
    """What a decision at one trimmed product state reads, as Python values.

    Candidate ``i`` is the target of the state's ``i``-th out-edge, in edge
    order: its product state, the edge's weight and shortening indicators,
    the edge's segment of the fan of ``ts_state``, and the target's system
    state, automaton state and flags. ``s_pi_inf`` and ``f_inf`` are the
    flags of the state itself. Every field but ``segments`` is a Python
    value; ``segments`` stays an index array, as a score table is read
    through it faster than through a list.
    """

    ts_state: int
    candidates: tuple[int, ...]
    weights: list[float]
    ind_pi: list[bool]
    ind_phi: list[bool]
    segments: np.ndarray
    next_ts: list[int]
    next_ba: list[int]
    next_survey: list[bool]
    next_s_pi_inf: list[bool]
    next_f_inf: list[bool]
    s_pi_inf: bool
    f_inf: bool


class LocalRunCache:
    """Local-run fans of the trimmed ``product``'s system, for one visibility
    range and horizon, built on first use, with the subsets of their runs
    that the product admits from each automaton state, a decision view of
    each product state a decision leaves, and the moves of each system state
    the cost column reads. ``hits`` and ``misses`` count
    fan lookups that found the fan built or not, ``searches`` the bounded
    visibility searches run, and ``build_seconds`` is the time spent
    building fans.
    """

    def __init__(self, product, visibility: float, horizon: float):
        ts = product.ts
        visibility, horizon = float(visibility), float(horizon)
        if not (math.isfinite(visibility) and math.isfinite(horizon)):
            raise ContractError("visibility range and planning horizon must be finite")
        if horizon < ts.max_weight:
            raise ContractError(
                "planning horizon must be at least the largest transition weight"
            )
        if visibility <= 0:
            raise ContractError("visibility range must be positive")
        self.ts = ts
        self.product = product
        self.visibility = visibility
        self.horizon = horizon
        self.fans: dict[int, Fan] = {}
        self.hits = 0
        self.misses = 0
        self.searches = 0
        self.build_seconds = 0.0
        self.views: dict[int, DecisionView] = {}
        # the states visible from a state whose fan is not built yet, found
        # by an earlier search; each is dropped when its fan is built
        self._visible: dict[int, np.ndarray] = {}
        self._cells: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        self._distances_to: dict[str, np.ndarray] = {}
        self._moves_from: dict[int, tuple[list[int], dict[int, int], bool]] = {}
        # each state's lightest move; TransitionSystem refuses a state without one
        self._lightest = np.minimum.reduceat(ts.move_weight, ts.move_ptr[:-1])
        ba, table = product.ba, product.letters
        n_letters, n_ba = len(table.letters), ba.n_states
        # boolean transition matrices, one per letter
        delta = np.zeros((n_letters, n_ba, n_ba), dtype=bool)
        rows = np.repeat(np.arange(n_letters * n_ba), np.diff(table.ptr))
        delta.reshape(-1, n_ba)[rows, table.target] = True
        kept = np.zeros((ts.n, n_ba), dtype=bool)
        kept[product.ts_of, product.ba_of] = True
        # the system states the trimmed product holds, the only ones a
        # decision can leave
        self._held = kept.any(axis=1)
        # the distinct rows of automaton states kept with a system state,
        # in row order, found by a 1-D unique of the rows packed to bytes
        packed = np.packbits(kept, axis=1)
        packed = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, self._kept_id = np.unique(packed, return_index=True, return_inverse=True)
        self._kept = kept = kept[first]
        # a move's class: the letter its source emits and the kept row of its target
        source = np.repeat(table.letter_of, np.diff(ts.move_ptr))
        pairs, self._move_class = np.unique(
            source * len(kept) + self._kept_id[ts.move_dst], return_inverse=True
        )
        class_letter, class_kept = np.divmod(pairs, len(kept))
        # each class's step, read on table misses: its letter's transitions
        # into the states kept with its target
        self._step = delta[class_letter] & kept[class_kept][:, None, :]
        # a relation is an n_ba x n_ba boolean matrix whose row s0 holds the
        # automaton states that can end a run started in s0; by id, the
        # relation, its nonempty rows and the lazy table child[id, move
        # class] (-1 where not filled yet), with room for as many ids as
        # the tables have rows, doubled when full
        room = 16
        self._relation_id: dict[bytes, int] = {}
        self._relations = np.zeros((room, n_ba, n_ba), dtype=bool)
        self._nonempty = np.zeros((room, n_ba), dtype=bool)
        self._child = np.full((room, len(pairs)), -1, dtype=np.intp)
        # a root's relation is the identity on the states kept with it
        self._root = self._intern(np.eye(n_ba, dtype=bool) & kept[:, None, :])

    def sizes(self) -> dict[str, float]:
        """Fans built, the bounded visibility searches run for them, the
        nodes, run classes, class cells and segments they hold, fan lookups,
        the automaton-state relations interned for admission, the seconds
        spent building the fans and the decision views built."""
        fans = self.fans.values()
        return dict(
            fans=len(fans),
            searches=self.searches,
            nodes=sum(len(f.state) for f in fans),
            classes=sum(len(f.starts) for f in fans),
            cells=sum(len(cells[0]) for cells in self._cells.values()),
            segments=sum(len(f.segment_starts) for f in fans),
            hits=self.hits,
            misses=self.misses,
            relations=len(self._relation_id),
            build_seconds=self.build_seconds,
            views=len(self.views),
        )

    def fan(self, q_k: int) -> Fan:
        """The local runs after every move out of ``q_k``."""
        fan = self.fans.get(q_k)
        if fan is None:
            self.misses += 1
            started = time.perf_counter()
            fan = self.fans[q_k] = self._build_fan(q_k)
            self.build_seconds += time.perf_counter() - started
        else:
            self.hits += 1
        return fan

    def distance_to(self, prop: str) -> np.ndarray:
        """The least weight from each system state to one labelled ``prop``
        (infinite if none is reachable), searched once per ``prop``."""
        distances = self._distances_to.get(prop)
        if distances is None:
            labelled = [q for q, label in enumerate(self.ts.labels) if prop in label]
            distances = dijkstra(self.ts.graph.T.tocsr(), indices=labelled, min_only=True)
            self._distances_to[prop] = distances
        return distances

    def moves_from(self, q_k: int) -> tuple[list[int], dict[int, int], bool]:
        """The successors of ``q_k``, the root of each move its fan holds
        runs after, and whether some move has none; looked up once per
        state."""
        found = self._moves_from.get(q_k)
        if found is None:
            # as a list: `in` on a small numpy array costs microseconds per step
            successors = self.ts.successors(q_k).tolist()
            moves = self.fan(q_k).moves
            found = self._moves_from[q_k] = (successors, moves, len(moves) < len(successors))
        return found

    def view(self, p_k: int) -> DecisionView:
        """The decision view of trimmed product state ``p_k``, built the
        first time it is asked for; the product must carry its recurrent
        sets and indicators."""
        view = self.views.get(p_k)
        if view is None:
            view = self.views[p_k] = self._build_view(p_k)
        return view

    def scores(self, q_k: int, potential, values: np.ndarray) -> np.ndarray:
        """Every segment's potential under the rewards ``values``: the best
        of its runs, each combining its positions' ``node_values``."""
        fan = self.fan(q_k)
        if potential.combine is np.maximum:
            # a segment holds every prefix of its runs: its best node is its
            # best position, and a node is worth what its cell is
            cells = self._cells.get(q_k)
            if cells is None:
                cells = self._cells[q_k] = class_cells(fan)
            state, cumw, novel, starts = cells
            best = np.maximum.reduceat(potential.node_values(state, cumw, novel, values), starts)
        elif potential.combine is np.add:
            nodes = potential.node_values(fan.state, fan.cumw, fan.novel, values)
            paths = path_sums(nodes, fan.parent, fan.bounds)
            best = np.maximum.reduceat(paths[fan.index], fan.starts)
        else:
            raise ContractError("a potential combines a run's positions by np.add or np.maximum")
        return np.maximum.reduceat(best[fan.segments], fan.segment_starts)

    def _build_view(self, p_k: int) -> DecisionView:
        """The view of ``p_k``: one slice or gather per field, each but the
        segments handed over with one ``tolist``."""
        product = self.product
        q_k = product.ts_of[p_k].item()
        fan = self.fan(q_k)
        edges = slice(*product.edge_ptr[p_k : p_k + 2].tolist())
        dst = product.edge_dst[edges]
        next_ts = product.ts_of[dst].tolist()
        roots = [fan.moves.get(q, -1) for q in next_ts]
        if -1 in roots:
            raise ContractError("a local run set must contain at least one run")
        return DecisionView(
            ts_state=q_k,
            candidates=tuple(dst.tolist()),
            weights=product.edge_weight[edges].tolist(),
            ind_pi=product.ind_pi[edges].tolist(),
            ind_phi=product.ind_phi[edges].tolist(),
            segments=fan.subsets[roots, product.ba_of[dst]],
            next_ts=next_ts,
            next_ba=product.ba_of[dst].tolist(),
            next_survey=product.surveillance[dst].tolist(),
            next_s_pi_inf=product.s_pi_inf[dst].tolist(),
            next_f_inf=product.f_inf[dst].tolist(),
            s_pi_inf=product.s_pi_inf[p_k].item(),
            f_inf=product.f_inf[p_k].item(),
        )

    def _build_fan(self, q_k: int) -> Fan:
        """The tree of every move out of ``q_k``: one frontier expansion from
        every visible successor whose entry weight fits the horizon."""
        ts, horizon = self.ts, self.horizon
        allowed = self._allowed(q_k)
        ptr, succ, weight = ts.move_ptr, ts.move_dst, ts.move_weight
        lightest, move_class = self._lightest, self._move_class
        span = slice(ptr[q_k], ptr[q_k + 1])
        moves, entry = succ[span], weight[span]
        seeded = (allowed[moves] & (entry <= horizon)).nonzero()[0]
        roots, entry = moves[seeded], entry[seeded]
        # one level per run length: the node each run extends, numbered in
        # the fan, its last state, its weight so far, its root and its
        # relation, with its root's entry weight alongside. A run offers its
        # moves only if the lightest one fits, added in the order of the
        # horizon test: rounding is monotone, so no other move fits when
        # that one does not.
        n_moves = len(roots)
        states, cums = roots, np.zeros(n_moves)
        rel = self._root[self._kept_id[roots]]
        levels = [(np.full(n_moves, -1), states, cums, rel)]
        bounds = [0, n_moves]
        while True:
            live = ((cums + lightest[states]) + entry <= horizon).nonzero()[0]
            if not len(live):
                break
            parent, move = out_moves(ptr, states, live)
            nxt, total, reach = succ[move], cums[parent] + weight[move], entry[parent]
            kept = (allowed[nxt] & (total + reach <= horizon)).nonzero()[0]
            if not len(kept):
                break
            parent, move = parent[kept], move[kept]
            states, cums, entry = nxt[kept], total[kept], reach[kept]
            rel = self._children(rel[parent], move_class[move])
            levels.append((parent + bounds[-2], states, cums, rel))
            bounds.append(bounds[-1] + len(kept))
        parent, state, cumw, rel = (np.concatenate(field) for field in zip(*levels))

        # a state is novel unless it is q_k or an ancestor's; up holds the
        # d-th ancestors of the nodes from bounds[d] on, so those of depth d
        # find their roots, numbered as the nodes of depth 0
        novel = state != q_k
        root = np.arange(len(state))
        up = parent[bounds[1] :]
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            novel[lo:] &= state[up] != state[lo:]
            root[lo:hi] = up[: hi - lo]
            up = parent[up[hi - lo :]]

        # the classes, by root and then by relation id, each in node order
        width = int(rel.max(initial=0)) + 1
        index, keys, starts = group(root * width + rel, n_moves * width)
        # each class's root and relation, read at its first node
        first = index[starts]
        class_root, class_rel = root[first], rel[first]
        # every move's classes, then each (root, s0) subset's in key order:
        # the classes of the root whose relation has a nonempty row s0
        n_ba = self._kept.shape[1]
        admitting, s0 = self._nonempty[class_rel].nonzero()
        order, present, at = group(class_root[admitting] * n_ba + s0, n_moves * n_ba)
        segments = np.concatenate((np.arange(len(starts)), admitting[order]))
        segment_starts = np.concatenate(
            (class_root.searchsorted(np.arange(n_moves)), at + len(starts))
        )
        subsets = np.full(n_moves * n_ba, -1)
        subsets[present] = np.arange(n_moves, n_moves + len(present))
        subsets = subsets.reshape(n_moves, n_ba)
        moves = dict(zip(roots.tolist(), range(n_moves)))
        return Fan(
            moves, parent, state, cumw, novel, bounds, subsets, index, starts, segments,
            segment_starts,
        )

    def _allowed(self, q_k: int) -> np.ndarray:
        """The states visible from ``q_k``, as a mask. Its set is kept if an
        earlier search found it; otherwise one bounded search starts from
        ``q_k`` and from each of its successors that the trimmed product
        holds and that has neither a fan nor a kept set, since the next
        decision leaves one of them, and their sets are kept."""
        visible = self._visible.pop(q_k, None)
        if visible is not None:
            allowed = np.zeros(self.ts.n, dtype=bool)
            allowed[visible] = True
            return allowed
        ts = self.ts
        successors = ts.successors(q_k)
        sources = [
            q
            for q in successors[self._held[successors]].tolist()
            if q != q_k and q not in self.fans and q not in self._visible
        ]
        self.searches += 1
        distances = dijkstra(ts.graph, indices=[q_k, *sources], limit=self.visibility)
        within = distances <= self.visibility
        for q, row in zip(sources, within[1:]):
            self._visible[q] = row.nonzero()[0].astype(np.int32)
        return within[0]

    def _children(self, rel: np.ndarray, move_class: np.ndarray) -> np.ndarray:
        """``child[rel, move_class]``: each relation read on through the
        class's step. Each entry not filled yet is made first, one batch for
        the distinct missing keys."""
        width = self._child.shape[1]
        keys = rel * width + move_class
        found = self._child.ravel().take(keys)
        if found.min() < 0:
            missing = np.unique(keys[found < 0])
            rows, classes = missing // width, missing % width
            self._child[rows, classes] = self._intern(self._relations[rows] @ self._step[classes])
            found = self._child.ravel().take(keys)
        return found

    def _intern(self, relations: np.ndarray) -> np.ndarray:
        """The id of each of ``relations``, numbering new ones in order; each
        is stored with its nonempty rows, the tables doubled until the ids
        fit."""
        ids = np.array(
            [
                self._relation_id.setdefault(relation.tobytes(), len(self._relation_id))
                for relation in relations
            ],
            dtype=np.intp,
        )
        capacity = len(self._child)
        if len(self._relation_id) > capacity:
            while capacity < len(self._relation_id):
                capacity *= 2
            extra = capacity - len(self._child)
            self._relations = extended(self._relations, extra, False)
            self._nonempty = extended(self._nonempty, extra, False)
            self._child = extended(self._child, extra, -1)
        self._relations[ids] = relations
        self._nonempty[ids] = relations.any(axis=2)
        return ids
