"""Synchronous product of a transition system with a mission automaton.

Product states pair a system state with an automaton state; moving along a
system transition advances the automaton over the label of the state being
left. The offline analysis restricts the accepting and surveillance state
sets to those visitable infinitely often, computes shortest-distance fields
toward them, prunes everything that cannot serve an accepting run, and
attaches per-edge progress indicators that the online planner follows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .buchi import BuchiAutomaton, alive_states, to_buchi
from .errors import InternalConsistencyError, ValidationError
from .localruns import LocalRunCache
from .ltl import Formula, Letter, parse
# unused here: imported only for perfbench/spans.py, which patches it here
from .ts import TransitionSystem, min_weight_matrix  # noqa: F401

INF = math.inf


class LetterTable(NamedTuple):
    """The letters a system's states emit and the automaton's moves on them.

    ``letters`` are the distinct labels in order of their first state, and
    state ``q`` emits ``letters[letter_of[q]]``. Over letter ``a`` automaton
    state ``s`` moves to ``target[ptr[a * n_ba + s]:ptr[a * n_ba + s + 1]]``, in
    ascending order, with ``n_ba`` the automaton's state count.
    """

    letters: list[Letter]
    letter_of: np.ndarray
    ptr: np.ndarray
    target: np.ndarray

    def holding(self, prop: str) -> np.ndarray:
        """Mask of the letters that hold ``prop``; gather it through ``letter_of``."""
        return np.array([prop in letter for letter in self.letters], dtype=bool)


def letter_table(ts: TransitionSystem, ba: BuchiAutomaton) -> LetterTable:
    """The letter table of a system and an automaton."""
    letters = list(dict.fromkeys(ts.labels))
    letter_id = {letter: i for i, letter in enumerate(letters)}
    letter_of = np.array([letter_id[label] for label in ts.labels], dtype=np.int64)
    # each letter's rows of the automaton's index, empty where it has no such letter
    ids = ba.letter_ids(letters)
    rows = (ids[:, None] * ba.n_states + np.arange(ba.n_states)).ravel()
    count = np.where(np.repeat(ids >= 0, ba.n_states), np.diff(ba.ptr)[rows], 0)
    ptr = np.concatenate(([0], np.cumsum(count)))
    target = ba.target[np.repeat(ba.ptr[rows] - ptr[:-1], count) + np.arange(ptr[-1])]
    return LetterTable(letters, letter_of, ptr, target)


class ProductAutomaton:
    """Reachable product graph with weighted edges and analysis fields.

    ``letters`` is the letter table of ``ts`` and ``ba``. Analysis results
    (limit sets, distance fields, indicators) start as None and are filled
    in by the offline pipeline. ``initial`` is None when the initial product
    state did not survive pruning.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        ba: BuchiAutomaton,
        letters: LetterTable,
        ts_of: np.ndarray,
        ba_of: np.ndarray,
        initial: int | None,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_weight: np.ndarray,
        accepting: np.ndarray,
        surveillance: np.ndarray,
    ):
        self.ts = ts
        self.ba = ba
        self.letters = letters
        self.ts_of = np.asarray(ts_of, dtype=np.int64)
        self.ba_of = np.asarray(ba_of, dtype=np.int64)
        self.n = len(self.ts_of)
        self.initial = initial
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float64)
        self.accepting = np.asarray(accepting, dtype=bool)
        self.surveillance = np.asarray(surveillance, dtype=bool)
        # one bool per edge, where np.diff would allocate int64s
        if (self.edge_src[1:] < self.edge_src[:-1]).any():
            raise ValidationError("product edges must be sorted by source state")
        # CSR row pointer over the edge arrays: the edges leaving p are the
        # ids edge_ptr[p] up to edge_ptr[p + 1]
        self.edge_ptr = np.searchsorted(self.edge_src, np.arange(self.n + 1))
        # offline analysis results
        self.f_inf: np.ndarray | None = None
        self.s_pi_inf: np.ndarray | None = None
        self.w_pi: np.ndarray | None = None
        self.w_phi_u: np.ndarray | None = None
        self.w_phi_v: np.ndarray | None = None
        self.ind_pi: np.ndarray | None = None
        self.ind_phi: np.ndarray | None = None

    @cached_property
    def reverse(self) -> csr_array:
        """The edges turned around (dst -> src), built on first read: every
        offline analysis searches backwards from a target set over this one
        sparse graph, and the trimmed product, which none searches, holds
        none. The edge arrays are already the forward graph's CSR form, and
        its transpose is converted in linear time (Gustavson 1978), with each
        row's columns in ascending source order, as a sort would leave them."""
        forward = csr_array(
            (self.edge_weight, self.edge_dst, self.edge_ptr), shape=(self.n, self.n)
        )
        return forward.T.tocsr()


def build_product(
    ts: TransitionSystem, ba: BuchiAutomaton, surveillance_prop: str = "sur"
) -> ProductAutomaton:
    """Reachable part of the product of a system and an automaton.

    An edge (q, s) -> (q', s') exists when q -> q' is a system transition and
    the automaton moves s -> s' over the label of q, read through its
    projection onto the automaton's propositions. States are numbered as
    a breadth-first search from the initial pair numbers them, which lists
    each state's edges by system move, then by automaton target. States
    whose system component carries the surveillance proposition are flagged.
    """
    if not ba.propositions <= ts.propositions:
        raise ValidationError("automaton propositions incompatible with system")
    table = letter_table(ts, ba)
    n_ba = ba.n_states
    n_keys = ts.n * n_ba
    # The key graph: state (q, s) is keyed q * n_ba + s, and its row lists its
    # edges, reached or not, by system move, then by automaton target. Both
    # are stored ascending, so the columns strictly ascend in every row.
    row = (table.letter_of[:, None] * n_ba + np.arange(n_ba)).ravel()
    n_moves = np.repeat(np.diff(ts.move_ptr), n_ba)
    n_targets = np.diff(table.ptr)[row]
    indptr = np.concatenate(([0], np.cumsum(n_moves * n_targets)))
    # ids fit int32 below 2**31 keys and edges, where scipy switches too
    index = np.int32 if max(n_keys, indptr[-1]) < 2**31 else np.int64
    # the (key, move) pairs, key-major: pair p has count[p] targets (intp, as
    # np.repeat takes it), and a key-graph edge e of p's reads table.target[skip[p] + e]
    skip = np.repeat(ts.move_ptr[:-1], n_ba) - np.cumsum(n_moves) + n_moves
    move = np.repeat(skip.astype(index), n_moves) + np.arange(n_moves.sum(), dtype=index)
    count = np.repeat(n_targets, n_moves)
    skip = (np.repeat(table.ptr[row], n_moves) - np.cumsum(count) + count).astype(index)
    column = np.repeat(skip, count)
    column += np.arange(len(column), dtype=index)
    column = table.target.astype(index)[column]
    column += np.repeat((ts.move_dst.astype(index) * n_ba)[move], count)
    weight = np.repeat(ts.move_weight[move], count)
    graph = csr_array((weight, column, indptr.astype(index)), shape=(n_keys, n_keys))
    del row, n_moves, n_targets, indptr, skip, move, count, column, weight
    # One search numbers the states in the order a FIFO search first meets
    # them. The product's edges are their rows, whose targets are all reached.
    order = breadth_first_order(graph, ts.initial * n_ba + ba.initial, return_predecessors=False)
    # the reached rows in that order, gathered from the key graph's arrays:
    # edge e of the product is the key graph's entry at[e]
    count = np.diff(graph.indptr)[order]
    at = np.repeat(graph.indptr[order] - (np.cumsum(count) - count).astype(index), count)
    at += np.arange(len(at), dtype=index)
    id_of = np.empty(n_keys, dtype=np.int64)
    id_of[order] = np.arange(len(order))
    edge_dst = id_of[graph.indices[at]]
    edge_weight = graph.data[at]
    del graph, at, id_of
    ts_of, ba_of = np.divmod(order, n_ba)
    return ProductAutomaton(
        ts, ba, table, ts_of, ba_of, 0, np.repeat(np.arange(len(order)), count),
        edge_dst, edge_weight, np.isin(ba_of, list(ba.accepting)),
        table.holding(surveillance_prop)[table.letter_of[ts_of]],
    )


def compute_inf_sets(product: ProductAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """Restrict accepting and surveillance sets to their recurrent cores.

    One strongly connected components pass finds the good components: those
    holding an edge (a self-loop counts), an accepting and a surveillance
    state. One backward search from them finds every state that reaches one.
    What stays are the accepting (surveillance) states among those. Such a
    state need not recur itself: on ``0 (acc) -> 1 (sur) -> 2 (acc) -> 1``,
    state 0 stays but a run visits it once.
    """
    reach = alive_states(product.reverse, (product.accepting, product.surveillance))
    return product.accepting & reach, product.surveillance & reach


def surveillance_distance(product: ProductAutomaton, s_inf: np.ndarray) -> np.ndarray:
    """Minimum weight from each state to the recurrent surveillance set (0
    inside it)."""
    if not s_inf.any():
        return np.full(product.n, INF)
    return dijkstra(product.reverse, indices=np.flatnonzero(s_inf), min_only=True)


def mission_distance(
    product: ProductAutomaton, f_inf: np.ndarray, w_pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-part distance toward closing an accepting round.

    The second component is the least total weight of reaching a recurrent
    accepting state and continuing to surveillance from there; the first is
    the least weight of the reach leg among the totals' minimizers. States
    that cannot reach the accepting core get infinity in both parts.

    The labels ``(total, reach)`` are ordered lexicographically, with
    ``(w_pi(f), 0)`` at each core state ``f``; off the core, a state's label
    is its best successor's label plus the edge weight in both parts, so that
    edge shortens both strictly. Two searches over the reversed graph find
    them. The totals come from one extra state that enters each core state
    ``f`` with weight ``w_pi(f)``. The reach part starts from the core states
    that keep their own total and follows only the tight edges ``p -> q``,
    those with ``total(p) == total(q) + w``. Each sum is formed from the
    same terms in the same order as in one lexicographic search, so both
    parts are the same floats.
    """
    rev, n = product.reverse, product.n
    core = np.flatnonzero(f_inf & (w_pi < INF))
    # the reversed graph plus the extra state n, whose row enters the core
    entry = csr_array(
        (
            np.concatenate((rev.data, w_pi[core])),
            np.concatenate((rev.indices, core)),
            np.append(rev.indptr, rev.indptr[-1] + len(core)),
        ),
        shape=(n + 1, n + 1),
    )
    total = dijkstra(entry, indices=n, min_only=True)[:n]
    # the reversed graph holds each edge p -> q in row q, column p
    rows = np.repeat(np.arange(n), np.diff(rev.indptr))
    tight = total[rev.indices] == total[rows] + rev.data
    graph = csr_array(
        (
            rev.data[tight],
            rev.indices[tight],
            np.concatenate(([0], np.cumsum(np.bincount(rows[tight], minlength=n)))),
        ),
        shape=(n, n),
    )
    starts = core[total[core] == w_pi[core]]
    return dijkstra(graph, indices=starts, min_only=True), total


def compute_indicators(product: ProductAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge progress flags: 1 when the move strictly shortens the metric.

    For the mission metric both parts must strictly decrease.
    """
    if product.w_pi is None or product.w_phi_u is None or product.w_phi_v is None:
        raise ValidationError("distance fields must be computed first")
    src = product.edge_src
    dst = product.edge_dst
    ind_pi = product.w_pi[src] > product.w_pi[dst]
    ind_phi = (product.w_phi_u[src] > product.w_phi_u[dst]) & (
        product.w_phi_v[src] > product.w_phi_v[dst]
    )
    return ind_pi, ind_phi


def verify_descent(product: ProductAutomaton) -> None:
    """Consistency check: indicator-marked edges always exist where needed.

    From any state with a finite positive surveillance distance some edge
    must shorten it, and from any state outside the accepting core with a
    finite mission metric some edge must shorten both of its parts. Raises
    InternalConsistencyError when the analysis violates this.
    """
    w_pi, v = product.w_pi, product.w_phi_v
    ind_pi, ind_phi = product.ind_pi, product.ind_phi
    if w_pi is None or v is None or ind_pi is None:
        raise ValidationError("analysis fields must be computed first")
    has_pi, has_phi = np.zeros((2, product.n), dtype=bool)
    has_pi[product.edge_src[ind_pi]] = True
    has_phi[product.edge_src[ind_phi]] = True
    no_pi = (0 < w_pi) & (w_pi < INF) & ~has_pi
    no_phi = (v < INF) & ~product.f_inf & ~has_phi
    offending = np.flatnonzero(no_pi | no_phi)
    if len(offending):
        p = int(offending[0])
        kind = "surveillance" if no_pi[p] else "mission"
        raise InternalConsistencyError(f"no {kind}-descent edge out of state {p}")


def trim_product(product: ProductAutomaton) -> ProductAutomaton:
    """Drop states that cannot support the mission, keep the reachable rest.

    States with an infinite surveillance or mission metric are removed; the
    remainder is restricted to the part reachable from the initial state.
    Distance fields and recurrent-set flags carry over unchanged: minimum
    paths realizing them never pass through removed states, because both
    metrics stay finite along any path that ends somewhere finite.
    """
    if product.w_pi is None or product.w_phi_v is None:
        raise ValidationError("distance fields must be computed first")
    finite = (product.w_pi < INF) & (product.w_phi_v < INF)
    keep = np.zeros(product.n, dtype=bool)
    if product.initial is not None and finite[product.initial]:
        # the edges between finite states, still sorted by source
        inside = finite[product.edge_src] & finite[product.edge_dst]
        src, dst = product.edge_src[inside], product.edge_dst[inside]
        graph = csr_array(
            (np.ones(len(src)), dst, np.searchsorted(src, np.arange(product.n + 1))),
            shape=(product.n, product.n),
        )
        keep[breadth_first_order(graph, product.initial, return_predecessors=False)] = True
    kept = np.flatnonzero(keep)
    remap = np.full(product.n, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    edge_ok = keep[product.edge_src] & keep[product.edge_dst]
    initial = (
        int(remap[product.initial])
        if product.initial is not None and keep[product.initial]
        else None
    )
    trimmed = ProductAutomaton(
        product.ts,
        product.ba,
        product.letters,
        product.ts_of[kept],
        product.ba_of[kept],
        initial,
        remap[product.edge_src[edge_ok]],
        remap[product.edge_dst[edge_ok]],
        product.edge_weight[edge_ok],
        product.accepting[kept],
        product.surveillance[kept],
    )
    trimmed.f_inf = product.f_inf[kept] if product.f_inf is not None else None
    trimmed.s_pi_inf = product.s_pi_inf[kept] if product.s_pi_inf is not None else None
    trimmed.w_pi = product.w_pi[kept]
    trimmed.w_phi_u = product.w_phi_u[kept]
    trimmed.w_phi_v = product.w_phi_v[kept]
    return trimmed


def check_accepting_label_condition(ba: BuchiAutomaton, sur_prop: str) -> bool:
    """Whether every automaton move into an accepting state reads the
    surveillance proposition."""
    accepting = np.zeros(ba.n_states, dtype=bool)
    accepting[list(ba.accepting)] = True
    # the letter of each edge: letter a's rows start at ptr[a * n_states]
    letter = np.repeat(np.arange(len(ba.letters)), np.diff(ba.ptr[:: ba.n_states]))
    return bool(ba.holding(sur_prop)[letter[accepting[ba.target]]].all())


@dataclass
class OfflineResult:
    """Everything the online planner needs, plus diagnostics."""

    product: ProductAutomaton
    trimmed: ProductAutomaton
    accepting_label_condition: bool
    timings: dict[str, float] = field(default_factory=dict)
    # local-run caches by (visibility, horizon), filled during the online phase
    local_run_caches: dict[tuple[float, float], LocalRunCache] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def ts(self) -> TransitionSystem:
        """The system both products are built over."""
        return self.trimmed.ts

    @property
    def ba(self) -> BuchiAutomaton:
        """The mission automaton both products are built with."""
        return self.trimmed.ba

    @property
    def feasible(self) -> bool:
        """Whether the initial product state survived trimming."""
        return self.trimmed.initial is not None

    def local_run_cache(self, visibility: float, horizon: float) -> LocalRunCache:
        """The cache every run over this result shares for these values."""
        key = (float(visibility), float(horizon))
        cache = self.local_run_caches.get(key)
        if cache is None:
            cache = self.local_run_caches[key] = LocalRunCache(self.trimmed, *key)
        return cache


def offline_phase(
    ts: TransitionSystem,
    formula: Formula | str,
    surveillance_prop: str = "sur",
) -> OfflineResult:
    """Run the whole offline pipeline for a mission over a system.

    Translates the formula, builds the product, restricts to recurrent sets,
    computes both distance fields and per-edge indicators, prunes, and
    verifies internal consistency of the result.
    """
    timings: dict[str, float] = {}
    if isinstance(formula, str):
        formula = parse(formula, ts.propositions)
    t0 = time.perf_counter()
    ba = to_buchi(formula, ts.propositions)
    timings["automaton"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    product = build_product(ts, ba, surveillance_prop)
    timings["product"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    product.f_inf, product.s_pi_inf = compute_inf_sets(product)
    product.w_pi = surveillance_distance(product, product.s_pi_inf)
    product.w_phi_u, product.w_phi_v = mission_distance(
        product, product.f_inf, product.w_pi
    )
    timings["distances"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    trimmed = trim_product(product)
    trimmed.ind_pi, trimmed.ind_phi = compute_indicators(trimmed)
    verify_descent(trimmed)
    timings["trim"] = time.perf_counter() - t0

    label_ok = check_accepting_label_condition(ba, surveillance_prop)
    return OfflineResult(product, trimmed, label_ok, timings)
