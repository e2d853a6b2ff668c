"""Synchronous product of a transition system with a mission automaton.

Product states pair a system state with an automaton state; moving along a
system transition advances the automaton over the label of the state being
left. The offline analysis restricts the accepting and surveillance state
sets to those visitable infinitely often, computes shortest-distance fields
toward them, prunes everything that cannot serve an accepting run, and
attaches per-edge progress indicators that the online planner follows.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, dijkstra

from .buchi import BuchiAutomaton, to_buchi
from .errors import InternalConsistencyError, ValidationError
from .localruns import LocalRunCache
from .ltl import Formula, parse
# unused here: imported only for perfbench/spans.py, which patches it here
from .ts import TransitionSystem, min_weight_matrix  # noqa: F401

INF = math.inf


class ProductAutomaton:
    """Reachable product graph with weighted edges and analysis fields.

    Analysis results (limit sets, distance fields, indicators) start as None
    and are filled in by the offline pipeline. ``initial`` is None when the
    initial product state did not survive pruning.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        ba: BuchiAutomaton,
        ts_of: np.ndarray,
        ba_of: np.ndarray,
        initial: int | None,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        edge_weight: np.ndarray,
        accepting: np.ndarray,
        surveillance: np.ndarray,
        surveillance_prop: str = "sur",
    ):
        self.ts = ts
        self.ba = ba
        self.surveillance_prop = surveillance_prop
        self.ts_of = np.asarray(ts_of, dtype=np.int64)
        self.ba_of = np.asarray(ba_of, dtype=np.int64)
        self.n = len(self.ts_of)
        self.initial = initial
        self.edge_src = np.asarray(edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(edge_dst, dtype=np.int64)
        self.edge_weight = np.asarray(edge_weight, dtype=np.float64)
        self.accepting = np.asarray(accepting, dtype=bool)
        self.surveillance = np.asarray(surveillance, dtype=bool)
        if np.any(np.diff(self.edge_src) < 0):
            raise ValidationError("product edges must be sorted by source state")
        # CSR row pointer over the edge arrays: the edges leaving p are the
        # ids edge_ptr[p] up to edge_ptr[p + 1]
        self.edge_ptr = np.searchsorted(self.edge_src, np.arange(self.n + 1))
        # edges turned around (dst -> src): every offline analysis searches
        # backwards from a target set over this one sparse graph
        self.reverse = csr_array(
            (self.edge_weight, (self.edge_dst, self.edge_src)), shape=(self.n, self.n)
        )
        # offline analysis results
        self.f_inf: np.ndarray | None = None
        self.s_pi_inf: np.ndarray | None = None
        self.w_pi: np.ndarray | None = None
        self.w_phi_u: np.ndarray | None = None
        self.w_phi_v: np.ndarray | None = None
        self.ind_pi: np.ndarray | None = None
        self.ind_phi: np.ndarray | None = None

    def state_name(self, state: int) -> str:
        return f"({self.ts.state_name(int(self.ts_of[state]))}, {int(self.ba_of[state])})"

    def edges_from(self, state: int) -> range:
        """Ids of the edges leaving ``state``."""
        return range(self.edge_ptr[state], self.edge_ptr[state + 1])


def build_product(
    ts: TransitionSystem, ba: BuchiAutomaton, surveillance_prop: str = "sur"
) -> ProductAutomaton:
    """Reachable part of the product of a system and an automaton.

    An edge (q, s) -> (q', s') exists when q -> q' is a system transition and
    the automaton moves s -> s' over the label of q. Discovery order is
    deterministic, so state numbering is reproducible. States whose system
    component carries the surveillance proposition are flagged.
    """
    if not ts.propositions >= ba.propositions & ts.propositions:
        raise ValidationError("automaton propositions incompatible with system")
    start = (ts.initial, ba.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    order: list[tuple[int, int]] = [start]
    edge_src: list[int] = []
    edge_dst: list[int] = []
    edge_weight: list[float] = []
    queue: deque[tuple[int, int]] = deque([start])
    while queue:
        q, s = queue.popleft()
        src = index[(q, s)]
        letter = ts.label(q)
        ba_targets = ba.successors(s, letter)
        for q2 in ts.successors(q):
            w = ts.weight(q, q2)
            for s2 in ba_targets:
                key = (q2, s2)
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                    queue.append(key)
                edge_src.append(src)
                edge_dst.append(index[key])
                edge_weight.append(w)
    ts_of = np.array([q for q, _ in order], dtype=np.int64)
    ba_of = np.array([s for _, s in order], dtype=np.int64)
    accepting = np.array([s in ba.accepting for _, s in order], dtype=bool)
    surveillance = np.array(
        [surveillance_prop in ts.label(q) for q, _ in order], dtype=bool
    )
    return ProductAutomaton(
        ts,
        ba,
        ts_of,
        ba_of,
        0,
        np.array(edge_src, dtype=np.int64),
        np.array(edge_dst, dtype=np.int64),
        np.array(edge_weight, dtype=np.float64),
        accepting,
        surveillance,
        surveillance_prop,
    )


def _distance_to_set(product: ProductAutomaton, mask: np.ndarray) -> np.ndarray:
    """Least path weight from each state into the marked set (0 inside it)."""
    if not mask.any():
        return np.full(product.n, INF)
    return dijkstra(product.reverse, indices=np.flatnonzero(mask), min_only=True)


def _has_successor_in(product: ProductAutomaton, mask: np.ndarray) -> np.ndarray:
    """States with at least one edge, self-loops included, into the marked set."""
    hit = np.zeros(product.n, dtype=bool)
    hit[product.edge_src[mask[product.edge_dst]]] = True
    return hit


def compute_inf_sets(product: ProductAutomaton) -> tuple[np.ndarray, np.ndarray]:
    """Restrict accepting and surveillance sets to their recurrent cores.

    A state stays in either set only while some successor can still reach the
    other (current) set; removal alternates between the two sets until stable.
    The result are exactly the states visitable infinitely often by a single
    run that sees both sets infinitely often.
    """
    f_inf = product.accepting.copy()
    s_inf = product.surveillance.copy()
    while True:
        reach_s = _distance_to_set(product, s_inf) < INF
        new_f = f_inf & _has_successor_in(product, reach_s)
        reach_f = _distance_to_set(product, new_f) < INF
        new_s = s_inf & _has_successor_in(product, reach_f)
        if np.array_equal(new_f, f_inf) and np.array_equal(new_s, s_inf):
            break
        f_inf, s_inf = new_f, new_s
    return f_inf, s_inf


def surveillance_distance(product: ProductAutomaton, s_inf: np.ndarray) -> np.ndarray:
    """Minimum weight from each state to the recurrent surveillance set."""
    return _distance_to_set(product, s_inf)


def mission_distance(
    product: ProductAutomaton, f_inf: np.ndarray, w_pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-part distance toward closing an accepting round.

    The second component is the least total weight of reaching a recurrent
    accepting state and continuing to surveillance from there; the first is
    the least weight of the reach leg among the totals' minimizers. States
    that cannot reach the accepting core get infinity in both parts.

    Both parts come from one Dijkstra over the reversed graph that orders
    labels ``(total, reach)`` lexicographically, seeded with ``(w_pi(f), 0)``
    on the core. Off the core, a state's label is its best successor's label
    plus the edge weight in both parts, so that edge shortens both strictly.
    """
    rev = product.reverse
    preds, weights, starts = rev.indices.tolist(), rev.data.tolist(), rev.indptr.tolist()
    best = [(INF, INF)] * product.n
    heap = [(float(w_pi[f]), 0.0, int(f)) for f in np.flatnonzero(f_inf & (w_pi < INF))]
    for total, reach, f in heap:
        best[f] = (total, reach)
    heapq.heapify(heap)
    while heap:
        total, reach, p = heapq.heappop(heap)
        if (total, reach) != best[p]:
            continue
        for k in range(starts[p], starts[p + 1]):
            q, w = preds[k], weights[k]
            label = (total + w, reach + w)
            if label < best[q]:
                best[q] = label
                heapq.heappush(heap, (label[0], label[1], q))
    fields = np.array(best, dtype=np.float64).reshape(product.n, 2)
    return fields[:, 1].copy(), fields[:, 0].copy()


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
        inside = finite[product.edge_src] & finite[product.edge_dst]
        src, dst = product.edge_src[inside], product.edge_dst[inside]
        graph = csr_array((np.ones(len(src)), (src, dst)), shape=(product.n, product.n))
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
        product.ts_of[kept],
        product.ba_of[kept],
        initial,
        remap[product.edge_src[edge_ok]],
        remap[product.edge_dst[edge_ok]],
        product.edge_weight[edge_ok],
        product.accepting[kept],
        product.surveillance[kept],
        product.surveillance_prop,
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
    return all(
        sur_prop in letter for _, letter, t in ba.transitions if t in ba.accepting
    )


@dataclass
class OfflineResult:
    """Everything the online planner needs, plus diagnostics."""

    ts: TransitionSystem
    formula: Formula
    surveillance_prop: str
    ba: BuchiAutomaton
    product: ProductAutomaton
    trimmed: ProductAutomaton
    feasible: bool
    accepting_label_condition: bool
    timings: dict[str, float] = field(default_factory=dict)
    # local-run caches by (visibility, horizon), filled during the online phase
    local_run_caches: dict[tuple[float, float], LocalRunCache] = field(
        default_factory=dict, repr=False, compare=False
    )

    def local_run_cache(self, visibility: float, horizon: float) -> LocalRunCache:
        """The cache every run over this result shares for these values."""
        key = (float(visibility), float(horizon))
        cache = self.local_run_caches.get(key)
        if cache is None:
            cache = self.local_run_caches[key] = LocalRunCache(self.ts, self.trimmed, *key)
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

    feasible = trimmed.initial is not None
    label_ok = check_accepting_label_condition(ba, surveillance_prop)
    return OfflineResult(
        ts=ts,
        formula=formula,
        surveillance_prop=surveillance_prop,
        ba=ba,
        product=product,
        trimmed=trimmed,
        feasible=feasible,
        accepting_label_condition=label_ok,
        timings=timings,
    )
