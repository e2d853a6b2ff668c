"""Shared test helpers: independent oracles and random-instance generators.

The oracles here deliberately avoid the library's own shortest-path and
graph machinery (scipy) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import functools
import heapq
import importlib.util
import math
import sys
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from surplan.buchi import BuchiAutomaton
from surplan.errors import ContractError
from surplan.ltl import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Letter,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    canonical_letters,
)
from surplan.product import ProductAutomaton, build_product, letter_table, trim_product
from surplan.ts import TransitionSystem

from automaton_views import successors

INF = math.inf


@functools.lru_cache(maxsize=16)
def move_weights(ts: TransitionSystem) -> dict[tuple[int, int], float]:
    """The system's moves as ``(source, target) -> weight``, read from its
    CSR arrays; the dict is shared between calls, so read it only."""
    src = np.repeat(np.arange(ts.n), np.diff(ts.move_ptr))
    return dict(zip(zip(src.tolist(), ts.move_dst.tolist()), ts.move_weight.tolist()))


def named_system(
    names: Sequence[str],
    initial: str,
    transitions: dict[tuple[str, str], float],
    propositions=(),
    labels=None,
) -> TransitionSystem:
    """A system whose moves are given as ``(source name, target name) ->
    weight``, turned into the constructor's id arrays."""
    index = {name: i for i, name in enumerate(names)}
    return TransitionSystem(
        names=names,
        initial=initial,
        src=[index[a] for a, _ in transitions],
        dst=[index[b] for _, b in transitions],
        weight=list(transitions.values()),
        propositions=propositions,
        labels=labels or {},
    )


def listed_automaton(
    n_states: int,
    initial: int,
    propositions,
    transitions: Sequence[tuple[int, Letter, int]],
    accepting,
) -> BuchiAutomaton:
    """An automaton over ``canonical_letters(propositions)`` whose letter
    edges are given as ``(source, letter, target)`` tuples, turned into the
    constructor's id arrays."""
    letters = canonical_letters(propositions)
    index = {letter: i for i, letter in enumerate(letters)}
    return BuchiAutomaton(
        n_states,
        initial,
        propositions,
        letters,
        [s for s, _, _ in transitions],
        [index[frozenset(letter)] for _, letter, _ in transitions],
        [t for _, _, t in transitions],
        accepting,
    )


def dijkstra_oracle(n: int, edges: dict[tuple[int, int], float]) -> list[list[float]]:
    """All-pairs minimum path weight via a plain binary-heap Dijkstra.

    Self-distances are 0 through the empty path regardless of self-loops.
    """
    return [dijkstra_oracle_from(n, edges, src) for src in range(n)]


def dijkstra_oracle_from(n: int, edges: dict[tuple[int, int], float], src: int) -> list[float]:
    """One row of :func:`dijkstra_oracle`: minimum path weights from ``src``."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), w in edges.items():
        adj[i].append((j, w))
    dist = [INF] * n
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, w in adj[node]:
            nd = d + w
            if nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    dist[src] = 0.0
    return dist


def ts_shortening_indicator(
    ts: TransitionSystem, q: int, q_next: int, surveyed: Sequence[int]
) -> int:
    """1 when the transition strictly shortens the minimum weight to any
    surveyed state, else 0; distances from :func:`dijkstra_oracle`."""
    weights = move_weights(ts)
    if (q, q_next) not in weights:
        raise ContractError(f"({q}, {q_next}) is not a transition")
    targets = list(surveyed)
    if not targets:
        return 0
    here, there = (np.array(dijkstra_oracle_from(ts.n, weights, p)) for p in (q, q_next))
    return int(there[targets].min() < here[targets].min())


def elapsed_walkback(ts: TransitionSystem, prefix: Sequence[int], surveyed) -> float:
    """Weight accumulated since the latest surveyed state of a system-state
    prefix, found walking back from its end and summed forward from there in
    travel order; from its start when none is surveyed. The definition the
    planner's raw elapsed weight, which the trace's cost column reads, is
    checked against."""
    start = max((i for i in range(1, len(prefix)) if prefix[i] in surveyed), default=0)
    weights = move_weights(ts)
    total = 0.0
    for a, b in zip(prefix[start:], prefix[start + 1 :]):
        total += weights[a, b]
    return total


def edges_from(product: ProductAutomaton, state: int) -> range:
    """Ids of the edges leaving ``state``: its row of the CSR edge arrays."""
    return range(product.edge_ptr[state], product.edge_ptr[state + 1])


def run_history(product: ProductAutomaton, infos) -> tuple[list[float], list[bool]]:
    """The time and the raw survey flag of every position of a run over
    ``product``, rebuilt from its ``StepInfo`` records: position 0 is the
    initial state at time 0, position ``i`` the state step ``i`` entered."""
    times = [0.0] + [info.time for info in infos]
    surveys = [bool(product.surveillance[product.initial])] + [info.survey for info in infos]
    return times, surveys


def alpha_bar(planner, prop: str) -> list[tuple[int, frozenset]]:
    """The planner's executed prefix with the surveillance label ``prop``
    masked.

    A position keeps the surveillance label only when some earlier
    position visited the recurrent accepting set and no position from
    that visit (inclusive) up to this one (exclusive) carries the raw
    label. Computed from scratch by the definition; the planner's
    incremental elapsed-weight bookkeeping is checked against this.
    """
    product = planner.product
    sur = [bool(product.surveillance[p]) for p in planner.prefix]
    accepting = [bool(product.f_inf[p]) for p in planner.prefix]
    out: list[tuple[int, frozenset]] = []
    for i, p in enumerate(planner.prefix):
        q = int(product.ts_of[p])
        labels = product.ts.labels[q]
        if sur[i]:
            kept = any(
                accepting[j] and not any(sur[j:i]) for j in range(i)
            )
            if not kept:
                labels = labels - {prop}
        out.append((q, labels))
    return out


def tarjan_scc(n: int, successors: list[list[int]]) -> list[int]:
    """Strongly connected components, iteratively, smallest-index labeling.

    Returns a component id per node; ids are assigned in discovery order and
    carry no meaning beyond equality.
    """
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp = [-1] * n
    counter = 0
    n_comps = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                index_of[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            while pos < len(successors[node]):
                nxt = successors[node][pos]
                pos += 1
                if index_of[nxt] == -1:
                    work[-1] = (node, pos)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp[member] = n_comps
                    if member == node:
                        break
                n_comps += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comp


def random_ts(
    rng: np.random.Generator,
    n_states: int,
    extra_edges: int,
    n_props: int = 2,
    weights=(1.0, 2.0, 3.0),
) -> TransitionSystem:
    """Random weighted system; a random cycle through all states keeps every
    state on an outgoing transition and the graph connected."""
    names = [f"s{i}" for i in range(n_states)]
    order = rng.permutation(n_states)
    transitions: dict[tuple[str, str], float] = {}

    def add(i: int, j: int) -> None:
        transitions[(names[i], names[j])] = float(rng.choice(weights))

    for a, b in zip(order, np.roll(order, -1)):
        add(int(a), int(b))
    for _ in range(extra_edges):
        add(int(rng.integers(n_states)), int(rng.integers(n_states)))
    props = [chr(ord("a") + k) for k in range(n_props)] + ["sur"]
    labels = {
        name: {p for p in props if rng.random() < 0.35}
        for name in names
    }
    return named_system(names, names[int(rng.integers(n_states))], transitions, props, labels)


def random_formula(rng: np.random.Generator, props: list[str], depth: int) -> Formula:
    if depth == 0:
        roll = rng.random()
        if roll < 0.1:
            return TrueConst()
        atom = Atom(props[int(rng.integers(len(props)))])
        return Not(atom) if roll < 0.4 else atom
    kind = int(rng.integers(7))
    sub = lambda: random_formula(rng, props, depth - 1)
    if kind == 0:
        return Not(sub())
    if kind == 1:
        return And(sub(), sub())
    if kind == 2:
        return Or(sub(), sub())
    if kind == 3:
        return Next(sub())
    if kind == 4:
        return Until(sub(), sub())
    if kind == 5:
        return Eventually(sub())
    return Always(sub())


def random_formula_cases(
    n: int, fewest_props: int = 1
) -> list[tuple[Formula, list[str]]]:
    """``n`` random formulas with ``fewest_props`` to ``fewest_props + 4``
    propositions and depth 1-5, each with its propositions; case ``i``
    depends on ``i`` and ``fewest_props`` alone."""
    props = ["a", "b", "c", "d", "e", "f", "g"]
    cases = []
    for seed in range(n):
        rng = np.random.default_rng(seed)
        case_props = props[: fewest_props + seed % 5]
        cases.append((random_formula(rng, case_props, 1 + seed // 5 % 5), case_props))
    return cases


# Per-letter tableau: the obligation choices of a formula, or of an
# obligation state, on one concrete letter. ``surplan.buchi`` computes guarded
# choices once per state instead; expanded to a letter they must give the
# same choices as these.

_EMPTY = frozenset()

# A choice is (obligations passed to the next position,
#              postponed subformulas discharged right now,
#              postponed subformulas whose requirement was examined right now).
_Choice = tuple[frozenset, frozenset, frozenset]


def _sat(formula: Formula, letter: Letter, memo: dict) -> tuple[_Choice, ...]:
    key = (formula, letter)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if isinstance(formula, TrueConst):
        result: tuple[_Choice, ...] = ((_EMPTY, _EMPTY, _EMPTY),)
    elif isinstance(formula, Atom):
        result = ((_EMPTY, _EMPTY, _EMPTY),) if formula.name in letter else ()
    elif isinstance(formula, Not):
        sub = formula.sub
        if isinstance(sub, TrueConst):
            result = ()
        elif isinstance(sub, Atom):
            result = ((_EMPTY, _EMPTY, _EMPTY),) if sub.name not in letter else ()
        else:
            raise ContractError("negation below non-atomic formula; normalize first")
    elif isinstance(formula, And):
        result = _combine(
            _sat(formula.left, letter, memo), _sat(formula.right, letter, memo)
        )
    elif isinstance(formula, Or):
        merged = set(_sat(formula.left, letter, memo))
        merged.update(_sat(formula.right, letter, memo))
        result = tuple(merged)
    elif isinstance(formula, Next):
        result = ((frozenset((formula.sub,)), _EMPTY, _EMPTY),)
    elif isinstance(formula, Until):
        mark = frozenset((formula,))
        choices = set()
        for nxt, dis, pro in _sat(formula.right, letter, memo):
            choices.add((nxt, dis | mark, pro | mark))
        for nxt, dis, pro in _sat(formula.left, letter, memo):
            choices.add((nxt | mark, dis, pro | mark))
        result = tuple(choices)
    elif isinstance(formula, Eventually):
        mark = frozenset((formula,))
        choices = set()
        for nxt, dis, pro in _sat(formula.sub, letter, memo):
            choices.add((nxt, dis | mark, pro | mark))
        choices.add((mark, _EMPTY, mark))
        result = tuple(choices)
    elif isinstance(formula, Always):
        keep = frozenset((formula,))
        result = tuple(
            (nxt | keep, dis, pro) for nxt, dis, pro in _sat(formula.sub, letter, memo)
        )
    else:
        raise TypeError(f"unknown formula node {formula!r}")
    memo[key] = result
    return result


def _combine(a: tuple[_Choice, ...], b: tuple[_Choice, ...]) -> tuple[_Choice, ...]:
    out = set()
    for na, da, pa in a:
        for nb, db, pb in b:
            out.add((na | nb, da | db, pa | pb))
    return tuple(out)


def _state_successors(
    members: Sequence[Formula], letter: Letter, memo: dict
) -> tuple[_Choice, ...]:
    choices: tuple[_Choice, ...] = ((_EMPTY, _EMPTY, _EMPTY),)
    for member in members:
        choices = _combine(choices, _sat(member, letter, memo))
        if not choices:
            break
    return choices


def array_product(
    edge_src: np.ndarray,
    edge_dst: np.ndarray,
    edge_weight: np.ndarray,
    accepting: np.ndarray,
    surveillance: np.ndarray,
) -> ProductAutomaton:
    """A directed weighted graph given by its edge arrays (sorted by source),
    dressed up as a product automaton.

    The analysis algorithms only read the graph arrays, so a trivial
    one-state system and automaton stand in for the real components.
    """
    dummy_ts = named_system(["d"], "d", {("d", "d"): 1.0}, ["sur"], {"d": {"sur"}})
    dummy_ba = listed_automaton(
        1, 0, ["sur"], [(0, frozenset(), 0), (0, frozenset({"sur"}), 0)], [0]
    )
    n_states = len(accepting)
    return ProductAutomaton(
        ts=dummy_ts,
        ba=dummy_ba,
        letters=letter_table(dummy_ts, dummy_ba),
        ts_of=np.zeros(n_states, dtype=np.int64),
        ba_of=np.zeros(n_states, dtype=np.int64),
        initial=0,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_weight=edge_weight,
        accepting=accepting,
        surveillance=surveillance,
    )


def random_product(
    rng: np.random.Generator,
    n_states: int,
    n_edges: int,
    weights: Sequence[float] = (1.0, 2.0, 3.0),
) -> ProductAutomaton:
    """Random directed weighted graph dressed up as a product automaton, with
    edge weights drawn from ``weights``."""
    edges = set()
    while len(edges) < min(n_edges, n_states * n_states):
        edges.add((int(rng.integers(n_states)), int(rng.integers(n_states))))
    edge_src, edge_dst = (np.array(col, dtype=np.int64) for col in zip(*sorted(edges)))
    edge_weight = rng.choice(list(weights), size=len(edge_src))
    accepting = rng.random(n_states) < 0.3
    surveillance = rng.random(n_states) < 0.3
    return array_product(edge_src, edge_dst, edge_weight, accepting, surveillance)


def random_trimmed_product(rng, ts, states=(2, 5), edges=(3, 10)):
    """The product of ``ts`` with a random nondeterministic automaton, cut
    down to a random subset of its states.

    The automaton's moves are the edges of a ``random_product`` graph, each
    readable under a random set of the system's letters, so one state often
    has several targets under one letter. Its state and edge counts are
    drawn from the half-open ranges ``states`` and ``edges``.
    """
    graph = random_product(rng, int(rng.integers(*states)), int(rng.integers(*edges)))
    letters = list(dict.fromkeys(ts.labels))
    transitions = [
        (int(s), letter, int(t))
        for s, t in zip(graph.edge_src, graph.edge_dst)
        for letter in letters
        if rng.random() < 0.6
    ]
    ba = listed_automaton(graph.n, 0, ts.propositions, transitions, {0})
    product = build_product(ts, ba)
    finite = rng.random(product.n) < 0.8
    finite[product.initial] = True
    product.w_pi = np.where(finite, 0.0, np.inf)
    product.w_phi_u = np.zeros(product.n)
    product.w_phi_v = np.zeros(product.n)
    return trim_product(product)


def chain_product(n_states: int, loop: int) -> ProductAutomaton:
    """The chain ``0 -> 1 -> ... -> n_states - 1`` closed by an edge from its
    last state back to ``loop``, accepting on even and surveyed on odd states.

    A loop of one state holds only one of the two marks, so no state is in
    either recurrent core; a longer loop holds both, so every marked state is.
    """
    states = np.arange(n_states)
    return array_product(
        states,
        np.append(states[1:], loop),
        np.ones(n_states),
        states % 2 == 0,
        states % 2 == 1,
    )


def lexicographic_mission_distance(
    product: ProductAutomaton, f_inf: np.ndarray, w_pi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The mission metric ``(reach, total)`` by one heap Dijkstra over the
    reversed product graph that orders labels ``(total, reach)``
    lexicographically, seeded with ``(w_pi(f), 0)`` on the accepting core.
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


class LocalRunOracle:
    """Local runs of one system move at a time, by the per-move recurrence.

    ``bundle(q_k, q)`` expands the runs after the move ``q_k -> q`` alone,
    one array step per run length, and packs them padded, ordered by length
    and, within a length, by parent row and then successor order. It also
    pushes sets of automaton states along every row (one boolean matrix
    product per run length) to find which start states admit each row.
    Visibility comes from :func:`dijkstra_oracle`.
    """

    def __init__(self, ts: TransitionSystem, product, visibility: float, horizon: float):
        self.ts = ts
        self.visibility = float(visibility)
        self.horizon = float(horizon)
        self.weights = move_weights(ts)
        self.distance = np.array(dijkstra_oracle(ts.n, self.weights))
        self.indptr, self.succ, self.weight = ts.move_ptr, ts.move_dst, ts.move_weight
        ba = product.ba
        self.delta = {
            letter: np.zeros((ba.n_states, ba.n_states), dtype=bool)
            for letter in set(ts.labels)
        }
        for letter, matrix in self.delta.items():
            for s in range(ba.n_states):
                matrix[s, list(successors(ba, s, letter))] = True
        self.kept = np.zeros((ts.n, ba.n_states), dtype=bool)
        self.kept[product.ts_of, product.ba_of] = True

    def bundle(self, q_k: int, q: int):
        """``(ts_states, valid, cumw, novel, admits)``. Raises ContractError
        when the move has no run."""
        entry = self.weights[q_k, q]
        allowed = self.distance[q_k] <= self.visibility
        if not allowed[q] or entry > self.horizon:
            raise ContractError("a local run set must contain at least one run")
        states, cums = np.array([q]), np.array([0.0])
        levels = [(None, states, cums)]
        while True:
            starts = self.indptr[states]
            counts = self.indptr[states + 1] - starts
            parent = np.repeat(np.arange(len(states)), counts)
            first = np.cumsum(counts) - counts
            move = np.arange(len(parent)) + np.repeat(starts - first, counts)
            nxt = self.succ[move]
            total = cums[parent] + self.weight[move]
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

        # reach[r, s0, s]: automaton state s can sit at the end of row r on
        # some trimmed product path that starts in (q, s0)
        reach = np.diag(self.kept[q])[None]
        last = np.array([q])
        admitted = [reach.any(axis=2)]
        for parent, states, _ in levels[1:]:
            step = np.stack([self.delta[self.ts.labels[p]] for p in last[parent]])
            reach = np.matmul(reach[parent], step) & self.kept[states][:, None, :]
            last = states
            admitted.append(reach.any(axis=2))
        admits = np.concatenate(admitted)
        return ts_states, valid, cumw, novel, admits


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is being made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="session")
def triangle_ts() -> TransitionSystem:
    return named_system(
        names=["q0", "q1", "q2"],
        initial="q0",
        transitions={
            ("q0", "q1"): 1.0,
            ("q1", "q2"): 2.0,
            ("q1", "q0"): 1.0,
            ("q2", "q0"): 3.0,
        },
        propositions=["a", "b", "sur"],
        labels={"q0": {"a", "sur"}, "q2": {"b", "sur"}},
    )


_ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    _ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
