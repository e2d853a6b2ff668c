"""Shared test helpers: independent oracles and random-instance generators.

The oracles here deliberately avoid the library's own shortest-path and
graph machinery (scipy) so that agreement between the two is meaningful.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np
import pytest

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
)
from surplan.product import ProductAutomaton
from surplan.ts import TransitionSystem

INF = math.inf


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
    ts.weight(q, q_next)
    targets = list(surveyed)
    if not targets:
        return 0
    here, there = (np.array(dijkstra_oracle_from(ts.n, ts.weight_of, p)) for p in (q, q_next))
    return int(there[targets].min() < here[targets].min())


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
    return TransitionSystem(
        names=names,
        initial=names[int(rng.integers(n_states))],
        transitions=transitions,
        propositions=props,
        labels=labels,
    )


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


def random_formula_cases(n: int) -> list[tuple[Formula, list[str]]]:
    """``n`` random formulas with 1-5 propositions and depth 1-5, each with
    its propositions; case ``i`` depends on ``i`` alone."""
    props = ["a", "b", "c", "d", "e"]
    cases = []
    for seed in range(n):
        rng = np.random.default_rng(seed)
        case_props = props[: 1 + seed % 5]
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


def random_product(
    rng: np.random.Generator, n_states: int, n_edges: int
) -> ProductAutomaton:
    """Random directed weighted graph dressed up as a product automaton.

    The analysis algorithms only read the graph arrays, so a trivial
    one-state system and automaton stand in for the real components.
    """
    from surplan.buchi import BuchiAutomaton

    dummy_ts = TransitionSystem(
        names=["d"],
        initial="d",
        transitions={("d", "d"): 1.0},
        propositions=["sur"],
        labels={"d": {"sur"}},
    )
    letters = [frozenset(), frozenset({"sur"})]
    dummy_ba = BuchiAutomaton(
        n_states=1,
        initial=0,
        propositions=frozenset({"sur"}),
        transitions=tuple((0, letter, 0) for letter in letters),
        accepting=frozenset({0}),
    )
    edges = set()
    while len(edges) < min(n_edges, n_states * n_states):
        edges.add((int(rng.integers(n_states)), int(rng.integers(n_states))))
    edge_src, edge_dst = (np.array(col, dtype=np.int64) for col in zip(*sorted(edges)))
    edge_weight = rng.choice([1.0, 2.0, 3.0], size=len(edge_src))
    return ProductAutomaton(
        ts=dummy_ts,
        ba=dummy_ba,
        ts_of=np.zeros(n_states, dtype=np.int64),
        ba_of=np.zeros(n_states, dtype=np.int64),
        initial=0,
        edge_src=edge_src,
        edge_dst=edge_dst,
        edge_weight=edge_weight,
        accepting=rng.random(n_states) < 0.3,
        surveillance=rng.random(n_states) < 0.3,
    )


class LocalRunOracle:
    """Local runs of one system move at a time, by the per-move recurrence.

    ``bundle(q_k, q)`` expands the runs after the move ``q_k -> q`` alone,
    one array step per run length, and packs them padded, ordered by length
    and, within a length, by parent row and then successor order. With a
    product it also pushes sets of automaton states along every row (one
    boolean matrix product per run length) to find which start states admit
    each row. Visibility comes from :func:`dijkstra_oracle`.
    """

    def __init__(self, ts: TransitionSystem, product, visibility: float, horizon: float):
        self.ts = ts
        self.product = product
        self.visibility = float(visibility)
        self.horizon = float(horizon)
        self.distance = np.array(dijkstra_oracle(ts.n, ts.weight_of))
        self.indptr = np.cumsum([0] + [len(js) for js in ts.succ])
        self.succ = np.array([j for js in ts.succ for j in js], dtype=np.int64)
        self.weight = np.array(
            [ts.weight_of[(i, j)] for i, js in enumerate(ts.succ) for j in js]
        )
        if product is not None:
            ba = product.ba
            self.delta = {
                letter: np.zeros((ba.n_states, ba.n_states), dtype=bool)
                for letter in set(ts.labels)
            }
            for letter, matrix in self.delta.items():
                for s in range(ba.n_states):
                    matrix[s, list(ba.successors(s, letter))] = True
            self.kept = np.zeros((ts.n, ba.n_states), dtype=bool)
            self.kept[product.ts_of, product.ba_of] = True

    def bundle(self, q_k: int, q: int):
        """``(ts_states, valid, cumw, novel, admits)``; ``admits`` is None
        without a product. Raises ContractError when the move has no run."""
        entry = self.ts.weight_of[(q_k, q)]
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

        admits = None
        if self.product is not None:
            # reach[r, s0, s]: automaton state s can sit at the end of row r
            # on some trimmed product path that starts in (q, s0)
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
def triangle_ts() -> TransitionSystem:
    return TransitionSystem(
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
