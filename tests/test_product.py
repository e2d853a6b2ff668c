"""Product graph analysis against definitional brute-force oracles.

The oracles reimplement the definitions directly: products by a double loop
over state pairs, recurrent sets through hand-rolled strongly connected
components, distances through explicit minimization, all without touching
the library's vectorized code paths or scipy.
"""

import dataclasses
import hashlib
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_array

import surplan.product as product_module
from surplan import buchi
from surplan.buchi import BuchiAutomaton, to_buchi
from surplan.errors import InternalConsistencyError, ValidationError
from surplan.ltl import parse
from surplan.product import (
    OfflineResult,
    ProductAutomaton,
    build_product,
    check_accepting_label_condition,
    compute_indicators,
    compute_inf_sets,
    letter_table,
    mission_distance,
    offline_phase,
    surveillance_distance,
    trim_product,
    verify_descent,
)
from surplan.scenario import load_scenario
from surplan.ts import TransitionSystem

from automaton_views import successors, transitions
from conftest import (
    chain_product,
    dijkstra_oracle,
    edges_from,
    lexicographic_mission_distance,
    move_weights,
    named_system,
    random_formula_cases,
    random_product,
    random_trimmed_product,
    random_ts,
    tarjan_scc,
)
from product_reference import reference_build_product

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

INF = math.inf


def product_edges(product):
    return list(zip(product.edge_src.tolist(), product.edge_dst.tolist()))


def successors_list(product):
    succ = [[] for _ in range(product.n)]
    for i, j in product_edges(product):
        succ[i].append(j)
    return succ


def product_min_w_oracle(product):
    edges = {}
    for e in range(len(product.edge_src)):
        key = (int(product.edge_src[e]), int(product.edge_dst[e]))
        w = float(product.edge_weight[e])
        edges[key] = min(w, edges.get(key, INF))
    return dijkstra_oracle(product.n, edges)


def inf_sets_oracle(product):
    """Recurrent cores by definition: a state belongs to its core when some
    run from it revisits both accepting and surveillance states forever.

    Such a run eventually cycles inside one strongly connected component that
    contains at least one state of each kind and at least one edge.  The core
    is then the set of accepting (surveillance) states that reach such a
    component.
    """
    n = product.n
    succ = successors_list(product)
    comp = tarjan_scc(n, succ)
    has_edge = set()
    members = {}
    for i in range(n):
        members.setdefault(comp[i], []).append(i)
    for i, j in product_edges(product):
        if comp[i] == comp[j]:
            has_edge.add(comp[i])
    good = {
        c
        for c, nodes in members.items()
        if c in has_edge
        and any(product.accepting[i] for i in nodes)
        and any(product.surveillance[i] for i in nodes)
    }
    reach_good = [False] * n
    stack = [i for i in range(n) if comp[i] in good]
    for i in stack:
        reach_good[i] = True
    preds = [[] for _ in range(n)]
    for i, j in product_edges(product):
        preds[j].append(i)
    while stack:
        j = stack.pop()
        for i in preds[j]:
            if not reach_good[i]:
                reach_good[i] = True
                stack.append(i)
    f_inf = np.array([product.accepting[i] and reach_good[i] for i in range(n)])
    s_inf = np.array([product.surveillance[i] and reach_good[i] for i in range(n)])
    return f_inf, s_inf


def distances_oracle(product, f_inf, s_inf):
    """Literal double-loop evaluation of the three distance fields."""
    n = product.n
    min_w = product_min_w_oracle(product)
    w_pi = [min((min_w[p][s] for s in range(n) if s_inf[s]), default=INF) for p in range(n)]
    u = [INF] * n
    v = [INF] * n
    for p in range(n):
        best = INF
        for f in range(n):
            if f_inf[f]:
                best = min(best, min_w[p][f] + w_pi[f])
        v[p] = best
        if best < INF:
            u[p] = min(
                min_w[p][f]
                for f in range(n)
                if f_inf[f] and min_w[p][f] + w_pi[f] == best
            )
    return np.array(w_pi), np.array(u), np.array(v)


def analyzed(product):
    product.f_inf, product.s_pi_inf = compute_inf_sets(product)
    product.w_pi = surveillance_distance(product, product.s_pi_inf)
    product.w_phi_u, product.w_phi_v = mission_distance(product, product.f_inf, product.w_pi)
    product.ind_pi, product.ind_phi = compute_indicators(product)
    return product


def test_build_product_matches_definition():
    """Over the system's propositions and over narrower alphabets, where a
    label is read through its projection onto the automaton's propositions.
    The first system is the smallest where an unprojected label loses edges:
    over ``G F a`` with the alphabet ``{a}`` it has 3 states and 4 edges."""
    rng = np.random.default_rng(71)
    labelled = TransitionSystem(
        ["x", "y"], "x", [0, 1], [1, 0], [1, 1], ["a", "b", "sur"], {"x": ["a", "b"], "y": ["sur"]}
    )
    cases = [(labelled, "G F a", ["a"]), (labelled, "G F a", ["a", "b", "sur"])]
    for _ in range(20):
        ts = random_ts(rng, int(rng.integers(2, 7)), extra_edges=6, n_props=2)
        cases += [(ts, "G F sur", sorted(ts.propositions)), (ts, "G F sur & G F a", ["a"])]
    sizes = []
    for ts, text, props in cases:
        ba = to_buchi(parse(text), props)
        product = build_product(ts, ba, "sur")
        weights = move_weights(ts)
        delta = {}
        for s, letter, t in transitions(ba):
            delta.setdefault((s, letter), set()).add(t)

        # reachable closure of the definitional edge relation
        start = (ts.initial, ba.initial)
        seen = {start}
        frontier = [start]
        edges = set()
        while frontier:
            q, s = frontier.pop()
            for q2 in ts.successors(q).tolist():
                for s2 in delta.get((s, ts.labels[q] & ba.propositions), ()):
                    edges.add(((q, s), (q2, s2), weights[q, q2]))
                    if (q2, s2) not in seen:
                        seen.add((q2, s2))
                        frontier.append((q2, s2))

        got_states = {
            (int(product.ts_of[p]), int(product.ba_of[p])) for p in range(product.n)
        }
        assert got_states == seen
        got_edges = {
            (
                (int(product.ts_of[product.edge_src[e]]), int(product.ba_of[product.edge_src[e]])),
                (int(product.ts_of[product.edge_dst[e]]), int(product.ba_of[product.edge_dst[e]])),
                float(product.edge_weight[e]),
            )
            for e in range(len(product.edge_src))
        }
        assert got_edges == edges
        for p in range(product.n):
            q, s = int(product.ts_of[p]), int(product.ba_of[p])
            assert bool(product.accepting[p]) == (s in ba.accepting)
            assert bool(product.surveillance[p]) == ("sur" in ts.labels[q])
        sizes.append((product.n, len(product.edge_src)))
    assert sizes[:2] == [(3, 4), (3, 4)]


def assert_product_matches_fifo_search(ts, ba, surveillance_prop="sur"):
    """``build_product`` equals the one-state-at-a-time FIFO search in every
    array, and its letter table agrees with the automaton's successors."""
    got = build_product(ts, ba, surveillance_prop)
    expected = reference_build_product(ts, ba, surveillance_prop)
    assert got.initial == expected.initial
    for name in (
        "ts_of", "ba_of", "edge_src", "edge_dst", "edge_weight", "accepting", "surveillance", "edge_ptr"
    ):
        values, oracle = getattr(got, name), getattr(expected, name)
        assert values.dtype == oracle.dtype and np.array_equal(values, oracle), name
    table = got.letters
    assert table.letters == list(dict.fromkeys(ts.labels))
    assert [table.letters[a] for a in table.letter_of.tolist()] == list(ts.labels)
    for a, letter in enumerate(table.letters):
        for s in range(ba.n_states):
            row = a * ba.n_states + s
            moves = table.target[table.ptr[row] : table.ptr[row + 1]].tolist()
            assert moves == list(successors(ba, s, letter)), (a, s)


def test_the_one_search_product_matches_the_fifo_search(workloads, tmp_path):
    rng = np.random.default_rng(91)
    for formula, props in random_formula_cases(120):
        n_states = int(rng.integers(2, 31))
        ts = random_ts(rng, n_states, int(rng.integers(0, 3 * n_states)), n_props=len(props))
        assert_product_matches_fifo_search(ts, to_buchi(formula, ts.propositions))
    for name, workload in workloads.SHRUNK.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.scenario_text(workload, 1))
        scenario = load_scenario(path)
        ba = to_buchi(scenario.formula, scenario.ts.propositions)
        assert_product_matches_fifo_search(scenario.ts, ba, scenario.surveillance_prop)


def test_an_automaton_over_the_emitted_letters_gives_the_same_product(workloads, tmp_path):
    """``to_buchi``'s letter edges restricted to the letters the system
    emits, listed in reverse order of first emission, give the full
    alphabet's product and letter table array for array."""
    scenarios = [load_scenario(SCENARIOS / name) for name in ("default_grid.ini", "triangle.ini")]
    for name, workload in workloads.SHRUNK.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.scenario_text(workload, 1))
        scenarios.append(load_scenario(path))
    for scenario in scenarios:
        ts, sur = scenario.ts, scenario.surveillance_prop
        full = to_buchi(scenario.formula, ts.propositions)
        emitted = list(dict.fromkeys(ts.labels))[::-1]
        narrow_id = np.full(len(full.letters), -1)
        narrow_id[[full.letters.index(letter) for letter in emitted]] = np.arange(len(emitted))
        # the full automaton's letter edges, read off its index
        rows = np.repeat(np.arange(len(full.ptr) - 1), np.diff(full.ptr))
        letter, src = np.divmod(rows, full.n_states)
        keep = narrow_id[letter] >= 0
        assert not keep.all(), scenario.name
        narrow = BuchiAutomaton(
            full.n_states,
            full.initial,
            full.propositions,
            emitted,
            src[keep],
            narrow_id[letter[keep]],
            full.target[keep],
            full.accepting,
        )
        got, expected = build_product(ts, narrow, sur), build_product(ts, full, sur)
        for name in (
            "ts_of", "ba_of", "edge_src", "edge_dst", "edge_weight", "accepting", "surveillance", "edge_ptr"
        ):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), (scenario.name, name)
        assert (got.reverse != expected.reverse).nnz == 0, scenario.name
        for name in ("letter_of", "ptr", "target"):
            values, oracle = getattr(got.letters, name), getattr(expected.letters, name)
            assert np.array_equal(values, oracle), (scenario.name, name)
        assert check_accepting_label_condition(narrow, sur) == check_accepting_label_condition(
            full, sur
        )


def test_a_deep_chain_builds_without_a_cost_per_level():
    """The chain ``c0 -> ... -> c39999``, closed by a self-loop, surveyed on
    its odd states but the last, under ``G F sur``: 59,999 product states, a
    breadth-first search about 40,000 levels deep. The product equals the
    FIFO search's in every array and dtype, and its build costs nothing per
    level: a build that ran one numpy round per level took 1.1 s on a shared
    2-vCPU host, the one search about 0.015 s."""
    n = 40_000
    names = [f"c{i}" for i in range(n)]
    ts = TransitionSystem(
        names, "c0", np.arange(n), np.append(np.arange(1, n), n - 1), np.ones(n),
        ["sur"], {name: ["sur"] for name in names[1 : n - 1 : 2]},
    )
    ba = to_buchi(parse("G F sur"), ts.propositions)
    assert_product_matches_fifo_search(ts, ba)
    seconds = []
    for _ in range(3):
        started = time.perf_counter()
        build_product(ts, ba)
        seconds.append(time.perf_counter() - started)
    assert min(seconds) < 0.25, seconds


def test_a_grid_product_builds_in_bounded_memory(tmp_path):
    """``default_grid``'s mission on a 100 x 100 grid (70,012 states and
    1,092,382 edges): ``build_product`` peaks at 42 bytes per product edge
    traced, the key graph and the edges it keeps; a level-by-level build
    with int64 work arrays peaked at 60."""
    side = 100
    text = (SCENARIOS / "default_grid.ini").read_text()
    for old, new in [
        ("rows = 10", f"rows = {side}"), ("cols = 10", f"cols = {side}"),
        ("initial = 9,0", f"initial = {side - 1},0"),
        ("b = 9,9", f"b = {side - 1},{side - 1}"),
        ("sur = 0,0 9,9", f"sur = 0,0 {side - 1},{side - 1}"),
        ("u = 4,1-8", f"u = {side // 2 - 1},1-{side - 2}"),
    ]:
        assert old in text, old
        text = text.replace(old, new)
    path = tmp_path / "grid100.ini"
    path.write_text(text)
    scenario = load_scenario(path)
    ba = to_buchi(scenario.formula, scenario.ts.propositions)
    tracemalloc.start()
    try:
        product = build_product(scenario.ts, ba, scenario.surveillance_prop)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = len(product.edge_src)
    assert (product.n, edges) == (70_012, 1_092_382)
    assert peak < 48 * edges, peak / edges


def test_surveillance_distance_matches_heap_dijkstra():
    rng = np.random.default_rng(72)
    for _ in range(15):
        product = random_product(rng, int(rng.integers(2, 25)), int(rng.integers(2, 60)))
        min_w = product_min_w_oracle(product)
        for density in (0.0, 0.1, 0.3, 1.0):
            mask = rng.random(product.n) < density
            expect = [
                min((min_w[p][s] for s in range(product.n) if mask[s]), default=INF)
                for p in range(product.n)
            ]
            assert np.array_equal(surveillance_distance(product, mask), np.array(expect))


def test_inf_sets_match_scc_oracle():
    rng = np.random.default_rng(73)
    products = []
    for _ in range(60):
        n = int(rng.integers(2, 30))
        products.append(random_product(rng, n, int(rng.integers(1, 4 * n))))
    # an infeasible chain, whose last state's self-loop is accepting only, and
    # a feasible one, whose last two states form a loop
    products += [chain_product(2001, 2000), chain_product(2000, 1998)]
    for product in products:
        f_inf, s_inf = compute_inf_sets(product)
        f_expect, s_expect = inf_sets_oracle(product)
        assert np.array_equal(f_inf, f_expect)
        assert np.array_equal(s_inf, s_expect)


def test_inf_sets_take_one_component_pass_and_at_most_one_search(monkeypatch):
    """On alternating chains of 40,000 states the recurrent cores come from
    one strongly connected components pass and at most one graph search,
    whatever the size. An alternating fixpoint would remove one accepting
    and surveyed pair per round, so it would search once per state."""
    calls = {}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            assert calls[key] <= 1, f"{key} ran more than once"
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(buchi, "connected_components", counted(buchi.connected_components, "scc"))
    search = counted(buchi.dijkstra, "search")
    monkeypatch.setattr(buchi, "dijkstra", search)
    monkeypatch.setattr(product_module, "dijkstra", search)
    n = 40_000
    for loop, feasible in ((n - 1, False), (n - 2, True)):
        calls.update(scc=0, search=0)
        product = chain_product(n, loop)
        f_inf, s_inf = compute_inf_sets(product)
        assert calls == {"scc": 1, "search": int(feasible)}
        assert np.array_equal(f_inf, product.accepting & feasible)
        assert np.array_equal(s_inf, product.surveillance & feasible)


def test_distances_match_double_loop_oracle():
    rng = np.random.default_rng(74)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        product = analyzed(random_product(rng, n, int(rng.integers(1, 4 * n))))
        w_pi, u, v = distances_oracle(product, product.f_inf, product.s_pi_inf)
        assert np.array_equal(product.w_pi, w_pi)
        assert np.array_equal(product.w_phi_u, u)
        assert np.array_equal(product.w_phi_v, v)


def test_mission_distance_equals_the_lexicographic_heap():
    rng = np.random.default_rng(77)
    zero_entries = 0
    for i in range(400):
        n = int(rng.integers(2, 30))
        weights = (1.0, 2.0, 3.0) if i % 2 else (0.1, 0.2, 0.3, 0.7, 1.1)
        product = random_product(rng, n, int(rng.integers(1, 4 * n)), weights)
        # the recurrent cores, the raw sets for more core states, and entry
        # weights that are no distance field, so a core state can lose its own
        f_inf, s_inf = compute_inf_sets(product)
        arbitrary = rng.choice([0.0, 0.5, 1.0, 2.5, 4.0, INF], size=n)
        for core, w_pi in (
            (f_inf, surveillance_distance(product, s_inf)),
            (product.accepting, surveillance_distance(product, product.surveillance)),
            (product.accepting, arbitrary),
        ):
            zero_entries += bool((core & (w_pi == 0.0)).any())
            u, v = mission_distance(product, core, w_pi)
            u_heap, v_heap = lexicographic_mission_distance(product, core, w_pi)
            assert np.array_equal(u, u_heap) and np.array_equal(v, v_heap), i
    # core states that are surveyed themselves enter the search at weight 0
    assert zero_entries >= 100
    for name in ("default_grid", "triangle", "infeasible"):
        scenario = load_scenario(SCENARIOS / f"{name}.ini")
        product = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop).product
        expect = lexicographic_mission_distance(product, product.f_inf, product.w_pi)
        assert np.array_equal(product.w_phi_u, expect[0]), name
        assert np.array_equal(product.w_phi_v, expect[1]), name


def test_indicator_edges_flag_strict_decrease():
    rng = np.random.default_rng(75)
    product = analyzed(random_product(rng, 18, 50))
    for e in range(len(product.edge_src)):
        i, j = int(product.edge_src[e]), int(product.edge_dst[e])
        assert bool(product.ind_pi[e]) == (product.w_pi[i] > product.w_pi[j])
        assert bool(product.ind_phi[e]) == (
            product.w_phi_u[i] > product.w_phi_u[j]
            and product.w_phi_v[i] > product.w_phi_v[j]
        )


def test_trim_keeps_exactly_the_useful_reachable_states():
    rng = np.random.default_rng(76)
    for _ in range(25):
        n = int(rng.integers(2, 25))
        product = analyzed(random_product(rng, n, int(rng.integers(1, 4 * n))))
        trimmed = trim_product(product)

        finite = [
            p
            for p in range(product.n)
            if product.w_pi[p] < INF and product.w_phi_v[p] < INF
        ]
        keep = set()
        if product.initial in finite:
            stack = [product.initial]
            keep = {product.initial}
            succ = successors_list(product)
            while stack:
                p = stack.pop()
                for q in succ[p]:
                    if q in finite and q not in keep:
                        keep.add(q)
                        stack.append(q)
        assert trimmed.n == len(keep)
        if not keep:
            assert trimmed.initial is None
            continue
        # distances carry over unchanged onto surviving states
        survivors = sorted(keep)
        for new, old in enumerate(survivors):
            assert trimmed.w_pi[new] == product.w_pi[old]
            assert trimmed.w_phi_u[new] == product.w_phi_u[old]
            assert trimmed.w_phi_v[new] == product.w_phi_v[old]
            assert trimmed.f_inf[new] == product.f_inf[old]
            assert trimmed.s_pi_inf[new] == product.s_pi_inf[old]
        kept_edges = {
            (survivors.index(i), survivors.index(j))
            for i, j in product_edges(product)
            if i in keep and j in keep
        }
        assert set(product_edges(trimmed)) == kept_edges


def test_descent_guarantees_hold_exhaustively_on_trimmed_products():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        product = analyzed(random_product(rng, n, int(rng.integers(1, 4 * n))))
        trimmed = trim_product(product)
        if trimmed.initial is None:
            continue
        trimmed.ind_pi, trimmed.ind_phi = compute_indicators(trimmed)
        verify_descent(trimmed)
        for p in range(trimmed.n):
            if 0.0 < trimmed.w_pi[p] < INF:
                assert any(trimmed.ind_pi[e] for e in edges_from(trimmed, p))
            if trimmed.w_phi_v[p] < INF and not trimmed.f_inf[p]:
                assert any(trimmed.ind_phi[e] for e in edges_from(trimmed, p))


def test_tampered_indicators_are_caught():
    rng = np.random.default_rng(78)
    product = None
    while product is None:
        candidate = trim_product(analyzed(random_product(rng, 12, 40)))
        if candidate.initial is not None and candidate.w_pi.max(initial=0.0) > 0.0:
            product = candidate
    product.ind_pi, product.ind_phi = compute_indicators(product)
    product.ind_pi = np.zeros_like(product.ind_pi)
    with pytest.raises(InternalConsistencyError):
        verify_descent(product)


def first_missing_descent(product):
    """The message of the first state, in state order, that lacks a marked
    edge it needs, checking surveillance before mission; None when none."""
    edges = successors_edges(product)
    for p in range(product.n):
        if 0 < product.w_pi[p] < INF and not any(product.ind_pi[e] for e in edges[p]):
            return f"no surveillance-descent edge out of state {p}"
        if (
            product.w_phi_v[p] < INF
            and not product.f_inf[p]
            and not any(product.ind_phi[e] for e in edges[p])
        ):
            return f"no mission-descent edge out of state {p}"
    return None


def successors_edges(product):
    edges = [[] for _ in range(product.n)]
    for e, p in enumerate(product.edge_src.tolist()):
        edges[p].append(e)
    return edges


def test_descent_check_names_the_first_offending_state():
    rng = np.random.default_rng(79)
    raised = 0
    for _ in range(60):
        n = int(rng.integers(2, 25))
        product = trim_product(analyzed(random_product(rng, n, int(rng.integers(1, 4 * n)))))
        if product.initial is None:
            continue
        ind_pi, ind_phi = compute_indicators(product)
        for keep_pi, keep_phi in ((0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.0, 0.0)):
            product.ind_pi = ind_pi & (rng.random(len(ind_pi)) < keep_pi)
            product.ind_phi = ind_phi & (rng.random(len(ind_phi)) < keep_phi)
            expect = first_missing_descent(product)
            if expect is None:
                verify_descent(product)
                continue
            with pytest.raises(InternalConsistencyError) as caught:
                verify_descent(product)
            assert str(caught.value) == expect
            raised += 1
    assert raised > 20


def test_edges_are_held_in_csr_form(triangle_ts):
    rng = np.random.default_rng(80)
    products = [random_product(rng, int(rng.integers(1, 25)), int(rng.integers(1, 60))) for _ in range(20)]
    result = offline_phase(triangle_ts, "G F a & G F b", "sur")
    products += [result.product, result.trimmed]
    for product in products:
        assert product.edge_ptr[-1] == len(product.edge_src)
        assert [list(edges_from(product, p)) for p in range(product.n)] == successors_edges(product)


def test_edges_not_sorted_by_source_are_refused():
    rng = np.random.default_rng(81)
    product = random_product(rng, 6, 12)
    order = np.arange(len(product.edge_src))[::-1]
    with pytest.raises(ValidationError, match="sorted by source"):
        ProductAutomaton(
            product.ts,
            product.ba,
            product.letters,
            product.ts_of,
            product.ba_of,
            product.initial,
            product.edge_src[order],
            product.edge_dst[order],
            product.edge_weight[order],
            product.accepting,
            product.surveillance,
        )


def fractional_ts(seed):
    """Small random system whose weights are not exact binary fractions."""
    r = random.Random(seed)
    n = r.randint(4, 12)
    names = [f"s{i}" for i in range(n)]
    transitions = {}
    for a in names:
        for b in r.sample(names, r.randint(1, 3)):
            transitions[(a, b)] = r.choice((0.1, 0.2, 0.3, 0.7, 1.1))
    labels = {a: {p for p in ("a", "b", "sur") if r.random() < 0.3} for a in names}
    return named_system(names, names[0], transitions, ("a", "b", "sur"), labels)


def test_fractional_weights_keep_mission_descent():
    # Float sums of 0.1, 0.2, ... depend on the order they are added in; the
    # mission metric must still descend strictly along some edge.
    for seed in range(300):
        result = offline_phase(fractional_ts(seed), "G F a & G F b & G F sur", "sur")
        trimmed = result.trimmed
        for p in range(trimmed.n):
            if trimmed.f_inf[p] or trimmed.w_phi_v[p] == INF:
                continue
            assert any(trimmed.ind_phi[e] for e in edges_from(trimmed, p)), (seed, p)


def test_offline_phase_on_triangle(triangle_ts):
    result = offline_phase(triangle_ts, "G F a & G F b", "sur")
    assert result.feasible
    assert result.accepting_label_condition == check_accepting_label_condition(result.ba, "sur")
    product = result.trimmed
    assert product.initial is not None
    assert product.f_inf.any() and product.s_pi_inf.any()
    # every surviving state can still realize the mission
    assert np.all(product.w_pi < INF)
    assert np.all(product.w_phi_v < INF)
    verify_descent(product)
    assert set(result.timings) == {"automaton", "product", "distances", "trim"}


def test_a_result_reads_its_system_and_automaton_from_its_products(triangle_ts):
    """One owner: a result's system and automaton are its trimmed product's,
    so a result cannot be built with others."""
    result = offline_phase(triangle_ts, "G F a & G F b", "sur")
    assert result.ts is result.trimmed.ts is result.product.ts is triangle_ts
    assert result.ba is result.trimmed.ba is result.product.ba
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    with pytest.raises(TypeError):
        OfflineResult(**fields, ba=result.ba)
    with pytest.raises(AttributeError):
        result.ts = triangle_ts


def test_feasibility_is_read_from_the_trimmed_product(triangle_ts):
    """``feasible`` is no field a result can be built or copied with: it reads
    whether the trimmed product kept its initial state."""
    for formula in ("G F a & G F b", "G !a & G F a"):
        result = offline_phase(triangle_ts, formula, "sur")
        assert result.feasible == (result.trimmed.initial is not None)
        with pytest.raises(TypeError):
            dataclasses.replace(result, feasible=not result.feasible)


def test_the_letters_holding_a_label_mark_the_states_labelled_with_it(workloads, tmp_path):
    """``LetterTable.holding``, gathered through ``letter_of``, marks exactly
    the system states whose label holds the proposition, for every declared
    proposition and one that no state holds."""
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.ini"))]
    for name, workload in workloads.SHRUNK.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.scenario_text(workload, 1))
        scenarios.append(load_scenario(path))
    tables = []
    for scenario in scenarios:
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
        tables.append((scenario.ts, offline.product.letters))
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        ts = random_ts(rng, n, int(rng.integers(0, 2 * n)), n_props=int(rng.integers(0, 4)))
        tables.append((ts, letter_table(ts, to_buchi(parse("G F sur"), ts.propositions))))
    for ts, table in tables:
        for prop in [*sorted(ts.propositions), "unheld"]:
            held = table.holding(prop)[table.letter_of]
            assert held.dtype == bool
            assert held.tolist() == [prop in label for label in ts.labels], prop


def assert_reverse_is_the_coo_build(product: ProductAutomaton, name) -> None:
    """``product.reverse`` holds the arrays, dtypes included, of the graph
    scipy builds from the turned-around edge list, which sorts each row's
    columns: the order ``connected_components`` numbers by."""
    expected = csr_array(
        (product.edge_weight, (product.edge_dst, product.edge_src)), shape=(product.n, product.n)
    )
    got = product.reverse
    assert got.shape == expected.shape, name
    for field in ("indptr", "indices", "data"):
        values, oracle = getattr(got, field), getattr(expected, field)
        assert values.dtype == oracle.dtype, (name, field)
        assert np.array_equal(values, oracle), (name, field)


def test_the_reversed_graph_is_the_coo_build_array_for_array(workloads, tmp_path):
    scenarios = [load_scenario(path) for path in sorted(SCENARIOS.glob("*.ini"))]
    for name, workload in workloads.SHRUNK.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.scenario_text(workload, 1))
        scenarios.append(load_scenario(path))
    for scenario in scenarios:
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
        assert_reverse_is_the_coo_build(offline.product, scenario.name)
        assert_reverse_is_the_coo_build(offline.trimmed, scenario.name)
    rng = np.random.default_rng(17)
    for case in range(60):
        n = int(rng.integers(1, 40))
        product = random_product(rng, n, int(rng.integers(1, 4 * n + 1)))
        assert_reverse_is_the_coo_build(product, case)
    ts = random_ts(rng, 12, 30, n_props=2)
    for case in range(20):
        assert_reverse_is_the_coo_build(random_trimmed_product(rng, ts), case)


def test_only_the_searched_product_builds_a_reversed_graph():
    """The analyses search the untrimmed product backwards; nothing searches
    the trimmed one, which therefore never builds its reversed graph."""
    scenario = load_scenario(SCENARIOS / "default_grid.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    assert "reverse" in vars(offline.product)
    assert "reverse" not in vars(offline.trimmed)


def test_offline_phase_infeasible_mission(triangle_ts):
    result = offline_phase(triangle_ts, "G !a & G F a", "sur")
    assert not result.feasible
    assert result.trimmed.initial is None
    assert result.trimmed.n == 0
    assert not result.trimmed.f_inf.any() if result.trimmed.f_inf is not None else True


def test_a_formula_over_an_undeclared_proposition_is_refused(triangle_ts):
    """A parsed formula skips the check of its atoms against the system; the
    product build refuses its automaton, whose propositions the system lacks."""
    with pytest.raises(ValidationError, match="incompatible with system"):
        offline_phase(triangle_ts, parse("G F zap"), "sur")


def test_surveillance_states_flagged_from_system_labels(triangle_ts):
    result = offline_phase(triangle_ts, "G F sur", "sur")
    product = result.product
    for p in range(product.n):
        q = int(product.ts_of[p])
        assert bool(product.surveillance[p]) == ("sur" in triangle_ts.labels[q])


# the benchmark's 7-proposition patrol mission on a 9x9 grid
SMALL_LARGE_MISSION = """\
[grid]
rows = 9
cols = 9
initial = 4,0

[labels]
p1 = 2,2
p2 = 2,6
p3 = 4,4
p4 = 6,2
p5 = 6,6
u = 1,2 1,3 1,4 1,5 1,6 7,2 7,3 7,4 7,5 7,6
sur = 0,4 8,4

[mission]
formula = G F p1 & G F p2 & G F p3 & G F p4 & G F p5 & G !u & G F sur
surveillance = sur

[planner]
visibility = 6
horizon = 7
"""


def _numbering_digest(product):
    digest = hashlib.sha256()
    for values in (
        product.ts_of,
        product.ba_of,
        product.edge_src,
        product.edge_dst,
        product.edge_weight,
    ):
        digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "name, formula, pins",
    [
        ("default_grid.ini", None, ("71d8f1238532e0f1", "62b6ccf66a46bd10")),
        ("triangle.ini", None, ("1a09f94e081882c8", "1a09f94e081882c8")),
        ("small_large_mission.ini", None, ("8c5ad43ac25bac30", "3d5c90ff0ce2f1f0")),
        # an automaton the quotient does not shrink (11 states)
        ("default_grid.ini", "G (F !b | X X a)", ("3ca8448cb2e8bebe", "be80682526758e37")),
    ],
)
def test_product_numbering_is_pinned(tmp_path, name, formula, pins):
    """The untrimmed and the trimmed product keep every state's number and
    every edge, in order. The automaton's transitions come in no specified
    order, and none of it may reach the product."""
    path = SCENARIOS / name
    if name == "small_large_mission.ini":
        path = tmp_path / name
        path.write_text(SMALL_LARGE_MISSION)
    scenario = load_scenario(path)
    result = offline_phase(scenario.ts, formula or scenario.formula, scenario.surveillance_prop)
    assert (_numbering_digest(result.product), _numbering_digest(result.trimmed)) == pins
