"""Product graph analysis against definitional brute-force oracles.

The oracles reimplement the definitions directly: products by a double loop
over state pairs, recurrent sets through hand-rolled strongly connected
components, distances through explicit minimization, all without touching
the library's vectorized code paths or scipy.
"""

import math
import random

import numpy as np
import pytest

from surplan.buchi import to_buchi
from surplan.errors import InternalConsistencyError, ValidationError
from surplan.ltl import parse
from surplan.product import (
    ProductAutomaton,
    build_product,
    check_accepting_label_condition,
    compute_indicators,
    compute_inf_sets,
    mission_distance,
    offline_phase,
    surveillance_distance,
    trim_product,
    verify_descent,
)
from surplan.ts import TransitionSystem

from conftest import dijkstra_oracle, random_product, random_ts, tarjan_scc

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
    rng = np.random.default_rng(71)
    for _ in range(20):
        ts = random_ts(rng, int(rng.integers(2, 7)), extra_edges=6, n_props=2)
        formula = parse("G F sur")
        ba = to_buchi(formula, sorted(ts.propositions))
        product = build_product(ts, ba, "sur")

        # reachable closure of the definitional edge relation
        start = (ts.initial, ba.initial)
        seen = {start}
        frontier = [start]
        edges = set()
        while frontier:
            q, s = frontier.pop()
            for q2 in ts.successors(q):
                for s2 in ba.successors(s, ts.label(q)):
                    edges.add(((q, s), (q2, s2), ts.weight(q, q2)))
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
            assert bool(product.surveillance[p]) == ("sur" in ts.label(q))


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
    for _ in range(60):
        n = int(rng.integers(2, 30))
        product = random_product(rng, n, int(rng.integers(1, 4 * n)))
        f_inf, s_inf = compute_inf_sets(product)
        f_expect, s_expect = inf_sets_oracle(product)
        assert np.array_equal(f_inf, f_expect)
        assert np.array_equal(s_inf, s_expect)


def test_distances_match_double_loop_oracle():
    rng = np.random.default_rng(74)
    for _ in range(40):
        n = int(rng.integers(2, 25))
        product = analyzed(random_product(rng, n, int(rng.integers(1, 4 * n))))
        w_pi, u, v = distances_oracle(product, product.f_inf, product.s_pi_inf)
        assert np.array_equal(product.w_pi, w_pi)
        assert np.array_equal(product.w_phi_u, u)
        assert np.array_equal(product.w_phi_v, v)


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
                assert any(trimmed.ind_pi[e] for e in trimmed.edges_from(p))
            if trimmed.w_phi_v[p] < INF and not trimmed.f_inf[p]:
                assert any(trimmed.ind_phi[e] for e in trimmed.edges_from(p))


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
        assert [list(product.edges_from(p)) for p in range(product.n)] == successors_edges(product)


def test_edges_not_sorted_by_source_are_refused():
    rng = np.random.default_rng(81)
    product = random_product(rng, 6, 12)
    order = np.arange(len(product.edge_src))[::-1]
    with pytest.raises(ValidationError, match="sorted by source"):
        ProductAutomaton(
            product.ts,
            product.ba,
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
    return TransitionSystem(names, names[0], transitions, ("a", "b", "sur"), labels)


def test_fractional_weights_keep_mission_descent():
    # Float sums of 0.1, 0.2, ... depend on the order they are added in; the
    # mission metric must still descend strictly along some edge.
    for seed in range(300):
        result = offline_phase(fractional_ts(seed), "G F a & G F b & G F sur", "sur")
        trimmed = result.trimmed
        for p in range(trimmed.n):
            if trimmed.f_inf[p] or trimmed.w_phi_v[p] == INF:
                continue
            assert any(trimmed.ind_phi[e] for e in trimmed.edges_from(p)), (seed, p)


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


def test_offline_phase_infeasible_mission(triangle_ts):
    result = offline_phase(triangle_ts, "G !a & G F a", "sur")
    assert not result.feasible
    assert result.trimmed.initial is None
    assert result.trimmed.n == 0
    assert not result.trimmed.f_inf.any() if result.trimmed.f_inf is not None else True


def test_surveillance_states_flagged_from_system_labels(triangle_ts):
    result = offline_phase(triangle_ts, "G F sur", "sur")
    product = result.product
    for p in range(product.n):
        q = int(product.ts_of[p])
        assert bool(product.surveillance[p]) == ("sur" in triangle_ts.label(q))
