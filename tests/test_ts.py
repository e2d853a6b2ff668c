"""Transition systems: construction rules, distances, visibility, run enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surplan.ts
from surplan.errors import ContractError, ValidationError
from surplan.ts import (
    TransitionSystem,
    enumerate_budget_runs,
    validate_visibility_assumption,
    visible_distances,
)

from conftest import dijkstra_oracle, move_weights, named_system, random_ts
from system_runs import FiniteRun, local_runs, run_times, run_weight, visibility_set

INF = math.inf


def test_states_and_labels(triangle_ts):
    ts = triangle_ts
    assert ts.n == 3
    assert ts.state_name(ts.initial) == "q0"
    assert ts.labels[ts.index["q0"]] == {"a", "sur"}
    assert ts.labels[ts.index["q1"]] == frozenset()
    assert ts.successors(ts.index["q1"]).tolist() == [
        ts.index["q0"],
        ts.index["q2"],
    ]
    assert move_weights(ts)[ts.index["q1"], ts.index["q2"]] == 2.0
    assert ts.max_weight == 3.0


def test_rejects_malformed_systems():
    base = dict(
        names=["x", "y"],
        initial="x",
        src=[0, 1],
        dst=[1, 0],
        weight=[1.0, 1.0],
        propositions=["p"],
        labels={},
    )
    TransitionSystem(**base)

    def rejected(match, **changes):
        with pytest.raises(ValidationError, match=match):
            TransitionSystem(**{**base, **changes})

    rejected("duplicate state names", names=["x", "x"])
    rejected("initial state 'z'", initial="z")
    for w in (0.0, -2.0, math.inf, math.nan):
        rejected(r"\('x', 'y'\) must have a finite positive weight", weight=[w, 1.0])
    rejected("state 'y' has no outgoing transition", src=[0], dst=[1], weight=[1.0])
    rejected(r"\(0, 2\) references unknown state", dst=[2, 0])
    rejected(r"\(-1, 0\) references unknown state", src=[0, -1])
    rejected("aligned", weight=[1.0])
    rejected("undeclared propositions", labels={"x": {"q"}})
    rejected("unknown state 'z'", labels={"z": {"p"}})


def test_rejects_a_repeated_move():
    # the repeated pair is refused whatever the moves' order and weights
    with pytest.raises(ValidationError, match=r"\('x', 'y'\) is given twice"):
        TransitionSystem(
            names=["x", "y"],
            initial="x",
            src=[0, 1, 0],
            dst=[1, 0, 1],
            weight=[1.0, 1.0, 2.0],
            propositions=[],
            labels={},
        )


def test_moves_are_sorted_by_source_then_target():
    ts = TransitionSystem(
        names=["x", "y", "z"],
        initial="x",
        src=[2, 0, 1, 0, 2],
        dst=[0, 2, 0, 1, 2],
        weight=[5.0, 2.0, 3.0, 1.0, 4.0],
        propositions=[],
        labels={},
    )
    assert ts.move_ptr.tolist() == [0, 2, 3, 5]
    assert ts.move_dst.tolist() == [1, 2, 0, 0, 2]
    assert ts.move_weight.tolist() == [1.0, 2.0, 3.0, 5.0, 4.0]
    assert ts.successors(2).tolist() == [0, 2]
    assert ts.max_weight == 5.0


def distance_rows(ts, v=math.inf):
    """The bounded search from every state, one row per source."""
    return np.array([visible_distances(ts, q, v) for q in range(ts.n)])


def test_min_weights_on_triangle(triangle_ts):
    expect = [
        [0.0, 1.0, 3.0],
        [1.0, 0.0, 2.0],
        [3.0, 4.0, 0.0],
    ]
    assert np.array_equal(distance_rows(triangle_ts), np.array(expect))
    assert np.array_equal(np.array(dijkstra_oracle(3, move_weights(triangle_ts))), np.array(expect))
    assert np.array_equal(
        distance_rows(triangle_ts, 2.0),
        np.array([[0.0, 1.0, INF], [1.0, 0.0, 2.0], [INF, INF, 0.0]]),
    )


def test_min_weights_match_heap_dijkstra_on_random_systems():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        n = int(rng.integers(2, 15))
        ts = random_ts(rng, n, extra_edges=int(rng.integers(0, 3 * n)))
        oracle = np.array(dijkstra_oracle(ts.n, move_weights(ts)))
        assert np.array_equal(distance_rows(ts), oracle)
        for v in (0.0, 1.0, 2.5, 6.0):
            # exactly the oracle's distances within v, nothing beyond
            assert np.array_equal(distance_rows(ts, v), np.where(oracle <= v, oracle, INF))


def test_min_weights_properties():
    rng = np.random.default_rng(7)
    ts = random_ts(rng, 12, extra_edges=20)
    dist = distance_rows(ts)
    assert np.array_equal(dist, np.array(dijkstra_oracle(ts.n, move_weights(ts))))
    assert np.all(np.diag(dist) == 0.0)
    assert np.all(np.diag(distance_rows(ts, 0.0)) == 0.0)
    for (i, j), w in move_weights(ts).items():
        assert dist[i, j] <= w
        assert visible_distances(ts, i, w)[j] <= w
    finite = np.where(np.isinf(dist), 1e9, dist)
    for k in range(ts.n):
        assert np.all(dist <= finite[:, [k]] + finite[[k], :] + 1e-12)


def test_self_distance_zero_even_without_self_loop():
    ts = named_system(["x", "y"], "x", {("x", "y"): 5.0, ("y", "x"): 5.0})
    assert visible_distances(ts, 0, math.inf)[0] == 0.0
    assert visible_distances(ts, 0, 0.0)[0] == 0.0


def test_moves_in_csr_form_follow_successor_order():
    rng = np.random.default_rng(8)
    for _ in range(10):
        ts = random_ts(rng, int(rng.integers(2, 12)), extra_edges=10)
        weights = move_weights(ts)
        assert list(weights) == sorted(weights)
        for i in range(ts.n):
            lo, hi = ts.move_ptr[i], ts.move_ptr[i + 1]
            assert ts.move_dst[lo:hi].tolist() == ts.successors(i).tolist()
        assert np.array_equal(ts.graph.indptr, ts.move_ptr)
        assert np.array_equal(ts.graph.indices, ts.move_dst)
        assert np.array_equal(ts.graph.data, ts.move_weight)


def test_run_weight_and_times(triangle_ts):
    ts = triangle_ts
    run = FiniteRun(tuple(ts.index[q] for q in ("q0", "q1", "q2", "q0")))
    assert run_weight(ts, run) == 6.0
    assert run_times(ts, run) == (0.0, 1.0, 3.0, 6.0)
    assert run_weight(ts, FiniteRun((ts.initial,))) == 0.0
    with pytest.raises(ValidationError):
        FiniteRun(())
    with pytest.raises(ValidationError):
        run_weight(ts, FiniteRun((ts.index["q0"], ts.index["q2"])))


def test_visibility_set_matches_brute_filter():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ts = random_ts(rng, int(rng.integers(2, 12)), extra_edges=10)
        dist = np.array(dijkstra_oracle(ts.n, move_weights(ts)))
        for v in (0.0, 1.0, 2.5, 6.0):
            for q in range(ts.n):
                expect = {j for j in range(ts.n) if dist[q][j] <= v}
                assert visibility_set(ts, q, v) == expect
                assert q in visibility_set(ts, q, v)
                # the library's bounded search finds the same region
                assert set(np.flatnonzero(visible_distances(ts, q, v) <= v).tolist()) == expect


def test_visibility_assumption_validation(triangle_ts):
    validate_visibility_assumption(triangle_ts, 3.0)
    with pytest.raises(ValidationError):
        validate_visibility_assumption(triangle_ts, 2.0)


def test_visibility_check_searches_only_from_sources_of_long_moves(monkeypatch):
    sources = []

    def counted(ts, q_k, v):
        sources.append(q_k)
        return visible_distances(ts, q_k, v)

    monkeypatch.setattr(surplan.ts, "visible_distances", counted)
    ts = named_system(
        ["x", "y", "z"],
        "x",
        {
            ("x", "y"): 5.0,
            ("x", "z"): 1.0,
            ("z", "y"): 1.0,
            ("y", "x"): 1.0,
            ("z", "x"): 1.0,
        },
    )
    validate_visibility_assumption(ts, 5.0)
    assert sources == []
    # x -> y weighs 5 but y is 2 away through z
    validate_visibility_assumption(ts, 2.0)
    assert sources == [ts.index["x"]]
    with pytest.raises(ValidationError, match="'y' of 'x'"):
        validate_visibility_assumption(ts, 1.5)


def test_visibility_check_names_the_first_hidden_move_by_source_then_target():
    # given in the order z -> y, x -> z, x -> y: the first hidden move in
    # (source, target) order is x -> y
    ts = named_system(
        ["x", "y", "z"],
        "x",
        {("z", "y"): 4.0, ("x", "z"): 4.0, ("x", "y"): 4.0, ("y", "x"): 1.0, ("z", "x"): 1.0},
    )
    with pytest.raises(ValidationError, match="'y' of 'x'"):
        validate_visibility_assumption(ts, 2.0)


def _runs_oracle(ts, allowed, origin, entry, h):
    """Recursive enumeration of budget-bounded runs, for cross-checking."""
    found = []
    if not allowed[origin] or entry > h:
        return found
    weights = move_weights(ts)

    def extend(states, weight):
        found.append(states)
        for nxt in ts.successors(states[-1]).tolist():
            if allowed[nxt] and weight + weights[states[-1], nxt] + entry <= h:
                extend(states + (nxt,), weight + weights[states[-1], nxt])

    extend((origin,), 0.0)
    return found


def test_budget_runs_match_recursive_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        ts = random_ts(rng, int(rng.integers(2, 8)), extra_edges=6)
        allowed = rng.random(ts.n) < 0.8
        origin = int(rng.integers(ts.n))
        entry = float(rng.choice([0.0, 1.0, 2.0]))
        h = float(rng.choice([3.0, 5.0, 8.0]))
        weights = move_weights(ts)
        got = enumerate_budget_runs(
            ts.successors, lambda a, b: weights[a, b], allowed, origin, entry, h
        )
        expect = _runs_oracle(ts, allowed, origin, entry, h)
        assert sorted(states for states, _ in got) == sorted(expect)
        for states, cums in got:
            assert cums[0] == 0.0
            assert cums == tuple(
                run_times(ts, FiniteRun(states))
            )


def test_budget_runs_boundary_is_inclusive(triangle_ts):
    ts = triangle_ts
    allowed = np.ones(ts.n, dtype=bool)
    q0, q1 = ts.index["q0"], ts.index["q1"]
    weights = move_weights(ts)
    runs = {
        states
        for states, _ in enumerate_budget_runs(
            ts.successors, lambda a, b: weights[a, b], allowed, q1, 1.0, 2.0
        )
    }
    # entry 1 leaves exactly 1 unit of budget: q1->q0 fits, q1->q2 (2) does not
    assert (q1,) in runs
    assert (q1, q0) in runs
    assert (q1, ts.index["q2"]) not in runs


def test_budget_runs_allow_revisits():
    ts = named_system(["x", "y"], "x", {("x", "y"): 1.0, ("y", "x"): 1.0})
    weights = move_weights(ts)
    allowed = np.ones(2, dtype=bool)
    runs = {
        s
        for s, _ in enumerate_budget_runs(
            ts.successors, lambda a, b: weights[a, b], allowed, 0, 0.0, 4.0
        )
    }
    assert (0, 1, 0, 1, 0) in runs


def test_local_runs_stay_visible_and_within_budget(triangle_ts):
    ts = triangle_ts
    rng = np.random.default_rng(3)
    for _ in range(10):
        sys = random_ts(rng, int(rng.integers(3, 8)), extra_edges=8)
        v, h = 3.0, 6.0
        q_k = int(rng.integers(sys.n))
        for q in sys.successors(q_k):
            region = visibility_set(sys, q_k, v)
            if q not in region:
                continue
            entry = move_weights(sys)[q_k, q]
            for run in local_runs(sys, q, q_k, v, h):
                assert set(run.states) <= region
                assert run.states[0] == q
                assert run_weight(sys, run) + entry <= h
    with pytest.raises(ContractError):
        local_runs(ts, ts.index["q2"], ts.index["q0"], 3.0, 6.0)
    with pytest.raises(ContractError):
        local_runs(ts, ts.index["q1"], ts.index["q0"], 3.0, 2.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), v=st.sampled_from([1.0, 2.0, 4.0]))
def test_visibility_contains_origin_and_monotone(seed, v):
    rng = np.random.default_rng(seed)
    ts = random_ts(rng, int(rng.integers(2, 9)), extra_edges=5)
    for q in range(ts.n):
        small = visibility_set(ts, q, v)
        large = visibility_set(ts, q, v + 1.5)
        assert q in small
        assert small <= large


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_distance_triangle_inequality_random(seed):
    rng = np.random.default_rng(seed)
    ts = random_ts(rng, int(rng.integers(2, 10)), extra_edges=8)
    dist = distance_rows(ts)
    assert np.array_equal(dist, np.array(dijkstra_oracle(ts.n, move_weights(ts))))
    for i in range(ts.n):
        for j in range(ts.n):
            for k in range(ts.n):
                if math.isinf(dist[i, k]) or math.isinf(dist[k, j]):
                    continue
                assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-12
