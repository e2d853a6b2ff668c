"""Shared local-run cache: equivalence with the definitional enumeration and
with the per-move recurrence, and one build per fan and per subset across
runs, experiments and callers."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from surplan.buchi import BuchiAutomaton
from surplan.errors import ContractError
from surplan.localruns import LocalRunCache
from surplan.product import build_product, offline_phase, trim_product
from surplan.rewards import MaxSinglePotential, MaxSumPotential, build_run_bundle
from surplan.scenario import load_scenario
from surplan.sim import run_experiment
from surplan.ts import enumerate_budget_runs

from conftest import LocalRunOracle, dijkstra_oracle_from, random_product, random_ts

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
POTENTIALS = (MaxSumPotential(15.0), MaxSinglePotential())
FRACTIONAL = (0.1, 0.2, 0.3, 0.7, 1.1)


def reward_fields(rng, n, count=5):
    # fractional rewards make every row sum depend on its summation order
    return [rng.uniform(0.0, 60.0, n) for _ in range(count)]


def assert_same_scores(mine, reference, fields):
    for values in fields:
        for potential in POTENTIALS:
            assert potential.evaluate(mine, values) == potential.evaluate(reference, values)


def assert_fans_match_oracle(cache, oracle):
    """Every system bundle, and with a product every admits array, is
    array-equal to the per-move recurrence; a move without runs raises."""
    ts = cache.ts
    for q_k in range(ts.n):
        for q in ts.successors(q_k):
            try:
                expected = oracle.bundle(q_k, q)
            except ContractError:
                with pytest.raises(ContractError):
                    cache.system_bundle(q_k, q)
                continue
            bundle = cache.system_bundle(q_k, q)
            arrays = (bundle.ts_states, bundle.valid, bundle.cumw, bundle.novel)
            if cache.product is not None:
                arrays += (cache._admits[q_k * ts.n + q],)
            assert len(arrays) == len([a for a in expected if a is not None])
            for mine, reference in zip(arrays, expected):
                assert mine.dtype == reference.dtype
                assert mine.shape == reference.shape
                assert np.array_equal(mine, reference)


def check_against_reference(ts, trimmed, visibility, horizon, fields):
    """Every system bundle equals the per-move recurrence, and every system
    edge and every trimmed edge scores exactly like the enumeration it
    replaces; returns the number of bundles compared."""
    cache = LocalRunCache(ts, trimmed, visibility, horizon)
    assert_fans_match_oracle(cache, LocalRunOracle(ts, trimmed, visibility, horizon))
    compared = 0
    distance = [np.array(dijkstra_oracle_from(ts.n, ts.weight_of, q)) for q in range(ts.n)]
    for q_k in range(ts.n):
        allowed = distance[q_k] <= visibility
        for q in ts.successors(q_k):
            runs = enumerate_budget_runs(
                ts.successors, ts.weight, allowed, q, ts.weight(q_k, q), horizon
            )
            if not runs:
                with pytest.raises(ContractError):
                    cache.system_bundle(q_k, q)
                continue
            reference = build_run_bundle(runs, lambda n: n, q_k)
            assert_same_scores(cache.system_bundle(q_k, q), reference, fields)
            compared += 1

    out = [
        [int(trimmed.edge_dst[e]) for e in trimmed.edges_from(p)]
        for p in range(trimmed.n)
    ]
    weight = {
        (int(a), int(b)): float(w)
        for a, b, w in zip(trimmed.edge_src, trimmed.edge_dst, trimmed.edge_weight)
    }
    references = {}
    for e in range(len(trimmed.edge_src)):
        q_k = int(trimmed.ts_of[trimmed.edge_src[e]])
        dst = int(trimmed.edge_dst[e])
        # the enumeration depends on the edge only through (q_k, dst): the
        # entry weight is the system weight of q_k -> ts_of[dst]
        if (q_k, dst) not in references:
            allowed = (distance[q_k] <= visibility)[trimmed.ts_of]
            runs = enumerate_budget_runs(
                out.__getitem__,
                lambda a, b: weight[(a, b)],
                allowed,
                dst,
                float(trimmed.edge_weight[e]),
                horizon,
            )
            references[(q_k, dst)] = (
                build_run_bundle(runs, lambda p: int(trimmed.ts_of[p]), q_k)
                if runs
                else None
            )
        reference = references[(q_k, dst)]
        if reference is None:
            with pytest.raises(ContractError):
                cache.for_edge(e)
            continue
        assert_same_scores(cache.for_edge(e), reference, fields)
        compared += 1
    return compared, cache


def random_trimmed_product(rng, ts):
    """The product of ``ts`` with a random nondeterministic automaton, cut
    down to a random subset of its states.

    The automaton's moves are the edges of a ``random_product`` graph, each
    readable under a random set of the system's letters, so one state often
    has several targets under one letter.
    """
    graph = random_product(rng, int(rng.integers(2, 5)), int(rng.integers(3, 10)))
    letters = list(dict.fromkeys(ts.labels))
    transitions = [
        (int(s), letter, int(t))
        for s, t in zip(graph.edge_src, graph.edge_dst)
        for letter in letters
        if rng.random() < 0.6
    ]
    ba = BuchiAutomaton(graph.n, 0, ts.propositions, transitions, {0})
    product = build_product(ts, ba)
    finite = rng.random(product.n) < 0.8
    finite[product.initial] = True
    product.w_pi = np.where(finite, 0.0, np.inf)
    product.w_phi_u = np.zeros(product.n)
    product.w_phi_v = np.zeros(product.n)
    return trim_product(product)


def test_cache_matches_reference_on_default_grid():
    scenario = load_scenario(SCENARIOS / "default_grid.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    rng = np.random.default_rng(404)
    compared, _ = check_against_reference(
        offline.ts,
        offline.trimmed,
        scenario.visibility,
        scenario.horizon,
        reward_fields(rng, offline.ts.n),
    )
    assert compared == len(offline.ts.weight_of) + len(offline.trimmed.edge_src)


@pytest.mark.parametrize("visibility, horizon", [(3.0, 6.0), (2.0, 9.0)])
def test_cache_matches_reference_on_triangle(triangle_ts, visibility, horizon):
    offline = offline_phase(triangle_ts, "G F a & G F b", "sur")
    rng = np.random.default_rng(3)
    fields = reward_fields(rng, triangle_ts.n)
    compared, _ = check_against_reference(
        triangle_ts, offline.trimmed, visibility, horizon, fields
    )
    assert compared > 0


def test_cache_matches_reference_on_random_products():
    rng = np.random.default_rng(2026)
    compared = 0
    for trial in range(24):
        if trial % 2:
            ts = random_ts(rng, int(rng.integers(3, 8)), extra_edges=6, weights=FRACTIONAL)
            visibility, horizon = float(rng.choice([0.8, 1.5])), 1.6
        else:
            ts = random_ts(rng, int(rng.integers(3, 8)), extra_edges=6)
            visibility, horizon = float(rng.choice([3.0, 5.0])), 7.0
        trimmed = random_trimmed_product(rng, ts)
        compared += check_against_reference(
            ts, trimmed, visibility, horizon, reward_fields(rng, ts.n)
        )[0]
    assert compared >= 300


def test_subsets_cut_short_by_the_automaton_keep_the_reference_width():
    """An automaton that dies after a few moves leaves planner bundles
    narrower than their system bundles. Past eight columns numpy sums a row
    pairwise, so padding regroups the sum: a subset must be exactly as wide
    as its longest row."""
    rng = np.random.default_rng(8)
    depth = 6
    narrower = 0
    for _ in range(8):
        ts = random_ts(rng, 6, extra_edges=4, weights=(0.1, 0.2))
        letters = list(dict.fromkeys(ts.labels))
        moves = [(s, letter, s + 1) for s in range(depth) for letter in letters]
        product = build_product(ts, BuchiAutomaton(depth + 1, 0, ts.propositions, moves, {0}))
        product.w_pi = np.where(product.ba_of < depth, 0.0, np.inf)
        product.w_phi_u = np.zeros(product.n)
        product.w_phi_v = np.zeros(product.n)
        _, cache = check_against_reference(
            ts, trim_product(product), 1.5, 1.6, reward_fields(rng, ts.n, count=10)
        )
        widest = max(b.ts_states.shape[1] for b in cache.system.values())
        narrower += sum(b.ts_states.shape[1] < widest for b in cache.planner.values())
    assert narrower > 0


def test_a_move_out_of_sight_raises_only_when_asked_for():
    """A fan leaves out a successor beyond the visibility range; its siblings
    still build, on a planner cache and on a product-less one, and only a
    lookup of that move raises."""
    rng = np.random.default_rng(31)
    visibility, horizon = 2.0, 7.0

    def split_fan(ts, distance):
        for q_k in range(ts.n):
            hidden = [q for q in ts.successors(q_k) if distance[q_k, q] > visibility]
            seen = [q for q in ts.successors(q_k) if distance[q_k, q] <= visibility]
            if hidden and seen:
                return q_k, hidden[0], seen
        return None

    for _ in range(200):
        ts = random_ts(rng, int(rng.integers(4, 8)), extra_edges=6, weights=(1.0, 4.0))
        split = split_fan(ts, LocalRunOracle(ts, None, visibility, horizon).distance)
        if split is not None:
            break
    else:
        pytest.fail("no system with a hidden sibling was drawn")
    q_k, q_hidden, siblings = split
    trimmed = random_trimmed_product(rng, ts)
    for cache in (
        LocalRunCache(ts, trimmed, visibility, horizon),
        LocalRunCache(ts, None, visibility, horizon),
    ):
        oracle = LocalRunOracle(ts, cache.product, visibility, horizon)
        # the hidden move is asked for first, so it is the one to expand the fan
        with pytest.raises(ContractError):
            cache.system_bundle(q_k, q_hidden)
        assert cache.sizes()["fans"] == 1
        for q in siblings:
            assert np.array_equal(cache.system_bundle(q_k, q).cumw, oracle.bundle(q_k, q)[2])
        with pytest.raises(ContractError):
            cache.system_bundle(q_k, q_hidden)
        assert cache.sizes()["fans"] == 1
        assert (cache.hits, cache.misses) == (len(siblings), 2)
        assert_fans_match_oracle(cache, oracle)


def test_bundles_are_built_once_across_runs_experiments_and_callers(monkeypatch):
    scenario = load_scenario(SCENARIOS / "default_grid.ini", {"runs": 3, "iterations": 40})
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    builds = Counter()
    for name in ("_build_fan", "_build_subset"):
        original = getattr(LocalRunCache, name)

        def counted(self, key, name=name, original=original):
            builds[(name, key)] += 1
            return original(self, key)

        monkeypatch.setattr(LocalRunCache, name, counted)

    first = run_experiment(scenario, offline=offline)
    second = run_experiment(
        dataclasses.replace(scenario, potential_name="max-single"), offline=offline
    )
    cache = offline.local_run_cache(scenario.visibility, scenario.horizon)
    n = offline.ts.n
    # each system state is expanded at most once, and each expansion builds
    # the bundle of every move out of it that has runs
    assert max(builds.values()) == 1
    fanned = {key for name, key in builds if name == "_build_fan"}
    assert fanned == {key // n for key in cache.system}
    assert len(cache.system) == sum(
        sum(1 for q in offline.ts.successors(q_k) if q_k * n + q in cache.system)
        for q_k in fanned
    )
    assert all(
        q_k * n + q in cache.system for q_k in fanned for q in offline.ts.successors(q_k)
    )
    assert sum(1 for name, _ in builds if name == "_build_subset") == len(cache.planner)
    assert first.local_runs["planner_bundles"] > 0
    assert second.local_runs == cache.sizes()
    assert second.local_runs["fans"] == len(fanned)
    assert second.local_runs["misses"] == len(fanned) + len(cache.planner)
