"""Shared local-run cache: equivalence with the definitional enumeration,
with the per-move recurrence, with admission as first formulated and with the
unpruned fan build, tree scores summed in travel order at every width, and
one build per fan across runs, experiments and callers."""

import dataclasses
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from surplan.errors import ContractError
from surplan import localruns
from surplan.buchi import _distinct
from surplan.localruns import LocalRunCache, class_cells, group, key_type, path_sums
from surplan.planner import CostEvaluator
from surplan.product import build_product, compute_indicators, offline_phase, trim_product
from surplan.rewards import (
    MaxSinglePotential,
    MaxSumPotential,
    Potential,
    RewardField,
    ThresholdPreference,
    build_run_bundle,
)
from surplan.scenario import load_scenario
from surplan.sim import run_experiment
from surplan.ts import enumerate_budget_runs, visible_distances

from conftest import (
    LocalRunOracle,
    dijkstra_oracle,
    dijkstra_oracle_from,
    edges_from,
    listed_automaton,
    move_weights,
    random_trimmed_product,
    random_ts,
)
from fan_reference import FirstAdmission, reference_build_fan, reference_kept
from system_runs import literal_potential, local_runs, run_times

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
POTENTIALS = (MaxSumPotential(15.0), MaxSinglePotential())
FRACTIONAL = (0.1, 0.2, 0.3, 0.7, 1.1)


def reward_fields(rng, n, count=5):
    # fractional rewards make every row sum depend on its summation order
    return [rng.uniform(0.0, 60.0, n) for _ in range(count)]


def assert_same_scores(score, reference, fields):
    """``score(i, potential)`` is the library's score under the i-th field."""
    for i, values in enumerate(fields):
        for potential in POTENTIALS:
            assert score(i, potential) == potential.evaluate(reference, values)


def piece(values, starts, j):
    """``values[starts[j]:starts[j + 1]]``, the last piece running to the end."""
    hi = starts[j + 1] if j + 1 < len(starts) else len(values)
    return values[starts[j] : hi]


def segment_nodes(fan, segment):
    """The nodes of one segment, in node order, read through its classes."""
    classes = piece(fan.segments, fan.segment_starts, segment).tolist()
    return np.sort(np.concatenate([piece(fan.index, fan.starts, c) for c in classes]))


def node_depths(fan):
    return np.repeat(np.arange(1, len(fan.bounds)), np.diff(fan.bounds))


def node_roots(fan):
    """The root of every node, read up the parent pointers; root ``i`` is
    node ``i``, the first state of move ``i``."""
    root = np.arange(len(fan.state))
    for _ in fan.bounds:
        root = np.where(fan.parent[root] >= 0, fan.parent[root], root)
    return root


def fan_as_padded(fan, i, n_ba):
    """The runs of the fan's move ``i`` as the recurrence packs them:
    ``(ts_states, valid, cumw, novel, admits)`` over ``n_ba`` automaton
    states. Each row is one node, its path read up the parent pointers."""
    nodes = np.flatnonzero(node_roots(fan) == i)
    depth = node_depths(fan)
    width = int(depth[nodes].max())
    ts_states = np.full((len(nodes), width), -1, dtype=np.int64)
    valid = np.zeros((len(nodes), width), dtype=bool)
    cumw = np.zeros((len(nodes), width), dtype=np.float64)
    novel = np.zeros((len(nodes), width), dtype=bool)
    for r, node in enumerate(nodes.tolist()):
        path = []
        while node >= 0:
            path.append(node)
            node = int(fan.parent[node])
        path.reverse()
        ts_states[r, : len(path)] = fan.state[path]
        valid[r, : len(path)] = True
        cumw[r, : len(path)] = fan.cumw[path]
        novel[r, : len(path)] = fan.novel[path]
    admits = np.zeros((len(nodes), n_ba), dtype=bool)
    for s in range(n_ba):
        if fan.subsets[i, s] >= 0:
            admits[:, s] = np.isin(nodes, segment_nodes(fan, fan.subsets[i, s]))
    return ts_states, valid, cumw, novel, admits


def assert_segments_are_well_formed(fan):
    """Move ``i``'s segment is its subtree in node order; every subset
    segment lies inside its move's and holds the parent of each node."""
    assert np.array_equal(fan.parent[: fan.bounds[1]], np.full(fan.bounds[1], -1))
    roots = node_roots(fan)
    for i in range(len(fan.moves)):
        assert np.array_equal(segment_nodes(fan, i), np.flatnonzero(roots == i))
    for segment in fan.subsets[fan.subsets >= 0].tolist():
        nodes = segment_nodes(fan, segment)
        assert len(np.unique(roots[nodes])) == 1
        parents = fan.parent[nodes]
        assert np.isin(parents[parents >= 0], nodes).all()


def assert_fans_match_oracle(cache, oracle):
    """Every move's runs, and which start states admit each, are
    array-equal to the per-move recurrence; a move without runs has no
    segment."""
    ts = cache.ts
    n_ba = cache.product.ba.n_states
    for q_k in range(ts.n):
        fan = cache.fan(q_k)
        assert_segments_are_well_formed(fan)
        for q in ts.successors(q_k):
            try:
                expected = oracle.bundle(q_k, q)
            except ContractError:
                assert q not in fan.moves
                continue
            arrays = fan_as_padded(fan, fan.moves[q], n_ba)
            assert len(arrays) == len(expected)
            for mine, reference in zip(arrays, expected):
                assert mine.dtype == reference.dtype
                assert mine.shape == reference.shape
                assert np.array_equal(mine, reference)


def with_decision_fields(product):
    """``product`` with the recurrent sets and indicators a decision view
    reads, taken from its marks and distances where it has none."""
    if product.f_inf is None:
        product.f_inf, product.s_pi_inf = product.accepting, product.surveillance
    if product.ind_pi is None:
        product.ind_pi, product.ind_phi = compute_indicators(product)
    return product


def check_against_reference(ts, trimmed, visibility, horizon, fields):
    """Every fan equals the per-move recurrence, and every system edge and
    every trimmed edge scores exactly like the enumeration it replaces;
    returns the number of scores compared."""
    cache = LocalRunCache(with_decision_fields(trimmed), visibility, horizon)
    assert_fans_match_oracle(cache, LocalRunOracle(ts, trimmed, visibility, horizon))
    tables = {}

    def table(q_k):
        # one scoring call per field and potential for the whole fan
        if q_k not in tables:
            tables[q_k] = [
                {potential: cache.scores(q_k, potential, values) for potential in POTENTIALS}
                for values in fields
            ]
        return tables[q_k]

    compared = 0
    weights = move_weights(ts)
    distance = [np.array(dijkstra_oracle_from(ts.n, weights, q)) for q in range(ts.n)]
    for q_k in range(ts.n):
        allowed = distance[q_k] <= visibility
        moves = cache.fan(q_k).moves
        for q in ts.successors(q_k):
            runs = enumerate_budget_runs(
                ts.successors, lambda a, b: weights[a, b], allowed, q, weights[q_k, q], horizon
            )
            if not runs:
                assert q not in moves
                continue
            reference = build_run_bundle(runs, lambda n: n, q_k)
            segment = moves[q]
            assert_same_scores(
                lambda i, potential: table(q_k)[i][potential][segment], reference, fields
            )
            compared += 1

    out = [
        [int(trimmed.edge_dst[e]) for e in edges_from(trimmed, p)]
        for p in range(trimmed.n)
    ]
    weight = {
        (int(a), int(b)): float(w)
        for a, b, w in zip(trimmed.edge_src, trimmed.edge_dst, trimmed.edge_weight)
    }
    references = {}
    for p in range(trimmed.n):
        q_k = int(trimmed.ts_of[p])
        fan = cache.fan(q_k)
        edges = edges_from(trimmed, p)
        for e in edges:
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
        dsts = [int(trimmed.edge_dst[e]) for e in edges]
        if any(references[(q_k, dst)] is None for dst in dsts):
            with pytest.raises(ContractError):
                cache.view(p)
            segments = None
        else:
            segments = cache.view(p).segments.tolist()
        for j, dst in enumerate(dsts):
            reference = references[(q_k, dst)]
            if reference is None:
                assert int(trimmed.ts_of[dst]) not in fan.moves
                continue
            segment = fan.subsets[fan.moves[int(trimmed.ts_of[dst])], trimmed.ba_of[dst]]
            if segments is not None:
                assert segments[j] == segment
            assert_same_scores(
                lambda i, potential: table(q_k)[i][potential][segment], reference, fields
            )
            compared += 1
    return compared, cache


def admitted_pairs(fan):
    """The (node, start state) pairs a fan admits, read through the classes
    of its subset segments."""
    pairs = set()
    for root, s in zip(*np.nonzero(fan.subsets >= 0)):
        nodes = segment_nodes(fan, fan.subsets[root, s]).tolist()
        pairs.update((node, int(s)) for node in nodes)
    return pairs


def assert_admission_matches_first_formulation(ts, trimmed, visibility, horizon):
    """Every fan admits the same (node, start state) pairs, read through its
    classes, as the first formulation; returns the cache."""
    cache = LocalRunCache(trimmed, visibility, horizon)
    first = FirstAdmission(ts, trimmed)
    for q_k in range(ts.n):
        fan = cache.fan(q_k)
        theirs = first.admission(fan.parent, fan.state, fan.bounds)
        assert admitted_pairs(fan) == set(zip(*(a.tolist() for a in theirs)))
    return cache


@pytest.mark.parametrize(
    "states, edges, at_least",
    # small automata, and automata past 64 states whose relations outgrow
    # any table sized up front
    [((2, 5), (3, 10), 2), ((65, 90), (300, 500), 65)],
)
def test_admission_matches_the_first_formulation(states, edges, at_least):
    rng = np.random.default_rng(1959)
    relations = []
    for trial in range(12):
        if trial % 2:
            ts = random_ts(rng, int(rng.integers(3, 8)), extra_edges=6, weights=FRACTIONAL)
            visibility, horizon = float(rng.choice([0.8, 1.5])), 1.6
        else:
            ts = random_ts(rng, int(rng.integers(3, 8)), extra_edges=6)
            visibility, horizon = float(rng.choice([3.0, 5.0])), 7.0
        trimmed = random_trimmed_product(rng, ts, states, edges)
        cache = assert_admission_matches_first_formulation(ts, trimmed, visibility, horizon)
        relations.append(cache.sizes()["relations"])
    assert max(relations) >= at_least


def test_admission_matches_the_first_formulation_on_default_grid():
    scenario = load_scenario(SCENARIOS / "default_grid.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    assert_admission_matches_first_formulation(
        offline.ts, offline.trimmed, scenario.visibility, scenario.horizon
    )


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
    assert compared == len(offline.ts.move_dst) + len(offline.trimmed.edge_src)


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
    """An automaton that dies after a few moves leaves subsets narrower than
    their moves; each still scores exactly like its padded reference."""
    rng = np.random.default_rng(8)
    depth = 6
    narrower = 0
    for _ in range(8):
        ts = random_ts(rng, 6, extra_edges=4, weights=(0.1, 0.2))
        letters = list(dict.fromkeys(ts.labels))
        moves = [(s, letter, s + 1) for s in range(depth) for letter in letters]
        product = build_product(ts, listed_automaton(depth + 1, 0, ts.propositions, moves, {0}))
        product.w_pi = np.where(product.ba_of < depth, 0.0, np.inf)
        product.w_phi_u = np.zeros(product.n)
        product.w_phi_v = np.zeros(product.n)
        _, cache = check_against_reference(
            ts, trim_product(product), 1.5, 1.6, reward_fields(rng, ts.n, count=10)
        )
        widest = max(len(fan.bounds) - 1 for fan in cache.fans.values())
        for fan in cache.fans.values():
            depths = node_depths(fan)
            narrower += sum(
                depths[segment_nodes(fan, segment)].max() < widest
                for segment in fan.subsets[fan.subsets >= 0].tolist()
            )
    assert narrower > 0


@pytest.mark.parametrize(
    "bound, itemsize",
    [(0, 1), (2**8 - 1, 1), (2**8, 1), (2**16 - 1, 2), (2**16, 2), (2**32, 4), (2**32 + 1, 8)],
)
def test_keys_sort_in_their_narrowest_type_as_in_int64(bound, itemsize):
    """``group`` and ``_distinct`` sort keys in their ``key_type``; the
    stable order, the distinct keys and where each starts equal those of the
    same keys as int64, the keys at the bound's edges and an empty array
    included. No workload's keys need more than 16 bits."""
    assert key_type(bound).itemsize == itemsize
    rng = np.random.default_rng(bound)
    drawn = rng.integers(0, max(bound, 1), 300)
    keys = [np.zeros(0, dtype=np.int64)]
    if bound:
        keys.append(np.concatenate([[bound - 1, 0], drawn, drawn[:100], [bound - 1, 0]]))
    for key in keys:
        order, distinct, starts = group(key, bound)
        expected = np.argsort(key, kind="stable")
        values = np.unique(key)
        assert np.array_equal(order, expected)
        assert np.array_equal(distinct.astype(np.int64), values)
        assert np.array_equal(starts, key[expected].searchsorted(values))
        assert np.array_equal(_distinct(key, bound), values)
        assert _distinct(key, bound).dtype == np.int64


def test_path_sums_add_in_travel_order_at_every_width():
    """Every node of a chain is a prefix of its row; its path sum equals
    ``np.add.accumulate`` along the row at that position."""
    rng = np.random.default_rng(5)
    rows = 12
    for width in range(1, 301):
        values = rng.uniform(0.0, 60.0, (rows, width))
        # level d holds position d of every row; a node's parent is the
        # node one level up in the same row
        parent = np.r_[np.full(rows, -1), np.arange(rows * (width - 1))].astype(np.int32)
        bounds = list(range(0, rows * width + 1, rows))
        sums = path_sums(values.T.ravel(), parent, bounds)
        expected = np.add.accumulate(values, axis=1).T.ravel()
        assert np.array_equal(sums, expected), width


def test_move_scores_equal_the_literal_left_to_right_oracle():
    """Every move's score equals the literal potential, whose sums run left
    to right, with ``==``, on non-dyadic weights and rewards and runs of 8
    and more positions. A move's segment holds all of its runs whatever the
    product, so the products come from a generator of their own."""
    rng, products = np.random.default_rng(13), np.random.default_rng(14)
    visibility, horizon = 3.0, 1.5
    compared = longest = 0
    for _ in range(6):
        ts = random_ts(rng, 5, extra_edges=6, weights=(0.1, 0.2, 0.3, 0.7))
        cache = LocalRunCache(random_trimmed_product(products, ts), visibility, horizon)
        for q_k in range(ts.n):
            fan = cache.fan(q_k)
            longest = max(longest, len(fan.bounds) - 1)
            runs = {
                q: [
                    (r.states, run_times(ts, r))
                    for r in local_runs(ts, q, q_k, visibility, horizon)
                ]
                for q in fan.moves
            }
            for values in reward_fields(rng, ts.n, count=3):
                for potential in POTENTIALS:
                    scores = cache.scores(q_k, potential, values)
                    for q, segment in fan.moves.items():
                        expected = literal_potential(
                            runs[q], q_k, values, potential.name, potential.refresh_value
                        )
                        assert scores[segment] == expected, (q_k, q, potential.name)
                        compared += 1
    assert longest >= 8
    assert compared >= 100


def test_a_move_out_of_sight_raises_only_when_asked_for():
    """A fan leaves out a successor beyond the visibility range; its siblings
    still build, and only the callers that need that move raise."""
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
        split = split_fan(ts, np.array(dijkstra_oracle(ts.n, move_weights(ts))))
        if split is not None:
            break
    else:
        pytest.fail("no system with a hidden sibling was drawn")
    q_k, q_hidden, siblings = split
    product = with_decision_fields(random_trimmed_product(rng, ts))
    cache = LocalRunCache(product, visibility, horizon)
    oracle = LocalRunOracle(ts, product, visibility, horizon)
    fan = cache.fan(q_k)
    assert sorted(fan.moves) == sorted(siblings)
    for q in siblings:
        padded = fan_as_padded(fan, fan.moves[q], product.ba.n_states)
        assert np.array_equal(padded[2], oracle.bundle(q_k, q)[2])
    # the cost of any move out of q_k compares it with every sibling
    evaluator = CostEvaluator(cache, ThresholdPreference(50.0), "sur")
    values = RewardField(ts.n).values
    scores = cache.scores(q_k, MaxSumPotential(15.0), values)
    with pytest.raises(ContractError):
        evaluator.cost(q_k, siblings[0], scores, 0.0)
    for p in np.flatnonzero(product.ts_of == q_k).tolist():
        edges = edges_from(product, p)
        into = product.ts_of[product.edge_dst[edges.start : edges.stop]]
        if q_hidden in into:
            with pytest.raises(ContractError):
                cache.view(p)
        else:
            assert len(cache.view(p).segments) == len(edges)
    assert cache.sizes()["fans"] == 1
    assert cache.misses == 1 and cache.hits >= 1
    assert_fans_match_oracle(cache, oracle)


def test_bundles_are_built_once_across_runs_experiments_and_callers(monkeypatch):
    scenario = load_scenario(SCENARIOS / "default_grid.ini", {"runs": 3, "iterations": 40})
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    builds = Counter()
    original = LocalRunCache._build_fan

    def counted(self, q_k):
        builds[q_k] += 1
        return original(self, q_k)

    monkeypatch.setattr(LocalRunCache, "_build_fan", counted)

    first = run_experiment(scenario, offline=offline)
    second = run_experiment(
        dataclasses.replace(scenario, potential_name="max-single"), offline=offline
    )
    cache = offline.local_run_cache(scenario.visibility, scenario.horizon)
    # each system state is expanded at most once, and each expansion holds
    # every move out of it
    assert max(builds.values()) == 1
    assert set(builds) == set(cache.fans)
    assert all(
        sorted(cache.fans[q_k].moves) == list(offline.ts.successors(q_k)) for q_k in builds
    )
    assert 0 < first.local_runs["fans"] <= second.local_runs["fans"]
    assert second.local_runs == cache.sizes()
    assert second.local_runs["fans"] == len(builds)
    assert second.local_runs["misses"] == len(builds)
    fans = cache.fans.values()
    assert second.local_runs["classes"] == sum(len(fan.starts) for fan in fans)
    assert second.local_runs["segments"] == sum(len(fan.segment_starts) for fan in fans)


TREE_FIELDS = ("moves", "parent", "state", "cumw", "novel", "bounds", "subsets")


def assert_fans_equal_reference(cache, order=None):
    """Every fan, built in ``order`` (ascending state order by default),
    equals the unpruned build admitted pair by pair: its tree, moves and
    subsets in every field, dtype included; every segment in its nodes, read
    through classes; and on fractional rewards every score table equals the
    maximum over the reference's per-pair segments. The kept rows equal a 2-D
    unique. Returns the fans in state order."""
    rows, ids = reference_kept(cache)
    assert np.array_equal(cache._kept, rows)
    assert cache._kept_id.dtype == ids.dtype and np.array_equal(cache._kept_id, ids)
    first = FirstAdmission(cache.ts, cache.product)
    rng = np.random.default_rng(1815)
    fans = {}
    for q_k in range(cache.ts.n) if order is None else order:
        fan, expected = cache.fan(q_k), reference_build_fan(cache, q_k, first)
        for name in TREE_FIELDS:
            mine, theirs = getattr(fan, name), getattr(expected, name)
            assert type(mine) is type(theirs), name
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype, name
                assert np.array_equal(mine, theirs), name
            else:
                assert mine == theirs, name
        assert len(fan.segment_starts) == len(expected.starts)
        for j in range(len(expected.starts)):
            reference = np.sort(piece(expected.index, expected.starts, j))
            assert np.array_equal(segment_nodes(fan, j), reference), j
        values = rng.uniform(0.0, 60.0, cache.ts.n)
        for potential in POTENTIALS:
            nodes = potential.node_values(fan.state, fan.cumw, fan.novel, values)
            if potential.combine is np.add:
                nodes = path_sums(nodes, fan.parent, fan.bounds)
            reference = np.maximum.reduceat(nodes[expected.index], expected.starts)
            assert np.array_equal(cache.scores(q_k, potential, values), reference)
        fans[q_k] = fan
    return [fans[q_k] for q_k in sorted(fans)]


def lightest_moves(ts):
    weights = move_weights(ts)
    return np.array([min(weights[q, r] for r in ts.successors(q).tolist()) for q in range(ts.n)])


def node_entries(ts, q_k, fan):
    """The entry weight of every node's move, ``q_k`` to its root's state."""
    weights = move_weights(ts)
    entry = np.array([weights[q_k, q] for q in fan.state[: fan.bounds[1]].tolist()])
    return entry[node_roots(fan)]


def exact_horizon_cases(rng, count):
    """``(ts, trimmed, visibility, horizon, q_k)`` on non-dyadic weights,
    each horizon the weight of a run after a move out of ``q_k``, added as
    the fan adds it, whose last move is the lightest out of its state: the
    run fits the horizon exactly, and so does its parent with that move.
    A cache refuses a horizon below the heaviest move, which would leave that
    move without runs, so such draws are skipped. The products of even
    trials come from a generator of their own, which leaves ``rng``'s draws
    as they were when those trials had none."""
    products = np.random.default_rng(1811)
    trial = 0
    while count:
        ts = random_ts(rng, int(rng.integers(3, 7)), extra_edges=5, weights=(0.1, 0.2, 0.3, 0.7))
        weights = move_weights(ts)
        q_k = int(rng.integers(ts.n))
        q = int(rng.choice(ts.successors(q_k)))
        entry, total = weights[q_k, q], 0.0
        length = int(rng.integers(1, 5))
        for i in range(length):
            out = ts.successors(q).tolist()
            if i == length - 1:
                nxt = min(out, key=lambda r: weights[q, r])
            else:
                nxt = int(rng.choice(out))
            total, q = total + weights[q, nxt], nxt
        trimmed = random_trimmed_product(rng if trial % 2 else products, ts)
        visibility = float(rng.choice([1.0, 5.0]))
        trial += 1
        if total + entry >= ts.max_weight:
            count -= 1
            yield ts, trimmed, visibility, total + entry, q_k


def test_fans_equal_the_unpruned_build_on_exact_horizons():
    """On non-dyadic weights whose horizons some run's float sum hits
    exactly, every fan equals the unpruned build, and runs on both edges of
    the horizon and of the prune occur."""
    rng = np.random.default_rng(1812)
    exact = boundary = 0
    for ts, trimmed, visibility, horizon, _ in exact_horizon_cases(rng, 60):
        lightest = lightest_moves(ts)
        cache = LocalRunCache(trimmed, visibility, horizon)
        for q_k, fan in enumerate(assert_fans_equal_reference(cache)):
            if len(fan.state):
                entry = node_entries(ts, q_k, fan)
                exact += int(np.sum(fan.cumw + entry == horizon))
                boundary += int(np.sum((fan.cumw + lightest[fan.state]) + entry == horizon))
    assert exact >= 30 and boundary >= 30


def test_the_expansion_offers_moves_only_from_runs_whose_lightest_move_fits(monkeypatch):
    """Each level offers the moves of exactly the runs whose weight, plus
    their state's lightest move, plus their entry weight, fits the horizon,
    summed in that order."""
    offered = []
    original = localruns.out_moves

    def recording(ptr, states, nodes):
        offered.append(nodes.copy())
        return original(ptr, states, nodes)

    monkeypatch.setattr(localruns, "out_moves", recording)
    rng = np.random.default_rng(1813)
    pruned = 0
    for ts, trimmed, visibility, horizon, q_k in exact_horizon_cases(rng, 60):
        offered.clear()
        fan = LocalRunCache(trimmed, visibility, horizon).fan(q_k)
        if not len(fan.state):
            assert offered == []
            continue
        fits = (fan.cumw + lightest_moves(ts)[fan.state]) + node_entries(ts, q_k, fan) <= horizon
        expected = [
            np.flatnonzero(fits[lo:hi]) for lo, hi in zip(fan.bounds[:-1], fan.bounds[1:])
        ]
        expected = [live for live in expected if len(live)]
        assert len(offered) == len(expected)
        for mine, theirs in zip(offered, expected):
            assert np.array_equal(mine, theirs)
        pruned += int(np.sum(~fits))
    assert pruned > 0


def test_fans_equal_the_unpruned_build_on_default_grid():
    scenario = load_scenario(SCENARIOS / "default_grid.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    assert_fans_equal_reference(
        LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
    )


@pytest.mark.parametrize("name", ["case_study", "long_patrol", "large_mission"])
def test_fans_equal_the_unpruned_build_on_the_workloads(tmp_path, workloads, name):
    path = tmp_path / f"{name}.ini"
    path.write_text(workloads.scenario_text(workloads.WORKLOADS[name], 1000))
    scenario = load_scenario(path)
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    assert_fans_equal_reference(
        LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
    )


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_fans_built_in_another_state_order_equal_the_unpruned_build(tmp_path, workloads, order):
    """The child table fills in the order the fans meet its misses, and the
    relations are numbered in that order; fans built in reversed or shuffled
    state order, each scenario on a fresh cache, still equal the reference."""
    rng = np.random.default_rng(1817)
    path = tmp_path / "case_study.ini"
    path.write_text(workloads.scenario_text(workloads.WORKLOADS["case_study"], 1000))
    for scenario in (load_scenario(SCENARIOS / "default_grid.ini"), load_scenario(path)):
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
        cache = LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
        n = offline.ts.n
        states = range(n - 1, -1, -1) if order == "reversed" else rng.permutation(n).tolist()
        assert_fans_equal_reference(cache, states)


def visibility_cases(count):
    """``(ts, trimmed, visibility, horizon)`` for the shipped ``default_grid``
    and ``triangle``, then for ``count`` random systems on non-dyadic
    weights, whose distances depend on the order of summation, each with a
    random trimmed product that leaves some system states out."""
    for name in ("default_grid.ini", "triangle.ini"):
        scenario = load_scenario(SCENARIOS / name)
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
        yield offline.ts, offline.trimmed, scenario.visibility, scenario.horizon
    rng = np.random.default_rng(1819)
    for _ in range(count):
        ts = random_ts(rng, int(rng.integers(4, 12)), extra_edges=12, weights=(0.3, 0.7, 1.5))
        visibility = float(rng.choice([1.0, 2.2]))
        yield ts, random_trimmed_product(rng, ts), visibility, 3.0


def test_every_kept_visible_set_equals_the_bounded_search():
    """After every fan build, in a shuffled state order, each visible set a
    search kept is an int32 index array of the states one bounded search
    from its own state reaches, kept for a state the trimmed product holds
    and that has no fan yet."""
    rng = np.random.default_rng(1820)
    checked = 0
    for ts, trimmed, visibility, horizon in visibility_cases(20):
        cache = LocalRunCache(trimmed, visibility, horizon)
        held = set(trimmed.ts_of.tolist())
        for q_k in rng.permutation(ts.n).tolist():
            cache.fan(q_k)
            for q, visible in cache._visible.items():
                assert q in held and q not in cache.fans
                assert visible.dtype == np.int32
                expected = np.flatnonzero(visible_distances(ts, q, visibility) <= visibility)
                assert np.array_equal(visible, expected)
                checked += 1
    assert checked >= 100


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled 1", "shuffled 2", "shuffled 3"])
def test_fans_equal_the_unpruned_build_whether_searched_or_kept(order):
    """Fans built in ascending, descending or shuffled state order each equal
    the unpruned build, and every order builds some fans after a search of
    their own and some from a set an earlier search kept."""
    rng = np.random.default_rng(int(order[-1]) if order.startswith("shuffled") else 0)
    searches = fans = 0
    for ts, trimmed, visibility, horizon in visibility_cases(8):
        if order == "ascending":
            states = range(ts.n)
        elif order == "descending":
            states = range(ts.n - 1, -1, -1)
        else:
            states = rng.permutation(ts.n).tolist()
        cache = LocalRunCache(trimmed, visibility, horizon)
        assert_fans_equal_reference(cache, states)
        searches += cache.searches
        fans += cache.sizes()["fans"]
    assert 0 < searches < fans


def test_a_default_grid_run_searches_fewer_times_than_it_builds_fans():
    """The next decision leaves a successor of the state just left, so over
    a run most fans find their visible set kept by an earlier search."""
    scenario = load_scenario(SCENARIOS / "default_grid.ini")
    sizes = run_experiment(dataclasses.replace(scenario, runs=1, iterations=100)).local_runs
    assert list(sizes)[:2] == ["fans", "searches"]
    assert 0 < sizes["searches"] < sizes["fans"]


def test_a_fan_holds_one_index_entry_per_node():
    """A fan lists each node once, by class, although many nodes are
    admitted from several start states."""
    scenario = load_scenario(SCENARIOS / "default_grid.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    cache = LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
    pairs = 0
    for q_k in range(offline.ts.n):
        fan = cache.fan(q_k)
        assert len(fan.index) == len(fan.state)
        assert np.array_equal(np.sort(fan.index), np.arange(len(fan.state)))
        pairs += len(admitted_pairs(fan))
    assert pairs > cache.sizes()["nodes"]


def test_every_interned_relation_is_carried_by_a_node():
    """A relation is interned only as a root's or as a filled child-table
    entry: after every fan of a shipped scenario is built, no id is left
    that no node can carry."""
    for name in ("default_grid.ini", "triangle.ini"):
        scenario = load_scenario(SCENARIOS / name)
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
        cache = LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
        for q_k in range(offline.ts.n):
            cache.fan(q_k)
        in_use = set(cache._root.tolist()) | set(cache._child[cache._child >= 0].tolist())
        assert set(cache._relation_id.values()) == in_use, name
        assert cache.sizes()["relations"] == len(in_use), name


def test_relations_past_the_child_table_capacity_keep_equal_score_tables():
    """Automata of 65 to 89 states intern more relations than the child
    table first has rows for; the table grows, and every fan and score table
    still equals the reference's."""
    rng = np.random.default_rng(1816)
    grown = 0
    for _ in range(4):
        ts = random_ts(rng, int(rng.integers(5, 8)), extra_edges=12, weights=FRACTIONAL)
        trimmed = random_trimmed_product(rng, ts, (65, 90), (300, 500))
        cache = LocalRunCache(trimmed, 1.5, 1.6)
        capacity = len(cache._child)
        assert_fans_equal_reference(cache)
        grown += cache.sizes()["relations"] > capacity
    assert grown >= 2


def test_wide_class_keys_sort_in_sixteen_bits(monkeypatch):
    """Past 255 class keys, a fan's classes are sorted as 16-bit integers,
    the narrowest type that holds the keys, and its segments and score tables
    still equal the reference's."""
    calls = []
    original = localruns.group

    def recording(key, bound):
        order, keys, starts = original(key, bound)
        calls.append((bound, keys.dtype))
        return order, keys, starts

    monkeypatch.setattr(localruns, "group", recording)
    rng = np.random.default_rng(1814)
    types = set()
    for _ in range(3):
        ts = random_ts(rng, int(rng.integers(5, 8)), extra_edges=12)
        trimmed = random_trimmed_product(rng, ts, (65, 90), (300, 500))
        cache = LocalRunCache(trimmed, 5.0, 7.0)
        for q_k in range(ts.n):
            calls.clear()
            cache.fan(q_k)
            # a build groups its class keys, then its subset keys
            assert len(calls) == 2
            bound, dtype = calls[0]
            assert dtype == np.min_scalar_type(bound - 1)
            types.add(dtype)
        assert_fans_equal_reference(cache)
    assert np.dtype(np.uint16) in types


def node_level_scores(fan, potential, values):
    """A best-position potential's score table by its definition: every
    node valued, each class's best node, then each segment's best class."""
    nodes = potential.node_values(fan.state, fan.cumw, fan.novel, values)
    best = np.maximum.reduceat(nodes[fan.index], fan.starts)
    return np.maximum.reduceat(best[fan.segments], fan.segment_starts)


def assert_cell_scores_equal_node_scores(cache, potential, fields):
    """Every fan's score table, read from its class cells, equals the
    node-level one under every field; returns the nodes and cells seen."""
    nodes = 0
    for q_k in range(cache.ts.n):
        fan = cache.fan(q_k)
        nodes += len(fan.state)
        for values in fields:
            mine = cache.scores(q_k, potential, values)
            assert np.array_equal(mine, node_level_scores(fan, potential, values)), q_k
    return nodes, cache.sizes()["cells"]


def assert_cells_are_the_distinct_node_cells(cache):
    """Each class's cells are exactly the distinct (state, weight so far,
    novelty) triples of its nodes, compared as Python floats, each once."""
    for q_k, fan in cache.fans.items():
        state, cumw, novel, starts = class_cells(fan)
        for c in range(len(fan.starts)):
            nodes = piece(fan.index, fan.starts, c)
            expected = set(zip(fan.state[nodes].tolist(), fan.cumw[nodes].tolist(), fan.novel[nodes].tolist()))
            cells = list(zip(*(piece(field, starts, c).tolist() for field in (state, cumw, novel))))
            assert len(cells) == len(set(cells)) and set(cells) == expected, (q_k, c)


def sparse_fields(rng, n, count=3):
    """Fields like the dynamics make them: mostly empty, a few whole rewards."""
    return [np.where(rng.random(n) < 0.1, rng.integers(1, 61, n), 0).astype(float) for _ in range(count)]


def cell_score_cases(workloads, tmp_path):
    """The shipped scenarios and the benchmark's shrunk workloads, each as a
    fresh cache."""
    scenarios = [load_scenario(SCENARIOS / name) for name in ("default_grid.ini", "triangle.ini")]
    for name, workload in workloads.SHRUNK.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(workloads.scenario_text(workload, 7))
        scenarios.append(load_scenario(path))
    for scenario in scenarios:
        offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
        yield LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)


def test_cell_scores_equal_node_scores_on_the_scenarios_and_workloads(tmp_path, workloads):
    """A best-position potential reads each class's distinct cells; every
    score table of every fan equals the node-level definition, and the
    cells are far fewer than the nodes."""
    rng = np.random.default_rng(1818)
    nodes = cells = 0
    for cache in cell_score_cases(workloads, tmp_path):
        fields = reward_fields(rng, cache.ts.n) + sparse_fields(rng, cache.ts.n)
        fields.append(np.zeros(cache.ts.n))
        counts = assert_cell_scores_equal_node_scores(cache, MaxSinglePotential(), fields)
        assert_cells_are_the_distinct_node_cells(cache)
        assert 0 < counts[1] <= counts[0]
        nodes, cells = nodes + counts[0], cells + counts[1]
    assert 2 * cells < nodes


def assert_views_hold_the_product_rows(cache):
    """On every state of the cache's product, the view's fields equal the
    product's rows, read one edge at a time, and the segments the fan gives
    each edge; every field but the segments holds Python values."""
    product = cache.product
    for p in range(product.n):
        view = cache.view(p)
        edges = edges_from(product, p)
        dst = [int(product.edge_dst[e]) for e in edges]
        fan = cache.fan(int(product.ts_of[p]))
        assert view.ts_state == product.ts_of[p]
        assert view.candidates == tuple(dst)
        assert view.weights == [float(product.edge_weight[e]) for e in edges]
        assert view.ind_pi == [bool(product.ind_pi[e]) for e in edges]
        assert view.ind_phi == [bool(product.ind_phi[e]) for e in edges]
        segments = [fan.subsets[fan.moves[int(product.ts_of[d])], product.ba_of[d]] for d in dst]
        assert np.array_equal(view.segments, segments)
        assert view.next_ts == [int(product.ts_of[d]) for d in dst]
        assert view.next_ba == [int(product.ba_of[d]) for d in dst]
        assert view.next_survey == [bool(product.surveillance[d]) for d in dst]
        assert view.next_s_pi_inf == [bool(product.s_pi_inf[d]) for d in dst]
        assert view.next_f_inf == [bool(product.f_inf[d]) for d in dst]
        assert view.s_pi_inf == product.s_pi_inf[p]
        assert view.f_inf == product.f_inf[p]
        values = [view.ts_state, view.s_pi_inf, view.f_inf]
        for field in view._fields:
            if field not in ("ts_state", "segments", "s_pi_inf", "f_inf"):
                values += getattr(view, field)
        assert all(type(value) in (int, float, bool) for value in values)
        assert cache.view(p) is view
    assert cache.sizes()["views"] == len(cache.views) == product.n


def test_each_decision_view_holds_the_product_rows_it_caches(tmp_path, workloads):
    """The shipped scenarios and shrunk workloads, and random products whose
    flags and indicators are drawn apart, so no two rows a view reads agree
    by chance."""
    for cache in cell_score_cases(workloads, tmp_path):
        assert_views_hold_the_product_rows(cache)
    rng = np.random.default_rng(1819)
    for _ in range(10):
        ts = random_ts(rng, int(rng.integers(3, 10)), extra_edges=10, weights=(0.5, 1.0, 2.0))
        product = random_trimmed_product(rng, ts)
        n, m = product.n, len(product.edge_dst)
        product.f_inf, product.s_pi_inf = rng.random(n) < 0.5, rng.random(n) < 0.5
        product.ind_pi, product.ind_phi = rng.random(m) < 0.5, rng.random(m) < 0.5
        assert_views_hold_the_product_rows(LocalRunCache(product, 6.0, 9.0))


def test_a_second_experiment_over_one_offline_result_builds_no_view(monkeypatch):
    scenario = load_scenario(SCENARIOS / "default_grid.ini", {"runs": 2, "iterations": 60})
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    builds = Counter()
    original = LocalRunCache._build_view

    def counted(self, p_k):
        builds[p_k] += 1
        return original(self, p_k)

    monkeypatch.setattr(LocalRunCache, "_build_view", counted)
    first = run_experiment(scenario, offline=offline)
    built = sum(builds.values())
    second = run_experiment(scenario, offline=offline)
    assert sum(builds.values()) == built == first.local_runs["views"] > 0
    assert max(builds.values()) == 1
    assert second.local_runs["views"] == built
    assert [run.records for run in second.runs] == [run.records for run in first.runs]


class WeightedEverywhere(Potential):
    """A best-position potential that pays every position: a novel one its
    reward, discounted by the weight spent, and any other one more, by its
    weight so far and its state."""

    name = "weighted-everywhere"
    combine = np.maximum

    def node_values(self, states, cumw, novel, rewards):
        return np.where(novel, rewards[states] / (1.0 + cumw), 100.0 + cumw + 0.01 * states)


def test_cell_scores_equal_node_scores_for_a_custom_potential_on_fractional_weights():
    """A custom potential that pays every position by its weight so far,
    its state and its novelty scores every table as the node-level
    definition does, on weights whose sums in two orders can differ in the
    last bits: weights that close are cells of their own."""
    rng = np.random.default_rng(1819)
    potential = WeightedEverywhere()
    close = nodes = 0
    for trial in range(10):
        ts = random_ts(rng, int(rng.integers(4, 8)), extra_edges=10, weights=(0.3, 0.7, 1.5))
        cache = LocalRunCache(random_trimmed_product(rng, ts), 3.0, 3.4)
        nodes += assert_cell_scores_equal_node_scores(cache, potential, reward_fields(rng, ts.n, 3))[0]
        assert_cells_are_the_distinct_node_cells(cache)
        for fan in cache.fans.values():
            close += int(np.sum(np.diff(np.unique(fan.cumw)) < 1e-9))
    assert nodes > 1000 and close > 0
    # a visibility range below every weight leaves every fan without runs
    ts = random_ts(rng, 5, extra_edges=4, weights=(0.3, 0.7, 1.5))
    cache = LocalRunCache(random_trimmed_product(rng, ts), 0.2, 3.4)
    assert_cell_scores_equal_node_scores(cache, potential, reward_fields(rng, ts.n, 1))
    assert cache.sizes()["nodes"] == cache.sizes()["cells"] == 0


def test_cells_of_large_whole_weights_take_no_more_room_than_the_fan(tmp_path):
    """The cell table is sized by the fan's distinct weights and states, not
    by the weights' magnitude: with every weight, the visibility range and
    the horizon of ``default_grid`` times a million, each fan's cells take a
    few bytes per node to find, and its score tables equal the node-level
    ones."""
    text = (SCENARIOS / "default_grid.ini").read_text()
    for line, scaled in [
        ("horizontal-weight = 2", "horizontal-weight = 2000000"),
        ("vertical-weight = 2", "vertical-weight = 2000000"),
        ("diagonal-weight = 3", "diagonal-weight = 3000000"),
        ("visibility = 6", "visibility = 6000000"),
        ("horizon = 9", "horizon = 9000000"),
    ]:
        assert line in text
        text = text.replace(line, scaled)
    path = tmp_path / "scaled.ini"
    path.write_text(text)
    scenario = load_scenario(path)
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    cache = LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
    rng = np.random.default_rng(1820)
    fields = [1e6 * values for values in reward_fields(rng, cache.ts.n, 3)]
    for potential in (MaxSinglePotential(), WeightedEverywhere()):
        assert_cell_scores_equal_node_scores(cache, potential, fields)
    assert_cells_are_the_distinct_node_cells(cache)
    for fan in cache.fans.values():
        tracemalloc.start()
        try:
            class_cells(fan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * len(fan.state) + 65536, (len(fan.state), peak)


def test_cells_are_indexed_only_for_best_position_potentials():
    """A summing potential reads every node and indexes no cell; the first
    best-position score of a fan indexes its cells, once."""
    scenario = load_scenario(SCENARIOS / "triangle.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    cache = LocalRunCache(offline.trimmed, scenario.visibility, scenario.horizon)
    values = np.arange(offline.ts.n, dtype=float)
    for q_k in range(offline.ts.n):
        cache.scores(q_k, MaxSumPotential(15.0), values)
    assert cache.sizes()["cells"] == 0
    cache.scores(0, MaxSinglePotential(), values)
    cells = cache.sizes()["cells"]
    assert 0 < cells <= len(cache.fan(0).state)
    cache.scores(0, MaxSinglePotential(), values + 1.0)
    assert cache.sizes()["cells"] == cells
