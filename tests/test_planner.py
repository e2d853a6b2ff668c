"""Online planner: stepping invariants, bookkeeping, subgoal switching."""

import math
from pathlib import Path

import numpy as np
import pytest

from surplan.errors import ContractError, MissionInfeasible
from surplan.localruns import LocalRunCache
from surplan.planner import (
    ATTRACTION_TIE_TOLERANCE,
    INFEASIBLE_MESSAGE,
    MISSION,
    SURVEILLANCE,
    CostEvaluator,
    Planner,
    StepInfo,
)
from surplan.product import offline_phase
from surplan.rewards import (
    DecaySpawnDynamics,
    MaxSinglePotential,
    MaxSumPotential,
    RewardField,
    ThresholdPreference,
    CubicRampPreference,
)
from surplan.scenario import build_grid, load_scenario

from conftest import (
    alpha_bar,
    dijkstra_oracle,
    edges_from,
    elapsed_walkback,
    move_weights,
    random_trimmed_product,
    random_ts,
    run_history,
    ts_shortening_indicator,
)


@pytest.fixture(scope="module")
def triangle_offline(triangle_ts):
    return offline_phase(triangle_ts, "G F a & G F b", "sur")


@pytest.fixture(scope="module")
def grid_offline():
    labels = {
        "a": {(0, 0)},
        "b": {(3, 3)},
        "sur": {(0, 0), (3, 3)},
    }
    ts = build_grid(4, 4, labels, initial=(3, 0))
    return offline_phase(ts, "G (a -> X (!a U b)) & G (b -> X (!b U a))", "sur")


def make_planner(offline, seed=5, pot=None, pref=None, visibility=6.0, horizon=9.0):
    rng = np.random.default_rng(seed)
    return (
        Planner(
            offline,
            pot or MaxSumPotential(15.0),
            pref or ThresholdPreference(50.0),
            visibility=visibility,
            horizon=horizon,
            rng=rng,
        ),
        rng,
    )


def steps(planner, rng, count, spawn=0.25):
    """Step the planner ``count`` times against live dynamics, yielding each
    step's info once the field has moved on."""
    dynamics = DecaySpawnDynamics(rng, spawn_probability=spawn)
    field = RewardField(planner.product.ts.n)
    dynamics.burn_in(field, 60)
    for _ in range(count):
        info = planner.step(field)
        dynamics.on_collect(field, info.ts_state)
        dynamics.evolve(field, info.weight)
        yield info


def drive(planner, rng, count, spawn=0.25):
    """Run the planner against live dynamics, returning the step infos."""
    return list(steps(planner, rng, count, spawn))


def counted_surveys(planner, rng, count):
    """Whether each position's survey counts for the planner's masked
    elapsed weight, read from the weight after each of ``count`` steps; the
    initial position's never does. Weights are positive, so the weight reads
    0 exactly where it restarts."""
    return [False] + [planner.elapsed_masked == 0.0 for _ in steps(planner, rng, count)]


def since_latest(times, flags):
    """Weight from the latest flagged position to the last one, from the
    start when none is flagged."""
    latest = max((i for i, flag in enumerate(flags) if flag), default=0)
    return times[-1] - times[latest]


def test_infeasible_mission_is_refused(triangle_ts):
    offline = offline_phase(triangle_ts, "G !a & G F a", "sur")
    with pytest.raises(MissionInfeasible) as err:
        make_planner(offline)
    assert str(err.value) == INFEASIBLE_MESSAGE == "Mission cannot be accomplished."


def test_the_planner_refuses_exactly_the_infeasible_offline_results():
    """``OfflineResult.feasible`` is the planner's one feasibility rule: on
    random systems, with feasible and infeasible missions mixed, the planner
    raises MissionInfeasible exactly when it is false. It agrees with the
    rule the planner once kept, a kept initial state and a nonempty
    recurrent accepting set."""
    missions = (
        "G F a & G F sur",
        "G F a & G F b & G F sur",
        "G (a -> X !a) & G F sur",
        "F G b & G F sur",
        "G !a & G F a & G F sur",
        "G !sur & G F sur",
    )
    rng = np.random.default_rng(43)
    feasible = []
    for k in range(48):
        ts = random_ts(rng, int(rng.integers(3, 8)), extra_edges=int(rng.integers(0, 8)))
        offline = offline_phase(ts, missions[k % len(missions)], "sur")
        trimmed = offline.trimmed
        assert offline.feasible == (trimmed.initial is not None and trimmed.f_inf.any())
        try:
            make_planner(offline)
        except MissionInfeasible:
            assert not offline.feasible
        else:
            assert offline.feasible
        feasible.append(offline.feasible)
    assert 10 <= sum(feasible) <= len(feasible) - 10, sum(feasible)


def test_parameter_validation(triangle_offline):
    with pytest.raises(ContractError):
        make_planner(triangle_offline, horizon=2.0)
    with pytest.raises(ContractError):
        make_planner(triangle_offline, visibility=0.0)


@pytest.mark.parametrize(
    "visibility, horizon", [(6.0, math.inf), (6.0, math.nan), (math.inf, 9.0), (math.nan, 9.0)]
)
def test_non_finite_parameters_are_refused_on_construction(
    triangle_ts, triangle_offline, visibility, horizon
):
    """The planner and a local-run cache refuse a horizon or visibility range
    that is not finite when they are made: an infinite horizon made the first
    step allocate without bound, and a NaN made it claim a move had no local
    run. Nothing steps here."""
    with pytest.raises(ContractError):
        make_planner(triangle_offline, visibility=visibility, horizon=horizon)
    with pytest.raises(ContractError):
        LocalRunCache(triangle_offline.trimmed, visibility, horizon)
    assert (visibility, horizon) not in triangle_offline.local_run_caches


def test_prefix_is_a_valid_product_run(grid_offline):
    planner, rng = make_planner(grid_offline)
    infos = drive(planner, rng, 60)
    product = planner.product
    assert planner.prefix[0] == product.initial
    assert planner.prefix[1:] == [info.product_state for info in infos]
    for a, b in zip(planner.prefix, planner.prefix[1:]):
        assert b in [int(product.edge_dst[e]) for e in edges_from(product, a)]
    # times accumulate the traversed edge weights
    times, _ = run_history(product, infos)
    for i, (a, b) in enumerate(zip(planner.prefix, planner.prefix[1:])):
        w = times[i + 1] - times[i]
        assert w == pytest.approx(
            float(
                product.edge_weight[
                    [
                        e
                        for e in edges_from(product, a)
                        if int(product.edge_dst[e]) == b
                    ][0]
                ]
            )
        )


def test_chosen_successor_maximizes_attraction(grid_offline):
    planner, rng = make_planner(grid_offline)
    for info in drive(planner, rng, 50):
        assert info.attraction >= max(info.attractions) - ATTRACTION_TIE_TOLERANCE
        assert info.product_state in info.candidates


def test_subgoal_switching_follows_the_recurrent_sets(grid_offline):
    planner, rng = make_planner(grid_offline)
    product = planner.product
    subgoal = SURVEILLANCE
    for info in drive(planner, rng, 80):
        assert info.subgoal_before == subgoal
        expect = subgoal
        if expect == SURVEILLANCE and product.s_pi_inf[info.product_state]:
            expect = MISSION
        if expect == MISSION and product.f_inf[info.product_state]:
            expect = SURVEILLANCE
        assert info.subgoal_after == expect
        subgoal = expect


def test_elapsed_bookkeeping_matches_recomputation(grid_offline):
    """After every step, the raw elapsed weight, which the trace's cost
    column reads, equals the travel-order sum over the executed system prefix
    since its latest survey exactly, on integer, dyadic and fractional
    weights; the raw and the masked elapsed weight equal the weight since the
    latest survey, and since the latest survey kept on the masked prefix, of
    the times and surveys the step records report. A position's masked label
    depends only on the positions before it, so the masked prefix is
    computed once, after the run."""
    systems = []
    rng = np.random.default_rng(29)
    for weights in ((0.5, 0.75, 1.25, 2.0), (0.3, 0.7, 1.1)):
        drawn = 0
        while drawn < 3:
            ts = random_ts(rng, int(rng.integers(4, 8)), extra_edges=8, weights=weights)
            offline = offline_phase(ts, "G F a & G F sur & G !b", "sur")
            if offline.feasible:
                systems.append(offline)
                drawn += 1
    for offline in (grid_offline, *systems):
        planner, rng = make_planner(offline)
        product = planner.product
        ts = product.ts
        surveyed = [q for q in range(ts.n) if "sur" in ts.labels[q]]
        infos, elapsed = [], []
        for info in steps(planner, rng, 70):
            infos.append(info)
            elapsed.append((planner.elapsed_raw, planner.elapsed_masked))
            assert planner.elapsed_raw == elapsed_walkback(ts, planner.alpha(), surveyed)
        times, surveys = run_history(product, infos)
        kept = ["sur" in labels for _, labels in alpha_bar(planner, "sur")]
        for k, (raw, masked) in enumerate(elapsed, start=2):
            assert raw == pytest.approx(since_latest(times[:k], surveys[:k]))
            assert masked == pytest.approx(since_latest(times[:k], kept[:k]))


def test_masked_prefix_agrees_with_incremental_flags(grid_offline):
    planner, rng = make_planner(grid_offline)
    counted = counted_surveys(planner, rng, 80)
    prop = "sur"
    masked = alpha_bar(planner, prop)
    product = planner.product
    for i, (q, labels) in enumerate(masked):
        assert q == int(product.ts_of[planner.prefix[i]])
        raw = bool(product.surveillance[planner.prefix[i]])
        if raw:
            assert (prop in labels) == counted[i]
        else:
            assert prop not in labels
            assert not counted[i]


def test_at_most_one_masked_survey_between_accepting_visits(grid_offline):
    planner, rng = make_planner(grid_offline)
    flags = counted_surveys(planner, rng, 120)
    accepting = [
        i
        for i, p in enumerate(planner.prefix)
        if planner.product.f_inf[p]
    ]
    for lo, hi in zip(accepting, accepting[1:]):
        assert sum(flags[lo + 1 : hi + 1]) <= 1
    # a masked survey only ever follows some accepting visit
    if flags[1:].count(True):
        first_masked = flags.index(True)
        assert accepting and accepting[0] < first_masked


def test_step_infos_leave_the_score_table_out_of_equality(grid_offline):
    planner, rng = make_planner(grid_offline)
    info = drive(planner, rng, 1)[0]
    other = info._replace(scores=info.scores + 1.0)
    assert info == other and not info != other
    assert hash(info) == hash(other)
    assert info != info._replace(weight=info.weight + 1.0)
    with pytest.raises(AttributeError):
        info.scores = other.scores
    with pytest.raises(AttributeError):
        info.weight = 0.0
    assert isinstance(info, StepInfo)


def test_same_seed_reproduces_the_run(grid_offline):
    prefixes = []
    for _ in range(2):
        planner, rng = make_planner(grid_offline, seed=31)
        drive(planner, rng, 60)
        prefixes.append(list(planner.prefix))
    assert prefixes[0] == prefixes[1]


def test_different_seeds_can_differ(grid_offline):
    planner_a, rng_a = make_planner(grid_offline, seed=1)
    planner_b, rng_b = make_planner(grid_offline, seed=2)
    drive(planner_a, rng_a, 60)
    drive(planner_b, rng_b, 60)
    # not guaranteed in principle, but these seeds do diverge
    assert planner_a.prefix != planner_b.prefix


def test_zero_rewards_still_accomplish_the_mission(grid_offline):
    """With no rewards at all, ramp preferences score every move zero; the
    planner must still cycle through surveillance and accepting states."""
    planner, rng = make_planner(
        grid_offline, pot=MaxSinglePotential(), pref=CubicRampPreference(50.0)
    )
    product = planner.product
    field = RewardField(product.ts.n)
    surveys = 0
    for _ in range(200):
        info = planner.step(field)
        if info.survey:
            surveys += 1
        stalled_state = not (
            product.s_pi_inf[planner.prefix[-2]]
            if info.subgoal_before == SURVEILLANCE
            else product.f_inf[planner.prefix[-2]]
        )
        if info.attraction == 0.0 and stalled_state:
            assert info.indicator
    assert surveys >= 4
    assert len(planner.accepting_positions) >= 4


def test_ts_shortening_indicator(triangle_ts):
    ts = triangle_ts
    q0, q1, q2 = (ts.index[q] for q in ("q0", "q1", "q2"))
    # moving q1 -> q0 reaches a surveyed state: distance drops 1 -> 0
    assert ts_shortening_indicator(ts, q1, q0, [q0]) == 1
    assert ts_shortening_indicator(ts, q0, q1, [q0]) == 0
    assert ts_shortening_indicator(ts, q1, q2, [q2]) == 1
    assert ts_shortening_indicator(ts, q1, q0, []) == 0


def test_cost_evaluator_elapsed_walks_back_to_latest_survey(triangle_ts, triangle_offline):
    ts = triangle_ts
    cache = LocalRunCache(triangle_offline.trimmed, 3.0, 6.0)
    ev = CostEvaluator(cache, ThresholdPreference(50.0), "sur")
    q0, q1, q2 = (ts.index[q] for q in ("q0", "q1", "q2"))
    cases = [
        ([q0], 0.0),
        ([q1], 0.0),
        ([q0, q1], 1.0),
        # the walk stops at the latest surveyed position (q0 at index 3)
        ([q0, q1, q2, q0, q1], 1.0),
        ([q1, q2, q0, q1], 1.0),
        # a surveyed final position resets the count
        ([q1, q0], 0.0),
    ]
    surveyed = [q for q in range(ts.n) if "sur" in ts.labels[q]]
    for prefix, expected in cases:
        assert elapsed_walkback(ts, prefix, surveyed) == expected


def test_cost_evaluator_rejects_non_successor(triangle_ts, triangle_offline):
    cache = LocalRunCache(triangle_offline.trimmed, 3.0, 6.0)
    ev = CostEvaluator(cache, ThresholdPreference(50.0), "sur")
    q0, q1, q2 = (triangle_ts.index[q] for q in ("q0", "q1", "q2"))
    values = RewardField(triangle_ts.n).values
    scores = cache.scores(q0, MaxSumPotential(15.0), values)
    move = cache.fan(q0).moves[q1]
    lookups = cache.hits + cache.misses
    with pytest.raises(ContractError):
        ev.cost(q0, q2, scores, 0.0)
    # at most one fan lookup per state, however many costs
    for _ in range(3):
        assert ev.cost(q0, q1, scores, 0.0) == float(scores[move])
    assert cache.hits + cache.misses <= lookups + 1


def test_cost_evaluator_refuses_a_label_the_product_does_not_flag():
    """The cost column measures progress toward the states the product flags
    as surveyed; on default_grid, whose product flags ``sur``, an evaluator
    given ``a`` would measure progress toward ``a`` states instead."""
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "default_grid.ini")
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    cache = offline.local_run_cache(6, 9)
    for label in ("a", "undeclared"):
        with pytest.raises(ContractError, match=f"surveillance label {label!r}"):
            CostEvaluator(cache, ThresholdPreference(50.0), label)
    CostEvaluator(cache, ThresholdPreference(50.0), "sur")


def test_cost_evaluator_indicator_matches_definition(triangle_ts):
    grid = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "default_grid.ini")
    # the indicator reads the system alone; the products, which the cache
    # needs, come from a generator of their own
    rng, products = np.random.default_rng(31), np.random.default_rng(32)
    # integer and dyadic weights: forward and backward sums agree exactly
    dyadic = [
        random_ts(rng, int(rng.integers(3, 12)), extra_edges=12, weights=(0.5, 0.75, 1.25, 2.0))
        for _ in range(8)
    ]
    for ts in (grid.ts, triangle_ts, *dyadic):
        cache = LocalRunCache(random_trimmed_product(products, ts), 6.0, 9.0)
        ev = CostEvaluator(cache, ThresholdPreference(50.0), "sur")
        surveyed = [q for q in range(ts.n) if "sur" in ts.labels[q]]
        assert surveyed
        for q, q_next in move_weights(ts):
            assert ev.indicator(q, q_next) == ts_shortening_indicator(ts, q, q_next, surveyed)


@pytest.mark.parametrize("name", ["default_grid.ini", "triangle.ini"])
def test_cost_evaluators_of_one_cache_share_the_distances_to_surveyed_states(name):
    """The least weight to a surveyed state is searched once per cache and
    proposition: the cache hands every evaluator the same array, each entry
    the least double-loop distance to a surveyed state, and an evaluator's
    indicator reads it."""
    scenario = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / name)
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    ts, prop = offline.ts, scenario.surveillance_prop
    cache = offline.local_run_cache(scenario.visibility, scenario.horizon)
    evaluator = CostEvaluator(cache, ThresholdPreference(50.0), prop)
    to_surveyed = cache.distance_to(prop)
    assert cache.distance_to(prop) is to_surveyed
    surveyed = [q for q in range(ts.n) if prop in ts.labels[q]]
    distances = dijkstra_oracle(ts.n, move_weights(ts))
    expected = [min(distances[q][s] for s in surveyed) for q in range(ts.n)]
    # integer weights: the backward search and the forward oracle sum alike
    assert to_surveyed.tolist() == expected
    assert math.inf not in expected
    for q, q_next in move_weights(ts):
        assert evaluator.indicator(q, q_next) == int(expected[q_next] < expected[q])

