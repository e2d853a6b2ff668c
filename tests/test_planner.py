"""Online planner: stepping invariants, bookkeeping, subgoal switching."""

from pathlib import Path

import numpy as np
import pytest

from surplan.errors import ContractError, MissionInfeasible
from surplan.planner import (
    ATTRACTION_TIE_TOLERANCE,
    INFEASIBLE_MESSAGE,
    MISSION,
    SURVEILLANCE,
    CostEvaluator,
    Planner,
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

from conftest import random_ts, ts_shortening_indicator


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


def drive(planner, rng, steps, spawn=0.25):
    """Run the planner against live dynamics, returning the step infos."""
    dynamics = DecaySpawnDynamics(rng, spawn_probability=spawn)
    field = RewardField(planner.ts.n)
    dynamics.burn_in(field, 60)
    infos = []
    for _ in range(steps):
        info = planner.step(field)
        dynamics.on_collect(field, info.ts_state)
        dynamics.evolve(field, info.weight)
        infos.append(info)
    return infos


def test_infeasible_mission_is_refused(triangle_ts):
    offline = offline_phase(triangle_ts, "G !a & G F a", "sur")
    with pytest.raises(MissionInfeasible) as err:
        make_planner(offline)
    assert str(err.value) == INFEASIBLE_MESSAGE == "Mission cannot be accomplished."


def test_parameter_validation(triangle_offline):
    with pytest.raises(ContractError):
        make_planner(triangle_offline, horizon=2.0)
    with pytest.raises(ContractError):
        make_planner(triangle_offline, visibility=0.0)


def test_prefix_is_a_valid_product_run(grid_offline):
    planner, rng = make_planner(grid_offline)
    drive(planner, rng, 60)
    product = planner.product
    assert planner.prefix[0] == product.initial
    for a, b in zip(planner.prefix, planner.prefix[1:]):
        assert b in [int(product.edge_dst[e]) for e in product.edges_from(a)]
    # times accumulate the traversed edge weights
    for i, (a, b) in enumerate(zip(planner.prefix, planner.prefix[1:])):
        w = planner.times[i + 1] - planner.times[i]
        assert w == pytest.approx(
            float(
                product.edge_weight[
                    [
                        e
                        for e in product.edges_from(a)
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
    planner, rng = make_planner(grid_offline)
    dynamics = DecaySpawnDynamics(rng, spawn_probability=0.25)
    field = RewardField(planner.ts.n)
    dynamics.burn_in(field, 60)
    for _ in range(70):
        planner.step(field)
        times = planner.times

        def since_latest(flags):
            for i in range(len(flags) - 1, -1, -1):
                if flags[i]:
                    return times[-1] - times[i]
            return times[-1]

        assert planner.elapsed_raw == pytest.approx(since_latest(planner.survey_flags))
        assert planner.elapsed_masked == pytest.approx(
            since_latest(planner.unmasked_flags)
        )


def test_masked_prefix_agrees_with_incremental_flags(grid_offline):
    planner, rng = make_planner(grid_offline)
    drive(planner, rng, 80)
    masked = planner.alpha_bar()
    product = planner.product
    prop = product.surveillance_prop
    for i, (q, labels) in enumerate(masked):
        assert q == int(product.ts_of[planner.prefix[i]])
        raw = bool(product.surveillance[planner.prefix[i]])
        if raw:
            assert (prop in labels) == planner.unmasked_flags[i]
        else:
            assert prop not in labels
            assert not planner.unmasked_flags[i]


def test_at_most_one_masked_survey_between_accepting_visits(grid_offline):
    planner, rng = make_planner(grid_offline)
    drive(planner, rng, 120)
    accepting = [
        i
        for i, p in enumerate(planner.prefix)
        if planner.product.f_inf[p]
    ]
    flags = planner.unmasked_flags
    for lo, hi in zip(accepting, accepting[1:]):
        assert sum(flags[lo + 1 : hi + 1]) <= 1
    # a masked survey only ever follows some accepting visit
    if flags[1:].count(True):
        first_masked = flags.index(True)
        assert accepting and accepting[0] < first_masked


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
    field = RewardField(planner.ts.n)
    product = planner.product
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


def test_attraction_public_view_matches_step_choice(grid_offline):
    planner, rng = make_planner(grid_offline, seed=8)
    dynamics = DecaySpawnDynamics(rng, spawn_probability=0.25)
    field = RewardField(planner.ts.n)
    dynamics.burn_in(field, 60)
    for _ in range(25):
        p_k = planner.current
        values = {
            s: planner.attraction(s, field)
            for s in planner.product.edge_dst[planner.product.edges_from(p_k)].tolist()
        }
        info = planner.step(field)
        assert info.attractions == tuple(
            values[s] for s in info.candidates
        )
        dynamics.on_collect(field, info.ts_state)
        dynamics.evolve(field, info.weight)
    with pytest.raises(ContractError):
        planner.attraction(-1, field)


def test_ts_shortening_indicator(triangle_ts):
    ts = triangle_ts
    q0, q1, q2 = (ts.state_id(q) for q in ("q0", "q1", "q2"))
    # moving q1 -> q0 reaches a surveyed state: distance drops 1 -> 0
    assert ts_shortening_indicator(ts, q1, q0, [q0]) == 1
    assert ts_shortening_indicator(ts, q0, q1, [q0]) == 0
    assert ts_shortening_indicator(ts, q1, q2, [q2]) == 1
    assert ts_shortening_indicator(ts, q1, q0, []) == 0


def test_cost_evaluator_elapsed_walks_back_to_latest_survey(triangle_ts):
    ts = triangle_ts
    ev = CostEvaluator(
        ts, MaxSumPotential(15.0), ThresholdPreference(50.0), 3.0, 6.0, "sur"
    )
    q0, q1, q2 = (ts.state_id(q) for q in ("q0", "q1", "q2"))
    assert ev.elapsed([q0]) == 0.0
    assert ev.elapsed([q1]) == 0.0
    assert ev.elapsed([q0, q1]) == 1.0
    # the walk stops at the latest surveyed position (q0 at index 3)
    assert ev.elapsed([q0, q1, q2, q0, q1]) == 1.0
    assert ev.elapsed([q1, q2, q0, q1]) == 1.0
    # a surveyed final position resets the count
    assert ev.elapsed([q1, q0]) == 0.0


def test_cost_evaluator_rejects_non_successor(triangle_ts):
    ev = CostEvaluator(
        triangle_ts, MaxSumPotential(15.0), ThresholdPreference(50.0), 3.0, 6.0, "sur"
    )
    field = RewardField(triangle_ts.n)
    with pytest.raises(ContractError):
        ev.cost([triangle_ts.state_id("q0")], triangle_ts.state_id("q2"), field)


def test_cost_evaluator_indicator_matches_definition(triangle_ts):
    grid = load_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "default_grid.ini")
    rng = np.random.default_rng(31)
    # integer and dyadic weights: forward and backward sums agree exactly
    dyadic = [
        random_ts(rng, int(rng.integers(3, 12)), extra_edges=12, weights=(0.5, 0.75, 1.25, 2.0))
        for _ in range(8)
    ]
    for ts in (grid.ts, triangle_ts, *dyadic):
        ev = CostEvaluator(
            ts, MaxSumPotential(15.0), ThresholdPreference(50.0), 6.0, 9.0, "sur"
        )
        assert ev.surveyed
        for q, q_next in ts.weight_of:
            assert ev.indicator(q, q_next) == ts_shortening_indicator(
                ts, q, q_next, ev.surveyed
            )


def test_cost_evaluator_rejects_a_mismatched_shared_cache(triangle_offline):
    planner, _ = make_planner(triangle_offline, visibility=3.0, horizon=6.0)
    with pytest.raises(ContractError):
        CostEvaluator(
            planner.ts,
            MaxSumPotential(15.0),
            ThresholdPreference(50.0),
            3.0,
            7.0,
            "sur",
            local_runs=planner.local_runs,
        )
