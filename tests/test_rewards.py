"""Reward fields, their dynamics, and the scoring functions over local runs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from surplan.errors import ContractError, ValidationError
from surplan.rewards import (
    CubeRootRampPreference,
    CubicRampPreference,
    DecaySpawnDynamics,
    MaxSinglePotential,
    MaxSumPotential,
    RewardField,
    ThresholdPreference,
    build_run_bundle,
    make_potential,
    make_preference,
    register_potential,
)
from surplan.ts import FiniteRun, local_runs, run_times, run_weight

from conftest import dijkstra_oracle_from, random_ts


def test_field_validation_and_collect():
    field = RewardField(3, [1.0, 0.0, 42.0])
    assert field.values.dtype == np.float64
    with pytest.raises(ValidationError):
        RewardField(2, [1.0, -0.5])
    with pytest.raises(ValidationError):
        RewardField(2, [1.0])
    dyn = DecaySpawnDynamics(np.random.default_rng(0), spawn_probability=0.0)
    assert dyn.on_collect(field, 2) == 42.0
    assert field.values[2] == 0.0


def test_decay_by_whole_units():
    dyn = DecaySpawnDynamics(np.random.default_rng(0), spawn_probability=0.0)
    field = RewardField(3, [5.0, 1.0, 0.0])
    dyn.evolve(field, 2.0)
    assert list(field.values) == [3.0, 0.0, 0.0]
    assert field.clock == 2.0
    dyn.evolve(field, 3.0)
    assert list(field.values) == [0.0, 0.0, 0.0]
    assert field.clock == 5.0


def test_fractional_time_accumulates():
    dyn = DecaySpawnDynamics(np.random.default_rng(0), spawn_probability=0.0)
    field = RewardField(1, [10.0])
    for _ in range(4):
        dyn.evolve(field, 0.5)
    assert field.values[0] == 8.0
    dyn.evolve(field, 0.25)
    assert field.values[0] == 8.0
    dyn.evolve(field, 0.75)
    assert field.values[0] == 7.0


def test_fractional_weights_do_not_drift_over_long_runs():
    """The whole-unit tolerance never gains or loses a unit over 10^5 moves
    with decimal weights: the units taken always equal the floor of the
    exact decimal sum."""
    decimals = ("0.1", "0.2", "0.3", "0.7", "1.1")
    weights = [(float(d), Fraction(d)) for d in decimals]
    dyn = DecaySpawnDynamics(np.random.default_rng(0))
    units = 0
    unit_step = dyn._unit_step

    def counted(values):
        nonlocal units
        units += 1
        unit_step(values)

    dyn._unit_step = counted
    field = RewardField(1)
    exact = Fraction(0)
    for pick in np.random.default_rng(11).integers(len(weights), size=100_000):
        dt, exact_dt = weights[pick]
        dyn.evolve(field, dt)
        exact += exact_dt
        assert units == math.floor(exact)
    assert field.clock == pytest.approx(float(exact))


def test_spawn_only_on_empty_states():
    dyn = DecaySpawnDynamics(np.random.default_rng(1), spawn_probability=1.0)
    field = RewardField(4, [3.0, 0.0, 0.0, 50.0])
    dyn.evolve(field, 1.0)
    # occupied states only decayed; empty states all respawned
    assert field.values[0] == 2.0
    assert field.values[3] == 49.0
    assert field.values[1] > 0.0 or field.values[1] == 0.0  # value may draw 0
    assert all(0.0 <= x <= 60.0 for x in field.values)


def test_spawn_split_and_ranges():
    n = 200_000
    dyn = DecaySpawnDynamics(np.random.default_rng(7), spawn_probability=1.0)
    field = RewardField(n)
    dyn.evolve(field, 1.0)
    values = field.values
    low = values <= 15.0
    assert abs(low.mean() - 0.5) < 0.01
    assert values.min() >= 0.0 and values.max() <= 60.0
    assert set(np.unique(values)) <= set(float(x) for x in range(61))
    # halves are uniform on their ranges, so the means sit near 7.5 and 38
    assert abs(values[low].mean() - 7.5) < 0.2
    assert abs(values[~low].mean() - 38.0) < 0.2


def test_spawn_probability_respected():
    n = 100_000
    dyn = DecaySpawnDynamics(np.random.default_rng(9), spawn_probability=0.05)
    field = RewardField(n)
    dyn.evolve(field, 1.0)
    # a spawned state stays at zero when the low half draws 0 (1 of 16)
    expected_nonzero = 0.05 * (1.0 - 0.5 / 16.0)
    assert abs((field.values > 0).mean() - expected_nonzero) < 0.005


def test_burn_in_leaves_clock_untouched():
    dyn = DecaySpawnDynamics(np.random.default_rng(3), spawn_probability=0.05)
    field = RewardField(100)
    dyn.burn_in(field, 100)
    assert field.clock == 0.0
    assert (field.values > 0).any()


def test_evolution_is_reproducible_under_seed():
    results = []
    for _ in range(2):
        dyn = DecaySpawnDynamics(np.random.default_rng(123), spawn_probability=0.3)
        field = RewardField(50)
        dyn.evolve(field, 7.0)
        results.append(field.values.copy())
    assert np.array_equal(results[0], results[1])


def test_bundle_novelty_and_padding():
    runs = [
        ((4, 5, 4, 6), (0.0, 1.0, 2.0, 4.0)),
        ((4,), (0.0,)),
    ]
    bundle = build_run_bundle(runs, lambda n: n, leaving_ts_state=5)
    assert bundle.n_runs == 2
    assert bundle.ts_states[1, 1] == -1 and not bundle.valid[1, 1]
    # 4 is novel at its first position only; 5 never (it is being left)
    assert list(bundle.novel[0]) == [True, False, False, True]
    assert bundle.cumw[0, 3] == 4.0
    with pytest.raises(ContractError):
        build_run_bundle([], lambda n: n, leaving_ts_state=0)


def _position_score(values, states, cum, i, leaving, refresh):
    gain = values[states[i]] - cum[i]
    contributing = gain > 0 and states[i] != leaving and states[i] not in states[:i]
    if contributing:
        return gain, True
    return refresh, False


def pot_oracles(ts, q_k, q, v, h, values, refresh):
    """Literal evaluation of both potentials over the enumerated run set."""
    best_sum = None
    best_single = 0.0
    for run in local_runs(ts, q, q_k, v, h):
        cum = run_times(ts, run)
        states = run.states
        total = 0.0
        for i in range(len(states)):
            score, contributing = _position_score(values, states, cum, i, q_k, refresh)
            total += score
            if contributing:
                best_single = max(best_single, score)
        best_sum = total if best_sum is None else max(best_sum, total)
    return best_sum, best_single


def test_potentials_match_literal_oracles():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(12):
        ts = random_ts(rng, int(rng.integers(3, 7)), extra_edges=6)
        v, h = 4.0, 7.0
        for q_k in range(ts.n):
            distance = dijkstra_oracle_from(ts.n, ts.weight_of, q_k)
            succ = [q for q in ts.successors(q_k) if distance[q] <= v]
            for q in succ:
                runs = [
                    (r.states, run_times(ts, r)) for r in local_runs(ts, q, q_k, v, h)
                ]
                if not runs:
                    continue
                bundle = build_run_bundle(runs, lambda n: n, leaving_ts_state=q_k)
                for _ in range(5):
                    values = np.round(rng.random(ts.n) * 60.0)
                    exp_sum, exp_single = pot_oracles(ts, q_k, q, v, h, values, 15.0)
                    assert abs(MaxSumPotential(15.0).evaluate(bundle, values) - exp_sum) < 1e-9
                    assert (
                        abs(MaxSinglePotential().evaluate(bundle, values) - exp_single) < 1e-9
                    )
                    checked += 1
    assert checked >= 50


def test_leaving_state_never_scores_its_reward(triangle_ts):
    ts = triangle_ts
    q0, q1 = ts.state_id("q0"), ts.state_id("q1")
    values = np.zeros(ts.n)
    values[q0] = 50.0
    runs = [(r.states, run_times(ts, r)) for r in local_runs(ts, q1, q0, 3.0, 6.0)]
    bundle = build_run_bundle(runs, lambda n: n, leaving_ts_state=q0)
    # revisiting q0 on the local run must not re-collect its (just taken) reward
    assert MaxSinglePotential().evaluate(bundle, values) == 0.0


def test_refresh_constant_rewards_longer_runs():
    ts = random_ts(np.random.default_rng(2), 4, extra_edges=4)
    q_k = 0
    q = ts.successors(q_k)[0]
    runs = [(r.states, run_times(ts, r)) for r in local_runs(ts, q, q_k, 10.0, 8.0)]
    bundle = build_run_bundle(runs, lambda n: n, leaving_ts_state=q_k)
    values = np.zeros(ts.n)
    longest = max(len(states) for states, _ in runs)
    assert MaxSumPotential(15.0).evaluate(bundle, values) == 15.0 * longest
    assert MaxSumPotential(0.0).evaluate(bundle, values) == 0.0


def test_preferences_at_threshold():
    for make in (CubicRampPreference, CubeRootRampPreference):
        pref = make(threshold=50.0)
        for m in (0.0, 1.0, 17.5, 123.4):
            assert pref(50.0, m) == m
    pref1 = ThresholdPreference(threshold=50.0)
    assert pref1(0.0, 99.0) == 0.0
    assert pref1(50.0, 99.0) == 0.0
    assert pref1(50.0 + 1e-9, 99.0) == 100.0
    assert pref1(73.0, 99.0) == 100.0


def test_preference_shapes():
    cubic = CubicRampPreference(50.0)
    root = CubeRootRampPreference(50.0)
    m = 80.0
    assert cubic(25.0, m) == (0.5**3) * m
    assert root(25.0, m) == (0.5 ** (1.0 / 3.0)) * m
    # early on the root ramp dominates the cubic ramp, late it is the converse
    assert root(10.0, m) > cubic(10.0, m)
    assert root(100.0, m) < cubic(100.0, m)
    assert cubic(0.0, m) == 0.0 and root(0.0, m) == 0.0


def test_registry_lookup_and_rejection():
    assert isinstance(make_potential("max-sum", refresh_value=7.0), MaxSumPotential)
    assert isinstance(make_potential("max-single", refresh_value=7.0), MaxSinglePotential)
    assert isinstance(make_preference("cubic", threshold=10.0), CubicRampPreference)
    with pytest.raises(ValidationError):
        make_potential("nope")
    with pytest.raises(ValidationError):
        make_preference("nope")

    class Custom:
        name = "custom-test"

        def evaluate(self, bundle, rewards):
            return 0.0

    register_potential("custom-test", Custom)
    try:
        assert isinstance(make_potential("custom-test"), Custom)
    finally:
        from surplan.rewards import POTENTIALS

        POTENTIALS.pop("custom-test")
