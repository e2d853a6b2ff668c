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

from conftest import dijkstra_oracle_from, move_weights, random_ts
from system_runs import local_runs, run_times


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rewards_and_refresh_values_are_refused(bad):
    """A NaN reward scored the refresh value where it lay and was collected
    as NaN, and a NaN refresh value scored every run NaN; the loader
    already refuses both."""
    with pytest.raises(ValidationError, match="finite and non-negative"):
        RewardField(3, [0.0, bad, 1.0])
    with pytest.raises(ValidationError, match="finite and non-negative"):
        MaxSumPotential(bad)
    with pytest.raises(ValidationError):
        make_potential("max-sum", refresh_value=bad)


def test_decay_by_whole_units():
    dyn = DecaySpawnDynamics(np.random.default_rng(0), spawn_probability=0.0)
    field = RewardField(3, [5.0, 1.0, 0.0])
    dyn.evolve(field, 2.0)
    assert list(field.values) == [3.0, 0.0, 0.0]
    dyn.evolve(field, 3.0)
    assert list(field.values) == [0.0, 0.0, 0.0]


def reference_unit_step(rng, values, spawn_probability):
    """One whole time unit of decay-spawn dynamics as first formulated:
    decay the positive values by one, floor at zero, then spawn."""
    positive = values > 0
    values[positive] -= 1.0
    np.maximum(values, 0.0, out=values)
    draws = rng.random(len(values))
    spawn = (values == 0.0) & (draws < spawn_probability)
    count = int(spawn.sum())
    if count:
        small = rng.random(count) < 0.5
        low = rng.integers(0, 16, count)
        high = rng.integers(16, 61, count)
        values[spawn] = np.where(small, low, high).astype(np.float64)


@pytest.mark.parametrize(
    "n, probability", [(100, 0.05), (900, 0.05), (40, 0.5), (900, 1.0), (1, 0.5)]
)
def test_unit_steps_replay_the_first_formulation_bit_for_bit(n, probability):
    """Values and the generator's state match the first formulation, which
    sizes its draws by an int and casts them, also when planner-style tie
    draws, which take 32-bit halves from the buffer the bounded spawn draws
    use, fall between units."""
    planner_rng = np.random.default_rng(17)
    dyn = DecaySpawnDynamics(planner_rng, spawn_probability=probability)
    rng = np.random.default_rng(17)
    # fractional starting values also decay through (0, 1)
    field = RewardField(n, np.random.default_rng(4).uniform(0.0, 5.0, n))
    reference = field.values.copy()
    for unit in range(3000):
        dyn.burn_in(field, 1)
        reference_unit_step(rng, reference, probability)
        assert field.values.tobytes() == reference.tobytes()
        if unit % 7 == 0:
            ties = 2 + unit % 5
            assert planner_rng.integers(ties) == rng.integers(ties)
    assert planner_rng.bit_generator.state == rng.bit_generator.state


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


def test_burn_in_fills_the_field():
    """Burn-in runs whole units on the field and leaves the fractional
    time that ``evolve`` carries as it is."""
    dyn = DecaySpawnDynamics(np.random.default_rng(3), spawn_probability=0.05)
    field = RewardField(100)
    dyn.evolve(field, 0.5)
    dyn.burn_in(field, 100)
    assert (field.values > 0).any()
    before = field.values.copy()
    dyn.evolve(field, 0.5)
    # the carried half makes a whole unit, which decays every value above 1
    assert np.array_equal(field.values[before > 1], before[before > 1] - 1)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, -1.0, -0.25])
def test_evolve_refuses_a_duration_before_it_changes_anything(dt):
    """A NaN, infinite or negative duration is refused before the
    fractional carry takes it: afterwards the instance draws exactly what an
    untouched one does."""
    refused, untouched = (
        DecaySpawnDynamics(np.random.default_rng(21), spawn_probability=0.3) for _ in range(2)
    )
    fields = RewardField(40), RewardField(40)
    for dyn, field in zip((refused, untouched), fields):
        dyn.evolve(field, 0.5)
    with pytest.raises(ValidationError):
        refused.evolve(fields[0], dt)
    for dyn, field in zip((refused, untouched), fields):
        dyn.evolve(field, 2.0)
    assert np.array_equal(fields[0].values, fields[1].values)
    assert (fields[0].values > 0).any()


@pytest.mark.parametrize("units", [-5, -1, 2.5, math.nan, math.inf])
def test_burn_in_refuses_what_is_not_a_whole_non_negative_count(units):
    refused, untouched = (
        DecaySpawnDynamics(np.random.default_rng(22), spawn_probability=0.3) for _ in range(2)
    )
    fields = RewardField(40), RewardField(40)
    with pytest.raises(ValidationError):
        refused.burn_in(fields[0], units)
    for dyn, field in zip((refused, untouched), fields):
        dyn.burn_in(field, 3)
    assert np.array_equal(fields[0].values, fields[1].values)
    # a whole count of numpy's integer type is taken
    refused.burn_in(fields[0], np.int64(0))


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
    assert bundle.ts_states.shape[0] == 2
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
            distance = dijkstra_oracle_from(ts.n, move_weights(ts), q_k)
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
                    assert MaxSumPotential(15.0).evaluate(bundle, values) == exp_sum
                    assert MaxSinglePotential().evaluate(bundle, values) == exp_single
                    checked += 1
    assert checked >= 50


def test_leaving_state_never_scores_its_reward(triangle_ts):
    ts = triangle_ts
    q0, q1 = ts.index["q0"], ts.index["q1"]
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


@pytest.mark.parametrize("threshold", [0.0, -5.0, math.nan, math.inf])
def test_preferences_refuse_a_threshold_that_is_not_finite_and_positive(threshold):
    """As the loader's ``pref-threshold`` does: a zero threshold made the
    cubic ramp divide by zero, and a negative one made the cube-root ramp
    complex, which a step cannot turn into a float."""
    for preference in (ThresholdPreference, CubicRampPreference, CubeRootRampPreference):
        with pytest.raises(ValidationError, match="finite and positive"):
            preference(threshold)
        with pytest.raises(ValidationError, match="finite and positive"):
            make_preference(preference.name, threshold=threshold)


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
