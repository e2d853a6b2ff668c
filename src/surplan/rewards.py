"""Reward fields, reward dynamics, and potential / preference functions.

A reward field assigns a non-negative value to every system state. Dynamics
evolve the field as simulated time passes and define what collecting a
reward does. Potential functions score a candidate next state by the rewards
collectible on short local runs from it; preference functions score how
urgently surveillance progress outweighs collection, growing with the time
elapsed since the last survey.
"""

from __future__ import annotations

import inspect
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ContractError, ValidationError


class RewardField:
    """Current reward per system state."""

    def __init__(self, n_states: int, values: Iterable[float] | None = None):
        if values is None:
            self.values = np.zeros(n_states, dtype=np.float64)
        else:
            self.values = np.asarray(list(values), dtype=np.float64).copy()
            if self.values.shape != (n_states,):
                raise ValidationError("initial reward vector has wrong length")
            if not ((self.values >= 0) & (self.values < math.inf)).all():
                raise ValidationError("rewards must be finite and non-negative")


class DecaySpawnDynamics:
    """Data-package model: values outdate by one per whole time unit, and a
    fresh package may appear wherever the value is zero.

    Each elapsed whole time unit first decays every positive value by one
    (floored at zero), then lets every zero-valued state spawn independently
    with the configured probability. A fresh value is drawn uniformly from
    {0..15} or, with equal chance, uniformly from {16..60}, so smaller
    packages are more likely. Collection empties the state.

    Fractional durations accumulate; the random stream is consumed in a fixed
    order, so a seeded generator replays exactly. A duration that is NaN,
    infinite or negative is refused with ``ValidationError`` before anything
    changes, as is a burn-in that is not a whole, non-negative count.
    """

    def __init__(self, rng: np.random.Generator, spawn_probability: float = 0.05):
        if not 0.0 <= spawn_probability <= 1.0:
            raise ValidationError("spawn probability must be within [0, 1]")
        self._rng = rng
        self.spawn_probability = float(spawn_probability)
        self._fraction = 0.0
        # bounds of the spawn draws, `_width` small ones then `_width` large
        # ones; they grow only, past the largest spawn count seen
        self._width = 0
        self._low = self._high = np.empty(0, dtype=np.int64)

    def evolve(self, field: RewardField, dt: float) -> None:
        if not 0 <= dt < math.inf:
            raise ValidationError(f"time advances by a finite, non-negative amount, not {dt}")
        self._fraction += dt
        # tolerance absorbs float accumulation when weights are not integral
        units = int(math.floor(self._fraction + 1e-9))
        self._fraction -= units
        for _ in range(units):
            self._unit_step(field.values)

    def _unit_step(self, values: np.ndarray) -> None:
        # values are never negative, so decaying all of them and flooring at
        # zero decays exactly the positive ones
        np.subtract(values, 1.0, out=values)
        np.maximum(values, 0.0, out=values)
        draws = self._rng.random(len(values))
        spawn = (values == 0.0) & (draws < self.spawn_probability)
        count = np.count_nonzero(spawn)
        if count:
            small = self._rng.random(count) < 0.5
            if count > self._width:
                self._width = 2 * count
                self._low = np.repeat([0, 16], self._width)
                self._high = np.repeat([16, 61], self._width)
            # one call with per-element bounds draws the same 32-bit values
            # in the same order as `count` draws in [0, 16) and then `count`
            # in [16, 61); contiguous slices keep it off numpy's strided path
            at = slice(self._width - count, self._width + count)
            drawn = self._rng.integers(self._low[at], self._high[at])
            values[spawn] = np.where(small, drawn[:count], drawn[count:])

    def on_collect(self, field: RewardField, state: int) -> float:
        reward = float(field.values[state])
        field.values[state] = 0.0
        return reward

    def burn_in(self, field: RewardField, units: int) -> None:
        """Run ``units`` whole time units on the field before the run starts,
        so the initial field is not identically zero; the fractional time
        that ``evolve`` carries is left as it is."""
        if not (isinstance(units, numbers.Integral) and units >= 0):
            raise ValidationError(f"burn-in runs a whole, non-negative number of units, not {units}")
        for _ in range(units):
            self._unit_step(field.values)


@dataclass(frozen=True)
class RunBundle:
    """Padded array form of a set of local runs, ready for vectorized scoring.

    Each row is one run; ``ts_states`` holds the system-state identity per
    position (padding -1), ``cumw`` the weight from the run's start up to the
    position, ``novel`` whether the position is the first occurrence of its
    system state within the run AND differs from the state the robot is
    leaving. Scoring only ever reads positions where ``valid`` is set.
    """

    ts_states: np.ndarray
    valid: np.ndarray
    cumw: np.ndarray
    novel: np.ndarray


def build_run_bundle(
    runs: Iterable[tuple[tuple[int, ...], tuple[float, ...]]],
    node_ts_state: Callable[[int], int],
    leaving_ts_state: int,
) -> RunBundle:
    """Pack enumerated runs into a bundle.

    ``runs`` yields (node sequence, cumulative weights); nodes map to system
    states through ``node_ts_state`` (identity when runs already live on the
    system). ``leaving_ts_state`` is the state whose reward was collected
    last, which never counts as novel.
    """
    materialized = [
        ([node_ts_state(n) for n in nodes], weights) for nodes, weights in runs
    ]
    if not materialized:
        raise ContractError("a local run set must contain at least one run")
    width = max(len(states) for states, _ in materialized)
    count = len(materialized)
    ts_states = np.full((count, width), -1, dtype=np.int64)
    valid = np.zeros((count, width), dtype=bool)
    cumw = np.zeros((count, width), dtype=np.float64)
    novel = np.zeros((count, width), dtype=bool)
    for r, (states, weights) in enumerate(materialized):
        k = len(states)
        ts_states[r, :k] = states
        valid[r, :k] = True
        cumw[r, :k] = weights
        seen: set[int] = set()
        for i, q in enumerate(states):
            if q != leaving_ts_state and q not in seen:
                novel[r, i] = True
            seen.add(q)
    return RunBundle(ts_states, valid, cumw, novel)


class Potential:
    """Scores a set of local runs by its best run. ``node_values`` gives the
    non-negative value of each position from its system state, the weight
    spent reaching it within the run and whether it is novel; ``combine``
    (``np.add`` or ``np.maximum``) makes a run's score of its values."""

    name: str
    combine: np.ufunc
    # what a position pays that collects nothing
    refresh_value = 0.0

    def node_values(self, states, cumw, novel, rewards) -> np.ndarray:
        """A position pays its sensed value minus the weight spent reaching
        it within the run, if that is positive, the state was not already
        visited by the run and is not the state just left."""
        gain = rewards[states] - cumw
        # against a float zero: numpy 2 compares with an int one microseconds slower
        return np.where(novel & (gain > 0.0), gain, self.refresh_value)

    def evaluate(self, bundle: RunBundle, rewards: np.ndarray) -> float:
        """The score of a padded bundle, each row combined left to right;
        padding is worth 0."""
        nodes = self.node_values(bundle.ts_states, bundle.cumw, bundle.novel, rewards)
        rows = self.combine.accumulate(np.where(bundle.valid, nodes, 0.0), axis=1)
        return float(rows[:, -1].max())


class MaxSumPotential(Potential):
    """Largest total reward collectible on one local run. A position that
    collects nothing pays the refresh constant, the assumed value of a
    reward that has meanwhile renewed."""

    name = "max-sum"
    combine = np.add

    def __init__(self, refresh_value: float = 15.0):
        if not (math.isfinite(refresh_value) and refresh_value >= 0):
            raise ValidationError(
                f"refresh value must be finite and non-negative, not {refresh_value}"
            )
        self.refresh_value = float(refresh_value)


class MaxSinglePotential(Potential):
    """Largest single reward collectible on one local run: positions that
    collect nothing score zero, and only the best position counts."""

    name = "max-single"
    combine = np.maximum


class Preference:
    """Weighs the weight elapsed since the last survey against the largest
    potential; ``threshold``, a finite positive weight, is where each kind
    catches up with that potential."""

    name: str

    def __init__(self, threshold: float = 50.0):
        if not (math.isfinite(threshold) and threshold > 0):
            raise ValidationError(
                f"preference threshold must be finite and positive, not {threshold}"
            )
        self.threshold = float(threshold)


class ThresholdPreference(Preference):
    """Zero until the elapsed weight passes the threshold, then strictly
    above every potential."""

    name = "threshold"

    def __call__(self, elapsed: float, max_potential: float) -> float:
        return 0.0 if elapsed <= self.threshold else max_potential + 1.0


class CubicRampPreference(Preference):
    """Grows with the cube of elapsed weight, crossing the maximal potential
    exactly at the threshold."""

    name = "cubic"

    def __call__(self, elapsed: float, max_potential: float) -> float:
        return (elapsed / self.threshold) ** 3 * max_potential


class CubeRootRampPreference(Preference):
    """Grows with the cube root of elapsed weight: steep early, flat late,
    crossing the maximal potential exactly at the threshold."""

    name = "cube-root"

    def __call__(self, elapsed: float, max_potential: float) -> float:
        return (elapsed / self.threshold) ** (1.0 / 3.0) * max_potential


POTENTIALS: dict[str, Callable[..., object]] = {
    MaxSumPotential.name: MaxSumPotential,
    MaxSinglePotential.name: MaxSinglePotential,
}

PREFERENCES: dict[str, Callable[..., object]] = {
    ThresholdPreference.name: ThresholdPreference,
    CubicRampPreference.name: CubicRampPreference,
    CubeRootRampPreference.name: CubeRootRampPreference,
}


def register_potential(name: str, factory: Callable[..., object]) -> None:
    POTENTIALS[name] = factory


def register_preference(name: str, factory: Callable[..., object]) -> None:
    PREFERENCES[name] = factory


def _construct(factory: Callable[..., object], params: dict):
    accepted = set(inspect.signature(factory).parameters)
    return factory(**{key: value for key, value in params.items() if key in accepted})


def make_potential(name: str, **params: float):
    """Instantiate a registered potential, ignoring parameters it does not take."""
    if name not in POTENTIALS:
        raise ValidationError(
            f"unknown potential {name!r}; known: {sorted(POTENTIALS)}"
        )
    return _construct(POTENTIALS[name], params)


def make_preference(name: str, **params: float):
    """Instantiate a registered preference, ignoring parameters it does not take."""
    if name not in PREFERENCES:
        raise ValidationError(
            f"unknown preference {name!r}; known: {sorted(PREFERENCES)}"
        )
    return _construct(PREFERENCES[name], params)
