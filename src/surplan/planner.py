"""Online planning over the trimmed product.

Each step scores every successor of the current product state with an
attraction value: the state's potential plus, on edges flagged as shortening,
a preference term that grows with the weight elapsed since the last survey.
The maximizer is taken (ties uniformly at random), and the planner alternates
between a surveillance subgoal and a mission subgoal as the corresponding
recurrent sets are entered. During the mission subgoal the elapsed weight is
measured on a masked prefix where at most one survey counts between
consecutive visits to recurrent accepting states, which keeps the preference
term growing even when surveyed states are crossed incidentally.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractError, MissionInfeasible
from .localruns import LocalRunCache
from .product import OfflineResult
from .rewards import RewardField
# unused here; perfbench/spans.py patches both on this module
from .rewards import build_run_bundle  # noqa: F401
from .ts import enumerate_budget_runs  # noqa: F401

SURVEILLANCE = "surveillance"
MISSION = "mission"

INFEASIBLE_MESSAGE = "Mission cannot be accomplished."

ATTRACTION_TIE_TOLERANCE = 1e-9


class StepInfo(NamedTuple):
    """Everything observable about one planning step. ``scores`` is the
    decision's score table: the potential of every segment of the fan of the
    system state left. An array, so equality and hashing leave it out."""

    step: int
    product_state: int
    ts_state: int
    ba_state: int
    weight: float
    time: float
    subgoal_before: str
    subgoal_after: str
    attraction: float
    elapsed_used: float
    indicator: bool
    survey: bool
    candidates: tuple[int, ...]
    attractions: tuple[float, ...]
    scores: np.ndarray

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:-1] == other[:-1]

    # a tuple's own != would compare the score tables too
    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:-1])


class Planner:
    """Stateful controller for one run over a trimmed product."""

    def __init__(
        self,
        offline: OfflineResult,
        potential,
        preference,
        visibility: float,
        horizon: float,
        rng: np.random.Generator,
    ):
        if not offline.feasible:
            raise MissionInfeasible(INFEASIBLE_MESSAGE)
        product = offline.trimmed
        self.local_runs = offline.local_run_cache(visibility, horizon)
        self.product = product
        self.potential = potential
        self.preference = preference
        self.rng = rng

        self.prefix: list[int] = [product.initial]
        self.subgoal = SURVEILLANCE
        self.accepting_positions: list[int] = (
            [0] if product.f_inf[product.initial] else []
        )

        # decisions with more than one candidate within the tie tolerance of
        # the best, and decisions whose best attraction was exactly zero
        self.tied_steps = 0
        self.zero_attraction_steps = 0

        self._time = 0.0
        self._elapsed_raw = 0.0
        self._elapsed_masked = 0.0
        self._accepting_visited = bool(product.f_inf[product.initial])
        self._survey_since_accepting = bool(product.surveillance[product.initial])

    # -- public views ------------------------------------------------------

    @property
    def current(self) -> int:
        return self.prefix[-1]

    @property
    def elapsed_raw(self) -> float:
        """Weight since the latest surveyed position of the executed prefix."""
        return self._elapsed_raw

    @property
    def elapsed_masked(self) -> float:
        """Weight since the latest survey that counts on the masked prefix."""
        return self._elapsed_masked

    def alpha(self) -> list[int]:
        """The executed prefix projected onto system states."""
        return [int(self.product.ts_of[p]) for p in self.prefix]

    # -- stepping ----------------------------------------------------------

    def step(self, field: RewardField) -> StepInfo:
        """Choose and commit the next product state; the caller then collects
        the reward at the returned state and evolves the field by the
        returned weight."""
        view = self.local_runs.view(self.prefix[-1])
        scores = self.local_runs.scores(view.ts_state, self.potential, field.values)
        pots = scores[view.segments].tolist()
        max_pot = max(pots)
        # the active subgoal's elapsed weight, shortening indicator and
        # whether the state left is in its target set
        if self.subgoal == SURVEILLANCE:
            elapsed, flags, at_target = self._elapsed_raw, view.ind_pi, view.s_pi_inf
        else:
            elapsed, flags, at_target = self._elapsed_masked, view.ind_phi, view.f_inf
        pref_value = float(self.preference(elapsed, max_pot))
        attractions = [pot + (pref_value if flag else 0.0) for pot, flag in zip(pots, flags)]

        best = max(attractions)
        ties = [
            i
            for i, a in enumerate(attractions)
            if a >= best - ATTRACTION_TIE_TOLERANCE
        ]
        if len(ties) > 1:
            self.tied_steps += 1
        if best == 0.0:
            self.zero_attraction_steps += 1
            # Degenerate corner: a ramp preference with zero potential
            # everywhere scores every move 0, including the shortening ones.
            # Restricting the tie to shortening edges preserves progress
            # toward the pending subgoal without affecting any other case.
            if not at_target:
                marked = [i for i in ties if flags[i]]
                if marked:
                    ties = marked
        if len(ties) == 1:
            pick = ties[0]
        else:
            pick = ties[int(self.rng.integers(len(ties)))]
        p_next = view.candidates[pick]
        weight = view.weights[pick]

        position = len(self.prefix)
        raw_survey = view.next_survey[pick]
        unmasked = raw_survey and self._accepting_visited and not self._survey_since_accepting
        self._time += weight
        self._elapsed_raw = 0.0 if raw_survey else self._elapsed_raw + weight
        self._elapsed_masked = 0.0 if unmasked else self._elapsed_masked + weight
        if view.next_f_inf[pick]:
            self._accepting_visited = True
            self._survey_since_accepting = raw_survey
            self.accepting_positions.append(position)
        elif raw_survey:
            self._survey_since_accepting = True

        self.prefix.append(p_next)

        subgoal_before = self.subgoal
        if self.subgoal == SURVEILLANCE and view.next_s_pi_inf[pick]:
            self.subgoal = MISSION
        if self.subgoal == MISSION and view.next_f_inf[pick]:
            self.subgoal = SURVEILLANCE

        return StepInfo(
            position,
            p_next,
            view.next_ts[pick],
            view.next_ba[pick],
            weight,
            self._time,
            subgoal_before,
            self.subgoal,
            attractions[pick],
            elapsed,
            flags[pick],
            raw_survey,
            view.candidates,
            tuple(attractions),
            scores,
        )


class CostEvaluator:
    """System-level cost of a move: potential plus indicated preference.

    Mirrors the planner's attraction on the raw system, ignoring the mission
    automaton entirely: local runs range over all system moves inside the
    visibility region, the indicator compares distances to surveyed states,
    and the preference grows with the weight since the latest surveyed
    position (since the start when there is none). Used for post-hoc
    reporting, not for control. The system, visibility range and horizon are
    those of ``local_runs``, usually the cache of the planner being reported
    on. ``surveillance_prop`` must be the label the cache's product was
    flagged from: one that disagrees with the product's ``surveillance``
    flags is refused with ``ContractError``.
    """

    def __init__(self, local_runs: LocalRunCache, preference, surveillance_prop: str):
        product = local_runs.product
        # the flags build_product sets: one per letter, gathered per state
        table = product.letters
        surveyed = table.holding(surveillance_prop)[table.letter_of[product.ts_of]]
        if not (surveyed == product.surveillance).all():
            raise ContractError(
                f"surveillance label {surveillance_prop!r} does not mark the states"
                " the product flags as surveyed"
            )
        self.preference = preference
        # least weight from each state to some surveyed state, infinite
        # everywhere when there is none, and each state's moves; both are
        # shared by every evaluator of the cache
        self._to_surveyed = local_runs.distance_to(surveillance_prop)
        self._moves_from = local_runs.moves_from

    def indicator(self, q: int, q_next: int) -> int:
        """1 when the move ``q -> q_next`` strictly shortens the least weight
        to some surveyed state, else 0."""
        return int(self._to_surveyed[q_next] < self._to_surveyed[q])

    def cost(self, q_k: int, chosen: int, scores: np.ndarray, elapsed: float) -> float:
        """The trade-off value of moving from ``q_k`` to ``chosen``, from the
        score table of ``q_k``'s fan (``StepInfo.scores``) and the weight
        since the latest surveyed position."""
        successors, moves, missing = self._moves_from(q_k)
        if chosen not in successors:
            raise ContractError("cost is defined only for successors")
        if missing:
            raise ContractError("a local run set must contain at least one run")
        # the first segments of a fan are its moves
        pots = scores[: len(moves)].tolist()
        pref_value = float(self.preference(elapsed, max(pots)))
        return pots[moves[chosen]] + self.indicator(q_k, chosen) * pref_value
