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

import dataclasses

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


@dataclasses.dataclass(frozen=True)
class StepInfo:
    """Everything observable about one planning step. ``scores`` is the
    decision's score table: the potential of every segment of the fan of the
    system state left."""

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
    # an array, so left out of equality and hashing
    scores: np.ndarray = dataclasses.field(compare=False)


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
        product = offline.trimmed
        if (
            product.initial is None
            or product.f_inf is None
            or not product.f_inf.any()
        ):
            raise MissionInfeasible(INFEASIBLE_MESSAGE)
        if product.ind_pi is None or product.ind_phi is None:
            raise ContractError("product must carry shortening indicators")
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
        product = self.product
        p_k = self.current
        first, stop = product.edge_ptr[p_k : p_k + 2].tolist()
        dsts = product.edge_dst[first:stop].tolist()
        scores = self.local_runs.scores(product.ts_of[p_k].item(), self.potential, field.values)
        pots = scores[self.local_runs.edge_segments(p_k)].tolist()
        max_pot = max(pots)
        # the active subgoal's elapsed weight, shortening indicator and target set
        if self.subgoal == SURVEILLANCE:
            elapsed, indicator, subgoal_set = self._elapsed_raw, product.ind_pi, product.s_pi_inf
        else:
            elapsed, indicator, subgoal_set = self._elapsed_masked, product.ind_phi, product.f_inf
        flags = indicator[first:stop].tolist()
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
            if not subgoal_set[p_k]:
                marked = [i for i in ties if flags[i]]
                if marked:
                    ties = marked
        if len(ties) == 1:
            pick = ties[0]
        else:
            pick = ties[int(self.rng.integers(len(ties)))]
        p_next = dsts[pick]
        weight = product.edge_weight[first + pick].item()

        position = len(self.prefix)
        raw_survey = product.surveillance[p_next].item()
        unmasked = raw_survey and self._accepting_visited and not self._survey_since_accepting
        self._time += weight
        self._elapsed_raw = 0.0 if raw_survey else self._elapsed_raw + weight
        self._elapsed_masked = 0.0 if unmasked else self._elapsed_masked + weight
        if product.f_inf[p_next]:
            self._accepting_visited = True
            self._survey_since_accepting = raw_survey
            self.accepting_positions.append(position)
        elif raw_survey:
            self._survey_since_accepting = True

        self.prefix.append(p_next)

        subgoal_before = self.subgoal
        if self.subgoal == SURVEILLANCE and product.s_pi_inf[p_next]:
            self.subgoal = MISSION
        if self.subgoal == MISSION and product.f_inf[p_next]:
            self.subgoal = SURVEILLANCE

        return StepInfo(
            step=position,
            product_state=p_next,
            ts_state=product.ts_of[p_next].item(),
            ba_state=product.ba_of[p_next].item(),
            weight=weight,
            time=self._time,
            subgoal_before=subgoal_before,
            subgoal_after=self.subgoal,
            attraction=attractions[pick],
            elapsed_used=elapsed,
            indicator=flags[pick],
            survey=raw_survey,
            candidates=tuple(dsts),
            attractions=tuple(attractions),
            scores=scores,
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
    on.
    """

    def __init__(self, local_runs: LocalRunCache, preference, surveillance_prop: str):
        self.ts = local_runs.ts
        self.preference = preference
        self.local_runs = local_runs
        # least weight from each state to some surveyed state, infinite
        # everywhere when there is none, shared by every evaluator of the cache
        self._to_surveyed = local_runs.distance_to(surveillance_prop)

    def indicator(self, q: int, q_next: int) -> int:
        """1 when the move ``q -> q_next`` strictly shortens the least weight
        to some surveyed state, else 0."""
        return int(self._to_surveyed[q_next] < self._to_surveyed[q])

    def cost(self, q_k: int, chosen: int, scores: np.ndarray, elapsed: float) -> float:
        """The trade-off value of moving from ``q_k`` to ``chosen``, from the
        score table of ``q_k``'s fan (``StepInfo.scores``) and the weight
        since the latest surveyed position."""
        # as a list: `in` on a small numpy array costs microseconds per step
        successors = self.ts.successors(q_k).tolist()
        if chosen not in successors:
            raise ContractError("cost is defined only for successors")
        moves = self.local_runs.fan(q_k).moves
        if len(moves) < len(successors):
            raise ContractError("a local run set must contain at least one run")
        # the first segments of a fan are its moves
        pots = scores[: len(moves)]
        pref_value = float(self.preference(elapsed, float(pots.max())))
        return float(pots[moves[chosen]]) + self.indicator(q_k, chosen) * pref_value
