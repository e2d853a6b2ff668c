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

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .errors import ContractError, MissionInfeasible
from .localruns import LocalRunCache
from .product import OfflineResult, ProductAutomaton
from .rewards import RewardField
# unused here; perfbench/spans.py patches both on this module
from .rewards import build_run_bundle  # noqa: F401
from .ts import TransitionSystem, enumerate_budget_runs  # noqa: F401

SURVEILLANCE = "surveillance"
MISSION = "mission"

INFEASIBLE_MESSAGE = "Mission cannot be accomplished."

ATTRACTION_TIE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StepInfo:
    """Everything observable about one planning step."""

    step: int
    product_state: int
    ts_state: int
    ba_state: int
    weight: float
    time: float
    subgoal_before: str
    subgoal_after: str
    attraction: float
    potential: float
    max_potential: float
    preference: float
    elapsed_used: float
    indicator: bool
    survey: bool
    unmasked_survey: bool
    candidates: tuple[int, ...]
    attractions: tuple[float, ...]


class Planner:
    """Stateful controller for one run over a trimmed product."""

    def __init__(
        self,
        offline: OfflineResult | ProductAutomaton,
        potential,
        preference,
        visibility: float,
        horizon: float,
        rng: np.random.Generator,
    ):
        product = offline.trimmed if isinstance(offline, OfflineResult) else offline
        if (
            product.initial is None
            or product.f_inf is None
            or not product.f_inf.any()
        ):
            raise MissionInfeasible(INFEASIBLE_MESSAGE)
        if product.ind_pi is None or product.ind_phi is None:
            raise ContractError("product must carry shortening indicators")
        if horizon < product.ts.max_weight:
            raise ContractError(
                "planning horizon must be at least the largest transition weight"
            )
        if visibility <= 0:
            raise ContractError("visibility range must be positive")
        self.product = product
        self.ts = product.ts
        self.potential = potential
        self.preference = preference
        self.visibility = float(visibility)
        self.horizon = float(horizon)
        self.rng = rng

        self.prefix: list[int] = [product.initial]
        self.times: list[float] = [0.0]
        self.subgoal = SURVEILLANCE
        self.survey_flags: list[bool] = [bool(product.surveillance[product.initial])]
        self.unmasked_flags: list[bool] = [False]
        self.accepting_positions: list[int] = (
            [0] if product.f_inf[product.initial] else []
        )

        self.local_runs = (
            offline.local_run_cache(visibility, horizon)
            if isinstance(offline, OfflineResult)
            else LocalRunCache(product.ts, product, visibility, horizon)
        )

        # decisions with more than one candidate within the tie tolerance of
        # the best, and decisions whose best attraction was exactly zero
        self.tied_steps = 0
        self.zero_attraction_steps = 0

        self._elapsed_raw = 0.0
        self._elapsed_masked = 0.0
        self._last_accepting: int | None = 0 if product.f_inf[product.initial] else None
        self._survey_since_accepting = self.survey_flags[0]

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

    def alpha_bar(self) -> list[tuple[int, frozenset]]:
        """The executed prefix with surveillance labels masked.

        A position keeps the surveillance label only when some earlier
        position visited the recurrent accepting set and no position from
        that visit (inclusive) up to this one (exclusive) carries the raw
        label. Computed from scratch by the definition; the planner's
        incremental elapsed-weight bookkeeping is checked against this in the
        test suite.
        """
        product = self.product
        sur = [bool(product.surveillance[p]) for p in self.prefix]
        accepting = [bool(product.f_inf[p]) for p in self.prefix]
        out: list[tuple[int, frozenset]] = []
        for i, p in enumerate(self.prefix):
            q = int(product.ts_of[p])
            labels = self.ts.label(q)
            if sur[i]:
                kept = any(
                    accepting[j] and not any(sur[j:i]) for j in range(i)
                )
                if not kept:
                    labels = labels - {product.surveillance_prop}
            out.append((q, labels))
        return out

    def attraction(self, successor: int, field: RewardField) -> float:
        """Attraction of one successor of the current state, per the active
        subgoal."""
        p_k = self.current
        candidates = self.product.edge_dst[self.product.edges_from(p_k)].tolist()
        if successor not in candidates:
            raise ContractError("attraction is defined only for successors")
        attractions, _, _, _, _ = self._attractions(p_k, field)
        return attractions[candidates.index(successor)]

    # -- stepping ----------------------------------------------------------

    def _attractions(
        self, p_k: int, field: RewardField
    ) -> tuple[list[float], list[float], float, float, float]:
        product = self.product
        edges = product.edges_from(p_k)
        pots = [
            self.potential.evaluate(self.local_runs.for_edge(e), field.values)
            for e in edges
        ]
        max_pot = max(pots)
        elapsed = (
            self._elapsed_raw if self.subgoal == SURVEILLANCE else self._elapsed_masked
        )
        pref_value = float(self.preference(elapsed, max_pot))
        indicator = (
            product.ind_pi if self.subgoal == SURVEILLANCE else product.ind_phi
        )
        attractions = [
            pots[i] + (pref_value if indicator[e] else 0.0)
            for i, e in enumerate(edges)
        ]
        return attractions, pots, max_pot, pref_value, elapsed

    def step(self, field: RewardField) -> StepInfo:
        """Choose and commit the next product state; the caller then collects
        the reward at the returned state and evolves the field by the
        returned weight."""
        product = self.product
        p_k = self.current
        q_k = int(product.ts_of[p_k])
        edges = product.edges_from(p_k)
        attractions, pots, max_pot, pref_value, elapsed = self._attractions(
            p_k, field
        )
        indicator = (
            product.ind_pi if self.subgoal == SURVEILLANCE else product.ind_phi
        )

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
            subgoal_set = (
                product.s_pi_inf if self.subgoal == SURVEILLANCE else product.f_inf
            )
            if not subgoal_set[p_k]:
                marked = [i for i in ties if indicator[edges[i]]]
                if marked:
                    ties = marked
        if len(ties) == 1:
            pick = ties[0]
        else:
            pick = ties[int(self.rng.integers(len(ties)))]
        chosen_edge = edges[pick]
        p_next = int(product.edge_dst[chosen_edge])
        weight = float(product.edge_weight[chosen_edge])

        position = len(self.prefix)
        raw_survey = bool(product.surveillance[p_next])
        unmasked = (
            raw_survey
            and self._last_accepting is not None
            and not self._survey_since_accepting
        )
        self._elapsed_raw = 0.0 if raw_survey else self._elapsed_raw + weight
        self._elapsed_masked = 0.0 if unmasked else self._elapsed_masked + weight
        if product.f_inf[p_next]:
            self._last_accepting = position
            self._survey_since_accepting = raw_survey
            self.accepting_positions.append(position)
        elif raw_survey:
            self._survey_since_accepting = True

        self.prefix.append(p_next)
        self.times.append(self.times[-1] + weight)
        self.survey_flags.append(raw_survey)
        self.unmasked_flags.append(unmasked)

        subgoal_before = self.subgoal
        if self.subgoal == SURVEILLANCE and product.s_pi_inf[p_next]:
            self.subgoal = MISSION
        if self.subgoal == MISSION and product.f_inf[p_next]:
            self.subgoal = SURVEILLANCE

        return StepInfo(
            step=position,
            product_state=p_next,
            ts_state=int(product.ts_of[p_next]),
            ba_state=int(product.ba_of[p_next]),
            weight=weight,
            time=self.times[-1],
            subgoal_before=subgoal_before,
            subgoal_after=self.subgoal,
            attraction=float(attractions[pick]),
            potential=float(pots[pick]),
            max_potential=float(max_pot),
            preference=pref_value,
            elapsed_used=float(elapsed),
            indicator=bool(indicator[chosen_edge]),
            survey=raw_survey,
            unmasked_survey=unmasked,
            candidates=tuple(int(product.edge_dst[e]) for e in edges),
            attractions=tuple(float(a) for a in attractions),
        )


class CostEvaluator:
    """System-level cost of a move: potential plus indicated preference.

    Mirrors the planner's attraction on the raw system, ignoring the mission
    automaton entirely: local runs range over all system moves inside the
    visibility region, the indicator compares distances to surveyed states,
    and elapsed weight counts from the latest surveyed position of the given
    prefix (from its start when none). Used for post-hoc reporting, not for
    control. ``local_runs`` shares a planner's local-run cache; by default the
    evaluator keeps its own.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        potential,
        preference,
        visibility: float,
        horizon: float,
        surveillance_prop: str = "sur",
        local_runs: LocalRunCache | None = None,
    ):
        if local_runs is None:
            local_runs = LocalRunCache(ts, None, visibility, horizon)
        elif (local_runs.ts, local_runs.visibility, local_runs.horizon) != (ts, visibility, horizon):
            raise ContractError("a shared local-run cache must match the evaluator")
        self.ts = ts
        self.potential = potential
        self.preference = preference
        self.visibility = float(visibility)
        self.horizon = float(horizon)
        self.local_runs = local_runs
        self.surveyed = [
            q for q in range(ts.n) if surveillance_prop in ts.label(q)
        ]
        self._surveyed = frozenset(self.surveyed)
        # least weight from each state to some surveyed state, infinite
        # everywhere when there is none: one search backwards from all of them
        self._to_surveyed = dijkstra(ts.graph.T.tocsr(), indices=self.surveyed, min_only=True)

    def indicator(self, q: int, q_next: int) -> int:
        """1 when the move ``q -> q_next`` strictly shortens the least weight
        to some surveyed state, else 0."""
        return int(self._to_surveyed[q_next] < self._to_surveyed[q])

    def elapsed(self, prefix: Sequence[int]) -> float:
        """Weight accumulated since the latest surveyed state of the prefix."""
        total = 0.0
        for i in range(len(prefix) - 1, 0, -1):
            if prefix[i] in self._surveyed:
                return total
            total += self.ts.weight(prefix[i - 1], prefix[i])
        return total

    def cost(self, prefix: Sequence[int], chosen: int, field: RewardField) -> float:
        """The trade-off value of moving from the prefix's end to ``chosen``."""
        q_k = prefix[-1]
        bundle = self.local_runs.system_bundle
        pots = {
            q: self.potential.evaluate(bundle(q_k, q), field.values)
            for q in self.ts.successors(q_k)
        }
        if chosen not in pots:
            raise ContractError("cost is defined only for successors")
        pref_value = float(self.preference(self.elapsed(prefix), max(pots.values())))
        return pots[chosen] + self.indicator(q_k, chosen) * pref_value
