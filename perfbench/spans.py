"""Spans around surplan's public functions, for the traced run only.

The tracer replaces module functions and methods with wrappers that record
(name, start, end, parent, detail) and restores the originals afterwards.
Each function is patched where its callers look it up: ``to_buchi`` and
``min_weight_matrix`` in ``surplan.product``, the local-run helpers in
``surplan.planner``, and so on. Parents let the per-layer numbers tell work
done under ``Planner.step`` from work done under ``CostEvaluator.cost`` and
give self times.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from surplan import planner, product, rewards, scenario, sim, ts

STEP = "Planner.step"
COST = "CostEvaluator.cost"


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _ties(info) -> bool:
    best = max(info.attractions)
    return sum(1 for a in info.attractions if a >= best - planner.ATTRACTION_TIE_TOLERANCE) > 1


def _bundle_detail(args, bundle):
    runs, _, leaving = args
    # the first enumerated run is the zero-length run at the bundle's origin
    return (leaving, runs[0][0][0]), bundle.ts_states.size


def _sizes(args, graph):
    return graph.n, len(graph.edge_src)


class Tracer:
    """Keeps spans in memory; ``installed()`` patches surplan while active."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, detail=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if detail is not None:
                span[4] = detail(args, result)
            return result

        return traced

    def installed(self):
        targets = [
            (scenario, "load_scenario", "load_scenario", None),
            (ts, "min_weight_matrix", "ts.min_weight_matrix", None),
            (product, "offline_phase", "offline_phase", None),
            (product, "to_buchi", "to_buchi", lambda a, ba: (ba.n_states, 2 ** len(ba.propositions))),
            (product, "build_product", "build_product", _sizes),
            (product, "min_weight_matrix", "product.min_weight_matrix", None),
            (product, "compute_inf_sets", "compute_inf_sets", None),
            (product, "surveillance_distance", "surveillance_distance", None),
            (product, "mission_distance", "mission_distance", None),
            (product, "trim_product", "trim_product", _sizes),
            (product, "compute_indicators", "compute_indicators", None),
            (product, "verify_descent", "verify_descent", None),
            (planner, "enumerate_budget_runs", "enumerate_budget_runs", lambda a, runs: len(runs)),
            (planner, "build_run_bundle", "build_run_bundle", _bundle_detail),
            (planner.Planner, "step", STEP, lambda a, info: info),
            (planner.Planner, "alpha", "Planner.alpha", None),
            (planner.CostEvaluator, "cost", COST, None),
            (rewards.DecaySpawnDynamics, "evolve", "dynamics", None),
            (rewards.DecaySpawnDynamics, "on_collect", "dynamics", None),
            (rewards.DecaySpawnDynamics, "burn_in", "dynamics", None),
            (sim, "run_experiment", "run_experiment", None),
            (
                sim,
                "emit_outputs",
                "emit_outputs",
                lambda a, paths: sum(Path(p).stat().st_size for p in paths.values()),
            ),
        ]
        targets += [
            (cls, "evaluate", "potential.evaluate", None)
            for cls in set(rewards.POTENTIALS.values())
        ]
        return patched(
            [
                (owner, attr, self.wrap(name, getattr(owner, attr), detail))
                for owner, attr, name, detail in targets
            ]
        )

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def write_spans(spans: list[list], path: Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "name", "start", "end", "parent"])
        for i, (name, start, end, parent, _) in enumerate(spans):
            writer.writerow([i, name, repr(start), repr(end), parent])


def step_infos(spans: list[list]) -> list:
    """The StepInfo of every decision in the spans."""
    return [detail for name, _, _, _, detail in spans if name == STEP]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals, self times and counts of one round's spans."""
    n = len(spans)
    context: list[str | None] = [None] * n
    children = [0.0] * n
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += end - start
        if name in (STEP, COST):
            context[i] = name
        elif parent >= 0:
            context[i] = context[parent]

    total: dict[tuple, float] = defaultdict(float)
    own: dict[tuple, float] = defaultdict(float)
    calls: dict[tuple, int] = defaultdict(int)
    details: dict[tuple, list] = defaultdict(list)
    for i, (name, start, end, _, detail) in enumerate(spans):
        key = (name, context[i])
        total[key] += end - start
        own[key] += end - start - children[i]
        calls[key] += 1
        if detail is not None:
            details[key].append(detail)

    def t(name, ctx=None):
        return total[(name, ctx)]

    def last(name, ctx=None):
        return details[(name, ctx)][-1]

    step_bundles = details[("build_run_bundle", STEP)]
    infos = details[(STEP, STEP)]
    evaluations = calls[("potential.evaluate", STEP)]
    builds = calls[("build_run_bundle", STEP)]
    return {
        "scenario.load_s": t("load_scenario"),
        "ts.min_weights_s": t("ts.min_weight_matrix"),
        "buchi.to_buchi_s": t("to_buchi"),
        "buchi.states": last("to_buchi")[0],
        "buchi.letters": last("to_buchi")[1],
        "product.build_s": t("build_product"),
        "product.states": last("build_product")[0],
        "product.edges": last("build_product")[1],
        "product.all_pairs_s": t("product.min_weight_matrix"),
        "product.inf_sets_self_s": own[("compute_inf_sets", None)],
        "product.surveillance_distance_s": t("surveillance_distance"),
        "product.mission_distance_s": t("mission_distance"),
        "product.trim_s": t("trim_product") + t("compute_indicators") + t("verify_descent"),
        "product.trimmed_states": last("trim_product")[0],
        "product.trimmed_edges": last("trim_product")[1],
        "ts.enumerate.planner_s": t("enumerate_budget_runs", STEP),
        "rewards.bundle.planner_s": t("build_run_bundle", STEP),
        "planner.bundle_builds": builds,
        "planner.distinct_bundle_keys": len({key for key, _ in step_bundles}),
        "planner.bundle_hit_ratio": (evaluations - builds) / evaluations if evaluations else 0.0,
        "ts.runs_enumerated": sum(details[("enumerate_budget_runs", STEP)]),
        "rewards.bundle_cells": sum(cells for _, cells in step_bundles),
        "ts.enumerate.cost_s": t("enumerate_budget_runs", COST),
        "rewards.bundle.cost_s": t("build_run_bundle", COST),
        "rewards.potential.cost_s": t("potential.evaluate", COST),
        "planner.cost_bundle_builds": calls[("build_run_bundle", COST)],
        "planner.cost_self_s": own[(COST, COST)],
        "rewards.potential_s": t("potential.evaluate", STEP),
        "rewards.potential_calls": evaluations,
        "planner.step_self_s": own[(STEP, STEP)],
        "planner.alpha_s": t("Planner.alpha"),
        "rewards.dynamics_s": t("dynamics"),
        "planner.ties": sum(1 for info in infos if _ties(info)),
        "planner.zero_attraction_steps": sum(1 for info in infos if max(info.attractions) == 0.0),
        "sim.run_self_s": own[("run_experiment", None)],
        "sim.emit_s": t("emit_outputs"),
        "sim.output_bytes": last("emit_outputs"),
    }
