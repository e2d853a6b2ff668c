"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every test computes its verdict first, hands it to ``record_criterion`` (which
prints the line and queues it for the terminal summary), then asserts.  The
checks rebuild every claim from definitional oracles that live in the sibling
test modules; nothing here trusts the library's own analysis fields.
"""

import dataclasses
import math
import statistics
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from surplan.buchi import to_buchi
from surplan.cli import main as cli_main
from surplan.errors import MissionInfeasible
from surplan.ltl import canonical_letters
from surplan.planner import SURVEILLANCE, Planner
from surplan.product import (
    compute_indicators,
    compute_inf_sets,
    mission_distance,
    offline_phase,
    surveillance_distance,
    trim_product,
)
from surplan.rewards import (
    DecaySpawnDynamics,
    MaxSinglePotential,
    MaxSumPotential,
    RewardField,
    build_run_bundle,
    make_potential,
    make_preference,
)
from surplan.scenario import load_scenario
from surplan.sim import run_experiment

from conftest import (
    dijkstra_oracle_from,
    edges_from,
    move_weights,
    random_formula,
    random_product,
    random_ts,
    record_criterion,
)
from lasso_runs import lasso_acceptance_table, lasso_accepts
from lasso_semantics import formula_satisfied_on_lasso, semantic_lasso_table
from mission_checks import check_alternation, check_never_visits
from system_runs import local_runs, run_times
from test_product import distances_oracle, inf_sets_oracle, product_min_w_oracle
from test_rewards import pot_oracles

INF = math.inf
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
POT_NAMES = ("max-sum", "max-single")
PREF_NAMES = ("threshold", "cubic", "cube-root")


# -- criterion 1: automaton construction against direct word semantics -------


def _random_lasso(rng, letters, max_stem, max_loop):
    stem_len = int(rng.integers(0, max_stem + 1))
    loop_len = int(rng.integers(1, max_loop + 1))
    pick = lambda: letters[int(rng.integers(len(letters)))]
    return (
        tuple(pick() for _ in range(stem_len)),
        tuple(pick() for _ in range(loop_len)),
    )


def test_criterion_1_automata_agree_with_word_semantics():
    rng = np.random.default_rng(202601)
    table_entries = 0
    spot_checks = 0
    mismatches = 0
    formulas = 200
    for _ in range(formulas):
        props = ["a", "b", "c"][: int(rng.integers(1, 4))]
        formula = random_formula(rng, props, depth=int(rng.integers(1, 5)))
        ba = to_buchi(formula, props)
        semantic = semantic_lasso_table(formula, props, 3, 3)
        automaton = lasso_acceptance_table(ba, 3, 3)
        mismatches += int((semantic != automaton).sum())
        table_entries += semantic.size
        # tie the scalar entry points to the bulk tables on sampled words
        letters = canonical_letters(props)
        for _ in range(3):
            stem, loop = _random_lasso(rng, letters, 3, 3)
            direct = lasso_accepts(ba, stem, loop)
            truth = formula_satisfied_on_lasso(formula, stem, loop)
            mismatches += int(direct != truth)
            spot_checks += 1
    ok = mismatches == 0
    record_criterion(
        1,
        ok,
        f"{formulas} random formulas (depth <= 4, <= 3 propositions), all "
        f"lassos with |stem|,|loop| <= 3: {table_entries} acceptance verdicts "
        f"plus {spot_checks} direct spot checks, {mismatches} disagreements",
    )
    assert ok


# -- criteria 2 and 3: product analysis against definitional oracles ---------


@lru_cache(maxsize=1)
def _product_oracle_sweep():
    """120 random products with library and oracle analyses side by side."""
    rng = np.random.default_rng(202623)
    instances = []
    for _ in range(120):
        n = int(rng.integers(2, 41))
        product = random_product(rng, n, int(rng.integers(1, 3 * n + 1)))
        f_lib, s_lib = compute_inf_sets(product)
        f_ora, s_ora = inf_sets_oracle(product)
        w_pi_lib = surveillance_distance(product, s_lib)
        u_lib, v_lib = mission_distance(product, f_lib, w_pi_lib)
        w_pi_ora, u_ora, v_ora = distances_oracle(product, f_ora, s_ora)
        product.f_inf, product.s_pi_inf = f_lib, s_lib
        product.w_pi = w_pi_lib
        product.w_phi_u, product.w_phi_v = u_lib, v_lib
        product.ind_pi, product.ind_phi = compute_indicators(product)
        trimmed = trim_product(product)
        trimmed.ind_pi, trimmed.ind_phi = compute_indicators(trimmed)
        instances.append(
            (
                product,
                trimmed,
                (f_lib, s_lib, f_ora, s_ora),
                (w_pi_lib, u_lib, v_lib, w_pi_ora, u_ora, v_ora),
            )
        )
    return instances


def test_criterion_2_recurrent_sets_and_descent_guarantees():
    instances = _product_oracle_sweep()
    set_mismatches = 0
    descent_failures = 0
    descent_checks = 0
    nonempty = 0
    for product, trimmed, (f_lib, s_lib, f_ora, s_ora), _ in instances:
        if not (np.array_equal(f_lib, f_ora) and np.array_equal(s_lib, s_ora)):
            set_mismatches += 1
            continue
        if trimmed.n == 0:
            continue
        nonempty += 1
        # recompute everything on the pruned graph, then check that a strictly
        # shortening move exists wherever the planner will need one
        f_t, s_t = inf_sets_oracle(trimmed)
        w_pi_t, u_t, v_t = distances_oracle(trimmed, f_t, s_t)
        src = trimmed.edge_src
        dst = trimmed.edge_dst
        ind_pi_ora = w_pi_t[src] > w_pi_t[dst]
        ind_phi_ora = (u_t[src] > u_t[dst]) & (v_t[src] > v_t[dst])
        if not (
            np.array_equal(np.asarray(trimmed.ind_pi), ind_pi_ora)
            and np.array_equal(np.asarray(trimmed.ind_phi), ind_phi_ora)
        ):
            set_mismatches += 1
            continue
        for p in range(trimmed.n):
            successors = [int(dst[e]) for e in edges_from(trimmed, p)]
            if 0.0 < w_pi_t[p] < INF:
                descent_checks += 1
                if not any(w_pi_t[q] < w_pi_t[p] for q in successors):
                    descent_failures += 1
            if v_t[p] < INF and not f_t[p]:
                descent_checks += 1
                if not any(
                    u_t[q] < u_t[p] and v_t[q] < v_t[p] for q in successors
                ):
                    descent_failures += 1
    ok = set_mismatches == 0 and descent_failures == 0
    record_criterion(
        2,
        ok,
        f"{len(instances)} random products (<= 40 states): recurrent sets "
        f"match the component oracle exactly ({set_mismatches} mismatches); "
        f"shortening moves exist at all {descent_checks} required states "
        f"across {nonempty} nonempty trimmed products "
        f"({descent_failures} failures)",
    )
    assert ok


def test_criterion_3_distance_fields_match_double_loop_oracles():
    instances = _product_oracle_sweep()
    mismatches = 0
    for _, _, _, dists in instances:
        w_pi_lib, u_lib, v_lib, w_pi_ora, u_ora, v_ora = dists
        if not (
            np.array_equal(w_pi_lib, w_pi_ora)
            and np.array_equal(u_lib, u_ora)
            and np.array_equal(v_lib, v_ora)
        ):
            mismatches += 1
    ok = mismatches == 0
    record_criterion(
        3,
        ok,
        f"surveillance and mission distances equal the definitional "
        f"double-loop oracles exactly on all {len(instances)} instances "
        f"({mismatches} mismatches)",
    )
    assert ok


# -- criterion 4: every long run satisfies the mission ------------------------


def _core_visits_bounded(positions, iterations, bound):
    """First visit within warm-up plus bound, then every gap within bound."""
    if not positions:
        return False
    if positions[0] > 2.0 * bound:
        return False
    if any(b - a > bound for a, b in zip(positions, positions[1:])):
        return False
    return iterations - positions[-1] <= bound


def test_criterion_4_long_runs_satisfy_the_mission():
    base = load_scenario(
        SCENARIO_DIR / "default_grid.ini", {"seed": 11, "runs": 5, "iterations": 1000}
    )
    offline = offline_phase(base.ts, base.formula, base.surveillance_prop)
    trimmed = offline.trimmed
    min_w = np.array(product_min_w_oracle(trimmed))
    finite = min_w[np.isfinite(min_w)]
    diameter = float(finite.max())
    # One accepting-core cycle is two legs, and the step preference lets each
    # leg idle for up to the full 50-weight threshold before its descent: the
    # surveillance leg waits on the raw elapsed weight (reset at the core
    # visit itself), the mission leg on the masked elapsed weight (reset only
    # at the one survey that counts between core visits). The threshold
    # therefore budgets twice per cycle, plus a diameter for the travel.
    bound = (2.0 * 50.0 + diameter) / float(trimmed.edge_weight.min())
    passed = 0
    total = 0
    largest_gap = 0
    failures = []
    for pot in POT_NAMES:
        for pref in PREF_NAMES:
            scenario = dataclasses.replace(
                base, potential_name=pot, preference_name=pref
            )
            result = run_experiment(scenario, offline=offline)
            for run in result.runs:
                total += 1
                unsafe = check_never_visits(run.records, base.ts, "u")
                mixed = check_alternation(run.records, base.ts, "a", "b")
                positions = run.accepting_positions
                recurrent = _core_visits_bounded(
                    positions, scenario.iterations, bound
                )
                largest_gap = max(
                    largest_gap,
                    max(
                        (b - a for a, b in zip(positions, positions[1:])),
                        default=0,
                    ),
                )
                if not unsafe and not mixed and recurrent:
                    passed += 1
                else:
                    failures.append(f"{pot}/{pref} run {run.index}")
    ok = passed == total == 30
    record_criterion(
        4,
        ok,
        f"{passed}/{total} runs of 1000 steps (6 potential/preference pairs "
        f"x 5 runs) avoid unsafe states, alternate transmissions strictly, "
        f"and revisit the accepting core within {bound:.1f} steps (threshold "
        f"waited once per subgoal leg plus the {diameter:.0f}-weight product "
        f"diameter; largest observed gap {largest_gap})"
        + (f"; failing: {', '.join(failures)}" if failures else ""),
    )
    assert ok


# -- criterion 5: preference urgency orders the aggregate metrics ------------


def test_criterion_5_preference_orderings_across_seeds():
    base = load_scenario(SCENARIO_DIR / "default_grid.ini", {"runs": 5, "iterations": 100})
    offline = offline_phase(base.ts, base.formula, base.surveillance_prop)
    seeds = (101, 202, 303, 404, 505)
    verdicts = []
    notes = []
    for seed in seeds:
        seed_ok = True
        for pot in POT_NAMES:
            by_pref = {}
            for pref in PREF_NAMES:
                scenario = dataclasses.replace(
                    base, seed=seed, potential_name=pot, preference_name=pref
                )
                result = run_experiment(scenario, offline=offline)
                by_pref[pref] = (
                    result.stats.inter_survey_time.avg,
                    result.stats.reward_per_transition.avg,
                )
            t1, r1 = by_pref["threshold"]
            t2, _ = by_pref["cubic"]
            t3, r3 = by_pref["cube-root"]
            if not (t1 > t2 > t3 and r3 < r1):
                seed_ok = False
                notes.append(
                    f"seed {seed}/{pot}: t {t1:.1f},{t2:.1f},{t3:.1f} "
                    f"r/T {r1:.1f},{r3:.1f}"
                )
        verdicts.append(seed_ok)
    ok = sum(verdicts) >= 4
    record_criterion(
        5,
        ok,
        f"{sum(verdicts)}/5 seeds show inter-survey time strictly falling "
        f"from the threshold to the cubic to the cube-root preference and "
        f"reward per transition lower under the cube-root preference, for "
        f"both potentials (5 runs x 100 steps each)"
        + (f"; off-trend: {'; '.join(notes)}" if notes else ""),
    )
    assert ok


# -- criterion 6: scoring functions against brute-force enumeration ----------


def test_criterion_6_scoring_functions_unit_suite():
    rng = np.random.default_rng(20266)
    problems = []
    pref1 = make_preference("threshold", threshold=50.0)
    pref2 = make_preference("cubic", threshold=50.0)
    pref3 = make_preference("cube-root", threshold=50.0)
    for _ in range(25):
        m = float(rng.uniform(0.0, 400.0))
        if pref2(50.0, m) != m:
            problems.append(f"cubic ramp at the threshold is not {m}")
        if pref3(50.0, m) != m:
            problems.append(f"cube-root ramp at the threshold is not {m}")
        if pref1(50.0, m) != 0.0:
            problems.append("threshold preference fires at the threshold")
        if pref1(50.0 + 1e-9, m) != m + 1.0:
            problems.append("threshold preference does not dominate past it")
    fields = 0
    for _ in range(6):
        ts = random_ts(rng, int(rng.integers(3, 7)), extra_edges=6)
        v, h = 4.0, 7.0
        for q_k in range(ts.n):
            distance = dijkstra_oracle_from(ts.n, move_weights(ts), q_k)
            for q in ts.successors(q_k):
                if distance[q] > v:
                    continue
                runs = [
                    (r.states, run_times(ts, r)) for r in local_runs(ts, q, q_k, v, h)
                ]
                if not runs:
                    continue
                bundle = build_run_bundle(runs, lambda s: s, leaving_ts_state=q_k)
                for _ in range(2):
                    values = np.round(rng.random(ts.n) * 60.0)
                    exp_sum, exp_single = pot_oracles(ts, q_k, q, v, h, values, 15.0)
                    got_sum = MaxSumPotential(15.0).evaluate(bundle, values)
                    got_single = MaxSinglePotential().evaluate(bundle, values)
                    if abs(got_sum - exp_sum) > 1e-9:
                        problems.append(f"sum potential off by {got_sum - exp_sum}")
                    if abs(got_single - exp_single) > 1e-9:
                        problems.append(
                            f"single potential off by {got_single - exp_single}"
                        )
                    fields += 1
    ok = not problems and fields >= 50
    record_criterion(
        6,
        ok,
        f"ramp preferences equal the potential bound exactly at the "
        f"threshold, the step preference stays zero there and dominates "
        f"just past it; both potentials match brute-force enumeration on "
        f"{fields} random local fields at 1e-9"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )
    assert ok


# -- criterion 7: chosen moves maximize the surveillance trade-off -----------


def _literal_runs_from(trimmed, allowed, origin, entry, horizon):
    """Every run from ``origin`` that stays on allowed states with run weight
    plus ``entry`` within the horizon, projected to system states."""
    ts_of = trimmed.ts_of
    runs = []
    if not allowed[origin] or entry > horizon:
        return runs

    def extend(states, cums):
        runs.append(([int(ts_of[p]) for p in states], list(cums)))
        for e in edges_from(trimmed, states[-1]):
            nxt = int(trimmed.edge_dst[e])
            if not allowed[nxt]:
                continue
            total = cums[-1] + float(trimmed.edge_weight[e])
            if total + entry <= horizon:
                states.append(nxt)
                cums.append(total)
                extend(states, cums)
                states.pop()
                cums.pop()

    extend([origin], [0.0])
    return runs


def _literal_potential(runs, q_k, values, name, refresh):
    best_sum = -INF
    best_single = 0.0
    for states, cums in runs:
        total = 0.0
        for i, q in enumerate(states):
            gain = values[q] - cums[i]
            if gain > 0 and q != q_k and q not in states[:i]:
                total += gain
                best_single = max(best_single, gain)
            else:
                total += refresh if name == "max-sum" else 0.0
        best_sum = max(best_sum, total)
    return best_sum if name == "max-sum" else best_single


def _drive_checking_surveillance_optimality(offline, scenario, run_seed, cache):
    trimmed = offline.trimmed
    ts = offline.ts
    rng = np.random.default_rng(run_seed)
    potential = make_potential(
        scenario.potential_name, refresh_value=scenario.refresh_value
    )
    preference = make_preference(
        scenario.preference_name, threshold=scenario.preference_threshold
    )
    dynamics = DecaySpawnDynamics(rng, scenario.spawn_probability)
    field = RewardField(ts.n)
    dynamics.burn_in(field, scenario.burn_in)
    planner = Planner(
        offline, potential, preference, scenario.visibility, scenario.horizon, rng
    )
    elapsed = 0.0
    checked = 0
    violations = 0
    for _ in range(scenario.iterations):
        p_k = planner.current
        subgoal = planner.subgoal
        values = field.values.copy()
        info = planner.step(field)
        if subgoal == SURVEILLANCE:
            q_k = int(trimmed.ts_of[p_k])
            scores = []
            pots = []
            flags = []
            targets = []
            for e in edges_from(trimmed, p_k):
                runs = cache.get(e)
                if runs is None:
                    visible = (
                        np.array(dijkstra_oracle_from(ts.n, move_weights(ts), q_k))
                        <= scenario.visibility
                    )
                    runs = _literal_runs_from(
                        trimmed,
                        visible[np.asarray(trimmed.ts_of)],
                        int(trimmed.edge_dst[e]),
                        float(trimmed.edge_weight[e]),
                        scenario.horizon,
                    )
                    cache[e] = runs
                assert runs, "planner candidates must carry at least one run"
                pots.append(
                    _literal_potential(
                        runs, q_k, values, scenario.potential_name,
                        scenario.refresh_value,
                    )
                )
                flags.append(bool(trimmed.ind_pi[e]))
                targets.append(int(trimmed.edge_dst[e]))
            bonus = float(preference(elapsed, max(pots)))
            scores = [p + (bonus if f else 0.0) for p, f in zip(pots, flags)]
            chosen = scores[targets.index(info.product_state)]
            checked += 1
            if chosen < max(scores) - 1e-9:
                violations += 1
        dynamics.on_collect(field, info.ts_state)
        dynamics.evolve(field, info.weight)
        surveyed = scenario.surveillance_prop in ts.labels[info.ts_state]
        elapsed = 0.0 if surveyed else elapsed + info.weight
    return checked, violations


def test_criterion_7_surveillance_steps_maximize_the_trade_off():
    base = load_scenario(SCENARIO_DIR / "default_grid.ini")
    offline = offline_phase(base.ts, base.formula, base.surveillance_prop)
    assert offline.accepting_label_condition
    cache = {}
    checked = 0
    violations = 0
    for idx in range(10):
        pot, pref = ("max-sum", "threshold") if idx < 5 else ("max-single", "cube-root")
        scenario = dataclasses.replace(
            base, potential_name=pot, preference_name=pref
        )
        c, v = _drive_checking_surveillance_optimality(
            offline, scenario, [727, idx], cache
        )
        checked += c
        violations += v
    ok = violations == 0 and checked >= 200
    record_criterion(
        7,
        ok,
        f"{checked} surveillance-subgoal decisions across 10 full runs all "
        f"attain the maximum trade-off value over trimmed successors "
        f"(independent enumeration and scoring; {violations} violations)",
    )
    assert ok


# -- criterion 8: wall-clock budgets ------------------------------------------


def test_criterion_8_offline_and_online_budgets():
    base = load_scenario(SCENARIO_DIR / "default_grid.ini")
    started = time.perf_counter()
    offline = offline_phase(base.ts, base.formula, base.surveillance_prop)
    offline_seconds = time.perf_counter() - started
    scenario = dataclasses.replace(base, runs=1, iterations=100)
    result = run_experiment(scenario, offline=offline)
    median_step = statistics.median(result.step_seconds)
    ok = offline_seconds <= 30.0 and median_step <= 0.05
    record_criterion(
        8,
        ok,
        f"offline phase {offline_seconds:.2f}s on the "
        f"{offline.product.n}-state product (budget 30s); online step "
        f"median {median_step * 1000.0:.2f}ms (budget 50ms)",
    )
    assert ok


# -- criterion 9: infeasible missions are reported, not planned --------------


def test_criterion_9_infeasible_mission_reported_exactly(capsys):
    path = SCENARIO_DIR / "infeasible.ini"
    scenario = load_scenario(path)
    offline = offline_phase(scenario.ts, scenario.formula, scenario.surveillance_prop)
    problems = []
    if offline.feasible:
        problems.append("offline phase reports the mission as feasible")
    if bool(offline.product.f_inf.any()):
        problems.append("the recurrent accepting set is not empty")
    if offline.trimmed.n != 0:
        problems.append("the trimmed product is not empty")
    with pytest.raises(MissionInfeasible) as caught:
        run_experiment(scenario, offline=offline)
    if str(caught.value) != "Mission cannot be accomplished.":
        problems.append(f"unexpected message {str(caught.value)!r}")
    code = cli_main(["check", str(path)])
    out = capsys.readouterr().out
    if code != 1:
        problems.append(f"check exit code {code}, expected 1")
    if "Mission cannot be accomplished." not in out:
        problems.append("check output lacks the exact infeasibility line")
    ok = not problems
    record_criterion(
        9,
        ok,
        "unsatisfiable mission yields an empty recurrent accepting set and "
        "the exact 'Mission cannot be accomplished.' line from both the "
        "library and the command line"
        + (f"; problems: {problems}" if problems else ""),
    )
    assert ok
