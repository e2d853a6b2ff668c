"""Automaton construction: language correctness, witnesses, determinism."""

import hashlib
import os
from collections import Counter
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surplan

from surplan.buchi import (
    BuchiAutomaton,
    _Closure,
    _combine,
    _obligation_automaton,
    _state_choices,
    to_buchi,
    until_like_subformulas,
)
from surplan.errors import ContractError, ValidationError
from surplan.scenario import load_scenario
from surplan import ltl
from surplan.ltl import And, Atom, Eventually, Next, atoms, canonical_letters, nnf, parse

from automaton_views import successors, to_text, transitions
from buchi_reference import (
    _debt_mask,
    decoded_choices,
    letter_edges,
    reference_state_choices,
    reference_to_buchi,
)
from conftest import _state_successors, random_formula, random_formula_cases
from lasso_semantics import enumerate_lassos, formula_satisfied_on_lasso, semantic_lasso_table
from lasso_runs import find_accepting_lasso_run, lasso_acceptance_table, lasso_accepts

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the 7-proposition patrol mission of the benchmark's large_mission workload
LARGE_MISSION = "G F p1 & G F p2 & G F p3 & G F p4 & G F p5 & G !u & G F sur"
LARGE_MISSION_PROPS = ["p1", "p2", "p3", "p4", "p5", "u", "sur"]
# the same mission over 8 propositions (256 letters)
WIDE_MISSION = "G F p1 & G F p2 & G F p3 & G F p4 & G F p5 & G F p6 & G !u & G F sur"
WIDE_MISSION_PROPS = ["p1", "p2", "p3", "p4", "p5", "p6", "u", "sur"]


def all_lassos(props, max_stem=2, max_loop=2):
    return list(enumerate_lassos(props, max_stem, max_loop))


def assert_language_matches(formula, props, max_stem=2, max_loop=2):
    ba = to_buchi(formula, props)
    for stem, loop in all_lassos(props, max_stem, max_loop):
        expect = formula_satisfied_on_lasso(formula, stem, loop)
        got = lasso_accepts(ba, stem, loop)
        assert got == expect, f"{formula} on stem={stem} loop={loop}: {got} != {expect}"


def test_languages_of_basic_formulas():
    for text in ("a", "!a", "X a", "F a", "G a", "a U b", "G F a", "F G a", "true"):
        assert_language_matches(parse(text), ["a", "b"])


def test_languages_of_compound_formulas():
    for text in (
        "G F a & G F b",
        "G (a -> X b)",
        "a U (b U a)",
        "G (a -> X (!a U b))",
        "F (a & X a)",
        "X X a",
        "G !a | F b",
    ):
        assert_language_matches(parse(text), ["a", "b"])


def test_next_of_until_language():
    # nested strength test: the until must start holding one step in
    assert_language_matches(parse("G X (a U b)"), ["a", "b"], max_stem=2, max_loop=3)


def test_unsatisfiable_and_trivial_formulas():
    empty = to_buchi(parse("a & !a"), ["a"])
    for stem, loop in all_lassos(["a"]):
        assert not lasso_accepts(empty, stem, loop)
    trivial = to_buchi(parse("true"), ["a"])
    for stem, loop in all_lassos(["a"]):
        assert lasso_accepts(trivial, stem, loop)


def test_witness_replay_is_a_valid_run():
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(20):
        f = random_formula(rng, ["a", "b"], int(rng.integers(0, 4)))
        ba = to_buchi(f, ["a", "b"])
        for stem, loop in all_lassos(["a", "b"]):
            witness = find_accepting_lasso_run(ba, stem, loop)
            if witness is None:
                continue
            path, cycle = witness
            word = list(stem) + list(loop)
            n = len(word)
            wrap = len(stem)

            def letter_at(pos):
                return word[pos] if pos < n else word[wrap + (pos - wrap) % len(loop)]

            assert path[0][0] == ba.initial and path[0][1] == 0
            trail = path + cycle[1:]
            for (s, pos), (s2, pos2) in zip(trail, trail[1:]):
                assert s2 in successors(ba, s, letter_at(pos))
                assert pos2 == (pos + 1 if pos + 1 < n else wrap)
            assert cycle[0] == path[-1] == cycle[-1]
            assert any(s in ba.accepting for s, _ in cycle[:-1])
            checked += 1
    assert checked > 30


def test_empty_loop_rejected():
    ba = to_buchi(parse("F a"), ["a"])
    with pytest.raises(ContractError):
        lasso_accepts(ba, [frozenset()], [])


def test_bulk_table_matches_per_lasso_runs():
    rng = np.random.default_rng(21)
    for _ in range(12):
        f = random_formula(rng, ["a", "b"], int(rng.integers(0, 4)))
        ba = to_buchi(f, ["a", "b"])
        lassos = all_lassos(["a", "b"])
        table = lasso_acceptance_table(ba, 2, 2)
        assert table.shape == (len(lassos),)
        for idx, (stem, loop) in enumerate(lassos):
            assert bool(table[idx]) == lasso_accepts(ba, stem, loop)


def test_bulk_table_matches_semantics():
    rng = np.random.default_rng(31)
    for _ in range(25):
        f = random_formula(rng, ["a", "b"], int(rng.integers(0, 5)))
        ba = to_buchi(f, ["a", "b"])
        got = lasso_acceptance_table(ba, 2, 2)
        expect = semantic_lasso_table(f, ["a", "b"], 2, 2)
        assert np.array_equal(got, expect), str(f)


def test_construction_is_deterministic():
    f = parse("G (a -> X (!a U b)) & G F b")
    first = to_buchi(f, ["a", "b"])
    second = to_buchi(f, ["a", "b"])
    assert first.n_states == second.n_states
    assert first.initial == second.initial
    assert transitions(first) == transitions(second)
    assert first.accepting == second.accepting
    assert to_text(first) == to_text(second)


def test_propositions_beyond_atoms_widen_alphabet():
    ba = to_buchi(parse("F a"), ["a", "b"])
    assert ba.propositions == {"a", "b"}
    # a letter containing only b must behave like the empty letter for F a
    assert lasso_accepts(ba, [frozenset("b")], [frozenset("a")])
    assert not lasso_accepts(ba, [], [frozenset("b")])


def test_automaton_validation():
    def automaton(letters=(frozenset(), frozenset("a")), src=(0,), letter=(1,), dst=(0,)):
        return BuchiAutomaton(1, 0, ["a"], letters, src, letter, dst, [0])

    assert successors(automaton(), 0, frozenset("a")).tolist() == [0]
    # a label is read through its projection onto the propositions
    assert successors(automaton(), 0, frozenset("ab")).tolist() == [0]
    assert successors(automaton(), 0, frozenset("b")).tolist() == []
    with pytest.raises(ValidationError, match="endpoint out of range"):
        automaton(dst=(3,))
    with pytest.raises(ValidationError, match="endpoint out of range"):
        automaton(src=(-1,))
    with pytest.raises(ValidationError, match=r"letter \['z'\] uses undeclared propositions"):
        automaton(letters=(frozenset(), frozenset("z")))
    with pytest.raises(ValidationError, match="must be aligned"):
        automaton(letter=(1, 0))
    with pytest.raises(ValidationError, match="letter id out of range"):
        automaton(letter=(2,))
    with pytest.raises(ValidationError, match=r"letter \['a'\] is given twice"):
        automaton(letters=(frozenset("a"), frozenset(), frozenset("a")))
    with pytest.raises(ValidationError, match="at least one letter"):
        automaton(letters=(), src=(), letter=(), dst=())
    wide = [f"p{i}" for i in range(64)]
    with pytest.raises(ValidationError, match="at most 63 propositions"):
        BuchiAutomaton(1, 0, wide, [frozenset(wide)], [0], [0], [0], [0])


def test_mission_shape_has_surveillance_guarded_acceptance():
    from surplan.product import check_accepting_label_condition

    f = parse("G (a -> X (!a U b)) & G (b -> X (!b U a)) & G !u & G F sur")
    ba = to_buchi(f, ["a", "b", "u", "sur"])
    assert check_accepting_label_condition(ba, "sur")
    # every transition into an accepting state reads a surveillance letter
    for _, letter, t in transitions(ba):
        if t in ba.accepting:
            assert "sur" in letter


def automaton_pin(ba):
    digest = hashlib.sha256(to_text(ba).encode()).hexdigest()[:16]
    return ba.n_states, len(transitions(ba)), digest


@pytest.mark.parametrize(
    "name, pin",
    [
        ("default_grid.ini", (11, 160, "c3232d794d83c6c5")),
        ("triangle.ini", (4, 56, "0cf3a4d3d5be7b0e")),
        ("infeasible.ini", (2, 6, "3bf89fb438a8b7c4")),
    ],
)
def test_shipped_scenario_automata_are_pinned(name, pin):
    scenario = load_scenario(SCENARIOS / name)
    assert automaton_pin(to_buchi(scenario.formula, scenario.ts.propositions)) == pin


def test_seven_proposition_mission_automaton_is_pinned():
    ba = to_buchi(parse(LARGE_MISSION, LARGE_MISSION_PROPS), LARGE_MISSION_PROPS)
    assert automaton_pin(ba) == (7, 832, "0a1bcf7df82adf8b")


def test_automaton_numbering_is_independent_of_the_hash_seed():
    script = (
        "import hashlib, sys\n"
        "from automaton_views import to_text\n"
        "from conftest import random_formula_cases\n"
        "from surplan.buchi import to_buchi\n"
        "from surplan.scenario import load_scenario\n"
        "s = load_scenario(sys.argv[1])\n"
        "cases = [(s.formula, s.ts.propositions)] + random_formula_cases(100)\n"
        "for f, props in cases:\n"
        "    ba = to_buchi(f, props)\n"
        "    print(hashlib.sha256(to_text(ba).encode()).hexdigest()[:16])\n"
    )
    src = str(Path(surplan.__file__).resolve().parent.parent)
    tests = str(Path(__file__).resolve().parent)
    digests = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join([src, tests]))
        done = subprocess.run(
            [sys.executable, "-c", script, str(SCENARIOS / "default_grid.ini")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        digests.append(done.stdout.split())
    assert len(digests[0]) == 101
    assert digests[0][0] == "c3232d794d83c6c5"
    assert digests[0] == digests[1]


def test_random_formula_automata_are_pinned():
    # the quotient merges no states in 70 of these 100 automata, so their
    # state numbering is the construction's exploration order
    digests = [automaton_pin(to_buchi(f, props))[2] for f, props in random_formula_cases(100)]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16] == "3adb5ca348e92123"


def test_automata_list_each_letter_edge_once():
    """Two counter moves from one state to one target whose letter sets
    overlap (their debt marks differ) give one letter edge, not two."""
    for formula, props in random_formula_cases(200):
        edges = transitions(to_buchi(formula, props))
        assert len(set(edges)) == len(edges), str(formula)
    ba = to_buchi(parse("(F a) U (X (! a))", ["a"]), ["a"])
    assert len(transitions(ba)) == len(ba.target) == 18


def _wide_closure_missions():
    """Missions whose obligation masks pass bit 63: 70 nested nexts, and 66
    nested eventualities, which also give 66 debt bits and 67 counter levels."""
    chain = Atom("a")
    for _ in range(66):
        chain = Eventually(And(Atom("b"), Next(chain)))
    return [parse(" ".join(["X"] * 70) + " a"), chain]


def _oracle_cases():
    cases = [("large_mission", parse(LARGE_MISSION, LARGE_MISSION_PROPS), LARGE_MISSION_PROPS)]
    cases += [(f"wide closure {i}", f, []) for i, f in enumerate(_wide_closure_missions())]
    for name in ("default_grid.ini", "triangle.ini", "infeasible.ini"):
        scenario = load_scenario(SCENARIOS / name)
        cases.append((name, scenario.formula, scenario.ts.propositions))
    for i, (f, props) in enumerate(random_formula_cases(200)):
        cases.append((f"random {i}", f, props))
    return cases


def test_guarded_choices_match_the_per_letter_tableau():
    """Every reachable obligation state, expanded to every letter, gives the
    per-letter tableau's choices, and its edges are exactly those choices'
    (next state, debt mask) pairs. Each move's letter set, first edge and
    last edge agree with the letter-by-letter edge listing."""
    checked = 0
    for name, formula, extra in _oracle_cases():
        props = sorted(atoms(formula) | set(extra))
        normalized = nnf(formula)
        untils = until_like_subformulas(normalized)
        letters = canonical_letters(props)
        closure = _Closure(normalized, untils, props)
        obligations = _obligation_automaton(normalized, untils, props)
        order, masks = obligations.order, obligations.masks
        oracle_memo = {}
        for state, (out_letter, out_move), (target, marks, lset, last) in zip(
            order, letter_edges(obligations, normalized, untils, props), obligations.moves
        ):
            members = sorted(state, key=str)
            guarded = decoded_choices(state, closure)
            out_target, out_marks = target[out_move], marks[out_move]
            for li, letter in enumerate(letters):
                expected = set(_state_successors(members, letter, oracle_memo))
                expanded = {
                    (nxt, dis, pro)
                    for nxt, dis, pro, pos, neg in guarded
                    if pos & ~li == 0 and neg & li == 0
                }
                assert expanded == expected, (name, sorted(map(str, state)), sorted(letter))
                on_letter = out_letter == li
                listed = [
                    (order[t], masks[m])
                    for t, m in zip(out_target[on_letter].tolist(), out_marks[on_letter].tolist())
                ]
                assert len(listed) == len(set(listed))
                assert set(listed) == {
                    (nxt, _debt_mask(untils, dis, pro)) for nxt, dis, pro in expected
                }, (name, sorted(map(str, state)), sorted(letter))
                checked += 1
            moves_listed = out_move.tolist()
            firsts = [moves_listed.index(m) for m in range(len(target))]
            lasts = [len(moves_listed) - 1 - moves_listed[::-1].index(m) for m in range(len(target))]
            assert firsts == sorted(firsts), name
            assert len(np.unique(last)) == len(last), name
            assert np.argsort(last).tolist() == sorted(range(len(target)), key=lasts.__getitem__), name
            for m in range(len(target)):
                on_move = out_letter[out_move == m].tolist()
                assert np.flatnonzero(obligations.letter_sets[lset[m]]).tolist() == on_move, name
    assert checked > 10_000


def test_state_choices_equal_the_left_fold_in_order():
    """Every reachable obligation state's guarded choices, order included,
    equal the left fold of its members' choices: with the suffix products
    shared across the states in numbering order, as the construction asks
    for them, and in reverse order."""
    checked = 0
    for name, formula, extra in _oracle_cases():
        props = sorted(atoms(formula) | set(extra))
        normalized = nnf(formula)
        untils = until_like_subformulas(normalized)
        closure = _Closure(normalized, untils, props)
        masks = [
            sum(1 << closure.bit[f] for f in state)
            for state in _obligation_automaton(normalized, untils, props).order
        ]
        expected = [reference_state_choices(mask, closure) for mask in masks]
        for order in (masks, masks[::-1]):
            shared = _Closure(normalized, untils, props)
            got = {mask: _state_choices(mask, shared) for mask in order}
            assert [got[mask] for mask in masks] == expected, name
        checked += len(masks)
    assert checked > 1000, checked


_CHOICES = st.lists(
    st.tuples(*[st.integers(0, 3)] * 3, st.integers(0, 7), st.integers(0, 7)), max_size=6
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_CHOICES, _CHOICES, _CHOICES)
def test_combining_choices_is_associative_in_order(a, b, c):
    """Small ranges draw repeated choices and guards that contradict."""
    assert _combine(_combine(a, b), c) == _combine(a, _combine(b, c))


def test_seven_proposition_mission_shares_the_tableau_products(monkeypatch):
    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return _combine(a, b)

    monkeypatch.setattr("surplan.buchi._combine", counted)
    to_buchi(parse(LARGE_MISSION, LARGE_MISSION_PROPS), LARGE_MISSION_PROPS)
    # 647 calls when each state folds its members from the left, 75 with
    # the products of suffixes of members shared
    assert calls <= 100, calls


def test_moves_with_letter_sets_build_the_letter_wise_automaton():
    """``to_buchi`` equals the letter-by-letter passes of
    ``buchi_reference`` in every state, description and transition: on
    random formulas over 3-7 propositions, with and without states for the
    quotient to merge, and on the 8-proposition mission. The order of the
    transitions is unspecified, so they are compared as a multiset."""
    wide = parse(WIDE_MISSION, WIDE_MISSION_PROPS), WIDE_MISSION_PROPS
    cases = random_formula_cases(200, fewest_props=3) + [wide]
    unmerged = 0
    for formula, props in cases:
        expected, merged = reference_to_buchi(formula, props)
        got = to_buchi(formula, props)
        assert to_text(got) == to_text(expected), str(formula)
        assert Counter(transitions(got)) == Counter(transitions(expected)), str(formula)
        unmerged += not merged
    assert 20 <= unmerged <= len(cases) - 20, unmerged


def test_closures_wider_than_64_bits_build_the_letter_wise_automaton():
    for formula in _wide_closure_missions():
        normalized = nnf(formula)
        untils = until_like_subformulas(normalized)
        assert len(_Closure(normalized, untils, sorted(atoms(formula))).formulas) > 64
        expected, _ = reference_to_buchi(formula)
        got = to_buchi(formula)
        assert to_text(got) == to_text(expected), str(formula)
        assert Counter(transitions(got)) == Counter(transitions(expected)), str(formula)


def test_seven_proposition_mission_hashes_each_formula_node_once(monkeypatch):
    """A frozen dataclass's generated hash walks the whole subtree; a node
    keeps its hash instead, so compiling computes each node's once."""
    computed = Counter()
    # every node counted, kept alive so that no id is reused
    kept = []
    for cls in ltl.Formula.__subclasses__():

        def counted(node, fields_hash=cls._fields_hash):
            computed[id(node)] += 1
            kept.append(node)
            return fields_hash(node)

        monkeypatch.setattr(cls, "_fields_hash", counted)
    to_buchi(parse(LARGE_MISSION, LARGE_MISSION_PROPS), LARGE_MISSION_PROPS)
    assert len(computed) >= 20, len(computed)
    assert max(computed.values()) == 1


def test_seven_proposition_mission_compiles_in_bounded_memory():
    formula = parse(LARGE_MISSION, LARGE_MISSION_PROPS)
    tracemalloc.start()
    try:
        ba = to_buchi(formula, LARGE_MISSION_PROPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ba.n_states == 7
    # 5.5 MB measured
    assert peak < 12_000_000, peak
