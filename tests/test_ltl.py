"""Formula parsing, normal form, hashing, and lasso-word semantics."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surplan
from surplan.errors import LtlSyntaxError
from surplan.ltl import (
    Always,
    And,
    Atom,
    Eventually,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    atoms,
    canonical_letters,
    nnf,
    parse,
    subformulas,
)

from conftest import random_formula, random_formula_cases
from lasso_semantics import enumerate_lassos, formula_satisfied_on_lasso, semantic_lasso_table

A, B, C = Atom("a"), Atom("b"), Atom("c")


def letters(*names):
    return [frozenset(name) if name else frozenset() for name in names]


def test_parse_basic_forms():
    assert parse("a") == A
    assert parse("!a") == Not(A)
    assert parse("a & b") == And(A, B)
    assert parse("a | b") == Or(A, B)
    assert parse("X a") == Next(A)
    assert parse("a U b") == Until(A, B)
    assert parse("F a") == Eventually(A)
    assert parse("G a") == Always(A)
    assert parse("true") == TrueConst()


def test_parse_precedence_and_associativity():
    # unary binds tightest, then U, then &, then |, then ->
    assert parse("!a U b") == Until(Not(A), B)
    assert parse("a U b U c") == Until(A, Until(B, C))
    assert parse("a & b | c") == Or(And(A, B), C)
    assert parse("a | b & c") == Or(A, And(B, C))
    assert parse("a -> b -> c") == Or(Not(A), Or(Not(B), C))
    assert parse("G a & F b") == And(Always(A), Eventually(B))
    assert parse("G (a -> X b)") == Always(Or(Not(A), Next(B)))
    assert parse("a U (b U c)") == parse("a U b U c")


def test_parse_rejections():
    for bad in ("", "a &", "& a", "(a", "a)", "a b", "U a", "a !b", "X"):
        with pytest.raises(LtlSyntaxError):
            parse(bad)
    with pytest.raises(LtlSyntaxError):
        parse("a & d", propositions={"a", "b"})
    parse("a & b", propositions={"a", "b"})


def test_atoms_and_subformulas():
    f = parse("G (a -> X (!a U b))")
    assert atoms(f) == {"a", "b"}
    subs = set(subformulas(f))
    assert Until(Not(A), B) in subs
    assert f in subs


def test_nnf_examples():
    assert nnf(parse("!(a & b)")) == Or(Not(A), Not(B))
    assert nnf(parse("!(a | b)")) == And(Not(A), Not(B))
    assert nnf(parse("!!a")) == A
    assert nnf(parse("!X a")) == Next(Not(A))
    assert nnf(parse("!F a")) == Always(Not(A))
    assert nnf(parse("!G a")) == Eventually(Not(A))
    assert nnf(parse("!(a U b)")) == Or(
        Always(Not(B)), Until(Not(B), And(Not(A), Not(B)))
    )


def test_nnf_negations_only_on_atoms():
    rng = np.random.default_rng(42)
    for _ in range(120):
        f = nnf(random_formula(rng, ["a", "b", "c"], int(rng.integers(0, 5))))
        for sub in subformulas(f):
            if isinstance(sub, Not):
                # negated truth survives as an unsatisfiable leaf
                assert isinstance(sub.sub, (Atom, TrueConst))


def test_nnf_preserves_meaning_on_lassos():
    rng = np.random.default_rng(43)
    lassos = list(enumerate_lassos(["a", "b"], 2, 2))
    for _ in range(60):
        f = random_formula(rng, ["a", "b"], int(rng.integers(0, 4)))
        g = nnf(f)
        for stem, loop in lassos[:: max(1, len(lassos) // 80)]:
            assert formula_satisfied_on_lasso(f, stem, loop) == formula_satisfied_on_lasso(
                g, stem, loop
            )


def test_lasso_semantics_hand_checked():
    a, b, empty = frozenset("a"), frozenset("b"), frozenset()
    cases = [
        ("G F a", [], [a, empty], True),
        ("G F a", [a], [empty], False),
        ("F a", [empty, empty], [a], True),
        ("F a", [a], [empty], True),
        ("G a", [a], [a], True),
        ("G a", [a], [a, empty], False),
        ("a U b", [a, a], [b], True),
        ("a U b", [a], [a], False),
        ("a U b", [], [b], True),
        ("X a", [empty], [a], True),
        ("X a", [a], [empty], False),
        ("G (a -> X b)", [], [a, b], True),
        ("G (a -> X b)", [], [a, empty], False),
        ("true", [], [empty], True),
        ("!a", [], [a], False),
    ]
    for text, stem, loop, expect in cases:
        assert formula_satisfied_on_lasso(parse(text), stem, loop) is expect, text


def test_lasso_wraparound_goes_to_loop_start():
    # at the last loop position, X refers to the first loop position
    a, empty = frozenset("a"), frozenset()
    assert formula_satisfied_on_lasso(parse("G (a -> X a)"), [], [a]) is True
    assert formula_satisfied_on_lasso(parse("G (X a)"), [empty], [a]) is True
    assert formula_satisfied_on_lasso(parse("G (X a)"), [a], [a, empty]) is False


def test_canonical_letters_order_and_count():
    got = canonical_letters(["b", "a"])
    assert got == [frozenset(), {"a"}, {"b"}, {"a", "b"}]
    assert len(canonical_letters(["x", "y", "z"])) == 8
    assert canonical_letters([]) == [frozenset()]


def test_enumerate_lassos_count_and_shapes():
    lassos = list(enumerate_lassos(["a"], 2, 2))
    # sum over shapes of 2^(stem+loop): stems 0..2, loops 1..2
    assert len(lassos) == sum(2 ** (s + l) for s in range(3) for l in range(1, 3))
    assert all(1 <= len(loop) <= 2 and len(stem) <= 2 for stem, loop in lassos)


def test_semantic_table_matches_per_word_evaluator():
    rng = np.random.default_rng(99)
    lassos = list(enumerate_lassos(["a", "b"], 2, 2))
    for _ in range(40):
        f = random_formula(rng, ["a", "b"], int(rng.integers(0, 4)))
        table = semantic_lasso_table(f, ["a", "b"], 2, 2)
        assert table.shape == (len(lassos),)
        for idx in rng.choice(len(lassos), size=25, replace=False):
            stem, loop = lassos[idx]
            assert bool(table[idx]) == formula_satisfied_on_lasso(f, stem, loop)


def test_parse_str_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(150):
        f = random_formula(rng, ["a", "b", "c"], int(rng.integers(0, 5)))
        assert parse(str(f)) == f


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_empty_loop_rejected_and_stem_optional(seed):
    rng = np.random.default_rng(seed)
    f = random_formula(rng, ["a"], 2)
    with pytest.raises(Exception):
        formula_satisfied_on_lasso(f, [frozenset()], [])
    formula_satisfied_on_lasso(f, [], [frozenset()])


def test_a_formula_pickled_under_another_hash_seed_hashes_again(tmp_path):
    """A node keeps its hash once computed, but not through pickling: a
    formula hashed and pickled by a process with another hash seed equals,
    hashes like and looks up like the same formula parsed here, at every
    subformula."""
    text = "G (a -> X (!a U b)) & G F sur"
    script = (
        "import pickle, sys\n"
        "from surplan.ltl import parse\n"
        "formula = parse(sys.argv[1])\n"
        "with open(sys.argv[2], 'wb') as f:\n"
        "    pickle.dump((hash(formula), formula), f)\n"
    )
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(surplan.__file__).resolve().parent.parent)
    path = tmp_path / "formula.pickle"
    subprocess.run(
        [sys.executable, "-c", script, text, str(path)],
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        timeout=60,
        check=True,
    )
    with open(path, "rb") as f:
        foreign_hash, loaded = pickle.load(f)
    fresh = parse(text)
    # the other seed hashes the formula's names, and so the formula, otherwise
    assert foreign_hash != hash(fresh)
    assert loaded == fresh
    assert hash(loaded) == hash(fresh)
    assert {fresh: "found"}[loaded] == "found"
    index = {sub: i for i, sub in enumerate(subformulas(fresh))}
    assert [index[sub] for sub in subformulas(loaded)] == [index[sub] for sub in subformulas(fresh)]


def rendered(f) -> str:
    """A formula's text, built from scratch: the operator, then each operand,
    in parentheses unless it is ``true`` or a proposition."""

    def operand(g) -> str:
        return rendered(g) if isinstance(g, (TrueConst, Atom)) else f"({rendered(g)})"

    if isinstance(f, TrueConst):
        return "true"
    if isinstance(f, Atom):
        return f.name
    unary = {Not: "!", Next: "X", Always: "G", Eventually: "F"}
    if type(f) in unary:
        return f"{unary[type(f)]} {operand(f.sub)}"
    binary = {And: "&", Or: "|", Until: "U"}
    return f"{operand(f.left)} {binary[type(f)]} {operand(f.right)}"


def test_every_node_prints_its_from_scratch_rendering():
    for formula, _ in random_formula_cases(200):
        for f in (formula, nnf(formula)):
            for sub in subformulas(f):
                assert str(sub) == rendered(sub)
                # kept on the node, and printed the same again
                assert str(sub) is str(sub)


def test_a_pickled_formula_prints_hashes_and_compares_as_before():
    for formula, _ in random_formula_cases(60):
        text, key = str(formula), hash(formula)
        loaded = pickle.loads(pickle.dumps(formula))
        # the kept text and hash stay behind at every node, as the kept hash always did
        assert all(
            "_text" not in vars(sub) and "_hash" not in vars(sub) for sub in subformulas(loaded)
        )
        assert str(loaded) == text == rendered(loaded)
        assert hash(loaded) == key
        assert loaded == formula
