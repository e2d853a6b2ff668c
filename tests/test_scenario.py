"""Scenario files: grids, explicit systems, validation, overrides."""

from pathlib import Path

import pytest

from surplan.errors import ScenarioError
from surplan.ltl import Always, And, Atom, Eventually, parse
from surplan.scenario import (
    Scenario,
    build_grid,
    default_case_study,
    grid_state_name,
    load_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path

MINIMAL_GRID = """
[grid]
rows = 3
cols = 3
initial = 0,0

[labels]
sur = 2,2

[mission]
formula = G F sur

[planner]
visibility = 6
horizon = 6

[experiment]
seed = 1
"""


def test_grid_structure():
    ts = build_grid(3, 4, {"p": {(0, 0)}}, initial=(1, 1))
    assert ts.n == 12
    corner = ts.state_id(grid_state_name(0, 0))
    center = ts.state_id(grid_state_name(1, 1))
    assert len(ts.successors(corner)) == 3
    assert len(ts.successors(center)) == 8
    assert ts.weight(corner, ts.state_id(grid_state_name(0, 1))) == 2.0
    assert ts.weight(corner, ts.state_id(grid_state_name(1, 0))) == 2.0
    assert ts.weight(corner, ts.state_id(grid_state_name(1, 1))) == 3.0
    assert ts.initial == center
    assert ts.label(corner) == {"p"}


def test_grid_validation():
    with pytest.raises(ScenarioError):
        build_grid(0, 3, {}, initial=(0, 0))
    with pytest.raises(ScenarioError):
        build_grid(3, 3, {"p": {(5, 0)}}, initial=(0, 0))
    with pytest.raises(ScenarioError):
        build_grid(3, 3, {}, initial=(3, 3))


def test_single_cell_grid_needs_declared_self_loop():
    with pytest.raises(ScenarioError):
        build_grid(1, 1, {}, initial=(0, 0))
    ts = build_grid(1, 1, {}, initial=(0, 0), self_loop=1.5)
    assert ts.n == 1
    assert ts.weight(0, 0) == 1.5


def test_load_minimal_grid_scenario(tmp_path):
    sc = load_scenario(write(tmp_path, MINIMAL_GRID))
    assert isinstance(sc, Scenario)
    assert sc.ts.n == 9
    assert sc.surveillance_prop == "sur"
    # defaults fill in
    assert sc.potential_name == "max-sum"
    assert sc.preference_name == "threshold"
    assert sc.spawn_probability == 0.05
    assert sc.runs == 5 and sc.iterations == 100
    assert sc.name == "case"


def test_recurrent_surveillance_conjunct_appended(tmp_path):
    sc = load_scenario(write(tmp_path, MINIMAL_GRID))
    # "G F sur" is already of the required shape: no duplicate is added
    assert sc.formula == parse("G F sur")

    text = MINIMAL_GRID.replace("formula = G F sur", "formula = G ! u").replace(
        "sur = 2,2", "sur = 2,2\nu = 1,1"
    )
    sc2 = load_scenario(write(tmp_path, text, "safety.ini"))
    assert sc2.formula == And(parse("G ! u"), Always(Eventually(Atom("sur"))))
    assert sc2.formula_text == "G ! u"


def test_shipped_scenarios_load():
    default = load_scenario(SCENARIOS / "default_grid.ini")
    assert default.ts.n == 100
    assert default.visibility == 6.0 and default.horizon == 9.0
    # the unsafe band spans row 4, columns 1 through 8
    band = [q for q in range(default.ts.n) if "u" in default.ts.label(q)]
    assert len(band) == 8
    assert {default.ts.state_name(q) for q in band} == {
        grid_state_name(4, c) for c in range(1, 9)
    }
    triangle = load_scenario(SCENARIOS / "triangle.ini")
    assert triangle.ts.n == 3
    assert triangle.ts.weight(
        triangle.ts.state_id("q1"), triangle.ts.state_id("q2")
    ) == 2.0
    infeasible = load_scenario(SCENARIOS / "infeasible.ini")
    assert infeasible.ts.n == 9


def test_default_case_study_matches_shipped_file():
    sc = default_case_study()
    shipped = load_scenario(SCENARIOS / "default_grid.ini")
    assert sc.ts.names == shipped.ts.names
    assert sc.ts.weight_of == shipped.ts.weight_of
    assert sc.ts.labels == shipped.ts.labels
    assert sc.formula == shipped.formula
    assert (sc.visibility, sc.horizon) == (shipped.visibility, shipped.horizon)


def test_overrides(tmp_path):
    path = write(tmp_path, MINIMAL_GRID)
    sc = load_scenario(
        path,
        {"seed": 99, "runs": 2, "iterations": 7, "potential": "max-single", "preference": "cubic"},
    )
    assert sc.seed == 99 and sc.runs == 2 and sc.iterations == 7
    assert sc.potential_name == "max-single"
    assert sc.preference_name == "cubic"
    with pytest.raises(ScenarioError):
        load_scenario(path, {"bogus": 1})
    with pytest.raises(ScenarioError):
        load_scenario(path, {"potential": "nope"})


def test_explicit_transition_section(tmp_path):
    text = """
[ts]
initial = x

[transitions]
x = y:1.5
y = x:2.5 y:1.0

[labels]
sur = y

[mission]
formula = G F sur

[planner]
visibility = 4
horizon = 4
"""
    sc = load_scenario(write(tmp_path, text))
    assert sc.ts.n == 2
    x, y = sc.ts.state_id("x"), sc.ts.state_id("y")
    assert sc.ts.weight(x, y) == 1.5
    assert sc.ts.weight(y, y) == 1.0
    assert sc.ts.label(y) == {"sur"}


def test_rejections(tmp_path):
    def expect_error(mutate, name):
        with pytest.raises(ScenarioError):
            load_scenario(write(tmp_path, mutate(MINIMAL_GRID), name))

    expect_error(lambda t: t.replace("[grid]", "[typo]"), "a.ini")
    expect_error(lambda t: t.replace("rows = 3\n", ""), "b.ini")
    expect_error(lambda t: t.replace("initial = 0,0", "initial = 9,9"), "c.ini")
    expect_error(lambda t: t.replace("sur = 2,2", "sur = 2,9"), "d.ini")
    expect_error(lambda t: t.replace("horizon = 6", "horizon = 1"), "e.ini")
    expect_error(lambda t: t.replace("visibility = 6", "visibility = 0"), "f.ini")
    expect_error(lambda t: t.replace("formula = G F sur", "formula = G F zap"), "g.ini")
    expect_error(lambda t: t.replace("formula = G F sur", "formula = G F"), "h.ini")
    expect_error(lambda t: t + "\n[experiment2]\nx = 1\n", "i.ini")
    expect_error(lambda t: t.replace("seed = 1", "seed = 1\nwhat = 2"), "j.ini")
    expect_error(lambda t: t.replace("seed = 1", "run-seeds = 1 2 3"), "k.ini")
    expect_error(lambda t: t.replace("sur = 2,2", "sur = 2,x"), "l.ini")
    with pytest.raises(ScenarioError):
        load_scenario(tmp_path / "missing.ini")


@pytest.mark.parametrize(
    "line", ["horizon = inf", "horizon = nan", "visibility = inf", "visibility = nan"]
)
def test_non_finite_planner_values_rejected(tmp_path, line):
    key = line.split(" = ")[0]
    text = MINIMAL_GRID.replace(f"{key} = 6", line)
    assert line in text
    with pytest.raises(ScenarioError, match=key):
        load_scenario(write(tmp_path, text))


def test_run_seeds_accepted_when_length_matches(tmp_path):
    text = MINIMAL_GRID.replace("seed = 1", "seed = 1\nruns = 3\nrun-seeds = 11 22 33")
    sc = load_scenario(write(tmp_path, text))
    assert sc.run_seeds == (11, 22, 33)


def test_visibility_assumption_enforced_on_explicit_systems(tmp_path):
    # the direct move x -> y weighs 10, beyond the visibility radius 4
    text = """
[ts]
initial = x

[transitions]
x = y:10
y = x:1

[labels]
sur = y

[mission]
formula = G F sur

[planner]
visibility = 4
horizon = 10
"""
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, text))


def test_case_preserved_in_labels_and_states(tmp_path):
    text = """
[ts]
initial = Base

[transitions]
Base = Camp:2
Camp = Base:2

[labels]
SUR = Camp

[mission]
formula = G F SUR
surveillance = SUR

[planner]
visibility = 4
horizon = 4
"""
    sc = load_scenario(write(tmp_path, text))
    assert sc.surveillance_prop == "SUR"
    assert "SUR" in sc.ts.label(sc.ts.state_id("Camp"))
