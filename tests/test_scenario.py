"""Scenario files: grids, explicit systems, validation, overrides."""

import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplan.errors import ScenarioError
from surplan.ltl import Always, And, Atom, Eventually, parse
from surplan.scenario import (
    Scenario,
    build_grid,
    default_case_study,
    grid_state_name,
    load_scenario,
)
from surplan.sim import run_seed_for

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


def test_a_directory_is_refused(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path)


def test_a_file_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(("# caf\xe9" + MINIMAL_GRID).encode("latin-1"))
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(path)


def test_loading_a_grid_holds_no_all_pairs_matrix(tmp_path):
    side = 60
    text = MINIMAL_GRID.replace("rows = 3\ncols = 3", f"rows = {side}\ncols = {side}")
    path = write(tmp_path, text)
    tracemalloc.start()
    try:
        scenario = load_scenario(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = scenario.ts.n
    assert n == side * side
    # an n x n float64 matrix alone would take 104 MB here
    assert peak < n * n * 8 / 4, peak


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


@pytest.mark.parametrize("weight", ["-1", "0", "nan", "inf"])
def test_bad_grid_weights_raise_scenario_error(tmp_path, weight):
    text = MINIMAL_GRID.replace("cols = 3\n", f"cols = 3\nhorizontal-weight = {weight}\n")
    with pytest.raises(ScenarioError, match="finite positive weight"):
        load_scenario(write(tmp_path, text))


@pytest.mark.parametrize(
    "old, new", [("seed = 1", "seed = 5%"), ("formula = G F sur", "formula = %(x)s G F sur")]
)
def test_percent_signs_are_literal(tmp_path, old, new):
    with pytest.raises(ScenarioError):
        load_scenario(write(tmp_path, MINIMAL_GRID.replace(old, new)))
    # a literal '%' is kept in the value, not substituted away
    text = MINIMAL_GRID.replace("[labels]\n", "[labels]\nhot% = 0,0\n")
    assert "hot%" in load_scenario(write(tmp_path, text)).ts.propositions


@pytest.mark.parametrize(
    "line",
    ["refresh-value = nan", "refresh-value = inf", "pref-threshold = nan", "pref-threshold = inf"],
)
def test_non_finite_reward_values_rejected(tmp_path, line):
    section = "[dynamics]" if line.startswith("refresh") else "[planner]"
    text = MINIMAL_GRID.replace(f"{section}\n", f"{section}\n{line}\n")
    if section not in MINIMAL_GRID:
        text = MINIMAL_GRID + f"\n{section}\n{line}\n"
    with pytest.raises(ScenarioError, match=line.split(" = ")[0]):
        load_scenario(write(tmp_path, text))


def test_negative_seeds_rejected(tmp_path):
    with pytest.raises(ScenarioError, match="non-negative"):
        load_scenario(write(tmp_path, MINIMAL_GRID.replace("seed = 1", "seed = -1")))
    text = MINIMAL_GRID.replace("seed = 1", "seed = 1\nruns = 2\nrun-seeds = 4 -2")
    with pytest.raises(ScenarioError, match="non-negative"):
        load_scenario(write(tmp_path, text))
    with pytest.raises(ScenarioError, match="non-negative"):
        load_scenario(write(tmp_path, MINIMAL_GRID), {"seed": -3})


def test_label_range_outside_grid_rejected_before_expansion(tmp_path):
    # expanding this range cell by cell would not finish
    text = MINIMAL_GRID.replace("sur = 2,2", "sur = 2,0-1000000000000")
    with pytest.raises(ScenarioError, match="outside the 3x3 grid"):
        load_scenario(write(tmp_path, text))
    with pytest.raises(ScenarioError, match="outside the 3x3 grid"):
        load_scenario(write(tmp_path, MINIMAL_GRID.replace("sur = 2,2", "sur = -1,0")))
    # an empty range names no cell
    text = MINIMAL_GRID.replace("sur = 2,2", "sur = 2,2 0,5-4")
    assert load_scenario(write(tmp_path, text)).ts.n == 9


SHIPPED = {path.name: path.read_text() for path in sorted(SCENARIOS.glob("*.ini"))}
VALUE_LINE = re.compile(r"^[\w-]+ = ")
JUNK = [
    "", "inf", "-inf", "nan", "0", "-1", "0.5", "-2.5", "1e308", "1e-9", "3/2",
    "abc", "%", "5%", "%(x)s", "1,", ",", "0,0-", "x:y", ":1", "q0:", "q0:-1",
    "G F", "!", "(", "--", "0,0 1,1", "r0c0", "max-sum", "cubic",
]
CELL_INTS = st.integers(-3, 10**12)
CELLS = st.one_of(
    st.builds("{},{}".format, CELL_INTS, CELL_INTS),
    st.builds("{},{}-{}".format, CELL_INTS, CELL_INTS, CELL_INTS),
)
VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers(-(10**9), 10**9).map(str),
    st.fractions(max_denominator=8).map(lambda f: str(float(f))),
    st.floats().map(repr),
    st.sampled_from(JUNK),
    CELLS,
)
# up to 100x100: loading builds no all-pairs matrix, so large grids are cheap
GRID_SIDES = st.one_of(st.integers(-3, 100).map(str), st.sampled_from(JUNK))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_shipped_scenarios_load_or_raise_scenario_error(data):
    name = data.draw(st.sampled_from(sorted(SHIPPED)), label="file")
    lines = SHIPPED[name].splitlines()
    slots = [i for i, line in enumerate(lines) if VALUE_LINE.match(line)]
    count = data.draw(st.integers(1, 3), label="count")
    for i in data.draw(st.permutations(slots), label="order")[:count]:
        key = lines[i].split(" = ", 1)[0]
        value = data.draw(GRID_SIDES if key in ("rows", "cols") else VALUES, label=key)
        lines[i] = f"{key} = {value}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text("\n".join(lines) + "\n")
        try:
            scenario = load_scenario(path)
        except ScenarioError:
            return
    assert isinstance(scenario, Scenario)
    assert scenario.ts.n <= 100 * 100
    for value in (
        scenario.visibility,
        scenario.horizon,
        scenario.refresh_value,
        scenario.preference_threshold,
        scenario.spawn_probability,
    ):
        assert math.isfinite(value)
    np.random.default_rng(run_seed_for(scenario, 0))
