"""Scenario files: grids, explicit systems, validation, overrides."""

import configparser
import io
import math
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplan.errors import ScenarioError, ValidationError
from surplan.ltl import Always, And, Atom, Eventually, parse
from surplan.scenario import (
    Scenario,
    _build_ts_from_config,
    build_grid,
    grid_state_name,
    load_scenario,
    read_ini,
)
from surplan.sim import run_seed_for
from surplan.ts import TransitionSystem

from conftest import move_weights
from grid_reference import reference_build_grid

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
    corner = ts.index[grid_state_name(0, 0)]
    center = ts.index[grid_state_name(1, 1)]
    assert len(ts.successors(corner)) == 3
    assert len(ts.successors(center)) == 8
    weights = move_weights(ts)
    assert weights[corner, ts.index[grid_state_name(0, 1)]] == 2.0
    assert weights[corner, ts.index[grid_state_name(1, 0)]] == 2.0
    assert weights[corner, ts.index[grid_state_name(1, 1)]] == 3.0
    assert ts.initial == center
    assert ts.labels[corner] == {"p"}


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
    assert move_weights(ts) == {(0, 0): 1.5}


def test_grid_matches_the_per_cell_build():
    rng = np.random.default_rng(19)
    shapes = [(1, 1), (1, 7), (6, 1), (2, 2), (12, 12)]
    shapes += [tuple(int(x) for x in rng.integers(1, 13, size=2)) for _ in range(40)]
    for rows, cols in shapes:
        weights = [float(w) for w in rng.choice([0.3, 0.7, 1.0, 1.5, 2.25, 4.0], size=3)]
        self_loop = 0.9 if rows * cols == 1 or rng.random() < 0.5 else None
        cells = [(int(r), int(c)) for r, c in zip(rng.integers(rows, size=5), rng.integers(cols, size=5))]
        labels = {"a": set(cells[:2]), "sur": set(cells[1:4])}
        args = (rows, cols, labels, cells[4], *weights, self_loop)
        ts = build_grid(*args)
        expected = reference_build_grid(*args)
        assert ts.names == expected.names
        assert ts.initial == expected.initial
        assert ts.labels == expected.labels
        for field in ("move_ptr", "move_dst", "move_weight"):
            mine, reference = getattr(ts, field), getattr(expected, field)
            assert mine.dtype == reference.dtype, field
            assert np.array_equal(mine, reference), (rows, cols, field)


def test_a_large_grid_builds_without_per_move_objects():
    # a dict entry and two name strings per move peaked at 108 MB here
    labels = {"a": {(0, 0)}, "sur": {(0, 0), (199, 199)}}
    tracemalloc.start()
    try:
        ts = build_grid(200, 200, labels, initial=(199, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts.move_dst) == 8 * 200 * 200 - 6 * 200 - 6 * 200 + 4
    assert peak < 64 * 2**20, peak


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
    band = [q for q in range(default.ts.n) if "u" in default.ts.labels[q]]
    assert len(band) == 8
    assert {default.ts.state_name(q) for q in band} == {
        grid_state_name(4, c) for c in range(1, 9)
    }
    triangle = load_scenario(SCENARIOS / "triangle.ini")
    assert triangle.ts.n == 3
    assert move_weights(triangle.ts)[
        triangle.ts.index["q1"], triangle.ts.index["q2"]
    ] == 2.0
    infeasible = load_scenario(SCENARIOS / "infeasible.ini")
    assert infeasible.ts.n == 9


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


@pytest.mark.parametrize(
    "override, edit, message",
    [
        ({"runs": 0}, ("seed = 1", "seed = 1\nruns = 0"), "runs must be at least 1, got 0"),
        (
            {"iterations": 0},
            ("seed = 1", "seed = 1\niterations = 0"),
            "iterations must be at least 1, got 0",
        ),
        ({"seed": -1}, ("seed = 1", "seed = -1"), "seeds must be non-negative, got -1"),
        (
            {"preference": "nope"},
            ("horizon = 6", "horizon = 6\npref = nope"),
            "unknown preference 'nope'",
        ),
    ],
)
def test_an_override_is_refused_as_the_same_value_in_the_file(tmp_path, override, edit, message):
    """Overrides replace the file's values before the checks run, so each is
    refused with the message the same value written in the file gets."""
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(write(tmp_path, MINIMAL_GRID), override)
    with pytest.raises(ScenarioError, match=re.escape(message)):
        load_scenario(write(tmp_path, MINIMAL_GRID.replace(*edit), "edited.ini"))


def test_a_runs_override_must_agree_with_the_run_seeds(tmp_path):
    text = MINIMAL_GRID.replace("seed = 1", "seed = 1\nruns = 3\nrun-seeds = 11 22 33")
    path = write(tmp_path, text)
    assert load_scenario(path, {"runs": 3}).run_seeds == (11, 22, 33)
    with pytest.raises(ScenarioError, match="run-seeds lists 3 seeds for 2 runs"):
        load_scenario(path, {"runs": 2})


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
    x, y = sc.ts.index["x"], sc.ts.index["y"]
    assert move_weights(sc.ts) == {(x, y): 1.5, (y, x): 2.5, (y, y): 1.0}
    assert sc.ts.labels[y] == {"sur"}


def test_a_repeated_target_is_refused(tmp_path):
    text = """
[ts]
initial = x

[transitions]
x = y:1 y:2
y = x:1

[labels]
sur = y

[mission]
formula = G F sur

[planner]
visibility = 4
horizon = 4
"""
    with pytest.raises(ScenarioError, match=r"transition \('x', 'y'\) is given twice"):
        load_scenario(write(tmp_path, text))


def test_explicit_systems_load_in_linear_time_numbered_by_first_mention(tmp_path):
    """A 20,000-state chain, its lines in shuffled order, loads with the states
    numbered in order of first mention. The load takes about 0.2 s on a
    2-vCPU host; the quadratic loader it replaced took about 12 s there."""
    n = 20_000
    lines = [f"c{i} = c{i + 1}:1" for i in range(n - 1)] + [f"c{n - 1} = c{n - 1}:1"]
    lines = [lines[i] for i in np.random.default_rng(5).permutation(n)]
    mentioned = {}
    for line in lines:
        src, dst = line.split(" = ")
        mentioned.setdefault(src)
        mentioned.setdefault(dst.split(":")[0])
    odd = " ".join(f"c{i}" for i in range(1, n, 2))
    text = "\n".join(
        ["[ts]", "initial = c0", "[transitions]", *lines, "[labels]", f"sur = {odd}",
         "[mission]", "formula = G F sur", "[planner]", "visibility = 2", "horizon = 2"]
    )
    path = write(tmp_path, text)
    started = time.perf_counter()
    sc = load_scenario(path)
    elapsed = time.perf_counter() - started
    assert sc.ts.names == tuple(mentioned)
    assert sc.ts.successors(sc.ts.index["c7"]).tolist() == [sc.ts.index["c8"]]
    assert sc.ts.labels[sc.ts.index["c7"]] == {"sur"}
    assert elapsed < 5.0, elapsed


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


UNNAMEABLE = ["true", "X", "U", "G", "F", "a b", "9lives", "p-q"]


@pytest.mark.parametrize("name", UNNAMEABLE)
def test_a_label_no_formula_can_name_is_refused(tmp_path, name):
    # before, `true = 0,0` with `G F true` loaded as the constant mission
    text = MINIMAL_GRID.replace("sur = 2,2", f"sur = 2,2\n{name} = 0,0")
    text = text.replace("formula = G F sur", "formula = G F true")
    with pytest.raises(ScenarioError, match=f"label {name!r}"):
        load_scenario(write(tmp_path, text))


@pytest.mark.parametrize("name", UNNAMEABLE)
def test_a_surveillance_label_no_formula_can_name_is_refused(tmp_path, name):
    text = MINIMAL_GRID.replace("sur = 2,2", f"{name} = 2,2")
    text = text.replace("formula = G F sur", f"formula = G F true\nsurveillance = {name}")
    with pytest.raises(ScenarioError, match=f"label {name!r}"):
        load_scenario(write(tmp_path, text))


def test_an_undeclared_surveillance_label_is_refused(tmp_path):
    # before, this loaded and `surplan check` reported an infeasible mission
    text = MINIMAL_GRID.replace("formula = G F sur", "formula = G F sur\nsurveillance = patrol")
    with pytest.raises(ScenarioError, match="surveillance label 'patrol' is not declared"):
        load_scenario(write(tmp_path, text))


def test_labels_the_grammar_reads_as_propositions_load(tmp_path):
    text = MINIMAL_GRID.replace("sur = 2,2", "_x9 = 2,2\nGF = 0,1\ntrue_ = 1,1")
    text = text.replace("formula = G F sur", "formula = G F GF & G F true_\nsurveillance = _x9")
    sc = load_scenario(write(tmp_path, text))
    assert set(sc.ts.propositions) == {"_x9", "GF", "true_"}


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
    assert "SUR" in sc.ts.labels[sc.ts.index["Camp"]]


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
    with pytest.raises(ScenarioError, match="label 'hot%'"):
        load_scenario(write(tmp_path, text))


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


def test_descending_column_range_is_refused(tmp_path):
    # read as an empty range, 4,8-1 would drop the unsafe band without a word
    text = (SCENARIOS / "default_grid.ini").read_text()
    assert "u = 4,1-8" in text
    with pytest.raises(ScenarioError, match="'4,8-1' ends below its start"):
        load_scenario(write(tmp_path, text.replace("u = 4,1-8", "u = 4,8-1")))
    text = MINIMAL_GRID.replace("sur = 2,2", "sur = 2,2 0,5-4")
    with pytest.raises(ScenarioError, match="'0,5-4' ends below its start"):
        load_scenario(write(tmp_path, text))


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


def reference_explicit_system(parser):
    """An explicit system as the configparser-based loader built it, one
    token at a time: states numbered in order of first mention."""
    initial = dict(parser.items("ts"))["initial"]
    states: dict[str, int] = {}
    src, dst, weight = [], [], []
    for source, entry in parser.items("transitions"):
        i = states.setdefault(source, len(states))
        for token in entry.split():
            try:
                target, weight_text = token.rsplit(":", 1)
                w = float(weight_text)
            except ValueError as exc:
                raise ScenarioError(
                    f"[transitions] {source}: bad entry {token!r}, expected state:weight"
                ) from exc
            src.append(i)
            dst.append(states.setdefault(target, len(states)))
            weight.append(w)
    labels_section = dict(parser.items("labels")) if parser.has_section("labels") else {}
    labeling: dict[str, set[str]] = {}
    for prop, entry in labels_section.items():
        for name in entry.split():
            if name not in states:
                raise ScenarioError(f"label {prop!r} names unknown state {name!r}")
            labeling.setdefault(name, set()).add(prop)
    try:
        return TransitionSystem(
            list(states), initial, src, dst, weight, set(labels_section), labeling
        )
    except ValidationError as exc:
        raise ScenarioError(f"transition system rejected: {exc}") from exc


def built_system(build, text):
    try:
        ts = build(text)
    except ScenarioError as exc:
        return str(exc)
    moves = np.repeat(np.arange(ts.n), np.diff(ts.move_ptr))
    return (ts.names, ts.initial, moves.tolist(), ts.move_dst.tolist(),
            ts.move_weight.tolist(), ts.labels, ts.propositions)


def new_build(text):
    return _build_ts_from_config(read_ini(list(io.StringIO(text)), "case.ini"))


def old_build(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return reference_explicit_system(parser)


# a name that reads as a key: no delimiter in it
SOURCE = st.sampled_from(["a", "b", "c", "d", "e"])
STATE = st.one_of(SOURCE, SOURCE, SOURCE, st.sampled_from(["a:b", "", "f"]))
WEIGHT = st.one_of(
    st.sampled_from(["1", "2.5", "1e3", "1_0"]),
    st.sampled_from(["0", "-1", "nan", "inf", "x", ""]),
)
TOKEN = st.one_of(
    st.builds("{}:{}".format, SOURCE, st.sampled_from(["1", "2.5", "1e3"])),
    st.builds("{}:{}".format, SOURCE, st.sampled_from(["1", "2.5", "1e3"])),
    st.builds("{}:{}".format, STATE, WEIGHT),
    st.sampled_from(["a", "b:", ":1", "a:b:2", "a::1"]),
)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.tuples(SOURCE, st.lists(TOKEN, max_size=3)), max_size=6,
        unique_by=lambda line: line[0],
    ),
    labels=st.lists(st.tuples(st.sampled_from(["p", "q", "sur"]), st.lists(STATE, max_size=4)),
                    max_size=3, unique_by=lambda label: label[0]),
    initial=SOURCE,
)
def test_explicit_systems_build_as_the_token_by_token_loader_built_them(lines, labels, initial):
    text = "\n".join(
        ["[ts]", f"initial = {initial}", "[transitions]",
         *(f"{source} = {' '.join(tokens)}" for source, tokens in lines),
         "[labels]", *(f"{prop} = {' '.join(names)}" for prop, names in labels)]
    )
    assert built_system(new_build, text) == built_system(old_build, text)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_valid_explicit_systems_build_as_the_token_by_token_loader_built_them(data):
    """Systems every state of which has a move, their lines in any order, so
    that numbering by first mention differs from numbering by line."""
    names = data.draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, unique=True), label="names")
    lines = []
    for source in data.draw(st.permutations(names), label="order"):
        targets = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        lines.append(f"{source} = " + " ".join(f"{target}:{len(target) + 0.5}" for target in targets))
    labels = [
        f"{prop} = " + " ".join(data.draw(st.lists(st.sampled_from(names), max_size=5)))
        for prop in data.draw(st.lists(st.sampled_from(["p", "q", "sur"]), unique=True))
    ]
    text = "\n".join(
        ["[ts]", f"initial = {names[0]}", "[transitions]", *lines, "[labels]", *labels]
    )
    built = built_system(new_build, text)
    assert isinstance(built, tuple), built
    assert built == built_system(old_build, text)
