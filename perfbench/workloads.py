"""The benchmark's workloads and the scenario files generated from a seed.

Every workload is a grid world with the same weights, visibility, preference
threshold and reward dynamics. The seed becomes the experiment
seed, so it changes the reward fields, the ties broken and therefore the
paths taken, but never the grid, the labels or the mission: the offline work
and the size of every structure stay the same from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

HORIZONTAL_WEIGHT = 2.0
VERTICAL_WEIGHT = 2.0
DIAGONAL_WEIGHT = 3.0
VISIBILITY = 6.0
PREFERENCE_THRESHOLD = 50.0
REFRESH_VALUE = 15.0
SPAWN_PROBABILITY = 0.05
BURN_IN = 100
SURVEILLANCE = "sur"
UNSAFE = "u"

Cell = tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    cols: int
    initial: Cell
    labels: dict[str, tuple[Cell, ...]]
    formula: str
    potential: str
    preference: str
    horizon: float
    runs: int
    iterations: int
    # propositions whose visits must alternate strictly, if any
    alternation: tuple[str, str] | None
    # propositions every run must visit
    patrol: tuple[str, ...]
    # accepting-core visits every run must make
    min_core_visits: int


def band(row: int, first_col: int, last_col: int) -> tuple[Cell, ...]:
    return tuple((row, col) for col in range(first_col, last_col + 1))


_CASE_LABELS = {
    "a": ((0, 0),),
    "b": ((9, 9),),
    SURVEILLANCE: ((0, 0), (9, 9)),
    UNSAFE: band(4, 1, 8),
}
_CASE_FORMULA = "G (a -> X (!a U b)) & G (b -> X (!b U a)) & G !u"


def _patrol_formula(regions: int) -> str:
    return " & ".join([f"G F p{i}" for i in range(1, regions + 1)] + ["G !u"])


WORKLOADS: dict[str, Workload] = {
    "case_study": Workload(
        name="case_study",
        why="paper's 10x10 example as many short runs: cold local-run enumeration and bundle packing dominate",
        rows=10,
        cols=10,
        initial=(9, 0),
        labels=_CASE_LABELS,
        formula=_CASE_FORMULA,
        potential="max-sum",
        preference="threshold",
        horizon=9.0,
        runs=2,
        iterations=40,
        alternation=("a", "b"),
        patrol=(),
        min_core_visits=0,
    ),
    "long_patrol": Workload(
        name="long_patrol",
        why="one run of thousands of decisions: warm potential scoring, per-step bookkeeping, dynamics, trace output",
        rows=10,
        cols=10,
        initial=(9, 0),
        labels=_CASE_LABELS,
        formula=_CASE_FORMULA,
        potential="max-single",
        preference="cubic",
        horizon=9.0,
        runs=1,
        iterations=3000,
        alternation=("a", "b"),
        patrol=("a", "b"),
        min_core_visits=2,
    ),
    "large_mission": Workload(
        name="large_mission",
        why="30x30 grid, 7 propositions (128 letters): the automaton and dense product analysis dominate set-up and memory",
        rows=30,
        cols=30,
        initial=(15, 0),
        labels={
            "p1": ((13, 10),),
            "p2": ((13, 20),),
            "p3": ((15, 15),),
            "p4": ((17, 10),),
            "p5": ((17, 20),),
            UNSAFE: band(10, 3, 26) + band(20, 3, 26),
            SURVEILLANCE: ((11, 15), (19, 15)),
        },
        formula=_patrol_formula(5),
        potential="max-sum",
        preference="threshold",
        # a shorter horizon keeps 4 x 300 decisions cheap next to the set-up
        horizon=7.0,
        runs=4,
        iterations=300,
        alternation=None,
        patrol=("p1", "p2", "p3", "p4", "p5"),
        min_core_visits=2,
    ),
}

# Small versions of the same workloads for the benchmark's own tests.
SHRUNK: dict[str, Workload] = {
    "case_study": replace(WORKLOADS["case_study"], runs=2, iterations=15),
    "long_patrol": replace(WORKLOADS["long_patrol"], iterations=200),
    "large_mission": Workload(
        name="large_mission",
        why=WORKLOADS["large_mission"].why,
        rows=12,
        cols=12,
        initial=(11, 0),
        labels={
            "p1": ((1, 1),),
            "p2": ((1, 10),),
            "p3": ((10, 10),),
            UNSAFE: band(6, 2, 9),
            SURVEILLANCE: ((0, 6), (11, 6)),
        },
        formula=_patrol_formula(3),
        potential="max-sum",
        preference="threshold",
        horizon=7.0,
        runs=1,
        iterations=250,
        alternation=None,
        patrol=("p1", "p2", "p3"),
        min_core_visits=2,
    ),
}


def scenario_text(workload: Workload, seed: int) -> str:
    """The INI scenario file of one workload for one seed."""
    labels = "\n".join(
        f"{prop} = " + " ".join(f"{r},{c}" for r, c in cells)
        for prop, cells in workload.labels.items()
    )
    return f"""\
[grid]
rows = {workload.rows}
cols = {workload.cols}
horizontal-weight = {HORIZONTAL_WEIGHT}
vertical-weight = {VERTICAL_WEIGHT}
diagonal-weight = {DIAGONAL_WEIGHT}
initial = {workload.initial[0]},{workload.initial[1]}

[labels]
{labels}

[mission]
formula = {workload.formula}
surveillance = {SURVEILLANCE}

[planner]
visibility = {VISIBILITY}
horizon = {workload.horizon}
pot = {workload.potential}
pref = {workload.preference}
pref-threshold = {PREFERENCE_THRESHOLD}

[dynamics]
kind = decay-spawn
spawn-probability = {SPAWN_PROBABILITY}
refresh-value = {REFRESH_VALUE}
burn-in = {BURN_IN}

[experiment]
seed = {seed}
runs = {workload.runs}
iterations = {workload.iterations}
"""
