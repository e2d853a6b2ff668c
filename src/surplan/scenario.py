"""Scenario files: INI-based descriptions of a complete planning problem.

A scenario bundles everything one experiment needs: the transition system
(either a rectangular grid or an explicit edge list), the atomic-proposition
labeling, the mission formula, planner parameters (visibility radius, planning
horizon, potential and preference choices), reward-dynamics parameters, and
experiment settings (seed, runs, iterations per run).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import LtlSyntaxError, ScenarioError, ValidationError
from .ltl import Always, And, Atom, Eventually, Formula, parse
from .rewards import PREFERENCES, POTENTIALS
from .ts import TransitionSystem, validate_visibility_assumption

_GRID_DEFAULT_HORIZONTAL = 2.0
_GRID_DEFAULT_VERTICAL = 2.0
_GRID_DEFAULT_DIAGONAL = 3.0


@dataclass(frozen=True)
class Scenario:
    """A fully validated planning problem plus experiment settings."""

    name: str
    ts: TransitionSystem
    formula: Formula
    formula_text: str
    surveillance_prop: str
    visibility: float
    horizon: float
    potential_name: str
    preference_name: str
    refresh_value: float
    preference_threshold: float
    spawn_probability: float
    burn_in: int
    seed: int
    iterations: int
    runs: int
    run_seeds: tuple[int, ...] | None = None


def grid_state_name(row: int, col: int) -> str:
    return f"r{row}c{col}"


def build_grid(
    rows: int,
    cols: int,
    labels: dict[str, set[tuple[int, int]]],
    initial: tuple[int, int],
    horizontal: float = _GRID_DEFAULT_HORIZONTAL,
    vertical: float = _GRID_DEFAULT_VERTICAL,
    diagonal: float = _GRID_DEFAULT_DIAGONAL,
    self_loop: float | None = None,
) -> TransitionSystem:
    """Build an 8-connected rectangular grid transition system.

    Horizontal and vertical moves use the respective weights and diagonal
    moves the diagonal weight.  A single-cell grid has no neighbor moves, so
    it is accepted only when a self-loop weight is declared.
    """
    if rows < 1 or cols < 1:
        raise ScenarioError(f"grid must be at least 1x1, got {rows}x{cols}")
    if rows * cols == 1 and self_loop is None:
        raise ScenarioError(
            "a 1x1 grid has no moves; declare self-loop-weight to keep"
            " every state on an outgoing transition"
        )

    def inside(r: int, c: int) -> bool:
        return 0 <= r < rows and 0 <= c < cols

    for prop, cells in labels.items():
        for cell in cells:
            if not inside(*cell):
                raise ScenarioError(f"label {prop!r} names cell {cell} outside the {rows}x{cols} grid")
    if not inside(*initial):
        raise ScenarioError(f"initial cell {initial} outside the {rows}x{cols} grid")

    states = [grid_state_name(r, c) for r in range(rows) for c in range(cols)]
    transitions: dict[tuple[str, str], float] = {}
    moves = [
        (-1, 0, vertical), (1, 0, vertical),
        (0, -1, horizontal), (0, 1, horizontal),
        (-1, -1, diagonal), (-1, 1, diagonal),
        (1, -1, diagonal), (1, 1, diagonal),
    ]
    for r in range(rows):
        for c in range(cols):
            src = grid_state_name(r, c)
            for dr, dc, w in moves:
                if inside(r + dr, c + dc):
                    transitions[(src, grid_state_name(r + dr, c + dc))] = w
            if self_loop is not None:
                transitions[(src, src)] = self_loop

    labeling: dict[str, set[str]] = {}
    for prop, cells in labels.items():
        for r, c in cells:
            labeling.setdefault(grid_state_name(r, c), set()).add(prop)

    return TransitionSystem(
        names=states,
        initial=grid_state_name(*initial),
        transitions=transitions,
        propositions=set(labels),
        labels=labeling,
    )


def _mission_formula(text: str, surveillance_prop: str, propositions: set[str]) -> Formula:
    """Parse the mission and guarantee a recurrent-surveillance conjunct.

    The planner requires the mission to demand infinitely many visits to
    surveyed states.  If no top-level conjunct already has that shape, one
    is appended as the last conjunct.
    """
    try:
        formula = parse(text, propositions | {surveillance_prop})
    except LtlSyntaxError as exc:
        raise ScenarioError(f"mission formula rejected: {exc}") from exc
    recurrent = Always(Eventually(Atom(surveillance_prop)))

    def conjuncts(f: Formula):
        if isinstance(f, And):
            yield from conjuncts(f.left)
            yield from conjuncts(f.right)
        else:
            yield f

    if recurrent in set(conjuncts(formula)):
        return formula
    return And(formula, recurrent)


def _parse_grid_cells(text: str, prop: str, rows: int, cols: int) -> set[tuple[int, int]]:
    """Parse cells like ``0,0 4,1-8`` (single cells and column ranges) of a
    ``rows`` x ``cols`` grid; a cell outside the grid is refused before any
    range is expanded."""
    cells: set[tuple[int, int]] = set()
    for token in text.split():
        try:
            row_part, col_part = token.split(",")
            row = int(row_part)
            if "-" in col_part:
                lo, hi = col_part.split("-")
                span = range(int(lo), int(hi) + 1)
            else:
                span = range(int(col_part), int(col_part) + 1)
        except ValueError as exc:
            raise ScenarioError(
                f"label {prop!r}: bad grid cell {token!r}, expected row,col or row,col-col"
            ) from exc
        for col in (span[0], span[-1]) if span else ():
            if not (0 <= row < rows and 0 <= col < cols):
                raise ScenarioError(
                    f"label {prop!r} names cell {(row, col)} outside the {rows}x{cols} grid"
                )
        for col in span:
            cells.add((row, col))
    return cells


class _SectionView:
    """Typed access to one INI section with unknown-key detection."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self._name = section
        self._items = dict(parser.items(section)) if parser.has_section(section) else {}
        self._seen: set[str] = set()

    def get(self, key: str, default=None):
        self._seen.add(key)
        return self._items.get(key, default)

    def require(self, key: str) -> str:
        value = self.get(key)
        if value is None:
            raise ScenarioError(f"[{self._name}] is missing required key {key!r}")
        return value

    def get_float(self, key: str, default: float | None = None) -> float | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError as exc:
            raise ScenarioError(f"[{self._name}] {key} must be a number, got {raw!r}") from exc

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError as exc:
            raise ScenarioError(f"[{self._name}] {key} must be an integer, got {raw!r}") from exc

    def check_unknown(self) -> None:
        unknown = set(self._items) - self._seen
        if unknown:
            raise ScenarioError(f"[{self._name}] has unknown keys: {sorted(unknown)}")


def _build_ts_from_config(parser: configparser.ConfigParser) -> TransitionSystem:
    has_grid = parser.has_section("grid")
    has_explicit = parser.has_section("transitions")
    if has_grid == has_explicit:
        raise ScenarioError("scenario must have exactly one of [grid] or [transitions]")

    labels_section = dict(parser.items("labels")) if parser.has_section("labels") else {}

    if has_grid:
        grid = _SectionView(parser, "grid")
        rows = grid.get_int("rows")
        cols = grid.get_int("cols")
        if rows is None or cols is None:
            raise ScenarioError("[grid] requires rows and cols")
        initial_raw = grid.require("initial")
        initial_cells = _parse_grid_cells(initial_raw, "initial", rows, cols)
        if len(initial_cells) != 1:
            raise ScenarioError(f"[grid] initial must name exactly one cell, got {initial_raw!r}")
        labels = {
            prop: _parse_grid_cells(text, prop, rows, cols)
            for prop, text in labels_section.items()
        }
        try:
            ts = build_grid(
                rows,
                cols,
                labels,
                next(iter(initial_cells)),
                horizontal=grid.get_float("horizontal-weight", _GRID_DEFAULT_HORIZONTAL),
                vertical=grid.get_float("vertical-weight", _GRID_DEFAULT_VERTICAL),
                diagonal=grid.get_float("diagonal-weight", _GRID_DEFAULT_DIAGONAL),
                self_loop=grid.get_float("self-loop-weight"),
            )
        except ValidationError as exc:
            raise ScenarioError(f"transition system rejected: {exc}") from exc
        grid.check_unknown()
        return ts

    ts_section = _SectionView(parser, "ts")
    initial = ts_section.require("initial")
    ts_section.check_unknown()
    transitions: dict[tuple[str, str], float] = {}
    states: list[str] = []
    for src, entry in parser.items("transitions"):
        if src not in states:
            states.append(src)
        for token in entry.split():
            try:
                dst, weight_text = token.rsplit(":", 1)
                weight = float(weight_text)
            except ValueError as exc:
                raise ScenarioError(
                    f"[transitions] {src}: bad entry {token!r}, expected state:weight"
                ) from exc
            transitions[(src, dst)] = weight
            if dst not in states:
                states.append(dst)
    labeling: dict[str, set[str]] = {}
    for prop, entry in labels_section.items():
        for name in entry.split():
            if name not in states:
                raise ScenarioError(f"label {prop!r} names unknown state {name!r}")
            labeling.setdefault(name, set()).add(prop)
    try:
        return TransitionSystem(
            names=states,
            initial=initial,
            transitions=transitions,
            propositions=set(labels_section),
            labels=labeling,
        )
    except ValidationError as exc:
        raise ScenarioError(f"transition system rejected: {exc}") from exc


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Load and validate a scenario file.

    ``overrides`` replaces selected settings (seed, runs, iterations,
    potential or preference name) before validation, so command-line flags
    go through the same checks as file contents.
    """
    path = Path(path)
    # values are taken literally: a '%' is part of the value, not a reference
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse {path}: {exc}") from exc

    ts = _build_ts_from_config(parser)

    mission = _SectionView(parser, "mission")
    formula_text = mission.require("formula")
    surveillance_prop = mission.get("surveillance", "sur")
    mission.check_unknown()

    planner = _SectionView(parser, "planner")
    visibility = planner.get_float("visibility")
    horizon = planner.get_float("horizon")
    if visibility is None or horizon is None:
        raise ScenarioError("[planner] requires visibility and horizon")
    potential_name = planner.get("pot", "max-sum")
    preference_name = planner.get("pref", "threshold")
    preference_threshold = planner.get_float("pref-threshold", 50.0)
    planner.check_unknown()

    dynamics = _SectionView(parser, "dynamics")
    kind = dynamics.get("kind", "decay-spawn")
    if kind != "decay-spawn":
        raise ScenarioError(f"unknown dynamics kind {kind!r}")
    spawn_probability = dynamics.get_float("spawn-probability", 0.05)
    refresh_value = dynamics.get_float("refresh-value", 15.0)
    burn_in = dynamics.get_int("burn-in", 100)
    dynamics.check_unknown()

    experiment = _SectionView(parser, "experiment")
    seed = experiment.get_int("seed", 0)
    iterations = experiment.get_int("iterations", 100)
    runs = experiment.get_int("runs", 5)
    run_seeds_raw = experiment.get("run-seeds")
    experiment.check_unknown()

    known = {"grid", "ts", "transitions", "labels", "mission", "planner", "dynamics", "experiment"}
    unknown_sections = set(parser.sections()) - known
    if unknown_sections:
        raise ScenarioError(f"unknown sections: {sorted(unknown_sections)}")

    overrides = dict(overrides or {})
    seed = overrides.pop("seed", seed)
    runs = overrides.pop("runs", runs)
    iterations = overrides.pop("iterations", iterations)
    potential_name = overrides.pop("potential", potential_name)
    preference_name = overrides.pop("preference", preference_name)
    if overrides:
        raise ScenarioError(f"unknown scenario overrides: {sorted(overrides)}")

    run_seeds: tuple[int, ...] | None = None
    if run_seeds_raw is not None:
        try:
            run_seeds = tuple(int(token) for token in run_seeds_raw.split())
        except ValueError as exc:
            raise ScenarioError(f"[experiment] run-seeds must be integers: {run_seeds_raw!r}") from exc
        if len(run_seeds) != runs:
            raise ScenarioError(
                f"[experiment] run-seeds lists {len(run_seeds)} seeds for {runs} runs"
            )

    return _validated_scenario(
        name=path.stem,
        ts=ts,
        formula_text=formula_text,
        surveillance_prop=surveillance_prop,
        visibility=visibility,
        horizon=horizon,
        potential_name=potential_name,
        preference_name=preference_name,
        refresh_value=refresh_value,
        preference_threshold=preference_threshold,
        spawn_probability=spawn_probability,
        burn_in=burn_in,
        seed=seed,
        iterations=iterations,
        runs=runs,
        run_seeds=run_seeds,
    )


def _validated_scenario(**kwargs) -> Scenario:
    ts: TransitionSystem = kwargs["ts"]
    formula = _mission_formula(
        kwargs["formula_text"], kwargs["surveillance_prop"], set(ts.propositions)
    )

    visibility = kwargs["visibility"]
    horizon = kwargs["horizon"]
    if not math.isfinite(visibility) or visibility <= 0:
        raise ScenarioError(f"visibility must be finite and positive, got {visibility}")
    if not math.isfinite(horizon):
        raise ScenarioError(f"horizon must be finite, got {horizon}")
    if horizon < ts.max_weight:
        raise ScenarioError(
            f"horizon {horizon} is below the largest transition weight {ts.max_weight};"
            " the planner could not expand any run"
        )
    try:
        validate_visibility_assumption(ts, visibility)
    except ValidationError as exc:
        raise ScenarioError(str(exc)) from exc

    if kwargs["potential_name"] not in POTENTIALS:
        raise ScenarioError(
            f"unknown potential {kwargs['potential_name']!r}; known: {sorted(POTENTIALS)}"
        )
    if kwargs["preference_name"] not in PREFERENCES:
        raise ScenarioError(
            f"unknown preference {kwargs['preference_name']!r}; known: {sorted(PREFERENCES)}"
        )
    if not 0.0 <= kwargs["spawn_probability"] <= 1.0:
        raise ScenarioError(f"spawn-probability must lie in [0, 1], got {kwargs['spawn_probability']}")
    if not (math.isfinite(kwargs["refresh_value"]) and kwargs["refresh_value"] >= 0):
        raise ScenarioError(
            f"refresh-value must be finite and non-negative, got {kwargs['refresh_value']}"
        )
    if not (math.isfinite(kwargs["preference_threshold"]) and kwargs["preference_threshold"] > 0):
        raise ScenarioError(
            f"pref-threshold must be finite and positive, got {kwargs['preference_threshold']}"
        )
    if kwargs["burn_in"] < 0:
        raise ScenarioError(f"burn-in must be non-negative, got {kwargs['burn_in']}")
    if kwargs["iterations"] < 1:
        raise ScenarioError(f"iterations must be at least 1, got {kwargs['iterations']}")
    if kwargs["runs"] < 1:
        raise ScenarioError(f"runs must be at least 1, got {kwargs['runs']}")
    # numpy seeds its generators from non-negative integers only
    seeds = [kwargs["seed"], *(kwargs["run_seeds"] or ())]
    if min(seeds) < 0:
        raise ScenarioError(f"seeds must be non-negative, got {min(seeds)}")

    return Scenario(formula=formula, **kwargs)


def default_case_study(
    potential_name: str = "max-sum",
    preference_name: str = "threshold",
    seed: int = 7,
    runs: int = 5,
    iterations: int = 100,
) -> Scenario:
    """The built-in 10x10 benchmark scenario.

    Two transmitter corners must be visited in strict alternation, a band of
    unsafe cells separates them leaving two corridors, and both transmitters
    double as surveillance states.
    """
    labels = {
        "a": {(0, 0)},
        "b": {(9, 9)},
        "sur": {(0, 0), (9, 9)},
        "u": {(4, c) for c in range(1, 9)},
    }
    ts = build_grid(10, 10, labels, initial=(9, 0))
    return _validated_scenario(
        name="case-study",
        ts=ts,
        formula_text="G (a -> X (!a U b)) & G (b -> X (!b U a)) & G !u",
        surveillance_prop="sur",
        visibility=6.0,
        horizon=9.0,
        potential_name=potential_name,
        preference_name=preference_name,
        refresh_value=15.0,
        preference_threshold=50.0,
        spawn_probability=0.05,
        burn_in=100,
        seed=seed,
        iterations=iterations,
        runs=runs,
        run_seeds=None,
    )
