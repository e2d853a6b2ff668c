"""Scenario files: INI-based descriptions of a complete planning problem.

A scenario bundles everything one experiment needs: the transition system
(either a rectangular grid or an explicit edge list), the atomic-proposition
labeling, the mission formula, planner parameters (visibility radius, planning
horizon, potential and preference choices), reward-dynamics parameters, and
experiment settings (seed, runs, iterations per run).
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import ContractError, LtlSyntaxError, ScenarioError, ValidationError
from .localruns import validate_planner_range
from .ltl import KEYWORDS, Always, And, Atom, Eventually, Formula, is_atom_name, parse
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

    names = [grid_state_name(r, c) for r in range(rows) for c in range(cols)]
    labeling: dict[str, set[str]] = {}
    for prop, cells in labels.items():
        for r, c in cells:
            if not inside(r, c):
                raise ScenarioError(f"label {prop!r} names cell {(r, c)} outside the {rows}x{cols} grid")
            labeling.setdefault(names[r * cols + c], set()).add(prop)
    if not inside(*initial):
        raise ScenarioError(f"initial cell {initial} outside the {rows}x{cols} grid")

    cell = np.arange(rows * cols).reshape(rows, cols)
    moves = [
        (-1, 0, vertical), (1, 0, vertical),
        (0, -1, horizontal), (0, 1, horizontal),
        (-1, -1, diagonal), (-1, 1, diagonal),
        (1, -1, diagonal), (1, 1, diagonal),
    ] + ([] if self_loop is None else [(0, 0, self_loop)])
    src, dst, weight = [], [], []
    for dr, dc, w in moves:
        # the cells whose neighbor (r + dr, c + dc) lies inside the grid
        start = cell[max(-dr, 0) : rows - max(dr, 0), max(-dc, 0) : cols - max(dc, 0)].ravel()
        src.append(start)
        dst.append(start + dr * cols + dc)
        weight.append(np.full(len(start), w, dtype=np.float64))
    return TransitionSystem(
        names=names,
        initial=names[initial[0] * cols + initial[1]],
        src=np.concatenate(src),
        dst=np.concatenate(dst),
        weight=np.concatenate(weight),
        propositions=set(labels),
        labels=labeling,
    )


def _mission_formula(text: str, surveillance_prop: str, propositions: set[str]) -> Formula:
    """Parse the mission and guarantee a recurrent-surveillance conjunct.

    The planner requires the mission to demand infinitely many visits to
    surveyed states.  If no top-level conjunct already has that shape, one
    is appended as the last conjunct. A label, the surveillance one included,
    must be a name the formula grammar reads as a proposition, and the
    surveillance label must be declared like any other.
    """
    for prop in sorted(propositions | {surveillance_prop}):
        if not is_atom_name(prop):
            raise ScenarioError(
                f"label {prop!r} cannot appear in a formula: a label is a letter or _"
                f" then letters, digits or _, and none of {', '.join(sorted(KEYWORDS))}"
            )
    if surveillance_prop not in propositions:
        raise ScenarioError(
            f"surveillance label {surveillance_prop!r} is not declared in [labels]"
        )
    try:
        formula = parse(text, propositions)
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
    """Parse cells like ``0,0 4,1-8`` (single cells and ascending column
    ranges) of a ``rows`` x ``cols`` grid; a cell outside the grid is refused
    before any range is expanded."""
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
        if not span:
            raise ScenarioError(
                f"label {prop!r}: column range {token!r} ends below its start"
            )
        for col in (span[0], span[-1]):
            if not (0 <= row < rows and 0 <= col < cols):
                raise ScenarioError(
                    f"label {prop!r} names cell {(row, col)} outside the {rows}x{cols} grid"
                )
        for col in span:
            cells.add((row, col))
    return cells


# The INI dialect of Python's configparser as load_scenario has always set it
# up: ConfigParser(interpolation=None) with case-kept keys (optionxform = str),
# that is strict, with '=' and ':' as delimiters, '#' and ';' full-line
# comments, no inline comments, blank lines kept inside values and no
# valueless keys. The section pattern is configparser's own.
_SECTION = re.compile(r"\[(?P<header>.+)\]")
_DEFAULT = "DEFAULT"
# a plain line starts with none of these, and so is a key line at indent 0
_IRREGULAR = re.compile(r"[\s#;\[]")


def _parse_error(source: str, detail: str) -> ScenarioError:
    return ScenarioError(f"cannot parse {source}: {detail}")


def _no_section_header(source: str, lineno: int, line: str) -> ScenarioError:
    return _parse_error(
        source,
        "File contains no section headers.\nfile: %r, line: %d\n%r" % (source, lineno, line),
    )


def _duplicate_key(source: str, section: str, key: str, lineno: int) -> ScenarioError:
    return _parse_error(
        source,
        f"While reading from {source!r} [line {lineno:2d}]: option {key!r} in section"
        f" {section!r} already exists",
    )


def _cut(text: str, count: int, delimiters: str, last: bool = False):
    """Cut each of the ``count`` newline-ended pieces of ``text`` (the last
    may lack its newline) at its first, or with ``last`` its last, character
    among ``delimiters``.

    Returns the parts before and after the cut of each piece that has one,
    and a mask of those pieces. The text is cut in bulk: the cuts are found
    in an array of its code points and replaced by newlines, and one split
    gives every part in turn.
    """
    code = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    ends = np.append(np.flatnonzero(code == ord("\n")), len(code))[:count]
    starts = np.concatenate(([0], ends + 1))[:count]
    hit = code == ord(delimiters[0])
    for c in delimiters[1:]:
        hit |= code == ord(c)
    at = np.flatnonzero(hit)
    if last:
        cut = np.concatenate(([-1], at))[np.searchsorted(at, ends)]
        has = cut >= starts
    else:
        cut = np.append(at, len(code))[np.searchsorted(at, starts)]
        has = cut < ends
    marked = code.copy()
    marked[cut[has]] = ord("\n")
    parts = marked.tobytes().decode("utf-32-le", "surrogatepass").split("\n")
    if has.all():
        return parts[0 : 2 * count : 2], parts[1 : 2 * count : 2], has
    # a piece with no cut stays one part, and one with a cut gives two
    head = (np.cumsum(1 + has) - 1 - has)[has].tolist()
    return [parts[i] for i in head], [parts[i + 1] for i in head], has


def _scan_ini(
    lines: list[str], source: str
) -> tuple[dict[str, dict[str, str]], list[tuple[int, str]]]:
    """The sections of an INI text, ``[DEFAULT]`` among them, and its bad lines.

    ``lines`` are the text's lines with their line ends, as iterating over a
    file gives them. The reading is configparser's, in one pass: a line is
    a comment or blank, a continuation of the last key's value (indented
    deeper than that key), a section header, or a ``key = value`` line. A
    repeated section or key, or a key line before any section header,
    raises at once; lines that are none of these are returned, as
    configparser reports them all at the end. Runs of plain lines, which
    start at indent 0 with a character that makes them key lines, are split
    in bulk; the rest are read one by one, a key line among them as a run of
    one.
    """
    store: dict[str, dict[str, str]] = {_DEFAULT: {}}
    more: dict[tuple[str, str], list[str]] = {}
    errors: list[tuple[int, str]] = []
    section: str | None = None
    key: str | None = None
    indent = 0

    # store the count key lines of text, lines first + 1 on, in the section
    def record(text: str, first: int, count: int) -> None:
        nonlocal key
        keys, found, has = _cut(text, count, "=:")
        keys, found = list(map(str.rstrip, keys)), list(map(str.strip, found))
        numbers = range(first + 1, first + count + 1)
        if not has.all():
            # lines with no delimiter are bad, and leave the last key as it was
            errors.extend((n, lines[n - 1]) for n, ok in zip(numbers, has) if not ok)
            numbers = list(compress(numbers, has.tolist()))
        fresh = dict(zip(keys, found))
        current = store[section]
        if len(fresh) < len(keys) or not current.keys().isdisjoint(fresh):
            seen = set(current)
            for k, n in zip(keys, numbers):
                if k in seen:
                    raise _duplicate_key(source, section, k, n)
                seen.add(k)
        if "" in fresh:
            n = numbers[keys.index("")]
            errors.append((n, lines[n - 1]))
            errors.sort()
        if current:
            current.update(fresh)
        else:
            store[section] = fresh
        if keys:
            key = keys[-1]

    # the positions of the lines that are not plain, by their first character
    heads = "".join(map(itemgetter(0), lines))
    irregular = [match.start() for match in _IRREGULAR.finditer(heads)]
    start = 0
    for at in [*irregular, len(lines)]:
        if start < at:
            if section is None:
                raise _no_section_header(source, start + 1, lines[start])
            # a plain line is a key line at indent 0
            record("".join(lines[start:at]), start, at - start)
            indent = 0
        start = at + 1
        if at == len(lines):
            break
        line = lines[at]
        value = line.strip()
        if not value or value[0] in "#;":
            # a blank line belongs to the value being read; a comment does not
            if not value and key:
                more.setdefault((section, key), []).append("")
            continue
        depth = len(line) - len(line.lstrip())
        if section is not None and key and depth > indent:
            more.setdefault((section, key), []).append(value)
            continue
        indent = depth
        match = _SECTION.match(value)
        if match:
            section = match.group("header")
            if section != _DEFAULT and section in store:
                raise _parse_error(
                    source,
                    f"While reading from {source!r} [line {at + 1:2d}]: section"
                    f" {section!r} already exists",
                )
            store.setdefault(section, {})
            key = None
        elif section is None:
            raise _no_section_header(source, at + 1, line)
        else:
            record(value, at, 1)
    for (name, k), parts in more.items():
        store[name][k] = "\n".join([store[name][k], *parts]).rstrip()
    return store, errors


def read_ini(lines: list[str], source: str) -> dict[str, dict[str, str]]:
    """Each section of an INI text, ``[DEFAULT]`` aside, as a dict of its keys
    and values with ``[DEFAULT]``'s keys merged in first.

    It accepts and refuses what Python's configparser, set up as
    ``ConfigParser(interpolation=None)`` with ``optionxform = str``, accepts
    and refuses, and reads the same sections, keys and values; a refusal is
    a ScenarioError carrying configparser's message.
    """
    store, errors = _scan_ini(lines, source)
    if errors:
        raise _parse_error(
            source,
            f"Source contains parsing errors: {source!r}"
            + "".join("\n\t[line %2d]: %r" % error for error in errors),
        )
    defaults = store.pop(_DEFAULT)
    if not defaults:
        return store
    return {name: {**defaults, **items} for name, items in store.items()}


def _read_scenario_file(path: Path) -> dict[str, dict[str, str]]:
    """The sections of a scenario file, read as UTF-8 text."""
    source = os.fspath(path)
    lines: list[str] = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines.extend(handle)
    except UnicodeDecodeError as exc:
        # a line read before the undecodable one may already be refused
        _scan_ini(lines, source)
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    return read_ini(lines, source)


class _SectionView:
    """Typed access to one INI section with unknown-key detection."""

    def __init__(self, sections: dict[str, dict[str, str]], section: str):
        self._name = section
        self._items = sections.get(section, {})
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


def _build_ts_from_config(sections: dict[str, dict[str, str]]) -> TransitionSystem:
    has_grid = "grid" in sections
    has_explicit = "transitions" in sections
    if has_grid == has_explicit:
        raise ScenarioError("scenario must have exactly one of [grid] or [transitions]")

    labels_section = sections.get("labels", {})

    if has_grid:
        grid = _SectionView(sections, "grid")
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

    ts_section = _SectionView(sections, "ts")
    initial = ts_section.require("initial")
    ts_section.check_unknown()
    transitions = sections["transitions"]
    sources, entries = list(transitions), list(transitions.values())
    counts = np.fromiter(map(len, map(str.split, entries)), np.int64, len(entries))
    # every entry's tokens, one after another, each cut at its last colon
    # into target and weight
    tokens = " ".join(entries).split()
    targets, weights, has = _cut("\n".join(tokens), len(tokens), ":", last=True)
    try:
        if not has.all():
            raise ValueError("a token without a colon")
        weight = np.fromiter(map(float, weights), np.float64, len(tokens))
    except ValueError as exc:
        for source, entry in transitions.items():
            for token in entry.split():
                if ":" not in token or not _is_float(token.rpartition(":")[2]):
                    raise ScenarioError(
                        f"[transitions] {source}: bad entry {token!r}, expected state:weight"
                    ) from exc
        raise
    # The mentions in file order, each source before its targets. Each name
    # keeps the position of its first mention, and states are numbered in
    # the order of those positions.
    line_of = np.repeat(np.arange(len(sources)), counts)
    source_at = np.arange(len(sources)) + np.cumsum(counts) - counts
    target_at = np.arange(len(targets)) + line_of + 1
    mentions = np.empty(len(sources) + len(targets), dtype=object)
    mentions[source_at] = sources
    mentions[target_at] = targets
    first: dict[str, int] = {}
    at = np.fromiter(map(first.setdefault, mentions, range(len(mentions))), np.int64, len(mentions))
    firsts, state_of = np.unique(at, return_inverse=True)
    # each state's label, one shared set per proposition where it holds one
    labeling: dict[str, frozenset[str]] = {}
    for prop, entry in labels_section.items():
        held = dict.fromkeys(entry.split(), frozenset((prop,)))
        if not held.keys() <= first.keys():
            name = next(name for name in held if name not in first)
            raise ScenarioError(f"label {prop!r} names unknown state {name!r}")
        held.update({name: labeling[name] | {prop} for name in labeling.keys() & held.keys()})
        labeling.update(held)
    try:
        return TransitionSystem(
            names=mentions[firsts].tolist(),
            initial=initial,
            src=state_of[source_at][line_of],
            dst=state_of[target_at],
            weight=weight,
            propositions=set(labels_section),
            labels=labeling,
        )
    except ValidationError as exc:
        raise ScenarioError(f"transition system rejected: {exc}") from exc


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_scenario(path: str | Path, overrides: dict | None = None) -> Scenario:
    """Load and validate a scenario file.

    ``overrides`` replaces selected settings (seed, runs, iterations,
    potential or preference name) before validation, so command-line flags
    go through the same checks as file contents.
    """
    path = Path(path)
    # values are taken literally: a '%' is part of the value, not a reference
    sections = _read_scenario_file(path)

    ts = _build_ts_from_config(sections)

    mission = _SectionView(sections, "mission")
    formula_text = mission.require("formula")
    surveillance_prop = mission.get("surveillance", "sur")
    mission.check_unknown()

    planner = _SectionView(sections, "planner")
    visibility = planner.get_float("visibility")
    horizon = planner.get_float("horizon")
    if visibility is None or horizon is None:
        raise ScenarioError("[planner] requires visibility and horizon")
    potential_name = planner.get("pot", "max-sum")
    preference_name = planner.get("pref", "threshold")
    preference_threshold = planner.get_float("pref-threshold", 50.0)
    planner.check_unknown()

    dynamics = _SectionView(sections, "dynamics")
    kind = dynamics.get("kind", "decay-spawn")
    if kind != "decay-spawn":
        raise ScenarioError(f"unknown dynamics kind {kind!r}")
    spawn_probability = dynamics.get_float("spawn-probability", 0.05)
    refresh_value = dynamics.get_float("refresh-value", 15.0)
    burn_in = dynamics.get_int("burn-in", 100)
    dynamics.check_unknown()

    experiment = _SectionView(sections, "experiment")
    seed = experiment.get_int("seed", 0)
    iterations = experiment.get_int("iterations", 100)
    runs = experiment.get_int("runs", 5)
    run_seeds_raw = experiment.get("run-seeds")
    experiment.check_unknown()

    known = {"grid", "ts", "transitions", "labels", "mission", "planner", "dynamics", "experiment"}
    unknown_sections = set(sections) - known
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

    formula = _mission_formula(formula_text, surveillance_prop, set(ts.propositions))
    try:
        validate_planner_range(visibility, horizon, ts.max_weight)
        validate_visibility_assumption(ts, visibility)
    except (ContractError, ValidationError) as exc:
        raise ScenarioError(str(exc)) from exc

    if potential_name not in POTENTIALS:
        raise ScenarioError(f"unknown potential {potential_name!r}; known: {sorted(POTENTIALS)}")
    if preference_name not in PREFERENCES:
        raise ScenarioError(
            f"unknown preference {preference_name!r}; known: {sorted(PREFERENCES)}"
        )
    if not 0.0 <= spawn_probability <= 1.0:
        raise ScenarioError(f"spawn-probability must lie in [0, 1], got {spawn_probability}")
    if not (math.isfinite(refresh_value) and refresh_value >= 0):
        raise ScenarioError(f"refresh-value must be finite and non-negative, got {refresh_value}")
    if not (math.isfinite(preference_threshold) and preference_threshold > 0):
        raise ScenarioError(
            f"pref-threshold must be finite and positive, got {preference_threshold}"
        )
    if burn_in < 0:
        raise ScenarioError(f"burn-in must be non-negative, got {burn_in}")
    if iterations < 1:
        raise ScenarioError(f"iterations must be at least 1, got {iterations}")
    if runs < 1:
        raise ScenarioError(f"runs must be at least 1, got {runs}")
    # numpy seeds its generators from non-negative integers only
    seeds = [seed, *(run_seeds or ())]
    if min(seeds) < 0:
        raise ScenarioError(f"seeds must be non-negative, got {min(seeds)}")

    return Scenario(
        name=path.stem, ts=ts, formula=formula, formula_text=formula_text,
        surveillance_prop=surveillance_prop, visibility=visibility, horizon=horizon,
        potential_name=potential_name, preference_name=preference_name,
        refresh_value=refresh_value, preference_threshold=preference_threshold,
        spawn_probability=spawn_probability, burn_in=burn_in, seed=seed,
        iterations=iterations, runs=runs, run_seeds=run_seeds,
    )
