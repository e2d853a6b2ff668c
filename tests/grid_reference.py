"""Grid systems built one cell and one move at a time over names: the oracle
for ``surplan.scenario.build_grid``.

``build_grid`` computes each direction's moves with numpy index arithmetic
and names each cell once. This is the build it replaces: a dict keyed by
``(source name, target name)`` filled cell by cell, successor tuples sorted
per state, and the CSR arrays read off those. The two must agree on every
array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from surplan.scenario import grid_state_name


@dataclass(frozen=True)
class GridArrays:
    names: tuple[str, ...]
    initial: int
    labels: tuple[frozenset[str], ...]
    move_ptr: np.ndarray
    move_dst: np.ndarray
    move_weight: np.ndarray


def reference_build_grid(
    rows: int,
    cols: int,
    labels: dict[str, set[tuple[int, int]]],
    initial: tuple[int, int],
    horizontal: float,
    vertical: float,
    diagonal: float,
    self_loop: float | None,
) -> GridArrays:
    """The 8-connected ``rows`` x ``cols`` grid with the given move weights."""
    states = [grid_state_name(r, c) for r in range(rows) for c in range(cols)]
    index = {name: i for i, name in enumerate(states)}
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
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    transitions[(src, grid_state_name(r + dr, c + dc))] = w
            if self_loop is not None:
                transitions[(src, src)] = self_loop

    labeling: dict[str, set[str]] = {}
    for prop, cells in labels.items():
        for r, c in cells:
            labeling.setdefault(grid_state_name(r, c), set()).add(prop)

    weight_of = {(index[a], index[b]): float(w) for (a, b), w in transitions.items()}
    succ: list[list[int]] = [[] for _ in states]
    for i, j in weight_of:
        succ[i].append(j)
    succ = [sorted(js) for js in succ]
    return GridArrays(
        names=tuple(states),
        initial=index[grid_state_name(*initial)],
        labels=tuple(frozenset(labeling.get(name, ())) for name in states),
        move_ptr=np.cumsum([0] + [len(js) for js in succ]),
        move_dst=np.array([j for js in succ for j in js], dtype=np.int64),
        move_weight=np.array([weight_of[(i, j)] for i, js in enumerate(succ) for j in js]),
    )
