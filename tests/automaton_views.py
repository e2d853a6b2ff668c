"""Readable views of a mission automaton's CSR edges.

Test helpers: the library reads an automaton only through its CSR index
(``ptr``, ``target``) and letter masks; these list its edges one at a time,
as the tests and the automaton pins compare them.
"""

from __future__ import annotations

import numpy as np

from surplan.buchi import BuchiAutomaton
from surplan.ltl import Letter


def successors(ba: BuchiAutomaton, state: int, letter: Letter) -> np.ndarray:
    """Targets of ``state`` over ``letter``, ascending: a view of ``target``."""
    a = int(ba.letter_ids([letter])[0])
    if a < 0:
        return ba.target[:0]
    row = a * ba.n_states + state
    return ba.target[ba.ptr[row] : ba.ptr[row + 1]]


def transitions(ba: BuchiAutomaton) -> tuple[tuple[int, Letter, int], ...]:
    """The distinct letter edges as ``(source, letter, target)`` tuples,
    by letter, then source, then target."""
    row = np.repeat(np.arange(len(ba.ptr) - 1), np.diff(ba.ptr))
    letter, src = np.divmod(row, ba.n_states)
    letters = [ba.letters[a] for a in letter.tolist()]
    return tuple(zip(src.tolist(), letters, ba.target.tolist()))


def to_text(ba: BuchiAutomaton) -> str:
    """Plain adjacency listing, each state with its description."""
    lines = [
        f"states: {ba.n_states}",
        f"initial: {ba.initial}",
        f"accepting: {sorted(ba.accepting)}",
    ]
    listed: list[list[str]] = [[] for _ in range(ba.n_states)]
    for s, letter, t in sorted(transitions(ba), key=lambda e: (e[0], sorted(e[1]), e[2])):
        listed[s].append(f"  --{{{','.join(sorted(letter)) or ''}}}--> {t}")
    for i in range(ba.n_states):
        if i < len(ba.descriptions):
            lines.append(f"state {i}: {ba.descriptions[i]}")
        else:
            lines.append(f"state {i}:")
        lines.extend(listed[i])
    return "\n".join(lines)
