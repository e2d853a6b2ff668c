"""Letter-by-letter edge listing, counter, pruning and quotient passes: the
oracle for ``surplan.buchi``.

``surplan.buchi`` works on moves that carry letter sets and never lists one
edge per letter. ``letter_edges`` lists them: every obligation state's
guarded choices expanded to the letters they match, letter by letter, and
the passes here work on that listing row by row, as the construction did
before it worked on moves. ``reference_to_buchi`` chains them after the
library's obligation automaton (the tableau, checked against the per-letter
tableau in ``conftest.py``), so its automaton must equal ``to_buchi``'s in
every state number, description and transition; only the order of the
transitions may differ where the quotient merges nothing.

``reference_state_choices`` folds an obligation state's members' choices
from the left, which specifies the order of a state's guarded choices; the
library shares the products of suffixes of members instead.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from surplan.buchi import (
    BuchiAutomaton,
    _Choice,
    _Closure,
    _Obligations,
    _obligation_automaton,
    _sat,
    _state_choices,
    until_like_subformulas,
)
from surplan.ltl import Formula, Letter, atoms, canonical_letters, nnf


def reference_to_buchi(
    formula: Formula, propositions: Iterable[str] | None = None
) -> tuple[BuchiAutomaton, bool]:
    """The automaton, and whether the quotient merged any states."""
    props = frozenset(atoms(formula))
    if propositions is not None:
        props = props | frozenset(propositions)
    normalized = nnf(formula)
    untils = until_like_subformulas(normalized)
    n_untils = len(untils)
    letters = canonical_letters(props)

    obligations = _obligation_automaton(normalized, untils, sorted(props))
    edges = [
        (out_letter, target[out_move], marks[out_move])
        for (out_letter, out_move), (target, marks, _, _) in zip(
            letter_edges(obligations, normalized, untils, sorted(props)), obligations.moves
        )
    ]
    pairs, src, letter, dst = _counter_levels(edges, obligations.masks, n_untils)
    accepting = pairs % (n_untils + 1) == n_untils

    alive = _alive_states(len(pairs), accepting, src, dst)
    keep = alive.copy()
    keep[0] = True
    remap = np.cumsum(keep) - 1
    moves = alive[src] & alive[dst]
    pairs, accepting = pairs[keep], (accepting & alive)[keep]
    src, letter, dst = remap[src[moves]], letter[moves], remap[dst[moves]]
    initial = int(remap[0])

    blocks = _quotient_bisimulation(len(letters), accepting, src, letter, dst)
    n_blocks = int(blocks.max()) + 1
    merged = n_blocks < len(pairs)
    if merged:
        pairs = pairs[np.unique(blocks, return_index=True)[1]]
        initial = int(blocks[initial])
        accepting = np.isin(np.arange(n_blocks), blocks[accepting])
        src, letter, dst = _quotient_transitions(letters, blocks, src, letter, dst)

    descriptions = []
    for pair in pairs.tolist():
        state, level = divmod(pair, n_untils + 1)
        members = ", ".join(sorted(str(f) for f in obligations.order[state]))
        descriptions.append("{" + members + f"}} @{level}")
    ba = BuchiAutomaton(
        len(pairs),
        initial,
        props,
        letters,
        src,
        letter,
        dst,
        np.flatnonzero(accepting).tolist(),
        descriptions,
    )
    return ba, merged


def reference_state_choices(state: int, closure: _Closure) -> tuple[_Choice, ...]:
    """Guarded choices of an obligation state, folded from the left: the
    empty choice combined with each member's choices in ``str`` order, as
    ``surplan.buchi`` did before it shared suffix products."""
    choices: tuple[_Choice, ...] = ((0, 0, 0, 0, 0),)
    for bit in closure.by_str:
        if state >> bit & 1:
            choices = _reference_combine(choices, _sat(bit, closure))
            if not choices:
                break
    return choices


def _reference_combine(a: tuple[_Choice, ...], b: tuple[_Choice, ...]) -> tuple[_Choice, ...]:
    """Both choices at once, each combined choice at its first occurrence; a
    pair whose guards contradict is dropped."""
    out = {}
    for na, da, pa, pos_a, neg_a in a:
        for nb, db, pb, pos_b, neg_b in b:
            pos, neg = pos_a | pos_b, neg_a | neg_b
            if not pos & neg:
                out[na | nb, da | db, pa | pb, pos, neg] = None
    return tuple(out)


def decoded_choices(
    state: frozenset, closure: _Closure
) -> list[tuple[frozenset, frozenset, frozenset, int, int]]:
    """The guarded choices of an obligation state, their three obligation
    masks decoded to sets of formulas."""
    mask = sum(1 << closure.bit[f] for f in state)
    return [
        (closure.decode(nxt), closure.decode(dis), closure.decode(pro), pos, neg)
        for nxt, dis, pro, pos, neg in _state_choices(mask, closure)
    ]


def letter_edges(
    obligations: _Obligations, start: Formula, untils: list[Formula], props: list[str]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each obligation state's letter edges as ``(letter, move)`` arrays:
    letter by letter, in choice order within a letter, without repeating a
    ``(letter, move)`` pair. A choice's move is the state's move with its
    target and debt mask."""
    n_letters = 1 << len(props)
    letter_bits = np.arange(n_letters, dtype=np.int64)[:, None]
    state_of = {state: i for i, state in enumerate(obligations.order)}
    marks_of = {mask: m for m, mask in enumerate(obligations.masks)}
    closure = _Closure(start, untils, props)
    listing = []
    for state, (target, marks, _, _) in zip(obligations.order, obligations.moves):
        move_of = {(t, m): i for i, (t, m) in enumerate(zip(target.tolist(), marks.tolist()))}
        choices = decoded_choices(state, closure)
        choice_move = np.array(
            [
                move_of[state_of[nxt], marks_of[_debt_mask(untils, dis, pro)]]
                for nxt, dis, pro, _, _ in choices
            ],
            dtype=np.int64,
        )
        pos = np.array([c[3] for c in choices], dtype=np.int64)
        guard = np.array([c[3] | c[4] for c in choices], dtype=np.int64)
        out_letter, choice = np.nonzero((letter_bits & guard) == pos)
        out_move = choice_move[choice]
        # the first listing of each (letter, move) pair, in listing order
        keys = out_letter * len(target) + out_move
        keep = np.sort(np.unique(keys, return_index=True)[1])
        listing.append((out_letter[keep], out_move[keep]))
    return listing


def _debt_mask(untils: list[Formula], discharged: frozenset, examined: frozenset) -> int:
    """Bit ``i`` set when ``untils[i]`` was discharged or not examined."""
    return sum(
        1 << i for i, u in enumerate(untils) if u not in examined or u in discharged
    )


def _counter_levels(
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    masks: list[int],
    n_untils: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Counter construction over ``(letter, target, marks)`` edge lists,
    explored depth first from state 0 at level 0; transitions come back as
    ``(src, letter, dst)`` arrays in exploration order."""
    width = n_untils + 1
    table = np.empty((len(masks), width), dtype=np.int64)
    for m, mask in enumerate(masks):
        for level in range(width):
            j = 0 if level == n_untils else level
            while j < n_untils and mask >> j & 1:
                j += 1
            table[m, level] = j

    ids: dict[int, int] = {0: 0}
    pending = [0]
    done: set[int] = set()
    src_parts: list[np.ndarray] = []
    letter_parts: list[np.ndarray] = []
    dst_parts: list[np.ndarray] = []
    # a DFS that walks the edge list, numbers each target on first sight and
    # pushes every target not yet done
    while pending:
        pair = pending.pop()
        if pair in done:
            continue
        done.add(pair)
        state, level = divmod(pair, width)
        out_letter, out_target, out_marks = edges[state]
        targets = out_target * width + table[out_marks, level]
        distinct, first, inverse = np.unique(
            targets, return_index=True, return_inverse=True
        )
        distinct = distinct.tolist()
        target_ids = np.empty(len(distinct), dtype=np.int64)
        for k in np.argsort(first).tolist():
            target_ids[k] = ids.setdefault(distinct[k], len(ids))
        last = len(targets) - 1 - np.unique(targets[::-1], return_index=True)[1]
        for k in np.argsort(last).tolist():
            if distinct[k] not in done:
                pending.append(distinct[k])
        src_parts.append(np.full(len(targets), ids[pair], dtype=np.int64))
        letter_parts.append(out_letter)
        dst_parts.append(target_ids[inverse])
    pairs = np.array(list(ids), dtype=np.int64)
    return (
        pairs,
        np.concatenate(src_parts),
        np.concatenate(letter_parts),
        np.concatenate(dst_parts),
    )


def _alive_states(
    n: int, accepting: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    pairs = np.unique(src * n + dst)
    heads, tails = np.divmod(pairs, n)
    ones = np.ones(len(pairs))
    graph = csr_array((ones, (heads, tails)), shape=(n, n))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    has_internal_edge = np.zeros(n_comp, dtype=bool)
    has_internal_edge[labels[heads[labels[heads] == labels[tails]]]] = True
    good_comp = np.zeros(n_comp, dtype=bool)
    good_comp[labels[accepting & has_internal_edge[labels]]] = True
    alive = good_comp[labels]
    if not alive.any():
        return alive
    reverse = csr_array((ones, (tails, heads)), shape=(n, n))
    return np.isfinite(dijkstra(reverse, indices=np.flatnonzero(alive), min_only=True))


def _quotient_bisimulation(
    n_letters: int,
    accepting: np.ndarray,
    src: np.ndarray,
    letter: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    blocks = accepting.astype(np.int64)
    while True:
        sigs = _signatures(blocks, n_letters, src, letter, dst)
        ranking = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        new_blocks = np.array([ranking[sig] for sig in sigs], dtype=np.int64)
        if np.array_equal(new_blocks, blocks):
            return blocks
        blocks = new_blocks


def _signatures(
    blocks: np.ndarray,
    n_letters: int,
    src: np.ndarray,
    letter: np.ndarray,
    dst: np.ndarray,
) -> list[tuple[int, ...]]:
    base = int(blocks.max()) + 1
    keys = np.unique((src * n_letters + letter) * base + blocks[dst])
    state, rest = np.divmod(keys, n_letters * base)
    move_letter, move_block = np.divmod(rest, base)
    sigs = [(b, -1) for b in blocks.tolist()]
    if not len(keys):
        return sigs
    new_state = np.ones(len(keys), dtype=bool)
    new_state[1:] = state[1:] != state[:-1]
    new_group = new_state.copy()
    new_group[1:] |= move_letter[1:] != move_letter[:-1]
    end_group = np.append(new_group[1:], True)
    end_state = np.append(new_state[1:], True)
    stop = np.full(len(keys), -1)
    tokens = np.stack([blocks[state], move_letter, move_block, stop, stop], axis=1)
    emit = np.stack([new_state, new_group, np.ones_like(new_state), end_group, end_state], axis=1)
    flat = tokens[emit].tolist()
    ends = np.cumsum(emit.sum(axis=1))[end_state].tolist()
    for i, lo, hi in zip(state[new_state].tolist(), [0] + ends[:-1], ends):
        sigs[i] = tuple(flat[lo:hi])
    return sigs


def _quotient_transitions(
    letters: list[Letter],
    blocks: np.ndarray,
    src: np.ndarray,
    letter: np.ndarray,
    dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_letters, n_blocks = len(letters), int(blocks.max()) + 1
    by_name = np.array(sorted(range(n_letters), key=lambda i: sorted(letters[i])))
    rank = np.empty(n_letters, dtype=np.int64)
    rank[by_name] = np.arange(n_letters)
    keys = np.unique((blocks[src] * n_letters + rank[letter]) * n_blocks + blocks[dst])
    head, rest = np.divmod(keys, n_letters * n_blocks)
    letter_rank, tail = np.divmod(rest, n_blocks)
    return head, by_name[letter_rank], tail
