"""Automaton form of mission formulas over infinite words.

The translation unfolds a formula in negation normal form into obligation
sets: each automaton state is the set of subformulas that still must hold.
Each obligation is rewritten into guarded choices: the obligations it passes
to the next position, together with a guard on the current letter (the
propositions it must hold and those it must not). Each postponed subformula
(an until or an eventually) owes a discharge; acceptance tracks those debts
per transition and is then reduced to a single accepting set by the usual
counter construction.

A state's guarded choices are worked out once, and expanded to the letters
that satisfy their guards in one array pass. Past the tableau, the
construction runs on integer letter indices into ``canonical_letters`` and
on ``(src, letter, dst)`` arrays: debt marks are bitmasks, the counter levels
come from a lookup table, and pruning and quotienting are array passes. Only
the final automaton becomes a :class:`BuchiAutomaton`.

Every ordering in the construction is derived from canonical formula and
letter orders and from insertion-ordered dicts, never from set iteration, so
automaton state numbering is reproducible across processes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import ContractError, ValidationError
from .ltl import (
    And,
    Atom,
    Always,
    Eventually,
    Formula,
    Letter,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    atoms,
    canonical_letters,
    nnf,
    subformulas,
)


class BuchiAutomaton:
    """Nondeterministic automaton over letters drawn from 2^propositions.

    Transitions carry concrete proposition sets. A run is accepting when it
    enters accepting states infinitely often.
    """

    def __init__(
        self,
        n_states: int,
        initial: int,
        propositions: Iterable[str],
        transitions: Iterable[tuple[int, Letter, int]],
        accepting: Iterable[int],
        descriptions: Sequence[str] = (),
    ):
        self.n_states = n_states
        self.initial = initial
        self.propositions = frozenset(propositions)
        self.transitions = tuple(
            (s, frozenset(letter), t) for s, letter, t in transitions
        )
        self.accepting = frozenset(accepting)
        self.descriptions = tuple(descriptions)
        for s, letter, t in self.transitions:
            if not (0 <= s < n_states and 0 <= t < n_states):
                raise ValidationError("transition endpoint out of range")
            if not letter <= self.propositions:
                raise ValidationError(
                    f"transition letter {sorted(letter)} uses undeclared propositions"
                )
        index: dict[tuple[int, Letter], list[int]] = {}
        for s, letter, t in self.transitions:
            index.setdefault((s, letter), []).append(t)
        self._succ = {
            key: tuple(sorted(set(ts))) for key, ts in index.items()
        }

    def successors(self, state: int, letter: Letter) -> tuple[int, ...]:
        return self._succ.get((state, frozenset(letter)), ())

    def letters(self) -> list[Letter]:
        return canonical_letters(self.propositions)

    def to_text(self) -> str:
        """Plain adjacency listing for debugging."""
        lines = [
            f"states: {self.n_states}",
            f"initial: {self.initial}",
            f"accepting: {sorted(self.accepting)}",
        ]
        for i in range(self.n_states):
            if i < len(self.descriptions):
                lines.append(f"state {i}: {self.descriptions[i]}")
            else:
                lines.append(f"state {i}:")
            for s, letter, t in sorted(
                self.transitions, key=lambda e: (e[0], sorted(e[1]), e[2])
            ):
                if s == i:
                    lines.append(f"  --{{{','.join(sorted(letter)) or ''}}}--> {t}")
        return "\n".join(lines)


def _formula_key(f: Formula) -> str:
    return str(f)


def until_like_subformulas(formula: Formula) -> list[Formula]:
    """Until and eventually subformulas in first-occurrence order."""
    seen: list[Formula] = []
    for sub in subformulas(formula):
        if isinstance(sub, (Until, Eventually)) and sub not in seen:
            seen.append(sub)
    return seen


_EMPTY = frozenset()

# A guarded choice is (obligations passed to the next position,
#                      postponed subformulas discharged right now,
#                      postponed subformulas whose requirement was examined right now,
#                      propositions the letter must hold, propositions it must not),
# the last two as bitmasks over the sorted propositions.
_Choice = tuple[frozenset, frozenset, frozenset, int, int]


def _sat(formula: Formula, prop_bit: dict[str, int], memo: dict) -> tuple[_Choice, ...]:
    """Guarded choices of one obligation, in a deterministic order."""
    cached = memo.get(formula)
    if cached is not None:
        return cached
    if isinstance(formula, TrueConst):
        result: tuple[_Choice, ...] = ((_EMPTY, _EMPTY, _EMPTY, 0, 0),)
    elif isinstance(formula, Atom):
        result = ((_EMPTY, _EMPTY, _EMPTY, prop_bit[formula.name], 0),)
    elif isinstance(formula, Not):
        sub = formula.sub
        if isinstance(sub, TrueConst):
            result = ()
        elif isinstance(sub, Atom):
            result = ((_EMPTY, _EMPTY, _EMPTY, 0, prop_bit[sub.name]),)
        else:
            raise ContractError("negation below non-atomic formula; normalize first")
    elif isinstance(formula, And):
        result = _combine(
            _sat(formula.left, prop_bit, memo), _sat(formula.right, prop_bit, memo)
        )
    elif isinstance(formula, Or):
        result = tuple(
            dict.fromkeys(
                _sat(formula.left, prop_bit, memo) + _sat(formula.right, prop_bit, memo)
            )
        )
    elif isinstance(formula, Next):
        result = ((frozenset((formula.sub,)), _EMPTY, _EMPTY, 0, 0),)
    elif isinstance(formula, Until):
        mark = frozenset((formula,))
        choices = {}
        for nxt, dis, pro, pos, neg in _sat(formula.right, prop_bit, memo):
            choices[nxt, dis | mark, pro | mark, pos, neg] = None
        for nxt, dis, pro, pos, neg in _sat(formula.left, prop_bit, memo):
            choices[nxt | mark, dis, pro | mark, pos, neg] = None
        result = tuple(choices)
    elif isinstance(formula, Eventually):
        mark = frozenset((formula,))
        choices = {}
        for nxt, dis, pro, pos, neg in _sat(formula.sub, prop_bit, memo):
            choices[nxt, dis | mark, pro | mark, pos, neg] = None
        choices[mark, _EMPTY, mark, 0, 0] = None
        result = tuple(choices)
    elif isinstance(formula, Always):
        keep = frozenset((formula,))
        result = tuple(
            dict.fromkeys(
                (nxt | keep, dis, pro, pos, neg)
                for nxt, dis, pro, pos, neg in _sat(formula.sub, prop_bit, memo)
            )
        )
    else:
        raise TypeError(f"unknown formula node {formula!r}")
    memo[formula] = result
    return result


def _combine(a: tuple[_Choice, ...], b: tuple[_Choice, ...]) -> tuple[_Choice, ...]:
    """Both choices at once; a pair whose guards contradict is dropped."""
    out = {}
    for na, da, pa, pos_a, neg_a in a:
        for nb, db, pb, pos_b, neg_b in b:
            pos, neg = pos_a | pos_b, neg_a | neg_b
            if not pos & neg:
                out[na | nb, da | db, pa | pb, pos, neg] = None
    return tuple(out)


def _state_choices(
    members: Sequence[Formula], prop_bit: dict[str, int], memo: dict
) -> tuple[_Choice, ...]:
    """Guarded choices of an obligation state whose members are in order."""
    choices: tuple[_Choice, ...] = ((_EMPTY, _EMPTY, _EMPTY, 0, 0),)
    for member in members:
        choices = _combine(choices, _sat(member, prop_bit, memo))
        if not choices:
            break
    return choices


def to_buchi(formula: Formula, propositions: Iterable[str] | None = None) -> BuchiAutomaton:
    """Translate a formula into an equivalent automaton.

    The alphabet is 2^propositions; when ``propositions`` is omitted it
    defaults to the atoms of the formula. State counts are whatever the
    construction produces after pruning and quotienting; only the accepted
    language is specified.
    """
    props = frozenset(atoms(formula))
    if propositions is not None:
        props = props | frozenset(propositions)
    normalized = nnf(formula)
    untils = until_like_subformulas(normalized)
    n_untils = len(untils)
    letters = canonical_letters(props)

    order, edges, masks = _obligation_automaton(normalized, untils, sorted(props))
    pairs, src, letter, dst = _counter_levels(edges, masks, n_untils)
    accepting = pairs % (n_untils + 1) == n_untils

    # prune dead states; the initial state stays, without moves when dead
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
    if n_blocks < len(pairs):
        # one representative description per block: its first member's
        pairs = pairs[np.unique(blocks, return_index=True)[1]]
        initial = int(blocks[initial])
        accepting = np.isin(np.arange(n_blocks), blocks[accepting])
        src, letter, dst = _quotient_transitions(letters, blocks, src, letter, dst)

    descriptions = []
    for pair in pairs.tolist():
        state, level = divmod(pair, n_untils + 1)
        members = ", ".join(sorted(_formula_key(f) for f in order[state]))
        descriptions.append("{" + members + f"}} @{level}")
    return BuchiAutomaton(
        len(pairs),
        initial,
        props,
        zip(src.tolist(), [letters[li] for li in letter.tolist()], dst.tolist()),
        np.flatnonzero(accepting).tolist(),
        descriptions,
    )


def _obligation_automaton(
    start: Formula, untils: list[Formula], props: list[str]
) -> tuple[list[frozenset], list[tuple[np.ndarray, np.ndarray, np.ndarray]], list[int]]:
    """Obligation-set automaton with per-transition debt bookkeeping.

    States are numbered breadth-first in discovery order. Each state's
    guarded choices are worked out once and then expanded to the letters
    that satisfy their guards; since the index of a letter in
    ``canonical_letters`` is its own bitmask over the sorted propositions,
    that is one match matrix per state. Edges are listed letter by letter,
    in choice order within a letter, without repeating a ``(target, marks)``
    pair, and new targets are numbered in order of first sight. Returns the
    states, one ``(letter, target, marks)`` array triple per state, and the
    debt bitmask of every marks index: bit ``i`` is set when ``untils[i]``
    was discharged on the edge or not examined on it.
    """
    prop_bit = {p: 1 << i for i, p in enumerate(props)}
    letter_bits = np.arange(1 << len(props), dtype=np.int64)[:, None]
    memo: dict = {}
    # marks index of every (discharged, examined) pair, via its debt bitmask
    marks_of: dict[tuple[frozenset, frozenset], int] = {}
    mask_index: dict[int, int] = {}
    first = frozenset((start,))
    states: dict[frozenset, int] = {first: 0}
    order: list[frozenset] = [first]
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    frontier = [first]
    while frontier:
        new_frontier: list[frozenset] = []
        for state in frontier:
            choices = _state_choices(sorted(state, key=_formula_key), prop_bit, memo)
            # distinct (next, marks) moves, numbered in choice order
            moves: dict[tuple[frozenset, int], int] = {}
            move_of_choice: list[int] = []
            for nxt, dis, pro, _, _ in choices:
                marks = marks_of.get((dis, pro))
                if marks is None:
                    mask = sum(
                        1 << i
                        for i, u in enumerate(untils)
                        if u not in pro or u in dis
                    )
                    marks = mask_index.setdefault(mask, len(mask_index))
                    marks_of[dis, pro] = marks
                move_of_choice.append(moves.setdefault((nxt, marks), len(moves)))
            pos = np.array([c[3] for c in choices], dtype=np.int64)
            neg = np.array([c[4] for c in choices], dtype=np.int64)
            matches = ((pos & ~letter_bits) == 0) & ((neg & letter_bits) == 0)
            # row-major: letter by letter, choices in order within a letter
            out_letter, choice = np.nonzero(matches)
            out_move = np.array(move_of_choice, dtype=np.int64)[choice]
            # the first listing of each (letter, move) pair, in listing order
            keys = out_letter * len(moves) + out_move
            keep = np.sort(np.unique(keys, return_index=True)[1])
            out_letter, out_move = out_letter[keep], out_move[keep]
            move_list = list(moves)
            move_target = np.zeros(len(moves), dtype=np.int64)
            move_marks = np.array([marks for _, marks in move_list], dtype=np.int64)
            # targets are numbered in order of first sight along the edges
            seen_at = np.unique(out_move, return_index=True)[1]
            for m in out_move[np.sort(seen_at)].tolist():
                nxt = move_list[m][0]
                target = states.get(nxt)
                if target is None:
                    target = states[nxt] = len(order)
                    order.append(nxt)
                    new_frontier.append(nxt)
                move_target[m] = target
            edges.append((out_letter, move_target[out_move], move_marks[out_move]))
        frontier = new_frontier
    if len(edges) != len(order):
        raise ContractError("internal bookkeeping mismatch")
    return order, edges, list(mask_index)


def _counter_levels(
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    masks: list[int],
    n_untils: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Counter construction: wait for debt 0, then 1, ..., then n-1; a state
    at level n_untils certifies one full round of discharges and restarts.

    Counter states ``state * (n_untils + 1) + level`` are explored depth
    first from state 0 at level 0. Returns them in numbering order, and the
    transitions as ``(src, letter, dst)`` arrays in exploration order.
    """
    width = n_untils + 1
    # next level after an edge with these marks, by the level it leaves
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
    # Numbered and pushed exactly as a DFS that walks the edge list, numbers
    # each target on first sight and pushes every target not yet done: new
    # ids go in first-occurrence order, and a target pushed twice is popped
    # at its last push, so only that push matters.
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
    """Mask of the states that can contribute to an accepting run: those
    that reach an accepting state whose strongly connected component holds
    a move."""
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
    # backward closure: anything that reaches an alive state stays
    reverse = csr_array((ones, (tails, heads)), shape=(n, n))
    return np.isfinite(dijkstra(reverse, indices=np.flatnonzero(alive), min_only=True))


def _quotient_bisimulation(
    n_letters: int,
    accepting: np.ndarray,
    src: np.ndarray,
    letter: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Block of every state in the coarsest partition that separates
    acceptance and is stable under every letter's moves.

    Blocks are numbered by the rank of their signature: a block's own number,
    then for each letter with moves (ascending) the sorted blocks reached.
    """
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
    """Per state, the flat token tuple of its signature.

    The nested signature ``(block, ((letter, (blocks...)), ...))`` is written
    as ``block, letter, blocks..., -1, letter, blocks..., -1, ..., -1``. Since
    ``-1`` sorts below every letter and block, where a nested tuple runs out
    first the token tuple meets a ``-1`` first, so both sort alike.
    """
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
    # each move emits its block, preceded by the state's block and the letter
    # where a state or letter group starts, and followed by -1 where one ends
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
    """Distinct moves between blocks, sorted by source, the letter's sorted
    proposition list, and target."""
    n_letters, n_blocks = len(letters), int(blocks.max()) + 1
    by_name = np.array(sorted(range(n_letters), key=lambda i: sorted(letters[i])))
    rank = np.empty(n_letters, dtype=np.int64)
    rank[by_name] = np.arange(n_letters)
    keys = np.unique((blocks[src] * n_letters + rank[letter]) * n_blocks + blocks[dst])
    head, rest = np.divmod(keys, n_letters * n_blocks)
    letter_rank, tail = np.divmod(rest, n_blocks)
    return head, by_name[letter_rank], tail
