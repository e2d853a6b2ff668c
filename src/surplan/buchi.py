"""Automaton form of mission formulas over infinite words.

The translation unfolds a formula in negation normal form into obligation
sets: each automaton state is the set of subformulas that still must hold,
held as an integer bitmask with one bit per subformula. Each obligation is
rewritten into guarded choices: the obligations it passes to the next
position, together with a guard on the current letter (the propositions it
must hold and those it must not). Each postponed subformula
(an until or an eventually) owes a discharge; acceptance tracks those debts
per transition and is then reduced to a single accepting set by the usual
counter construction.

A state's guarded choices are worked out once, folding its members from the
last back to the first; the product of each suffix of members is kept, so
states that share a suffix share its product. Past the tableau, the
construction works on moves and never lists one edge per letter: a move is
one of a state's distinct ``(target, marks)`` pairs, carrying the id of the
set of letters that take it: those any of its choices' guards admit
(letters are integer indices into ``canonical_letters``). The lowest and
highest letters of a guard are read off its bitmasks, which places each
move's first and last edge in the letter-by-letter order; the counter
numbers and explores its states from those, so it numbers them as a walk
over every letter edge would, walking only each explored state's distinct
targets, which one stable sort of its targets gives. Debt marks are
bitmasks and the counter levels come from a lookup table. Pruning reads
the distinct ``(src, dst)`` pairs of the moves, and letter sets are
expanded to letters only at the end, once the moves between blocks of the
quotient are deduplicated (each state its own block when the quotient
merges nothing). The resulting letter edges go to :class:`BuchiAutomaton`
as ``(src, letter, dst)`` id arrays over ``canonical_letters``, and it
keeps each distinct edge once.

Every ordering in the construction is derived from canonical formula and
letter orders and from insertion-ordered dicts, never from set iteration, so
automaton state numbering is reproducible across processes.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import ContractError, ValidationError
from .localruns import group, key_type
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
    """Nondeterministic automaton over a list of letters, each a set of its
    propositions.

    The letter edges are given as aligned arrays: edge ``i`` goes from
    ``src[i]`` to ``dst[i]`` over ``letters[letter[i]]``, in any order, and an
    edge may be given twice. They are kept once, as CSR rows: over letter
    ``a`` state ``s`` moves to
    ``target[ptr[a * n_states + s]:ptr[a * n_states + s + 1]]``, the distinct
    targets in ascending order. A label is read through its projection onto
    the propositions. A run is accepting when it enters accepting states
    infinitely often.
    """

    def __init__(
        self,
        n_states: int,
        initial: int,
        propositions: Iterable[str],
        letters: Iterable[Letter],
        src: Sequence[int],
        letter: Sequence[int],
        dst: Sequence[int],
        accepting: Iterable[int],
        descriptions: Sequence[str] = (),
    ):
        self.n_states = n = n_states
        self.initial = initial
        self.propositions = frozenset(propositions)
        self.letters = [frozenset(word) for word in letters]
        self.accepting = frozenset(accepting)
        self.descriptions = tuple(descriptions)
        if not self.letters:
            raise ValidationError("an automaton needs at least one letter")
        if len(self.propositions) > 63:
            raise ValidationError("an automaton reads at most 63 propositions")
        for word in self.letters:
            if not word <= self.propositions:
                raise ValidationError(f"letter {sorted(word)} uses undeclared propositions")
        # each letter as a bitmask over the sorted propositions
        self._bit = {p: 1 << i for i, p in enumerate(sorted(self.propositions))}
        self._masks = self._masks_of(self.letters)
        _, first, counts = np.unique(self._masks, return_index=True, return_counts=True)
        if (counts > 1).any():
            word = self.letters[first[counts.argmax()]]
            raise ValidationError(f"letter {sorted(word)} is given twice")
        src, letter, dst = (np.asarray(a, dtype=np.int64) for a in (src, letter, dst))
        if not src.shape == letter.shape == dst.shape == (len(src),):
            raise ValidationError("src, letter and dst must be aligned 1-D sequences")
        if ((letter < 0) | (letter >= len(self.letters))).any():
            raise ValidationError("transition letter id out of range")
        if ((src < 0) | (src >= n) | (dst < 0) | (dst >= n)).any():
            raise ValidationError("transition endpoint out of range")
        row, self.target = np.divmod(
            _distinct((letter * n + src) * n + dst, len(self.letters) * n * n), n
        )
        self.ptr = np.searchsorted(row, np.arange(len(self.letters) * n + 1))

    def _masks_of(self, letters: Iterable[Letter]) -> np.ndarray:
        """Each letter's projection onto the propositions, as a bitmask."""
        masks = [sum(self._bit.get(p, 0) for p in word) for word in letters]
        return np.array(masks, dtype=np.int64)

    def letter_ids(self, letters: Iterable[Letter]) -> np.ndarray:
        """The id of each letter's projection onto the propositions, -1 where
        that projection is not one of the automaton's letters."""
        same = self._masks_of(letters)[:, None] == self._masks
        return np.where(same.any(axis=1), same.argmax(axis=1), -1)

    def holding(self, prop: str) -> np.ndarray:
        """Mask of the letters that hold ``prop``."""
        return (self._masks & self._bit.get(prop, 0)) != 0


def until_like_subformulas(formula: Formula) -> list[Formula]:
    """Until and eventually subformulas in first-occurrence order."""
    return list(
        dict.fromkeys(sub for sub in subformulas(formula) if isinstance(sub, (Until, Eventually)))
    )


# A guarded choice is (obligations passed to the next position,
#                      postponed subformulas discharged right now,
#                      postponed subformulas whose requirement was examined right now,
#                      propositions the letter must hold, propositions it must not),
# the first three as bitmasks over a _Closure's subformulas, the last two as
# bitmasks over the sorted propositions.
_Choice = tuple[int, int, int, int, int]


class _Closure:
    """One bit per subformula of a normalized formula, and the guarded choices
    worked out so far by bit.

    The until and eventually subformulas come first, in ``untils`` order, so
    bit ``i`` of an obligation mask is ``untils[i]``; the other subformulas
    follow in first-occurrence order. The masks are unbounded ints, however
    many subformulas there are. ``by_str`` lists the bits in ``str`` order of
    their formulas, the order in which a state's members are combined.
    ``suffixes`` holds the product of every proper suffix of a state's
    members worked out so far, keyed by the suffix's member mask.
    """

    def __init__(self, start: Formula, untils: list[Formula], props: list[str]):
        self.formulas = list(dict.fromkeys([*untils, *subformulas(start)]))
        self.bit = {f: i for i, f in enumerate(self.formulas)}
        self.by_str = sorted(range(len(self.formulas)), key=lambda i: str(self.formulas[i]))
        self.prop_bit = {p: 1 << i for i, p in enumerate(props)}
        self.memo: dict[int, tuple[_Choice, ...]] = {}
        self.suffixes: dict[int, tuple[_Choice, ...]] = {}

    def decode(self, mask: int) -> frozenset:
        """The subformulas whose bits ``mask`` sets."""
        return frozenset(f for i, f in enumerate(self.formulas) if mask >> i & 1)


def _sat(bit: int, closure: _Closure) -> tuple[_Choice, ...]:
    """Guarded choices of one obligation, in a deterministic order."""
    cached = closure.memo.get(bit)
    if cached is not None:
        return cached
    formula, mark, prop_bit = closure.formulas[bit], 1 << bit, closure.prop_bit

    def sat(sub: Formula) -> tuple[_Choice, ...]:
        return _sat(closure.bit[sub], closure)

    if isinstance(formula, TrueConst):
        result: tuple[_Choice, ...] = ((0, 0, 0, 0, 0),)
    elif isinstance(formula, Atom):
        result = ((0, 0, 0, prop_bit[formula.name], 0),)
    elif isinstance(formula, Not):
        sub = formula.sub
        if isinstance(sub, TrueConst):
            result = ()
        elif isinstance(sub, Atom):
            result = ((0, 0, 0, 0, prop_bit[sub.name]),)
        else:
            raise ContractError("negation below non-atomic formula; normalize first")
    elif isinstance(formula, And):
        result = _combine(sat(formula.left), sat(formula.right))
    elif isinstance(formula, Or):
        result = tuple(dict.fromkeys(sat(formula.left) + sat(formula.right)))
    elif isinstance(formula, Next):
        result = ((1 << closure.bit[formula.sub], 0, 0, 0, 0),)
    elif isinstance(formula, Until):
        choices = {}
        for nxt, dis, pro, pos, neg in sat(formula.right):
            choices[nxt, dis | mark, pro | mark, pos, neg] = None
        for nxt, dis, pro, pos, neg in sat(formula.left):
            choices[nxt | mark, dis, pro | mark, pos, neg] = None
        result = tuple(choices)
    elif isinstance(formula, Eventually):
        choices = {}
        for nxt, dis, pro, pos, neg in sat(formula.sub):
            choices[nxt, dis | mark, pro | mark, pos, neg] = None
        choices[mark, 0, mark, 0, 0] = None
        result = tuple(choices)
    elif isinstance(formula, Always):
        result = tuple(
            dict.fromkeys(
                (nxt | mark, dis, pro, pos, neg) for nxt, dis, pro, pos, neg in sat(formula.sub)
            )
        )
    else:
        raise TypeError(f"unknown formula node {formula!r}")
    closure.memo[bit] = result
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


def _state_choices(state: int, closure: _Closure) -> tuple[_Choice, ...]:
    """Guarded choices of an obligation state, its members combined in
    ``str`` order.

    The members are folded from the last back to the first, each proper
    suffix's product kept by its member mask, so states that share a suffix
    of members share its product. ``_combine`` is associative, the order of
    first occurrence included (a pair whose guards contradict still does
    with more guards OR-ed in, and a combined choice first appears where its
    partial combinations first do), so this equals the fold from the left.
    The whole state's product is not kept: each state is asked for once,
    and keeping them all would hold every choice of the tableau until the
    automaton is built.
    """
    choices: tuple[_Choice, ...] = ((0, 0, 0, 0, 0),)
    suffix = 0
    for bit in reversed([bit for bit in closure.by_str if state >> bit & 1]):
        suffix |= 1 << bit
        product = closure.suffixes.get(suffix)
        if product is None:
            product = _sat(bit, closure)
            if suffix != 1 << bit:
                product = _combine(product, choices)
            if suffix != state:
                closure.suffixes[suffix] = product
        choices = product
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

    obligations = _obligation_automaton(normalized, untils, sorted(props))
    pairs, explored_states, src, dst = _counter_levels(
        obligations.moves, obligations.masks, n_untils
    )
    accepting = pairs % (n_untils + 1) == n_untils
    lset = np.concatenate([obligations.moves[state][2] for state in explored_states])

    # prune dead states; the initial state stays, without moves when dead.
    # The reversed graph holds each distinct (src, dst) pair once.
    n = len(pairs)
    head, tail = np.divmod(_distinct(dst * n + src, n * n), n)
    reverse = csr_array(
        (np.ones(len(head)), tail, np.searchsorted(head, np.arange(n + 1))), shape=(n, n)
    )
    alive = alive_states(reverse, (accepting,))
    keep = alive.copy()
    keep[0] = True
    remap = np.cumsum(keep) - 1
    moves = alive[src] & alive[dst]
    pairs, accepting = pairs[keep], (accepting & alive)[keep]
    src, lset, dst = remap[src[moves]], lset[moves], remap[dst[moves]]
    initial = int(remap[0])

    sets = obligations.letter_sets
    blocks = _quotient_bisimulation(sets, accepting, src, lset, dst)
    n_blocks = int(blocks.max()) + 1
    if n_blocks == len(pairs):
        # nothing merged: keep the exploration order's numbering
        blocks = np.arange(n_blocks)
    # one representative description per block: its first member's
    pairs = pairs[np.unique(blocks, return_index=True)[1]]
    initial = int(blocks[initial])
    accepting = np.isin(np.arange(n_blocks), blocks[accepting])
    # distinct moves between blocks, expanded to letters
    n_sets = len(sets)
    moves = _distinct(
        (blocks[src] * n_sets + lset) * n_blocks + blocks[dst], n_blocks * n_sets * n_blocks
    )
    rest, dst = np.divmod(moves, n_blocks)
    src, lset = np.divmod(rest, n_sets)
    src, letter, dst = _expand(sets, src, lset, dst)

    descriptions = []
    for pair in pairs.tolist():
        state, level = divmod(pair, n_untils + 1)
        members = ", ".join(sorted(str(f) for f in obligations.order[state]))
        descriptions.append("{" + members + f"}} @{level}")
    return BuchiAutomaton(
        len(pairs),
        initial,
        props,
        canonical_letters(props),
        src,
        letter,
        dst,
        np.flatnonzero(accepting).tolist(),
        descriptions,
    )


class _Obligations(NamedTuple):
    """Obligation-set automaton, listed state by state.

    ``order[s]`` is state ``s``'s obligation set. ``moves[s]`` is state
    ``s``'s moves as ``(target, marks, letter set, last edge)`` arrays. A
    move's first and last edge are its first and last in a listing of the
    state's letter edges letter by letter, choices in order within a letter;
    moves are numbered in order of their first edge, and a move's last edge
    is its place in that listing (``letter * choices + choice``), which only
    orders the state's moves. ``masks`` holds the debt bitmask of every marks
    index, and row ``i`` of ``letter_sets`` the letters of letter set ``i``.
    """

    order: list[frozenset]
    moves: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    masks: list[int]
    letter_sets: np.ndarray


def _obligation_automaton(
    start: Formula, untils: list[Formula], props: list[str]
) -> _Obligations:
    """Obligation-set automaton with per-transition debt bookkeeping.

    States are numbered breadth-first in discovery order. Each state's
    guarded choices are worked out once and grouped into moves; since the
    index of a letter in ``canonical_letters`` is its own bitmask over the
    sorted propositions, a move's letter set is the OR of its choices'
    packed match rows, and its first and last edge come from its choices'
    lowest and highest letters. New targets are numbered in order of first
    edge. A marks index's debt bitmask has bit ``i`` set when ``untils[i]``
    was discharged on the edge or not examined on it.
    """
    n_letters = 1 << len(props)
    # letters in the narrowest unsigned type that holds them, and packed
    # letter rows ORed as whole words (at 7 propositions, uint8 letters and
    # two uint64 words per row)
    letter_type = np.min_scalar_type(n_letters - 1)
    letter_bits = np.arange(n_letters, dtype=letter_type)
    word = np.dtype(f"u{min(max(n_letters // 8, 1), 8)}")
    closure = _Closure(start, untils, props)
    # the debt bitmask is over the untils, which hold the lowest bits
    all_untils = (1 << len(untils)) - 1
    mask_index: dict[int, int] = {}
    states: dict[int, int] = {1 << closure.bit[start]: 0}
    order = list(states)
    # each state's move targets, marks and last edges, and each move's
    # letters as a packed membership row
    move_parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    member_rows: list[np.ndarray] = []
    frontier = list(states)
    while frontier:
        new_frontier: list[int] = []
        for state in frontier:
            choices = _state_choices(state, closure)
            # distinct (next, debt) moves, first numbered in choice order
            choice_moves: dict[tuple[int, int], int] = {}
            move_of_choice = [
                choice_moves.setdefault((nxt, (~pro | dis) & all_untils), len(choice_moves))
                for nxt, dis, pro, _, _ in choices
            ]
            # the choices grouped by move, in choice order within a move
            n, n_moves = len(choices), len(choice_moves)
            move_of = np.array(move_of_choice, dtype=key_type(n_moves))
            at = move_of.argsort(kind="stable")
            starts = move_of[at].searchsorted(np.arange(n_moves, dtype=move_of.dtype))
            pos = np.array([c[3] for c in choices], dtype=np.int64)[at]
            neg = np.array([c[4] for c in choices], dtype=np.int64)[at]
            # a letter matches when, of the guarded propositions, it holds
            # exactly pos; a move's letters are those of any of its choices
            guard = (pos | neg).astype(letter_type)[:, None]
            matches = (letter_bits & guard) == pos.astype(letter_type)[:, None]
            rows = np.packbits(matches, axis=1).view(word)
            member = np.bitwise_or.reduceat(rows, starts).view(np.uint8)
            # An edge's place in the listing is letter * n + choice. A
            # choice's lowest letter is pos and its highest every letter
            # outside neg; a choice matches its move's lowest (highest)
            # letter only if that is its own lowest (highest) too. So a
            # move's first edge is its least (pos, choice), and its last edge
            # its greatest highest letter with the least choice on it.
            first_edge = np.minimum.reduceat(pos * n + at, starts)
            high, rest = np.divmod(
                np.maximum.reduceat(((n_letters - 1) & ~neg) * n + n - 1 - at, starts), n
            )
            last_edge = high * n + n - 1 - rest
            # renumber the moves in order of their first edge
            seen = np.argsort(first_edge)
            move_list = list(choice_moves)
            move_target: list[int] = []
            move_marks: list[int] = []
            # targets are numbered in order of their moves' first edges
            for old in seen.tolist():
                nxt, debt = move_list[old]
                target = states.get(nxt)
                if target is None:
                    target = states[nxt] = len(order)
                    order.append(nxt)
                    new_frontier.append(nxt)
                move_target.append(target)
                move_marks.append(mask_index.setdefault(debt, len(mask_index)))
            member_rows.append(member[seen])
            move_parts.append((
                np.array(move_target, dtype=np.int64),
                np.array(move_marks, dtype=np.int64),
                last_edge[seen],
            ))
        frontier = new_frontier
    if len(move_parts) != len(order):
        raise ContractError("internal bookkeeping mismatch")
    # one id per distinct letter set
    packed = np.concatenate(member_rows)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first_row, move_set = np.unique(rows, return_index=True, return_inverse=True)
    letter_sets = np.unpackbits(packed[first_row], axis=1, count=n_letters).astype(bool)
    bounds = np.cumsum([len(target) for target, _, _ in move_parts])[:-1]
    moves = [
        (target, marks, sets, last)
        for (target, marks, last), sets in zip(move_parts, np.split(move_set.ravel(), bounds))
    ]
    return _Obligations([closure.decode(state) for state in order], moves, list(mask_index), letter_sets)


def _counter_levels(
    moves: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    masks: list[int],
    n_untils: int,
) -> tuple[np.ndarray, list[int], np.ndarray, np.ndarray]:
    """Counter construction: wait for debt 0, then 1, ..., then n-1; a state
    at level n_untils certifies one full round of discharges and restarts.

    Counter states ``state * (n_untils + 1) + level`` are explored depth
    first from state 0 at level 0. Returns them in numbering order, the
    obligation state of each explored one in exploration order, and the
    ``(src, dst)`` ids of one counter move per explored state and move of
    its obligation state. Each explored state's targets are sorted once,
    stably: the runs of equal targets give the distinct targets, each run's
    first move is its target's first edge, and the greatest last edge over
    a run is its target's last.
    """
    width = n_untils + 1
    # next level after an edge with these marks, by the level it leaves
    table = np.empty((width, len(masks)), dtype=np.int64)
    for m, mask in enumerate(masks):
        for level in range(width):
            j = 0 if level == n_untils else level
            while j < n_untils and mask >> j & 1:
                j += 1
            table[level, m] = j
    # each obligation state's move targets at level 0
    level_zero = [move_target * width for move_target, _, _, _ in moves]

    # the id of every counter state numbered so far, -1 for the others
    n_pairs = len(moves) * width
    id_of = np.full(n_pairs, -1, dtype=np.int64)
    id_of[0] = 0
    numbered = [np.zeros(1, dtype=np.int64)]
    n_ids = 1
    # done flags, read one at a time as bytes and many at a time through a
    # boolean view of the same memory
    done_flags = bytearray(n_pairs)
    done = np.frombuffer(done_flags, dtype=bool)
    pending = [0]
    explored: list[int] = []
    explored_states: list[int] = []
    target_parts: list[np.ndarray] = []
    # Numbered and pushed exactly as a DFS that walks the state's letter
    # edges, numbers each target on first sight and pushes every target not
    # yet done: new ids go in order of first edge, and a target pushed twice
    # is popped at its last push, so only the push at its last edge matters.
    # An edge's target depends only on its move, and moves are numbered in
    # order of their first edge.
    while pending:
        pair = pending.pop()
        if done_flags[pair]:
            continue
        done_flags[pair] = 1
        state, level = divmod(pair, width)
        _, move_marks, _, last = moves[state]
        targets = level_zero[state] + table[level][move_marks]
        by_target, distinct, starts = group(targets, n_pairs)
        unseen = id_of[distinct] < 0
        if unseen.any():
            # with the stable sort a run's first move is its target's first edge
            fresh = targets[np.sort(by_target[starts[unseen]])]
            id_of[fresh] = np.arange(n_ids, n_ids + len(fresh))
            numbered.append(fresh)
            n_ids += len(fresh)
        # each distinct target once, in order of its last edge
        pushed = distinct[np.argsort(np.maximum.reduceat(last[by_target], starts))]
        pending.extend(pushed[~done[pushed]].tolist())
        explored.append(pair)
        explored_states.append(state)
        target_parts.append(targets)
    src = np.repeat(id_of[explored], [len(targets) for targets in target_parts])
    dst = id_of[np.concatenate(target_parts)]
    return np.concatenate(numbered), explored_states, src, dst


def _distinct(values: np.ndarray, bound: int) -> np.ndarray:
    """Sorted distinct values, as int64, of an integer array whose values
    lie below ``bound``, sorted in the ``key_type`` of ``bound``. numpy 2's
    ``np.unique`` without ``return_*`` arguments goes through a hash table,
    which is several times slower than sorting on the arrays met here."""
    values = np.sort(values.astype(key_type(bound)))
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first].astype(np.int64)


def alive_states(reverse: csr_array, marks: Sequence[np.ndarray]) -> np.ndarray:
    """Mask of the states that reach a strongly connected component holding
    a move and a state of every mark: the states from which some run visits
    each mark infinitely often (Tarjan 1972; Couvreur 1999). ``reverse``
    holds each move ``p -> q`` in row ``q``, column ``p``."""
    n_comp, labels = connected_components(reverse, directed=True, connection="strong")
    src_comp = labels[reverse.indices]
    dst_comp = np.repeat(labels, np.diff(reverse.indptr))
    good_comp = np.zeros(n_comp, dtype=bool)
    good_comp[src_comp[src_comp == dst_comp]] = True
    for mark in marks:
        good_comp &= np.bincount(labels[mark], minlength=n_comp) > 0
    alive = good_comp[labels]
    if not alive.any():
        return alive
    # backward closure: anything that reaches an alive state stays
    return np.isfinite(dijkstra(reverse, indices=np.flatnonzero(alive), min_only=True))


def _expand(
    letter_sets: np.ndarray, head: np.ndarray, lset: np.ndarray, tail: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(head, letter, tail)`` rows, one per letter of each row's set."""
    row, letter = np.nonzero(letter_sets[lset])
    return head[row], letter, tail[row]


def _quotient_bisimulation(
    letter_sets: np.ndarray,
    accepting: np.ndarray,
    src: np.ndarray,
    lset: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Block of every state in the coarsest partition that separates
    acceptance and is stable under every letter's moves.

    Blocks are numbered by the rank of their signature: a block's own number,
    then for each letter with moves (ascending) the sorted blocks reached.
    """
    blocks = accepting.astype(np.int64)
    while True:
        sigs = _signatures(blocks, letter_sets, src, lset, dst)
        ranking = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        new_blocks = np.array([ranking[sig] for sig in sigs], dtype=np.int64)
        if np.array_equal(new_blocks, blocks):
            return blocks
        blocks = new_blocks


def _signatures(
    blocks: np.ndarray,
    letter_sets: np.ndarray,
    src: np.ndarray,
    lset: np.ndarray,
    dst: np.ndarray,
) -> list[tuple[int, ...]]:
    """Per state, the flat token tuple of its signature.

    The nested signature ``(block, ((letter, (blocks...)), ...))`` is written
    as ``block, letter, blocks..., -1, letter, blocks..., -1, ..., -1``. Since
    ``-1`` sorts below every letter and block, where a nested tuple runs out
    first the token tuple meets a ``-1`` first, so both sort alike.
    """
    n_sets, n_letters = letter_sets.shape
    base = int(blocks.max()) + 1
    sigs = [(b, -1) for b in blocks.tolist()]
    # distinct (state, letter set, block) moves, grouped by state
    moves = _distinct((src * n_sets + lset) * base + blocks[dst], len(blocks) * n_sets * base)
    if not len(moves):
        return sigs
    state, rest = np.divmod(moves, n_sets * base)
    starts = np.flatnonzero(np.append(True, state[1:] != state[:-1]))
    # states with equal blocks and equal moves have equal signatures, so
    # only the first of each such group is expanded to letters
    same_as: dict[int, int] = {}
    first_of: dict[tuple, int] = {}
    rest_list = rest.tolist()
    for s, lo, hi in zip(
        state[starts].tolist(), starts.tolist(), starts[1:].tolist() + [len(moves)]
    ):
        same_as[s] = first_of.setdefault((sigs[s][0], *rest_list[lo:hi]), s)
    first = np.zeros(len(sigs), dtype=bool)
    first[list(first_of.values())] = True
    state, rest = state[first[state]], rest[first[state]]
    state, move_letter, move_block = _expand(letter_sets, state, *np.divmod(rest, base))
    keys = _distinct(
        (state * n_letters + move_letter) * base + move_block, len(blocks) * n_letters * base
    )
    state, rest = np.divmod(keys, n_letters * base)
    move_letter, move_block = np.divmod(rest, base)
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
    for s, rep in same_as.items():
        sigs[s] = sigs[rep]
    return sigs

