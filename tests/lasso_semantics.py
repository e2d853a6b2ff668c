"""Reference semantics of mission formulas on lasso words.

Test helpers: ``formula_satisfied_on_lasso`` evaluates a formula directly on
an ultimately periodic word, and ``semantic_lasso_table`` does so for every
lasso from ``enumerate_lassos`` at once. The automaton tests compare
``to_buchi`` against these.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from surplan.errors import ContractError
from surplan.ltl import (
    Always,
    And,
    Atom,
    Eventually,
    Formula,
    Letter,
    Next,
    Not,
    Or,
    TrueConst,
    Until,
    canonical_letters,
)


def formula_satisfied_on_lasso(
    formula: Formula, stem: Sequence[Letter], loop: Sequence[Letter]
) -> bool:
    """Truth of the formula on the infinite word stem followed by loop forever.

    Works on the finite position set of the lasso: the successor of the last
    loop position wraps back to the start of the loop. Until and eventually
    are least fixpoints, always is a greatest fixpoint; both converge after at
    most one pass per position.
    """
    if len(loop) == 0:
        raise ContractError("the loop part of a lasso must be nonempty")
    word = [frozenset(x) for x in stem] + [frozenset(x) for x in loop]
    n = len(word)
    wrap = len(stem)
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = wrap

    def val(f: Formula) -> list[bool]:
        if isinstance(f, TrueConst):
            return [True] * n
        if isinstance(f, Atom):
            return [f.name in word[i] for i in range(n)]
        if isinstance(f, Not):
            return [not x for x in val(f.sub)]
        if isinstance(f, And):
            return [a and b for a, b in zip(val(f.left), val(f.right))]
        if isinstance(f, Or):
            return [a or b for a, b in zip(val(f.left), val(f.right))]
        if isinstance(f, Next):
            sub = val(f.sub)
            return [sub[succ[i]] for i in range(n)]
        if isinstance(f, Until):
            a, b = val(f.left), val(f.right)
            x = [False] * n
            for _ in range(n + 1):
                nxt = [b[i] or (a[i] and x[succ[i]]) for i in range(n)]
                if nxt == x:
                    break
                x = nxt
            return x
        if isinstance(f, Eventually):
            a = val(f.sub)
            x = [False] * n
            for _ in range(n + 1):
                nxt = [a[i] or x[succ[i]] for i in range(n)]
                if nxt == x:
                    break
                x = nxt
            return x
        if isinstance(f, Always):
            a = val(f.sub)
            x = [True] * n
            for _ in range(n + 1):
                nxt = [a[i] and x[succ[i]] for i in range(n)]
                if nxt == x:
                    break
                x = nxt
            return x
        raise TypeError(f"unknown formula node {f!r}")

    return val(formula)[0]


def enumerate_lassos(
    propositions: Iterable[str], max_stem: int, max_loop: int
) -> Iterator[tuple[tuple[Letter, ...], tuple[Letter, ...]]]:
    """Every lasso word over the alphabet, shortest shapes first.

    The enumeration order is shared with the bulk evaluators below so their
    outputs align elementwise.
    """
    letters = canonical_letters(propositions)
    for stem_len in range(max_stem + 1):
        for loop_len in range(1, max_loop + 1):
            for combo in itertools.product(letters, repeat=stem_len + loop_len):
                yield combo[:stem_len], combo[stem_len:]


@lru_cache(maxsize=32)
def _digit_table(n_letters: int, length: int) -> np.ndarray:
    total = n_letters**length
    idx = np.unravel_index(np.arange(total), (n_letters,) * length)
    return np.stack(idx, axis=1).astype(np.int16)


def semantic_lasso_table(
    formula: Formula, propositions: Iterable[str], max_stem: int, max_loop: int
) -> np.ndarray:
    """Truth of the formula on every lasso from :func:`enumerate_lassos`.

    Vectorized over all words of each shape at once; the per-word evaluator
    :func:`formula_satisfied_on_lasso` is the readable reference this is
    checked against in the test suite.
    """
    letters = canonical_letters(propositions)
    n_letters = len(letters)
    has = {
        p: np.array([p in letter for letter in letters])
        for p in sorted(set(propositions))
    }
    chunks: list[np.ndarray] = []
    for stem_len in range(max_stem + 1):
        for loop_len in range(1, max_loop + 1):
            n = stem_len + loop_len
            digits = _digit_table(n_letters, n)
            succ = np.arange(1, n + 1)
            succ[n - 1] = stem_len

            def val(f: Formula) -> np.ndarray:
                if isinstance(f, TrueConst):
                    return np.ones(digits.shape, dtype=bool)
                if isinstance(f, Atom):
                    return has[f.name][digits]
                if isinstance(f, Not):
                    return ~val(f.sub)
                if isinstance(f, And):
                    return val(f.left) & val(f.right)
                if isinstance(f, Or):
                    return val(f.left) | val(f.right)
                if isinstance(f, Next):
                    return val(f.sub)[:, succ]
                if isinstance(f, Until):
                    a, b = val(f.left), val(f.right)
                    x = np.zeros(digits.shape, dtype=bool)
                    for _ in range(n + 1):
                        nxt = b | (a & x[:, succ])
                        if np.array_equal(nxt, x):
                            break
                        x = nxt
                    return x
                if isinstance(f, Eventually):
                    a = val(f.sub)
                    x = np.zeros(digits.shape, dtype=bool)
                    for _ in range(n + 1):
                        nxt = a | x[:, succ]
                        if np.array_equal(nxt, x):
                            break
                        x = nxt
                    return x
                if isinstance(f, Always):
                    a = val(f.sub)
                    x = np.ones(digits.shape, dtype=bool)
                    for _ in range(n + 1):
                        nxt = a & x[:, succ]
                        if np.array_equal(nxt, x):
                            break
                        x = nxt
                    return x
                raise TypeError(f"unknown formula node {f!r}")

            chunks.append(val(formula)[:, 0])
    return np.concatenate(chunks)
