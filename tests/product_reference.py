"""Breadth-first product build over Python dicts and a FIFO queue: the oracle
for ``surplan.product.build_product``.

``build_product`` numbers the reachable states by one scipy breadth-first
search over a key graph of every (system state, automaton state) pair, whose
rows it builds with numpy from the letter table. This oracle searches the
product itself, one state at a time from a FIFO queue, asking the automaton
for its successors on each state's label; the products must be equal in
every array, so in every state number and every edge.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from surplan.buchi import BuchiAutomaton
from surplan.errors import ValidationError
from surplan.product import ProductAutomaton, letter_table
from surplan.ts import TransitionSystem

from automaton_views import successors


def reference_build_product(
    ts: TransitionSystem, ba: BuchiAutomaton, surveillance_prop: str = "sur"
) -> ProductAutomaton:
    """Reachable part of the product of a system and an automaton.

    An edge (q, s) -> (q', s') exists when q -> q' is a system transition and
    the automaton moves s -> s' over the label of q. Discovery order is
    deterministic, so state numbering is reproducible. States whose system
    component carries the surveillance proposition are flagged.
    """
    if not ba.propositions <= ts.propositions:
        raise ValidationError("automaton propositions incompatible with system")
    start = (ts.initial, ba.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    order: list[tuple[int, int]] = [start]
    edge_src: list[int] = []
    edge_dst: list[int] = []
    edge_weight: list[float] = []
    queue: deque[tuple[int, int]] = deque([start])
    while queue:
        q, s = queue.popleft()
        src = index[(q, s)]
        letter = ts.labels[q]
        ba_targets = successors(ba, s, letter)
        lo, hi = ts.move_ptr[q], ts.move_ptr[q + 1]
        for q2, w in zip(ts.move_dst[lo:hi].tolist(), ts.move_weight[lo:hi].tolist()):
            for s2 in ba_targets:
                key = (q2, s2)
                if key not in index:
                    index[key] = len(order)
                    order.append(key)
                    queue.append(key)
                edge_src.append(src)
                edge_dst.append(index[key])
                edge_weight.append(w)
    ts_of = np.array([q for q, _ in order], dtype=np.int64)
    ba_of = np.array([s for _, s in order], dtype=np.int64)
    accepting = np.array([s in ba.accepting for _, s in order], dtype=bool)
    surveillance = np.array(
        [surveillance_prop in ts.labels[q] for q, _ in order], dtype=bool
    )
    return ProductAutomaton(
        ts,
        ba,
        letter_table(ts, ba),
        ts_of,
        ba_of,
        0,
        np.array(edge_src, dtype=np.int64),
        np.array(edge_dst, dtype=np.int64),
        np.array(edge_weight, dtype=np.float64),
        accepting,
        surveillance,
    )
