"""Trace checks of the case-study mission, read off the step records: never
visit a proposition, and visit two propositions in strict alternation."""

from __future__ import annotations

from typing import Sequence

from surplan.errors import ContractError
from surplan.sim import StepRecord


def check_never_visits(records: Sequence[StepRecord], ts, prop: str) -> list[int]:
    """Steps whose arrival state carries ``prop``; empty means never visited."""
    return [
        rec.step
        for rec in records
        if prop in ts.labels[ts.index[rec.ts_state]]
    ]


def check_alternation(records: Sequence[StepRecord], ts, first: str, second: str) -> list[int]:
    """Steps violating strict alternation between ``first`` and ``second`` visits.

    Visiting a state labeled with one of the two propositions twice without
    visiting the other in between is a violation.  States carrying both
    propositions are rejected outright.
    """
    violations = []
    last: str | None = None
    for rec in records:
        label = ts.labels[ts.index[rec.ts_state]]
        has_first = first in label
        has_second = second in label
        if has_first and has_second:
            raise ContractError(
                f"state {rec.ts_state!r} carries both {first!r} and {second!r};"
                " alternation is not checkable"
            )
        if has_first:
            if last == first:
                violations.append(rec.step)
            last = first
        elif has_second:
            if last == second:
                violations.append(rec.step)
            last = second
    return violations
