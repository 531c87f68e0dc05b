"""Named two-sided inequality records shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .core import keep_real


@dataclass(frozen=True)
class BoundCheck:
    """Outcome of a single inequality lhs <= rhs.

    ``slack`` is rhs - lhs, formed exactly, so neither it nor the verdict
    depends on the working precision; the check is satisfied exactly when
    slack >= 0.
    """

    name: str
    lhs: mpf
    rhs: mpf
    satisfied: bool
    slack: mpf


def bound_check(name, lhs, rhs) -> BoundCheck:
    lhs, rhs = keep_real(lhs), keep_real(rhs)
    slack = mp.fsub(rhs, lhs, exact=True)
    return BoundCheck(name=name, lhs=lhs, rhs=rhs, satisfied=bool(slack >= 0), slack=slack)
