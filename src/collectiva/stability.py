"""The final-window oscillation rule that both the frequency analysis
(``collectives``) and the real-line half of the p-adic comparison
(``padic``) apply to a rational sequence.  It is plain ``Fraction`` code,
so a command that reads rationals, not trials, runs it without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError


@dataclass(frozen=True)
class LabelStability:
    stabilized: bool
    limit: Fraction | None
    oscillation: Fraction


def window_stability(values: Sequence, epsilon) -> LabelStability:
    """The window-oscillation rule on the values inside a final window:
    stabilized iff max - min <= epsilon (which must be > 0), with the exact
    mean of the values as the limit."""
    if not epsilon > 0:
        raise InputError(f"epsilon must be > 0, got {epsilon}")
    osc = max(values) - min(values)
    ok = osc <= epsilon
    limit = sum(values, Fraction(0)) / len(values) if ok else None
    return LabelStability(bool(ok), limit, osc)
