"""Build periodic waiting cycles from halting traces.

A halting trace of s forward steps becomes a closed walk of even period
p = 2s + 2w: the forward trace, w waiting steps holding the result, w
unwinding steps (undoing the wait counter), and the reversed trace.  The
2w middle indices carry the valid result; that contiguous block is the
result window [s, s + 2w), and its fraction of the period is the waiting
ratio the cycle was built for.

A cycle is its halted trace and its wait count w: s, p, the window and
the waiting ratio are derived from those two, so they cannot disagree.
Position j holds the configuration at trace index min(j, s, p - j), j
taken mod p (forward, then waiting and unwinding at index s, then back),
and carries a (phase, counter) control tag that follows from j, s and w,
so all p states are pairwise distinct even where the tape content
repeats.  The labels are the window: position j holds the result exactly
when j mod p lies in it.  Evenness, the closed palindrome, the window at
index s and p/2 inside it hold by construction; the one property the
fields leave open, that the waiting ratio reaches the requested alpha, is
what :func:`verify_cycle` checks.  Downstream spectral and statistical
results depend only on the period and the window.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, check_length
from .machine import Trace, tape_content


@dataclass(frozen=True)
class LabeledCycle:
    """The waiting cycle of a halted ``trace`` with ``w`` >= 1 wait steps:
    position j holds the valid result exactly when ``j % p in window``.
    The period obeys the size rule of ``errors.check_length``."""

    trace: Trace
    w: int
    alpha_requested: Fraction
    source: str = ""

    def __post_init__(self):
        if not self.trace.halted:
            raise PreconditionError("cycle construction needs a halted trace")
        check_length("wait count", self.w)
        check_length("period", self.p)

    @property
    def s(self) -> int:
        """Forward steps: the step count of the trace."""
        return self.trace.n_steps

    @property
    def p(self) -> int:
        return 2 * (self.s + self.w)

    @property
    def window(self) -> range:
        return range(self.s, self.s + 2 * self.w)

    @property
    def alpha_actual(self) -> Fraction:
        """The waiting ratio: the window's share of the period."""
        return Fraction(self.w, self.s + self.w)

    def trace_index(self, j: int) -> int:
        """Trace index min(j, s, p - j), j taken mod p, of the
        configuration at cycle position ``j``."""
        j = operator.index(j) % self.p
        return min(j, self.s, self.p - j)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "window": [self.window.start, self.window.stop],
            "source": self.source,
            "s": self.s,
            "w": self.w,
            "alpha_requested": [self.alpha_requested.numerator, self.alpha_requested.denominator],
            "alpha_actual": [self.alpha_actual.numerator, self.alpha_actual.denominator],
        }


@dataclass(frozen=True)
class CycleReport:
    """Outcome of :func:`verify_cycle`; ``checks`` names every check that
    ran, in order, whether or not it found a violation."""

    ok: bool
    violations: tuple
    p: int
    checks: tuple


def _ratio(alpha) -> Fraction:
    """``alpha`` as a Fraction in (0, 1); compared first, so nan and inf are refused."""
    if not (0 < alpha < 1):
        raise PreconditionError("alpha must lie strictly between 0 and 1")
    return Fraction(alpha)


def build_alpha_cycle(trace: Trace, alpha, source: str = "") -> LabeledCycle:
    """Turn a halted trace into a waiting cycle with ratio at least ``alpha``.

    With s forward steps, the wait count is w = ceil(alpha/(1-alpha) * s),
    floored at one so the window is never empty; the period p = 2s + 2w is
    even by construction (no parity padding is ever needed).  The cycle
    refuses a trace that did not halt and a period over the cap.
    """
    alpha = _ratio(alpha)
    w = max(1, math.ceil(alpha / (1 - alpha) * trace.n_steps))
    return LabeledCycle(trace=trace, w=w, alpha_requested=alpha, source=source)


def verify_cycle(cycle: LabeledCycle) -> CycleReport:
    """Check the one invariant the fields of a cycle leave open, that the
    waiting ratio is at least the requested alpha, and report violations.
    O(1) time and memory."""
    v = []
    if cycle.alpha_actual < cycle.alpha_requested:
        v.append("waiting ratio below requested alpha")
    return CycleReport(ok=not v, violations=tuple(v), p=cycle.p, checks=("waiting_ratio",))


def alpha_for_period(p: int) -> float:
    """The waiting ratio 1 - p**-0.5 targeted by the long-period experiments."""
    check_length("period", p, 4)
    return 1.0 - p ** -0.5


def centered_window(p: int, alpha) -> range:
    """The contiguous result window of length 2*ceil(alpha*p/2) centered on
    index p/2, as used for synthetic period-p experiments."""
    check_length("period", p, 2, even=True)
    alpha = _ratio(alpha)
    w = max(1, math.ceil(alpha * p / 2))
    return range(p // 2 - w, p // 2 + w)


def cycle_result(cycle: LabeledCycle, index: int) -> tuple:
    """The result variable r = (z, v) carried by cycle state ``index`` mod p:
    z = 0 with the final tape inside the window, z = 1 with the local tape
    elsewhere.  ``index`` is read as a Python int (``operator.index``), so a
    numpy integer tests the window in O(1), not by a scan of the range."""
    j = operator.index(index) % cycle.p
    config = cycle.trace.at(cycle.trace_index(j))
    return (0 if j in cycle.window else 1, tape_content(config))
