"""Build periodic waiting cycles from halting traces.

A halting trace of s forward steps becomes a closed walk of even period
p = 2s + 2w: the forward trace, w waiting steps holding the result, w
unwinding steps (undoing the wait counter), and the reversed trace.  The
2w middle indices carry the valid result; that contiguous block is the
result window, and its fraction of the period is the waiting ratio the
cycle was built for.

The cycle is realized on trace indices: it keeps the trace it was built
from, and position j holds the configuration at trace index
min(j, s, p - j) (forward, then waiting and unwinding at index s, then
back).  Each position also carries a (phase, counter) control tag that
follows from j, s and w, so all p states are pairwise distinct even where
the tape content repeats.  The labels are the window: position j holds
the result exactly when j lies in it.  Equal indices mean equal
configurations, so the walk's invariants are closed forms in p, s, w and
the window, checked in O(1) without hashing or comparing a single tape.
Downstream spectral and statistical results depend only on the period
and the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapacityError, PreconditionError
from .machine import DEFAULT_PERIOD_CAP, Trace, tape_content


@dataclass(frozen=True)
class LabeledCycle:
    """A period-p cycle whose result window is its labelling: position j
    holds the valid result exactly when ``j in window``.

    ``trace`` is the halted trace the cycle was built from; the state at
    each position is read from it through :meth:`trace_index`.
    """

    p: int
    window: range
    alpha_requested: Fraction
    s: int
    w: int
    source: str
    trace: Trace

    @property
    def alpha_actual(self) -> Fraction:
        """The waiting ratio: the window's share of the period."""
        return Fraction(len(self.window), self.p)

    def trace_index(self, j: int) -> int:
        """Trace index of the configuration at cycle position ``j``.

        The walk of length 2s + 2w (the period, on a built cycle) is read
        cyclically, so position j holds trace index min(j, s, p - j) with
        j taken mod 2s + 2w.
        """
        s = self.s
        n = 2 * (s + self.w)
        j %= n
        if j < s:
            return j
        return n - j if n - j < s else s

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
    alpha_actual: Fraction
    checks: tuple


def _ratio(alpha) -> Fraction:
    """``alpha`` as a Fraction in (0, 1); compared first, so nan and inf are refused."""
    if not (0 < alpha < 1):
        raise PreconditionError("alpha must lie strictly between 0 and 1")
    return Fraction(alpha)


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def build_alpha_cycle(trace: Trace, alpha, source: str = "") -> LabeledCycle:
    """Turn a halted trace into a waiting cycle with ratio at least ``alpha``.

    With s forward steps, the wait count is w = ceil(alpha/(1-alpha) * s),
    floored at one so the window is never empty; the period p = 2s + 2w is
    even by construction (no parity padding is ever needed) and the window
    is [s, s + 2w).  Both s and p are recorded on the cycle so the overhead
    of the construction can be audited.  A period above DEFAULT_PERIOD_CAP
    raises CapacityError before anything is allocated.
    """
    if not trace.halted:
        raise PreconditionError("cycle construction needs a halted trace")
    alpha = _ratio(alpha)
    s = trace.n_steps
    w = max(1, _ceil_frac(alpha / (1 - alpha) * s))
    p = 2 * s + 2 * w
    if p > DEFAULT_PERIOD_CAP:
        raise CapacityError(f"period {p} exceeds cap {DEFAULT_PERIOD_CAP} (alpha too close to 1)")

    return LabeledCycle(p=p, window=range(s, s + 2 * w), alpha_requested=alpha,
                        s=s, w=w, source=source, trace=trace)


def verify_cycle(cycle: LabeledCycle) -> CycleReport:
    """Check the structural invariants of a cycle and report violations.

    Checks: even period, window contiguity and label agreement, waiting
    ratio at least the requested alpha, window centering, that the trace
    halted after s steps, and that the walk of trace indices has length p,
    pairwise distinct (phase, counter) tags, is a closed palindrome, and
    maps every window position to the final (result) index s.  Each check
    is a closed form in p, s, w and the window: O(1) time and memory.  A
    window with a step other than 1 is not contiguous; the result-index
    check reads it by its hull.
    """
    p, s, w, window = cycle.p, cycle.s, cycle.w, cycle.window
    v = []
    checks = ["even_period", "labels_on_window", "window_contiguous", "window_nonempty",
              "waiting_ratio", "midpoint_in_window", "trace_halted", "trace_length",
              "index_walk_length"]
    if p % 2 != 0:
        v.append("period is odd")
    # the labelled positions in order: the window read upwards, cut to [0, p)
    up = window if window.step > 0 else window[::-1]
    labelled = up[max(0, -(up.start // up.step)):max(0, -((up.start - p) // up.step))]
    if labelled != window:
        v.append("labels are not true exactly on the window")
    if len(labelled) > 1 and labelled.step != 1:
        v.append("window is not contiguous")
    if not labelled:
        v.append("window is empty")
    if cycle.alpha_actual < cycle.alpha_requested:
        v.append("waiting ratio below requested alpha")
    if cycle.alpha_actual >= Fraction(1, 2) and p // 2 not in window:
        v.append("midpoint p/2 outside window despite waiting ratio >= 1/2")
    if not cycle.trace.halted:
        v.append("trace did not halt")
    if cycle.trace.n_steps != s:
        v.append("trace length differs from s + 1")
    n = 2 * (s + w)  # length of the walk; positions are read mod n
    if n != p:
        v.append("state sequence length differs from period")
    if n > 0:
        checks += ["index_tags_distinct", "index_palindrome", "index_window_at_s"]
        if p > n:  # tags repeat with period n
            v.append("cycle states are not pairwise distinct")
        # idx(j) = idx(p - j) for all 0 < j < p iff the walk is constant (s = 0),
        # read whole (p = 0 mod n), compared only at j = 1 (p <= 2), or read
        # within one walk whose positions 0 < j < n all sit at index 1 (s = 1)
        if not (s == 0 or p % n == 0 or p <= 2 or (s == 1 and p < n)):
            v.append("configuration walk is not a closed palindrome")
        # position j is at index s iff s <= j mod n <= n - s
        if s > 0 and window:
            lo, hi = sorted((window[0], window[-1]))
            if not (s <= lo % n and lo % n + hi - lo <= n - s):
                v.append("window states do not all hold the result tape")
    return CycleReport(ok=not v, violations=tuple(v), p=p,
                       alpha_actual=cycle.alpha_actual, checks=tuple(checks))


def alpha_for_period(p: int) -> float:
    """The waiting ratio 1 - p**-0.5 targeted by the long-period experiments."""
    if p < 4:
        raise PreconditionError("period must be at least 4")
    return 1.0 - p ** -0.5


def centered_window(p: int, alpha) -> range:
    """The contiguous result window of length 2*ceil(alpha*p/2) centered on
    index p/2, as used for synthetic period-p experiments."""
    if p < 2 or p % 2 != 0:
        raise PreconditionError("period must be even and at least 2")
    alpha = _ratio(alpha)
    w = max(1, _ceil_frac(alpha * p / 2))
    return range(p // 2 - w, p // 2 + w)


def cycle_result(cycle: LabeledCycle, index: int) -> tuple:
    """The result variable r = (z, v) carried by cycle state ``index``:
    z = 0 with the final tape inside the window, z = 1 with the local tape
    elsewhere."""
    config = cycle.trace.at(cycle.trace_index(index))
    return (0 if index in cycle.window else 1, tape_content(config))
