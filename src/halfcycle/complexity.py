"""Scale-free evolution cost and the distance lower bound it dominates.

With the machine cycle and action scale fixed to 1, the complexity of
evolving for time t is C(t) = t * sum_k w_k |phase_k|: time multiplied by
the mean absolute eigenphase, which each spectrum takes once as its
``OrbitSpectrum.mean_abs_phase``.  It is dimensionless, linear in t,
nonnegative, and zero only when all weight sits at phase 0.  A
non-halting orbit has no point spectrum; its uniform phase density on
[0, 2pi) has mean |phase| pi, ``APERIODIC_MEAN_ABS_PHASE``, and its cost
is t times that constant.  Squared state distance is bounded by twice
this cost,

    ||q_t - q_0||^2 = 2 - 2*Re(overlap(t)) <= 2*C(t),

so reaching an orthogonal state costs at least one unit.  The zero count
of the overlap function over one cycle serves as the efficiency
diagnostic: efficient implementations admit a uniform bound on it.

Both readings come from one overlap scan: ``check_lower_bound`` evaluates
the overlap once and reports the bound and the zero crossings along its
grid; ``zero_count`` is that report on linspace(0, 1, resolution); the
resolution obeys the size rule of ``errors.check_length``.  On a minimal
spectrum the scan is the closed form of ``spectral.overlap_at``, which
costs O(grid) whatever the period and cross-checks itself by
``errors.check_residual``; the report keeps the largest slack of the
bound and where it fell.

Zero rule: a component (Re or Im) with |value| <= 1e-12 counts as zero
and has no sign; one crossing is counted wherever two consecutive signed
grid values differ in sign.  The overlap has exact zeros (at whole
cycles, for instance), where the computed value is rounding noise of
either sign, and the rule keeps that noise out of the count; a real
crossing that lands on a grid point is still counted once.  Tangential
zeros (touches without a sign change) are not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, check_length
from .spectral import OrbitSpectrum, overlap_at

APERIODIC_MEAN_ABS_PHASE = float(np.pi)  # uniform phase density on [0, 2pi)
_ZERO_FLOOR = 1e-12  # overlap components this small count as zero


def _times(spec: OrbitSpectrum, t, scale: float = 1.0) -> np.ndarray:
    """``t`` as a float array, every time finite and nonnegative and
    ``scale`` * C(t) finite (at the largest time, since C grows with t),
    else PreconditionError: the times at which C(t) and its bound are defined."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0) & np.isfinite(t_arr)):
        raise PreconditionError("time must be finite and nonnegative")
    t_max = float(np.max(t_arr, initial=0.0))
    if not np.isfinite(scale * (t_max * spec.mean_abs_phase)):
        raise PreconditionError(f"time {t_max!r} is too long: C(t) times {scale:g} overflows")
    return t_arr


def complexity(spec: OrbitSpectrum, t):
    """C(t) = t * sum w|phase|, a float for scalar t and an ndarray for an
    array.  A negative, NaN or infinite t, or one whose C(t) is not finite,
    raises PreconditionError."""
    t_arr = _times(spec, t)
    value = t_arr * spec.mean_abs_phase
    return float(value) if t_arr.ndim == 0 else value


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    n_points: int
    max_slack_violation: float
    worst_t: float
    zero_count: int


def check_lower_bound(spec: OrbitSpectrum, t_grid) -> BoundReport:
    """Verify 2 - 2*Re(overlap(t)) <= 2*C(t) on every grid point, and count
    the zero crossings of Re and Im of the overlap along the grid (module
    docstring), from one evaluation of the overlap.  The grid is read like
    the times of ``complexity``: the bound holds for t >= 0 only, and
    2*C(t) must be finite."""
    t = _times(spec, t_grid, 2.0)
    if t.ndim != 1 or t.size == 0:
        raise PreconditionError("the time grid must be one-dimensional with at least one point")
    vals = overlap_at(spec, t)
    lhs = 2.0 - 2.0 * np.real(vals)
    rhs = 2.0 * (t * spec.mean_abs_phase)  # doubling is exact: each reading is 2 * C(t)
    slack = lhs - rhs
    worst = int(np.argmax(slack))
    # lhs is a rounded difference of O(1) quantities; give it float headroom
    tol = 1e-9
    zeros = 0
    for comp in (np.real(vals), np.imag(vals)):
        sign = np.sign(comp[np.abs(comp) > _ZERO_FLOOR])
        zeros += int(np.sum(sign[:-1] != sign[1:]))
    return BoundReport(
        ok=bool(np.all(slack <= tol)),
        n_points=t.size,
        max_slack_violation=float(slack[worst]),
        worst_t=float(t[worst]),
        zero_count=zeros,
    )


def zero_count(spec: OrbitSpectrum, resolution: int = 1024) -> int:
    """Zero crossings of Re and Im of the overlap on [0, 1], sampled at
    ``resolution`` points, by the zero rule of the module docstring."""
    check_length("resolution", resolution, 256)
    return check_lower_bound(spec, np.linspace(0.0, 1.0, resolution)).zero_count
