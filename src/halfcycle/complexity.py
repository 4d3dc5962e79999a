"""Scale-free evolution cost and the distance lower bound it dominates.

With the machine cycle and action scale fixed to 1, the complexity of
evolving for time t is C(t) = t * sum_k w_k |phase_k|: time multiplied by
the mean absolute eigenphase.  It is dimensionless, linear in t,
nonnegative, and zero only when all weight sits at phase 0.  Squared
state distance is bounded by twice this cost,

    ||q_t - q_0||^2 = 2 - 2*Re(overlap(t)) <= 2*C(t),

so reaching an orthogonal state costs at least one unit.  The zero count
of the overlap function over one cycle serves as the efficiency
diagnostic: efficient implementations admit a uniform bound on it.

Both readings come from one overlap scan: ``check_lower_bound`` evaluates
the overlap once and reports the bound and the sign changes along its grid;
``zero_count`` is that report on linspace(0, 1, resolution); the
resolution obeys the size rule of ``errors.check_length``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, check_length
from .spectral import OrbitSpectrum, overlap_at

APERIODIC_MEAN_ABS_PHASE = float(np.pi)  # uniform phase density on [0, 2pi)


def mean_abs_phase(spec: OrbitSpectrum) -> float:
    if spec.aperiodic:
        return APERIODIC_MEAN_ABS_PHASE
    return float(np.dot(spec.weights, np.abs(spec.phases)))


def complexity(spec: OrbitSpectrum, t):
    """C(t) = t * sum w|phase|, a float for scalar t and an ndarray for an
    array; for aperiodic orbits the mean absolute phase is pi (uniform density)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise PreconditionError("time must be nonnegative")
    value = t_arr * mean_abs_phase(spec)
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
    the sign changes of Re and Im of the overlap between neighbouring grid
    points, from one evaluation of the overlap."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise PreconditionError("the time grid needs at least one point")
    vals = overlap_at(spec, t)
    lhs = 2.0 - 2.0 * np.real(vals)
    rhs = 2.0 * t * mean_abs_phase(spec)
    slack = lhs - rhs
    worst = int(np.argmax(slack))
    # lhs is a rounded difference of O(1) quantities; give it float headroom
    tol = 1e-9
    zeros = 0
    for comp in (np.real(vals), np.imag(vals)):
        sign = np.sign(comp)
        zeros += int(np.sum(sign[:-1] * sign[1:] < 0))
    return BoundReport(
        ok=bool(np.all(slack <= tol)),
        n_points=t.size,
        max_slack_violation=float(slack[worst]),
        worst_t=float(t[worst]),
        zero_count=zeros,
    )


def zero_count(spec: OrbitSpectrum, resolution: int = 1024) -> int:
    """Sign changes of Re and Im of the overlap on [0, 1].

    Sampled at ``resolution`` points; tangential zeros (touches without a
    sign change) are not counted, which is acceptable for a diagnostic.
    """
    check_length("resolution", resolution, 256)
    return check_lower_bound(spec, np.linspace(0.0, 1.0, resolution)).zero_count
