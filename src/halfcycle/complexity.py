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
the overlap once and reports the bound and the zero crossings along its
grid; ``zero_count`` is that report on linspace(0, 1, resolution); the
resolution obeys the size rule of ``errors.check_length``.  On a minimal
spectrum the scan is the closed form of ``spectral.overlap_at``, which
costs O(grid) whatever the period, and the report keeps its cross-check
(points and residual, from ``errors.recorded_checks``) with the largest
slack of the bound and where it fell, as ``diagnostics``.

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

from .errors import PreconditionError, check_length, recorded_checks
from .spectral import OrbitSpectrum, overlap_at

APERIODIC_MEAN_ABS_PHASE = float(np.pi)  # uniform phase density on [0, 2pi)
_ZERO_FLOOR = 1e-12  # overlap components this small count as zero


def mean_abs_phase(spec: OrbitSpectrum) -> float:
    """sum w|phase|, evaluated once per spectrum however often it is read."""
    return APERIODIC_MEAN_ABS_PHASE if spec.aperiodic else spec._mean_abs_phase


def complexity(spec: OrbitSpectrum, t):
    """C(t) = t * sum w|phase|, a float for scalar t and an ndarray for an
    array; for aperiodic orbits the mean absolute phase is pi (uniform density).
    A negative, NaN or infinite t raises PreconditionError."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0) & np.isfinite(t_arr)):
        raise PreconditionError("time must be finite and nonnegative")
    value = t_arr * mean_abs_phase(spec)
    return float(value) if t_arr.ndim == 0 else value


@dataclass(frozen=True)
class BoundReport:
    ok: bool
    n_points: int
    max_slack_violation: float
    worst_t: float
    zero_count: int
    check_points: int  # closed-form points cross-checked; 0 on the direct sum
    check_residual: float | None

    @property
    def diagnostics(self) -> dict:
        """How the scan was evaluated and how close it came, for reports."""
        return {"path": "closed_form" if self.check_points else "direct",
                "cross_check_points": self.check_points,
                "cross_check_residual": self.check_residual,
                "max_slack_violation": self.max_slack_violation, "worst_t": self.worst_t}


def check_lower_bound(spec: OrbitSpectrum, t_grid) -> BoundReport:
    """Verify 2 - 2*Re(overlap(t)) <= 2*C(t) on every grid point, and count
    the zero crossings of Re and Im of the overlap along the grid (module
    docstring), from one evaluation of the overlap."""
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise PreconditionError("the time grid needs at least one point")
    with recorded_checks() as checks:
        vals = overlap_at(spec, t)
    lhs = 2.0 - 2.0 * np.real(vals)
    rhs = 2.0 * t * mean_abs_phase(spec)
    slack = lhs - rhs
    worst = int(np.argmax(slack))
    # lhs is a rounded difference of O(1) quantities; give it float headroom
    tol = 1e-9
    zeros = 0
    for comp in (np.real(vals), np.imag(vals)):
        sign = np.sign(comp[np.abs(comp) > _ZERO_FLOOR])
        zeros += int(np.sum(sign[:-1] != sign[1:]))
    points, residual = checks[0] if checks else (0, None)
    return BoundReport(
        ok=bool(np.all(slack <= tol)),
        n_points=t.size,
        max_slack_violation=float(slack[worst]),
        worst_t=float(t[worst]),
        zero_count=zeros,
        check_points=points,
        check_residual=residual,
    )


def zero_count(spec: OrbitSpectrum, resolution: int = 1024) -> int:
    """Zero crossings of Re and Im of the overlap on [0, 1], sampled at
    ``resolution`` points, by the zero rule of the module docstring."""
    check_length("resolution", resolution, 256)
    return check_lower_bound(spec, np.linspace(0.0, 1.0, resolution)).zero_count
