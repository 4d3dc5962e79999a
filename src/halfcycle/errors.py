"""Exception types shared across the package, the one size rule and the
one self-check rule.

Every length that comes from outside (a period, a step budget, a trial,
run or majority count, a grid or a truncation) is checked by
:func:`check_length` once, before anything of that size is built: below
its minimum it raises PreconditionError, above its cap CapacityError.

Every cross-check of a closed form against an independent evaluation
goes through :func:`check_residual`, which raises ConsistencyError on a
residual above its tolerance or NaN and records the others in the
innermost open :func:`recorded_checks`.
"""

import contextlib
import contextvars

DEFAULT_PERIOD_CAP = 2 ** 22  # of cycles, profiles, draws, grids and runs
_CHECKS = contextvars.ContextVar("recorded_checks", default=None)  # innermost open list


class HalfcycleError(Exception):
    """Base class for all package errors."""


class MachineSpecError(HalfcycleError):
    """A machine description violates the spec contract (missing transition,
    unknown state or symbol, malformed file)."""


class PreconditionError(HalfcycleError):
    """An operation was called with arguments outside its documented domain."""


class CapacityError(HalfcycleError):
    """A construction would exceed a configured size cap (period cap,
    eigenvalue budget)."""


class ConsistencyError(HalfcycleError):
    """Two internal evaluation routes disagreed beyond tolerance.  This is a
    bug trap: no test or normal run should ever trip it."""


def check_length(name: str, n: int, minimum: int = 1, *, even: bool = False,
                 cap: int = DEFAULT_PERIOD_CAP) -> None:
    """The size rule: ``n`` is at least ``minimum`` (and even, if asked),
    else PreconditionError; and at most ``cap``, else CapacityError."""
    if n < minimum or (even and n % 2):
        raise PreconditionError(f"{name} {n} must be {'even and ' if even else ''}"
                                f"at least {minimum}")
    if n > cap:
        raise CapacityError(f"{name} {n} exceeds cap {cap}")


def check_residual(what: str, residual: float, tol: float, points: int = 1) -> float:
    """The self-check rule: ``residual`` of the check ``what`` over
    ``points`` points is at most ``tol``, else ConsistencyError (so NaN
    fails); (points, residual) goes to the innermost open
    ``recorded_checks``.  Returns the residual as a float."""
    residual = float(residual)
    if not residual <= tol:
        raise ConsistencyError(f"{what}: residual {residual!r} exceeds tolerance {tol!r}")
    checks = _CHECKS.get()
    if checks is not None:
        checks.append((points, residual))
    return residual


@contextlib.contextmanager
def recorded_checks():
    """Yield a list to which every ``check_residual`` in this context,
    and in no inner one, appends (points, residual)."""
    checks = []
    token = _CHECKS.set(checks)
    try:
        yield checks
    finally:
        _CHECKS.reset(token)
