"""Exception types shared across the package, the one size rule, the one
run rule, the one ratio rule and the one self-check rule.

Every value that comes from outside is read here, once, before anything
of its size is built.  A length (a period, a step budget, a trial, run or
majority count, a grid, a truncation or a packing exponent) is checked by
:func:`check_length`: not an integer or below its minimum, it raises
PreconditionError; above its cap, CapacityError.  A window or a profile's
index set is one run of consecutive integers, read by :func:`check_run`,
which also refuses a window outside the run it is read from, and a
waiting ratio alpha is read by :func:`check_ratio`.

Every cross-check of a closed form against an independent evaluation
goes through :func:`check_residual`, which raises ConsistencyError on a
residual above its tolerance or NaN and records the others in the
innermost open :func:`recorded_checks`; in the package only the command line
opens one.
"""

import contextlib
import contextvars
from fractions import Fraction

import numpy as np

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
    """The size rule: ``n`` is an int or numpy integer (not a bool) of at least ``minimum``
    (and even, if asked), else PreconditionError; and at most ``cap``, else CapacityError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise PreconditionError(f"{name} {n!r} must be an integer")
    if n < minimum or (even and n % 2):
        raise PreconditionError(f"{name} {n} must be {'even and ' if even else ''}"
                                f"at least {minimum}")
    if n > cap:
        raise CapacityError(f"{name} {n} exceeds cap {cap}")


def check_run(name: str, values, within: range | None = None) -> range:
    """The run rule: ``values`` (a range, an integer array or any iterable
    of ints that are not bools) as one step-1 range of consecutive
    ascending integers, possibly empty, else PreconditionError.  A
    nonempty run must lie inside the run ``within``, if given, else
    PreconditionError naming its first index outside ("index 8 outside
    range(0, 8)"); an index that int64 cannot hold is named the same way,
    or as outside int64 range when no ``within`` is given."""
    outside = f"outside {'int64 range' if within is None else within}"
    not_a_run = f"{name} must be one run of consecutive ascending integers"
    if isinstance(values, range):
        if len(values) > 1 and values.step != 1:
            raise PreconditionError(not_a_run)
        run = range(values.start, values.start + len(values))
    else:
        listed = not isinstance(values, np.ndarray)
        if listed:
            values = list(values)
        idx = np.asarray(values)
        if idx.ndim == 1 and idx.dtype in (object, np.uint64):  # may hold ints past int64
            for v in idx.tolist():
                if isinstance(v, int) and not -2 ** 63 <= v < 2 ** 63:
                    raise PreconditionError(f"index {v} {outside}")
        # numpy reads [True, 2] as [1, 2]; a bool is no index
        if (idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu")
                or (listed and not {bool, np.bool_}.isdisjoint(map(type, values)))):
            raise PreconditionError(f"{name} must be a one-dimensional list of integers")
        if idx.size > 1 and np.any(np.diff(idx) != 1):  # at most one index is a run
            raise PreconditionError(not_a_run)
        start = int(idx[0]) if idx.size else 0
        run = range(start, start + idx.size)
    if run and within is not None and (run.start < within.start or run.stop > within.stop):
        raise PreconditionError(
            f"index {run.start if run.start not in within else within.stop} {outside}")
    return run


def check_ratio(alpha) -> Fraction:
    """The ratio rule: ``alpha`` as a Fraction in (0, 1), else
    PreconditionError; compared first, so nan and inf are refused."""
    if not (0 < alpha < 1):
        raise PreconditionError("alpha must lie strictly between 0 and 1")
    return Fraction(alpha)


def check_residual(what: str, residual: float, tol: float, points: int = 1) -> float:
    """The self-check rule: ``residual`` of the check ``what`` over
    ``points`` points is at most ``tol``, else ConsistencyError (so NaN
    fails); (what, points, residual) goes to the innermost open
    ``recorded_checks``.  ``what`` names the size checked, where there is
    one.  Returns the residual as a float."""
    residual = float(residual)
    if not residual <= tol:
        raise ConsistencyError(f"{what}: residual {residual!r} exceeds tolerance {float(tol)!r}")
    checks = _CHECKS.get()
    if checks is not None:
        checks.append((what, points, residual))
    return residual


@contextlib.contextmanager
def recorded_checks():
    """Yield a list to which every ``check_residual`` in this context,
    and in no inner one, appends (what, points, residual)."""
    checks = []
    token = _CHECKS.set(checks)
    try:
        yield checks
    finally:
        _CHECKS.reset(token)
