"""Exception types shared across the package, the one size rule, the one
index rule, the one run rule and the one self-check rule.

Every length that comes from outside (a period, a step budget, a trial,
run or majority count, a grid or a truncation) is checked by
:func:`check_length` once, before anything of that size is built: not an
integer or below its minimum, it raises PreconditionError; above its cap,
CapacityError.  Index and exponent lists are read by :func:`check_indices`,
and windows and profile index sets, each one run, by :func:`check_run`.

Every cross-check of a closed form against an independent evaluation
goes through :func:`check_residual`, which raises ConsistencyError on a
residual above its tolerance or NaN and records the others in the
innermost open :func:`recorded_checks`; in the package only the command line
opens one.
"""

import contextlib
import contextvars

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


def check_indices(name: str, values, span: str = "int64") -> np.ndarray:
    """The index rule: ``values`` (a range, an integer array or any iterable
    of ints that are not bools) as a one-dimensional integer array, possibly
    empty, else PreconditionError; an index that int64 cannot hold is named
    as outside the ``span`` range."""
    if isinstance(values, range):
        return np.arange(values.start, values.stop, values.step)
    listed = not isinstance(values, np.ndarray)
    if listed:
        values = list(values)
    idx = np.asarray(values)
    if idx.ndim == 1 and idx.dtype in (object, np.uint64):  # may hold ints past int64
        for v in idx.tolist():
            if isinstance(v, int) and not -2 ** 63 <= v < 2 ** 63:
                raise PreconditionError(f"index {v} outside {span} range")
    # numpy reads [True, 2] as [1, 2]; a bool is no index
    if (idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu")
            or (listed and not {bool, np.bool_}.isdisjoint(map(type, values)))):
        raise PreconditionError(f"{name} must be a one-dimensional list of integers")
    return idx.astype(np.int64, copy=False)


def check_run(name: str, values, span: str = "int64") -> range:
    """The run rule: ``values`` (a range, or anything ``check_indices`` reads)
    as one step-1 range of consecutive ascending integers, possibly empty."""
    if isinstance(values, range):
        if len(values) > 1 and values.step != 1:
            raise PreconditionError(f"{name} must be one run of consecutive ascending integers")
        return range(values.start, values.start + len(values))
    idx = check_indices(name, values, span)
    if idx.size > 1 and np.any(np.diff(idx) != 1):  # at most one index is a run
        raise PreconditionError(f"{name} must be one run of consecutive ascending integers")
    start = int(idx[0]) if idx.size else 0
    return range(start, start + idx.size)


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
