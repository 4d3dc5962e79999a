"""Exception types shared across the package, and the one size rule.

Every length that comes from outside (a period, a step budget, a trial,
run or majority count, a grid or a truncation) is checked by
:func:`check_length` once, before anything of that size is built: below
its minimum it raises PreconditionError, above its cap CapacityError.
"""

DEFAULT_PERIOD_CAP = 2 ** 22  # of cycles, profiles, draws, grids and runs


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
