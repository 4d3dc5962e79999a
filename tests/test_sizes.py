"""The size rule: every length that comes from outside is checked once,
against its minimum and DEFAULT_PERIOD_CAP, before anything is built."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from halfcycle import (CapacityError, PreconditionError, alpha_for_period, build_alpha_cycle,
                       centered_window, chirped_pair, continuous_nu, cycle_result, get_density,
                       halfstep_profile_aperiodic, halfstep_profile_periodic, halting_demo,
                       identical_pair, initial_config, load_machine, minimal_periodic_spectrum,
                       moment_experiment, obstruction_certificate, repeat_error_free, run,
                       run_error_bounded, sample_y, zero_count)
from halfcycle.cli import cmd_complexity
from halfcycle.errors import DEFAULT_PERIOD_CAP as CAP
from halfcycle.errors import check_length

INC = load_machine("incrementer")
LOOP = load_machine("loop")
TRACE = run(INC, initial_config(INC, "0"), 100)
CYCLE = build_alpha_cycle(TRACE, Fraction(3, 4))
PROFILE = halfstep_profile_periodic(CYCLE.p)
UNIFORM = get_density("uniform")


def rng():
    return np.random.default_rng(0)


def cycle_of_period(p):
    """build_alpha_cycle on TRACE with the ratio that makes its period p."""
    s = TRACE.n_steps
    w = p // 2 - s
    return build_alpha_cycle(TRACE, Fraction(w, w + s))


# (entry point, its size -> the call, a size below the minimum or None when
# none can be passed, the first size past the cap)
ROWS = {
    "run-budget": (lambda n: run(LOOP, initial_config(LOOP, ""), n), 0, CAP // 2),
    "build_alpha_cycle-period": (cycle_of_period, None, CAP + 2),
    "alpha_for_period": (alpha_for_period, 3, CAP + 1),
    "centered_window": (lambda n: centered_window(n, 0.5), 0, CAP + 2),
    "minimal_periodic_spectrum": (minimal_periodic_spectrum, 0, CAP + 2),
    "halfstep_profile_periodic": (halfstep_profile_periodic, 0, CAP + 2),
    "halfstep_profile_aperiodic-K": (halfstep_profile_aperiodic, 0, CAP // 2 + 1),
    "sample_y": (lambda n: sample_y(n, UNIFORM, rng()), 1, CAP + 1),
    "moment_experiment-period": (lambda n: moment_experiment([n], UNIFORM, 10, rng()),
                                 2, CAP + 2),
    "moment_experiment-trials": (lambda n: moment_experiment([64], UNIFORM, n, rng()),
                                 0, CAP + 1),
    "continuous_nu-cells": (lambda n: continuous_nu(n, UNIFORM, rng()), 0, CAP + 2),
    "zero_count-resolution": (lambda n: zero_count(minimal_periodic_spectrum(4), n),
                              255, CAP + 1),
    "complexity-grid": (lambda n: cmd_complexity(SimpleNamespace(
        period=8, aperiodic=False, grid=n, format="json", out=None, seed=0)), 0, CAP + 1),
    "chirped_pair": (chirped_pair, 7, CAP + 1),
    "identical_pair": (identical_pair, 7, CAP + 1),
    "obstruction_certificate-grid": (
        lambda n: obstruction_certificate(SimpleNamespace(n=2, size=n)), 7, CAP + 1),
    "repeat_error_free-runs": (lambda n: repeat_error_free(
        CYCLE, PROFILE, lambda r: r[0] == 0, rng(), n), 0, CAP + 1),
    "run_error_bounded-majority": (lambda n: run_error_bounded(
        PROFILE, CYCLE.window, lambda j: cycle_result(CYCLE, j), n, rng()), -1, CAP + 1),
    "halting_demo-K": (lambda n: halting_demo(INC, initial_config(INC, "1"), 100, n, 0.75,
                                              rng()), 0, CAP + 1),
}


@pytest.mark.parametrize("call, below, above", ROWS.values(), ids=ROWS.keys())
def test_size_below_minimum_or_past_cap_is_refused_before_allocating(call, below, above):
    if below is not None:
        with pytest.raises(PreconditionError, match=f" {below} must be .*at least "):
            call(below)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=" exceeds cap "):
            call(above)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10


def test_check_length_messages():
    check_length("period", 2, 2, even=True)
    check_length("grid", 8, cap=8)
    with pytest.raises(PreconditionError, match="^period 3 must be even and at least 2$"):
        check_length("period", 3, 2, even=True)
    with pytest.raises(PreconditionError, match="^period 0 must be even and at least 2$"):
        check_length("period", 0, 2, even=True)
    with pytest.raises(PreconditionError, match="^runs 0 must be at least 1$"):
        check_length("runs", 0)
    with pytest.raises(CapacityError, match="^grid 9 exceeds cap 8$"):
        check_length("grid", 9, cap=8)
    with pytest.raises(CapacityError, match=f"^trials {CAP + 1} exceeds cap {CAP}$"):
        check_length("trials", CAP + 1)


def test_majority_parity_is_checked_after_the_size_rule():
    with pytest.raises(PreconditionError, match="^majority size 4 must be odd$"):
        run_error_bounded(PROFILE, CYCLE.window, lambda j: cycle_result(CYCLE, j), 4, rng())
