"""The size rule: every length that comes from outside is checked once,
for being an integer and against its minimum and DEFAULT_PERIOD_CAP,
before anything is built; and the run rule for windows and index sets."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from halfcycle import (AmplitudeProfile, CapacityError, PreconditionError, alpha_for_period,
                       build_alpha_cycle, centered_window, chirped_pair, get_density,
                       halfstep_profile_aperiodic, halfstep_profile_periodic,
                       halting_demo, identical_pair, initial_config, load_machine,
                       minimal_periodic_spectrum, moment_experiment, nu_from_y, nu_of,
                       obstruction_certificate, pack_spectrum, repeat_error_free, run,
                       run_error_bounded, zero_count)
from halfcycle import ensemble
from halfcycle.cli import cmd_complexity
from halfcycle.cycle import cycle_result
from halfcycle.ensemble import DensitySpec
from halfcycle.errors import DEFAULT_PERIOD_CAP as CAP
from halfcycle.errors import check_length, check_run

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
    "moment_experiment-period": (lambda n: moment_experiment([n], UNIFORM, 10, rng()),
                                 2, CAP + 2),
    "moment_experiment-trials": (lambda n: moment_experiment([64], UNIFORM, n, rng()),
                                 0, CAP + 1),
    "zero_count-resolution": (lambda n: zero_count(minimal_periodic_spectrum(4), n),
                              255, CAP + 1),
    "complexity-grid": (lambda n: cmd_complexity(SimpleNamespace(
        period=8, aperiodic=False, grid=n, out_format="json", out=None, seed=0)), 0, CAP + 1),
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


def test_moment_experiment_caps_its_total_draws_before_drawing():
    # every period and the trial count pass the size rule, their product
    # 2**44 does not pass the draw cap; nothing is drawn or allocated first
    def untouched(rng, out):
        raise AssertionError("drew before checking the total")

    density = DensitySpec("untouched", 1 / 3, 1 / 5, untouched)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"^{CAP * CAP} draws \\(periods times trials\\) "
                                                f"exceed cap {ensemble._DRAW_CAP}$"):
            moment_experiment([CAP], density, CAP, rng())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 10
    trials = ensemble._DRAW_CAP // CAP + 1  # the fewest that pass the cap at p = CAP
    with pytest.raises(CapacityError, match=f"^{CAP * trials} draws"):
        moment_experiment([CAP], density, trials, rng())
    # the stats default (1.3e8 draws) and the benchmark's largest call fit
    assert (64 + 256 + 1024) * 100_000 <= ensemble._DRAW_CAP


def test_moment_experiment_reads_an_array_of_periods_like_a_list():
    # numpy refuses the truth value of an array; the periods are read as a tuple first
    report = moment_experiment(np.array([8, 16]), UNIFORM, 3, rng())
    assert [row.p for row in report.rows] == [8, 16]
    assert report.to_dict() == moment_experiment([8, 16], UNIFORM, 3, rng()).to_dict()
    with pytest.raises(PreconditionError, match="^need at least one period$"):
        moment_experiment(np.array([], dtype=np.int64), UNIFORM, 3, rng())


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


# calls given a length that is not an integer, or indices or exponents that
# are not one-dimensional integers; before the integer rule each of these
# truncated the value, or failed later with another error
Y8 = np.zeros(8)
NOT_INTEGERS = {
    "nu_of-index": lambda: nu_of(PROFILE, [1.5]),
    "nu_of-2d": lambda: nu_of(PROFILE, [[1, 2]]),
    "nu_of-bool": lambda: nu_of(PROFILE, [True]),
    "nu_of-bool-among-ints": lambda: nu_of(halfstep_profile_periodic(8), [True, 2]),
    "nu_of-numpy-bool": lambda: nu_of(PROFILE, (j for j in [3, np.True_])),
    "nu_from_y-window": lambda: nu_from_y(Y8, [1.5]),
    "pack_spectrum-exponent": lambda: pack_spectrum(2, [0, 1.5, 3]),
    "pack_spectrum-bool-exponent": lambda: pack_spectrum(1, [0, True]),
    "pack_spectrum-0d-exponents": lambda: pack_spectrum(0, np.array(0)),
    "pack_spectrum-2d-exponents": lambda: pack_spectrum(0, np.array([[0]])),
    "profile-indices": lambda: AmplitudeProfile(np.ones(2), np.array([0.0, 1.0]), 2.0, None),
    "run-budget": lambda: run(INC, initial_config(INC, "0"), 3.5),
    "zero_count-resolution": lambda: zero_count(minimal_periodic_spectrum(4), 256.5),
    "zero_count-bool": lambda: zero_count(minimal_periodic_spectrum(4), True),
    "pack_spectrum-n_max": lambda: pack_spectrum(2.0),
    "repeat_error_free-runs": lambda: repeat_error_free(CYCLE, PROFILE, lambda r: True, rng(),
                                                        runs=2.5),
    "run_error_bounded-majority": lambda: run_error_bounded(
        PROFILE, CYCLE.window, lambda j: cycle_result(CYCLE, j), 3.0, rng()),
    "run_error_bounded-budget": lambda: run_error_bounded(
        PROFILE, CYCLE.window, lambda j: cycle_result(CYCLE, j), 3, rng(), max_trials=1.5),
    "moment_experiment-period": lambda: moment_experiment([64.0], UNIFORM, 10, rng()),
}


@pytest.mark.parametrize("call", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
def test_a_length_or_index_that_is_not_an_integer_is_refused(call):
    with pytest.raises(PreconditionError, match="must be an integer|must be a one-dimensional "
                                                "list of integers"):
        call()


def test_integer_rule_passes_numpy_integers_and_any_iterable_of_ints():
    check_length("grid", np.int64(8))
    check_length("grid", np.uint16(8))
    with pytest.raises(PreconditionError, match="^grid 64.0 must be an integer$"):
        check_length("grid", 64.0)
    window = CYCLE.window
    nu = nu_of(PROFILE, window)
    for same in (list(window), tuple(window), np.array(window, dtype=np.int32),
                 (j for j in window)):
        assert nu_of(PROFILE, same) == nu
    assert nu_of(PROFILE, []) == nu_of(PROFILE, range(0)) == nu_from_y(Y8, []) == 0.0
    assert check_run("window", []) == check_run("window", np.array([], dtype=np.int32)) == range(0)
    assert pack_spectrum(2, np.array([0, 1, 2])).nu_exponents == (0, 1, 2)


@pytest.mark.parametrize("window, index", [(range(-2, 1), -2), ([1, 2, 3], 3), ([5], 5)])
def test_a_window_outside_an_aperiodic_profile_names_its_first_index_outside(window, index):
    profile = halfstep_profile_aperiodic(2)  # indices range(-1, 3)
    with pytest.raises(PreconditionError, match=rf"^index {index} outside range\(-1, 3\)$"):
        nu_of(profile, window)
    assert nu_of(profile, range(9, 9)) == 0.0  # an empty window is valid anywhere


@pytest.mark.parametrize("window, index", [
    ([2 ** 70], 2 ** 70),  # a Python int numpy keeps as an object
    (np.array([2 ** 63], dtype=np.uint64), 2 ** 63),  # would wrap to -2**63 as int64
    ([3, -2 ** 64], -2 ** 64),
], ids=["object", "uint64", "negative"])
def test_an_index_past_int64_is_named_as_outside_the_profile(window, index):
    profile = halfstep_profile_periodic(8)
    with pytest.raises(PreconditionError, match=rf"^index {index} outside range\(0, 8\)$"):
        nu_of(profile, window)
    with pytest.raises(PreconditionError, match=f"^index {index} outside int64 range$"):
        check_run("window", window)
    assert nu_of(profile, np.array([3, 4], dtype=np.uint64)) == nu_of(profile, [3, 4])
