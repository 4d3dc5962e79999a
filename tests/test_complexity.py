"""Evolution cost gauge: values, the distance bound, zero counts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfcycle import (PreconditionError, check_lower_bound, complexity,
                       minimal_periodic_spectrum, overlap_at, zero_count)
from halfcycle.complexity import APERIODIC_MEAN_ABS_PHASE
from halfcycle.spectral import OrbitSpectrum


def single_phase(phase):
    return OrbitSpectrum(phases=np.array([phase]), weights=np.array([1.0]))


def test_zero_phase_has_zero_cost():
    spec = single_phase(0.0)
    for t in (0.0, 0.5, 1.0, 7.0):
        assert complexity(spec, t) == 0.0


def test_minimal_p2_values():
    spec = minimal_periodic_spectrum(2)
    assert complexity(spec, 1.0) == pytest.approx(3 * math.pi / 2)
    assert complexity(spec, 0.5) == pytest.approx(3 * math.pi / 4)


def test_minimal_p4_mean_abs_phase():
    spec = minimal_periodic_spectrum(4)
    assert complexity(spec, 1.0) == pytest.approx(7 * math.pi / 4)


def test_aperiodic_mean_abs_phase_is_pi():
    # the uniform phase density on [0, 2pi) is the limit of evenly spaced
    # equal-weight point spectra, whose C(1) is pi*(P-1)/P
    assert APERIODIC_MEAN_ABS_PHASE == pytest.approx(math.pi)
    for period in (16, 1024):
        spec = OrbitSpectrum(phases=2 * np.pi * np.arange(period) / period,
                             weights=np.full(period, 1.0 / period))
        assert complexity(spec, 1.0) == pytest.approx(math.pi * (period - 1) / period)
        assert APERIODIC_MEAN_ABS_PHASE - complexity(spec, 1.0) <= 4.0 / period


def test_cost_is_linear_in_t():
    spec = minimal_periodic_spectrum(8)
    assert complexity(spec, 0.8) == pytest.approx(4 * complexity(spec, 0.2))


def test_negative_time_rejected():
    for t in (-0.1, np.array([0.0, 0.5, -0.1])):
        with pytest.raises(PreconditionError):
            complexity(minimal_periodic_spectrum(2), t)
    # the distance bound holds for t >= 0 only: at t = -1 its slack would read 13.78
    with pytest.raises(PreconditionError, match="^time must be finite and nonnegative$"):
        check_lower_bound(minimal_periodic_spectrum(8), [-1.0, 0.5])


def test_non_finite_time_rejected():
    spec = minimal_periodic_spectrum(8)
    for t in (np.nan, np.inf, np.array([0.0, np.nan]), np.array([0.5, np.inf])):
        with pytest.raises(PreconditionError, match="finite"):
            complexity(spec, t)
    for s in (spec, single_phase(1.0)):
        with pytest.raises(PreconditionError, match="^time must be finite and nonnegative$"):
            check_lower_bound(s, [0.0, np.nan])


def test_a_time_whose_cost_overflows_is_refused():
    # C(t) = t * 5.89 is inf at p = 8, although t is finite
    with pytest.raises(PreconditionError, match="C\\(t\\) times 1 overflows"):
        complexity(minimal_periodic_spectrum(8), 1.7e308)
    with pytest.raises(PreconditionError, match="C\\(t\\) times 2 overflows"):
        check_lower_bound(minimal_periodic_spectrum(8), [0.0, 1.7e308])
    # here C(t) is 2.6e8 and 2 * C(t) is finite, but 2t is not: the bound
    # is read as 2 * C(t), without a RuntimeWarning (an error in this suite)
    report = check_lower_bound(OrbitSpectrum([1e-300, 2e-300], [0.5, 0.5]), [0.0, 1.7e308])
    assert report.ok and report.n_points == 2


def test_lower_bound_p2_halfstep():
    spec = minimal_periodic_spectrum(2)
    lhs = 2 - 2 * (overlap_at(spec, 0.5)).real
    assert lhs == pytest.approx(1.0)
    assert lhs <= 2 * complexity(spec, 0.5)


def test_lower_bound_grid_report():
    spec = minimal_periodic_spectrum(2)
    report = check_lower_bound(spec, np.linspace(0, 1, 1000))
    assert report.ok
    assert report.n_points == 1000
    assert report.max_slack_violation <= 1e-9


def test_lower_bound_boundary_at_zero():
    report = check_lower_bound(minimal_periodic_spectrum(4), [0.0])
    assert report.ok  # 0 <= 0
    assert report.zero_count == 0


def test_lower_bound_rejects_empty_grid():
    with pytest.raises(PreconditionError):
        check_lower_bound(minimal_periodic_spectrum(4), [])


@pytest.mark.parametrize("t_grid", [[[0.1, 0.2], [0.3, 0.4]], 0.5])
def test_lower_bound_rejects_a_grid_that_is_not_one_dimensional(t_grid):
    with pytest.raises(PreconditionError, match="one-dimensional with at least one point"):
        check_lower_bound(minimal_periodic_spectrum(4), t_grid)


def test_orthogonal_evolution_costs_at_least_one():
    for p in (2, 4, 8, 64):
        spec = minimal_periodic_spectrum(p)
        lhs = 2 - 2 * overlap_at(spec, 1.0).real
        assert lhs == pytest.approx(2.0, abs=1e-9)  # orthogonal after one step
        assert complexity(spec, 1.0) >= 1.0


def test_zero_count_requires_resolution():
    with pytest.raises(PreconditionError):
        zero_count(minimal_periodic_spectrum(2), 100)


def test_zero_count_single_phase_is_zero():
    # pure phase of magnitude 1: neither component changes sign on one cycle
    assert zero_count(single_phase(1.0), 1024) == 0


def test_zero_count_frozen_minimal_family():
    # 40-digit mpmath direct sums at the declared diagnostic resolution,
    # computed outside the package (see oracle_zero_count)
    expected = {2: 2, 4: 5, 8: 5}
    for p, count in expected.items():
        assert zero_count(minimal_periodic_spectrum(p), 4096) == count


def test_zero_count_grows_with_mean_abs_phase():
    counts = [zero_count(minimal_periodic_spectrum(p), 4096) for p in (2, 4, 8)]
    means = [complexity(minimal_periodic_spectrum(p), 1.0) for p in (2, 4, 8)]
    assert counts == sorted(counts)
    assert means == sorted(means)


@st.composite
def point_spectra(draw):
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 4 * math.pi), min_size=n, max_size=n))
    return OrbitSpectrum(phases=np.asarray(phases),
                         weights=np.asarray(raw) / np.sum(raw))


@given(point_spectra())
@settings(max_examples=80, deadline=None)
def test_lower_bound_holds_for_arbitrary_spectra(spec):
    assert check_lower_bound(spec, np.linspace(0, 2, 200)).ok


def test_lower_bound_memory_is_blocked():
    # a dense 8192 x 1024 complex matrix would take 128 MB
    spec = minimal_periodic_spectrum(1024)
    t = np.linspace(0.0, 4.0, 8192)
    tracemalloc.start()
    try:
        report = check_lower_bound(spec, t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.n_points == 8192
    assert peak < 64 * 2 ** 20


def sign_changes(spec, n):
    # reference: the zero rule in a plain loop over its own overlap
    # evaluation; a value within 1e-12 of zero has no sign, and a crossing
    # is a sign flip between consecutive signed values
    vals = overlap_at(spec, np.linspace(0.0, 1.0, n))
    count = 0
    for comp in (vals.real.tolist(), vals.imag.tolist()):
        last = 0
        for value in comp:
            if abs(value) > 1e-12:
                sign = 1 if value > 0 else -1
                count += last == -sign
                last = sign
    return count


minimal_spectra = st.integers(1, 64).map(lambda half: minimal_periodic_spectrum(2 * half))


@given(st.one_of(point_spectra(), minimal_spectra), st.integers(256, 2048),
       st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_one_scan_gives_zero_count_and_cost(spec, n, times):
    report = check_lower_bound(spec, np.linspace(0, 1, n))
    assert report.zero_count == zero_count(spec, n) == sign_changes(spec, n)
    values = complexity(spec, np.array(times))
    assert isinstance(values, np.ndarray) and isinstance(complexity(spec, times[0]), float)
    assert values.tolist() == [complexity(spec, t) for t in times]


ORACLE_CASES = [(2, 4096), (4, 4096), (8, 4096), (8, 300), (16, 1024), (64, 512), (256, 10000)]


def oracle_zero_count(p, n):
    """Zero crossings of Re and Im of the minimal period-p overlap on
    linspace(0, 1, n), with every sign decided at 40 digits.

    A float64 direct sum settles each sign whose value exceeds 1e-9 (its
    rounding error is below 1e-13 at these sizes); every other grid value
    is summed again by mpmath at 40 digits, where a value below 1e-30 is
    an exact zero and has no sign.
    """
    mpmath = pytest.importorskip("mpmath")
    u = np.linspace(0.0, 1.0, n)
    k = np.arange(p)
    phases = 2.0 * np.pi * (k / p + k % 2)
    vals = np.concatenate([np.exp(-1j * np.multiply.outer(chunk, phases)).mean(axis=1)
                           for chunk in np.array_split(u, max(1, n * p // 2 ** 18))])
    with mpmath.workdps(40):
        exact = [2 * mpmath.pi * (mpmath.mpf(int(j)) / p + int(j) % 2) for j in k]
        count = 0
        for part in ("real", "imag"):
            comp = getattr(vals, part)
            last = 0
            for i, value in enumerate(comp.tolist()):
                if abs(value) <= 1e-9:
                    total = mpmath.fsum(mpmath.expj(-ph * mpmath.mpf(u[i])) for ph in exact) / p
                    value = getattr(total, part)
                    if abs(value) <= mpmath.mpf(10) ** -30:
                        continue
                sign = 1 if value > 0 else -1
                count += last == -sign
                last = sign
    return count


@pytest.mark.parametrize("p,n", ORACLE_CASES)
def test_zero_count_matches_40_digit_oracle(p, n):
    # the direct-sum scan on the same spectrum follows the same rule
    spec = minimal_periodic_spectrum(p)
    direct = OrbitSpectrum(phases=spec.phases, weights=spec.weights)
    expected = oracle_zero_count(p, n)
    assert zero_count(spec, n) == check_lower_bound(direct, np.linspace(0, 1, n)).zero_count \
        == expected
