"""Spectral core: minimal spectra, overlap values, amplitude profiles."""

import copy
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from halfcycle import (CapacityError, ConsistencyError, PreconditionError, centered_window, chirped_pair, halfstep_profile_aperiodic,
                       halfstep_profile_periodic, minimal_periodic_spectrum, nu_of,
                       obstruction_certificate, overlap_at, pack_spectrum, spectral)
from halfcycle.errors import DEFAULT_PERIOD_CAP, check_residual, recorded_checks
from halfcycle.spectral import AmplitudeProfile, OrbitSpectrum, _halfstep_rows

P_RANGE = [2 ** k for k in range(1, 11)]  # 2, 4, ..., 1024


def direct(spec):
    # the same phases and weights, unmarked: overlap_at takes the direct sum
    return OrbitSpectrum(phases=spec.phases, weights=spec.weights)


def test_minimal_spectrum_p2():
    spec = minimal_periodic_spectrum(2)
    assert np.allclose(sorted(spec.phases), [0.0, 3 * np.pi])
    assert np.allclose(spec.weights, [0.5, 0.5])


def test_minimal_spectrum_p4_phases_over_2pi():
    spec = minimal_periodic_spectrum(4)
    assert np.allclose(spec.phases / (2 * np.pi), [0.0, 5 / 4, 1 / 2, 7 / 4])


@pytest.mark.parametrize("p", P_RANGE)
def test_minimal_weights_are_uniform(p):
    spec = minimal_periodic_spectrum(p)
    assert np.allclose(spec.weights, 1.0 / p, atol=0, rtol=0)
    assert abs(spec.weights.sum() - 1.0) < 1e-12


def test_minimal_rejects_odd_period():
    with pytest.raises(PreconditionError):
        minimal_periodic_spectrum(3)


def test_overlap_at_zero_is_one():
    for p in (2, 4, 64):
        assert overlap_at(minimal_periodic_spectrum(p), 0) == pytest.approx(1.0)


def test_overlap_orthogonality_p4():
    assert abs(overlap_at(minimal_periodic_spectrum(4), 1)) < 1e-10


def test_overlap_p2_half_cycle():
    val = overlap_at(minimal_periodic_spectrum(2), 0.5)
    assert val == pytest.approx((1 + 1j) / 2)
    assert abs(val) == pytest.approx(1 / math.sqrt(2))


@pytest.mark.parametrize("p", P_RANGE)
def test_overlap_is_kronecker_delta_at_integers(p):
    spec = minimal_periodic_spectrum(p)
    ks = np.arange(1, p + 1)
    vals = overlap_at(spec, ks)
    assert abs(vals[-1] - 1.0) < 1e-10  # k = p
    assert np.max(np.abs(vals[:-1])) < 1e-10


@pytest.mark.parametrize("p", P_RANGE)
def test_halfstep_profile_closed_form_matches_direct_sum(p):
    profile = halfstep_profile_periodic(p)
    spec, u = minimal_periodic_spectrum(p), np.arange(p) - 0.5
    summed = overlap_at(direct(spec), u)
    assert np.max(np.abs(profile.amplitudes - summed)) < 1e-10
    assert np.max(np.abs(overlap_at(spec, u) - summed)) < 1e-10  # the overlap's closed form
    assert abs(sum(abs(a) ** 2 for a in profile.amplitudes) - 1.0) < 1e-10


def test_halfstep_profile_peak():
    profile = halfstep_profile_periodic(100)
    peak = abs(profile.amplitudes[50])
    assert peak == pytest.approx(1 / (100 * math.sin(math.pi / 200)), rel=1e-13)
    assert peak == pytest.approx(0.63664595306, abs=1e-10)
    # |a_{p/2}| and |a_{p/2 + 1}| tie by symmetry about j = p/2 + 1/2
    assert np.argmax(np.abs(profile.amplitudes)) in (50, 51)
    assert abs(profile.amplitudes[51]) == pytest.approx(peak)


def test_halfstep_profile_peak_keeps_its_digits_at_large_period():
    # the cosine form lost ~7e-11 relative at this peak; 2 s bounds a p log p
    # evaluator with ample room (it takes ~0.4 s on 2 vCPUs)
    p = 2 ** 20
    start = time.perf_counter()
    profile = halfstep_profile_periodic(p)
    assert time.perf_counter() - start < 2.0
    peak = abs(profile.amplitudes[p // 2])
    assert peak == pytest.approx(1 / (p * math.sin(math.pi / (2 * p))), rel=1e-14)


def test_halfstep_profile_memory_is_linear():
    tracemalloc.start()
    try:
        halfstep_profile_periodic(2 ** 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_halfstep_profile_refuses_period_above_cap_before_allocating():
    for build in (halfstep_profile_periodic, minimal_periodic_spectrum):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="exceeds cap"):
                build(DEFAULT_PERIOD_CAP + 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


def test_aperiodic_profile_refuses_2k_above_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"period {DEFAULT_PERIOD_CAP + 2} exceeds cap"):
            halfstep_profile_aperiodic(DEFAULT_PERIOD_CAP // 2 + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_halfstep_profile_p2_probabilities():
    profile = halfstep_profile_periodic(2)
    assert np.allclose(profile.probabilities, [0.5, 0.5])


def test_aperiodic_amplitude_k1():
    profile = halfstep_profile_aperiodic(10)
    a1 = profile.amplitudes[1 - profile.indices.start]
    assert abs(a1) == pytest.approx(2 / math.pi)
    # a_k = -1/(pi*i*(k-1/2)) is purely imaginary with sign of (k-1/2)
    assert a1 == pytest.approx(2j / math.pi)


def test_aperiodic_captured_tail():
    profile = halfstep_profile_aperiodic(1000)
    assert profile.captured == pytest.approx(0.9998, abs=3e-5)
    tail = 1.0 - profile.captured
    assert tail == pytest.approx(2 / (math.pi ** 2 * 1000), rel=1e-3)


def test_aperiodic_symmetric_indices():
    profile = halfstep_profile_aperiodic(5)
    assert profile.indices[0] == -4 and profile.indices[-1] == 5
    # |a_k| = |a_{1-k}|: symmetric about k = 1/2
    probs = profile.probabilities[np.array([0, 1, -3, 4]) - profile.indices.start]
    assert probs[0] == pytest.approx(probs[1])
    assert probs[2] == pytest.approx(probs[3])


def test_nu_of_full_window_is_one():
    profile = halfstep_profile_periodic(16)
    assert nu_of(profile, range(16)) == pytest.approx(1.0, abs=1e-10)


def test_nu_of_empty_window_is_zero():
    assert nu_of(halfstep_profile_periodic(8), []) == 0.0


def test_nu_of_p8_window_matches_brute_force():
    profile = halfstep_profile_periodic(8)
    # brute-force oracle: sum the closed-form probabilities by hand
    expected = sum(1.0 / (8 * math.cos(math.pi * (j - 0.5) / 8)) ** 2 for j in (2, 3, 4, 5))
    value = nu_of(profile, range(2, 6))
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.8942902537373689, abs=1e-12)
    # peak pair alone carries ~8/pi^2
    pair = sum(profile.probabilities[j] for j in (4, 5))
    assert pair == pytest.approx(8 / math.pi ** 2, rel=0.02)


def test_nu_of_rejects_out_of_range():
    with pytest.raises(PreconditionError):
        nu_of(halfstep_profile_periodic(8), [8])
    with pytest.raises(PreconditionError, match="index -10"):
        nu_of(halfstep_profile_aperiodic(10), range(-10, 0))


def _nu_loop(profile, window):
    probs = np.abs(profile.amplitudes) ** 2
    return sum(float(probs[j - profile.indices[0]]) for j in window)


@pytest.mark.parametrize("profile, window", [
    (halfstep_profile_periodic(1000), range(250, 750)),
    (halfstep_profile_periodic(1000), range(999, 1000)),
    (halfstep_profile_periodic(64), list(range(5, 64))),
    (halfstep_profile_aperiodic(1000), range(-999, 1001)),
    (halfstep_profile_aperiodic(1000), np.arange(-50, 50)),
])
def test_nu_of_matches_loop(profile, window):
    assert nu_of(profile, window) == pytest.approx(_nu_loop(profile, window), abs=1e-12)
    # the stored |a|^2 gives the same bits as squaring the amplitudes per call
    pos = np.asarray(window) - profile.indices[0]
    assert nu_of(profile, window) == float(np.sum(np.abs(profile.amplitudes[pos]) ** 2))


@pytest.mark.parametrize("profile, window", [
    (halfstep_profile_periodic(1000), range(0, 1000, 3)),
    (halfstep_profile_periodic(64), [5, 5, 63, 0, 31]),
    (halfstep_profile_periodic(64), [5, 5]),
    (halfstep_profile_periodic(64), [3, 5]),
    (halfstep_profile_periodic(64), range(3, 0, -1)),
    (halfstep_profile_aperiodic(1000), [j for j in range(-50, 50) if j % 7]),
], ids=["stride", "repeats", "repeated", "gap", "descending", "gaps"])
def test_nu_of_refuses_a_window_that_is_not_one_run(profile, window):
    with pytest.raises(PreconditionError,
                       match="^window must be one run of consecutive ascending integers$"):
        nu_of(profile, window)


def test_nu_of_a_range_allocates_nothing_of_the_period():
    p = 2 ** 20
    profile, window = halfstep_profile_periodic(p), centered_window(p, 0.999)
    tracemalloc.start()
    try:
        nu = nu_of(profile, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert nu == float(np.sum(profile.probabilities[window.start:window.stop]))


def test_builders_index_by_a_range():
    assert halfstep_profile_periodic(8).indices == range(8)
    assert halfstep_profile_aperiodic(5).indices == range(-4, 6)


@pytest.mark.parametrize("start, size", [(0, 8), (-3, 8), (5, 1)])
def test_profile_from_array_matches_profile_from_range(start, size):
    probs = np.arange(1.0, size + 1) / (size * (size + 1))
    built = [AmplitudeProfile(amplitudes=np.sqrt(probs), indices=idx,
                              captured=float(probs.sum()), period=None)
             for idx in (np.arange(start, start + size), range(start, start + size))]
    windows = [range(start, start + size), list(range(start + 1, start + size)), [start], []]
    for profile in built:
        assert profile.indices == range(start, start + size)
        assert isinstance(profile.indices, range)
    for window in windows:
        assert nu_of(built[0], window) == nu_of(built[1], window)
    draws = [profile.draw(np.random.default_rng(3), 500) for profile in built]
    assert all(np.array_equal(a, b) for a, b in zip(*draws))


@pytest.mark.parametrize("indices", [[0, 2, 5], [3, 2, 1], [0, 0, 1], [[0, 1], [2, 3]], [],
                                     [0.5, 1.5], range(0, 6, 2), range(3, 0, -1), range(0)])
def test_profile_refuses_indices_that_are_not_consecutive(indices):
    # a profile reads index j at array position j - indices.start
    amplitudes = np.full(np.shape(indices), 0.5, dtype=complex)
    with pytest.raises(PreconditionError):
        AmplitudeProfile(amplitudes=amplitudes, indices=indices,
                         captured=float(np.sum(np.abs(amplitudes) ** 2)), period=None)


def test_spectrum_refuses_non_finite_phases_and_weights():
    for weights in ([np.nan], [np.inf], [0.5, np.nan]):
        with pytest.raises(PreconditionError, match="sum to 1"):
            OrbitSpectrum(phases=np.zeros(len(weights)), weights=weights)
    for phases in ([np.nan], [np.inf], [0.0, -np.inf]):
        with pytest.raises(PreconditionError, match="phases must be finite"):
            OrbitSpectrum(phases=phases, weights=np.full(len(phases), 1 / len(phases)))


def test_profile_refuses_a_nan_capture():
    for amplitudes, captured in (([1.0], np.nan), ([np.nan], np.nan), ([np.nan], 1.0)):
        with pytest.raises(PreconditionError, match="captured probability"):
            AmplitudeProfile(amplitudes=amplitudes, indices=range(1), captured=captured,
                             period=None)


def test_spectrum_keeps_what_it_validated():
    phases, weights = np.array([0.5, -1.0]), np.array([0.5, 0.5])
    spec = OrbitSpectrum(phases=phases, weights=weights)
    phases[:], weights[:] = np.nan, 5.0  # the caller's arrays stay the caller's
    assert spec.phases.tolist() == [0.5, -1.0] and spec.weights.tolist() == [0.5, 0.5]
    assert spec.mean_abs_phase == 0.75 and spec.period == 2
    for array in (spec.phases, spec.weights, minimal_periodic_spectrum(4).phases):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0


@pytest.mark.parametrize("phases, weights", [
    (np.zeros((2, 2)), np.full((2, 2), 0.25)),  # 2-d, though each reads as 4 of one length
    (np.zeros(4), np.full((2, 2), 0.25)), (0.0, 1.0), ([0.0, np.pi], [1.0])])
def test_a_spectrum_is_one_phase_list_of_the_weights_length(phases, weights):
    # refused at construction, not inside overlap_at's einsum
    with pytest.raises(PreconditionError,
                       match="^phases and weights must be one-dimensional and of one length$"):
        OrbitSpectrum(phases=phases, weights=weights)


def test_profile_keeps_what_it_validated():
    amplitudes = np.full(4, 0.5, dtype=complex)
    profile = AmplitudeProfile(amplitudes=amplitudes, indices=range(4), captured=1.0, period=4)
    amplitudes[:] = 10.0
    assert np.abs(profile.amplitudes).tolist() == [0.5] * 4 and nu_of(profile, range(4)) == 1.0
    for array in (profile.amplitudes, profile.probabilities,
                  halfstep_profile_periodic(8).amplitudes):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


@pytest.mark.parametrize("indices, period", [(np.arange(4), 7), (np.arange(4), 3),
                                             (range(5, 9), 4), (range(-2, 2), 4)])
def test_profile_refuses_a_period_its_indices_contradict(indices, period):
    # a period is the index count of a run from 0; a caller reads it as the size
    with pytest.raises(PreconditionError, match="period"):
        AmplitudeProfile(amplitudes=np.full(4, 0.5), indices=indices, captured=1.0,
                         period=period)


# --- properties -------------------------------------------------------------

@st.composite
def point_spectra(draw):
    n = draw(st.integers(1, 8))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(0.0, 4 * math.pi), min_size=n, max_size=n))
    weights = np.asarray(raw) / np.sum(raw)
    return OrbitSpectrum(phases=np.asarray(phases), weights=weights)


@given(point_spectra(), st.floats(-8.0, 8.0))
@settings(max_examples=100, deadline=None)
def test_overlap_magnitude_bounded(spec, u):
    assert abs(overlap_at(spec, u)) <= 1.0 + 1e-12


@given(point_spectra())
@settings(max_examples=50, deadline=None)
def test_overlap_normalized_at_origin(spec):
    assert overlap_at(spec, 0.0) == pytest.approx(1.0)


@given(st.integers(1, 128), st.data())
@settings(max_examples=60, deadline=None)
def test_halfstep_evaluator_matches_overlap(half, data):
    # phases 2pi*(k/p + n_k) give overlap(j - 1/2) = sum_k (-1)^{n_k} w_k e^{-2pi i k (j-1/2)/p}
    p = 2 * half
    offsets = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=p, max_size=p)))
    raw = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p)))
    assume(raw.sum() > 0.0)
    weights = raw / raw.sum()
    k = np.arange(p)
    spec = OrbitSpectrum(phases=2 * np.pi * (k / p + offsets), weights=weights)
    evaluated = _halfstep_rows(weights * (-1.0) ** offsets)
    assert np.max(np.abs(evaluated - overlap_at(spec, k - 0.5))) < 1e-12


@given(st.integers(1, 9))
@settings(max_examples=9, deadline=None)
def test_peak_modulus_converges_to_two_over_pi(k):
    p = 2 ** k
    profile = halfstep_profile_periodic(p)
    peak = abs(profile.amplitudes[p // 2])
    assert p * math.sin(math.pi / (2 * p)) * peak == pytest.approx(1.0, rel=1e-12)
    if p >= 16:
        assert abs(peak - 2 / math.pi) < 1.0 / p ** 2


@pytest.mark.parametrize("make", [
    lambda: minimal_periodic_spectrum(4),
    lambda: halfstep_profile_periodic(4),
    lambda: pack_spectrum(2).instances[3],
    lambda: chirped_pair(64),
    lambda: obstruction_certificate(chirped_pair(64)),
    lambda: pack_spectrum(2),
], ids=["OrbitSpectrum", "AmplitudeProfile", "PackedInstance", "GridFunctionSet",
        "ObstructionCertificate", "PackedSpectra"])
def test_array_dataclasses_compare_by_identity(make):
    # the generated __eq__ would compare ndarray fields and raise
    x = make()
    assert x == x
    assert (x == copy.deepcopy(x)) is False
    assert hash(x) == hash(x)


# --- the minimal overlap in closed form ---------------------------------------

@given(st.integers(1, 2048), st.lists(st.floats(-8.0, 8.0), max_size=20),
       st.lists(st.integers(-8, 8), max_size=8), st.integers(-4, 4))
@settings(max_examples=200, deadline=None)
@example(half=49, floats=[], ints=[], m=0)  # complex division by p = 98 rounds 1 down
@example(half=2, floats=[2.2250738585e-313], ints=[], m=0)  # subnormal u
@example(half=1020, floats=[], ints=[], m=4)  # u = 2p
def test_minimal_overlap_closed_form_matches_direct_sum(half, floats, ints, m):
    p = 2 * half
    spec = minimal_periodic_spectrum(p)
    u = np.array(floats + ints + [m * half], dtype=float)  # m*p/2: the D = n limit
    closed = overlap_at(spec, u)
    # the direct sum rounds u*phase, so its error grows with |u| past 8
    error = np.abs(closed - overlap_at(direct(spec), u))
    assert np.all(error < 1e-12 * np.maximum(1.0, np.abs(u)))
    # whole cycles: the Kronecker delta mod p, exactly
    whole = u == np.rint(u)
    assert closed[whole].tolist() == np.where(u[whole] % p == 0, 1.0, 0.0).tolist()


@pytest.mark.parametrize("p", [2 ** 18, 2 ** 22])
def test_minimal_overlap_closed_form_at_large_period(p):
    spec = minimal_periodic_spectrum(p)
    u = np.array([1e-7, 0.25, 0.5 + 1 / p, 1.0, -3.75, p / 2 + 0.5])
    closed = overlap_at(spec, u)
    error = np.abs(closed - overlap_at(direct(spec), u))
    assert np.all(error < 1e-12 * np.maximum(1.0, np.abs(u)))
    assert closed[3] == 0.0


def test_only_minimal_periodic_spectrum_marks_its_spectrum():
    spec = minimal_periodic_spectrum(8)
    assert spec.minimal and not direct(spec).minimal
    with pytest.raises(ValueError):
        spec.phases[0] = 1.0


@pytest.mark.parametrize("p", [8, 1024])
def test_perturbed_closed_form_raises(monkeypatch, p):
    closed_form = spectral._minimal_overlap
    monkeypatch.setattr(spectral, "_minimal_overlap",
                        lambda period, u: closed_form(period, u) + 1e-9)
    with pytest.raises(ConsistencyError, match="closed form vs direct sum"):
        overlap_at(minimal_periodic_spectrum(p), np.linspace(0.0, 1.0, 5000))


def test_closed_form_checks_one_block_of_interior_points(monkeypatch):
    # about _OVERLAP_BLOCK / p points, never the two ends of u
    checked = []
    direct_sum = spectral._direct_overlap
    monkeypatch.setattr(spectral, "_direct_overlap",
                        lambda spec, u: checked.append(u) or direct_sum(spec, u))
    spec = minimal_periodic_spectrum(1024)
    with recorded_checks() as checks:
        overlap_at(spec, np.linspace(0.0, 1.0, 10_000))
    (what, points, residual), = checks
    assert what == "overlap closed form vs direct sum at p=1024"
    assert points == 64 == checked[0].size and 0.0 <= residual < 1e-14
    assert 0.0 < checked[0].min() and checked[0].max() < 1.0
    with recorded_checks() as checks:
        overlap_at(minimal_periodic_spectrum(2 ** 20), [0.5, 0.25])
        overlap_at(direct(spec), [0.5, 0.25])
    assert [points for _, points, _ in checks] == [1]
    assert overlap_at(spec, []).shape == (0,)


def test_overlap_refuses_non_finite_times():
    # and times whose product with a phase overflows: 1.7e308 times 2pi * 15/8
    # at p = 8, where the closed form's check read a NaN residual and the
    # direct sum returned NaN
    minimal = minimal_periodic_spectrum(8)
    for spec in (minimal, direct(minimal), pack_spectrum(2).instances[-1].spectrum()):
        for u in (np.nan, np.inf, [0.5, -np.inf], [[0.0], [np.nan]], 1.7e308, [0.5, -1.7e308]):
            with pytest.raises(PreconditionError, match="^overlap_at needs finite times"):
                overlap_at(spec, u)
    assert overlap_at(minimal, 1.5e307) == 1.0  # a multiple of p
    assert np.isfinite(overlap_at(direct(minimal), -1.5e307))


# --- the self-check rule -------------------------------------------------------

def test_check_residual_fails_on_nan_and_records_into_the_innermost_recorder():
    with recorded_checks() as outer:
        assert check_residual("a", np.float64(0.5), 1.0, points=3) == 0.5
        with recorded_checks() as inner:
            check_residual("b", 1.0, 1.0)
        for bad in (np.nan, 1.5, np.inf):
            with pytest.raises(ConsistencyError, match="b: residual"):
                check_residual("b", bad, 1.0)
    assert outer == [("a", 3, 0.5)] and inner == [("b", 1, 1.0)]
    assert type(outer[0][2]) is float
    check_residual("c", 0.0, 0.0)  # no recorder open: nothing to record
    with pytest.raises(ConsistencyError, match=r"^d: residual 2\.0 exceeds tolerance 1e-12$"):
        check_residual("d", 2.0, np.float64(1e-12))


def nan_like(f):
    """``f`` with every value it returns replaced by NaN."""
    return lambda *args: np.full_like(f(*args), np.nan)


def test_nan_overlap_reference_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_direct_overlap", nan_like(spectral._direct_overlap))
    with pytest.raises(ConsistencyError, match="closed form vs direct sum"):
        overlap_at(minimal_periodic_spectrum(8), [0.25, 0.5])


def test_nan_profile_reference_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_halfstep_rows", nan_like(_halfstep_rows))
    with pytest.raises(ConsistencyError, match="profile closed form vs direct sum"):
        halfstep_profile_periodic(8)


class _NanSum:
    """numpy, except that ``sum`` returns NaN: the profile's capture."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def sum(*args, **kwargs):
        return np.nan


def test_nan_profile_capture_raises(monkeypatch):
    monkeypatch.setattr(spectral, "np", _NanSum())
    with pytest.raises(ConsistencyError, match="minimal profile capture vs 1"):
        halfstep_profile_periodic(8)


def test_profile_records_its_two_checks():
    with recorded_checks() as checks:
        halfstep_profile_periodic(64)
    (fft_name, points, fft), (capture_name, one, capture) = checks
    assert fft_name == "profile closed form vs direct sum at p=64" and points == 64
    assert capture_name == "minimal profile capture vs 1 at p=64" and one == 1
    assert 0.0 <= fft <= 1e-10 and 0.0 <= capture <= 1e-10


def test_direct_sum_memory_is_blocked():
    # a dense 8192 x 1024 complex matrix would take 128 MB
    spec = direct(minimal_periodic_spectrum(1024))
    tracemalloc.start()
    try:
        overlap_at(spec, np.linspace(0.0, 4.0, 8192))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
