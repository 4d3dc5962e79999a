"""Measurement sampling and the retry procedures."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from halfcycle import (AmplitudeProfile, PreconditionError, build_alpha_cycle,
                       halfstep_profile_aperiodic, halfstep_profile_periodic, halting_demo,
                       initial_config, load_machine, nu_of, repeat_error_free, run,
                       run_error_bounded)
from halfcycle.cycle import cycle_result
from halfcycle.measure import BatchSummary, RunReport, majority_error_bound, run_error_free


def synthetic_profile(probs):
    probs = np.asarray(probs, dtype=float)
    return AmplitudeProfile(amplitudes=np.sqrt(probs).astype(complex),
                            indices=np.arange(probs.size),
                            captured=float(probs.sum()), period=probs.size)


def draw_outcomes(profile, window, rng, n):
    """n prepare/evolve/measure trials through the procedures' draw path:
    the o-values, the measured cycle indices (-1 where o = 0) and whether
    each measurement landed in ``window``."""
    o, index = profile.draw(rng, n)
    return o, np.where(o, index, -1), o & np.isin(index, window)


def incrementer_cycle(alpha=Fraction(3, 4)):
    inc = load_machine("incrementer")
    trace = run(inc, initial_config(inc, "0"), 100)
    return build_alpha_cycle(trace, alpha, source="incrementer(0)")


def test_minimal_profile_always_yields_o_one():
    profile = halfstep_profile_periodic(8)
    rng = np.random.default_rng(1)
    o, index, _ = draw_outcomes(profile, range(2, 6), rng, 500)
    assert o.all() and (index >= 0).all()


def test_zero_profile_never_yields():
    profile = synthetic_profile([0.0, 0.0, 0.0])
    rng = np.random.default_rng(2)
    o, index, valid = draw_outcomes(profile, [0], rng, 200)
    assert not o.any() and (index == -1).all() and not valid.any()


def test_sampled_window_frequency_matches_nu():
    profile = halfstep_profile_periodic(8)
    window = range(2, 6)
    nu = nu_of(profile, window)
    rng = np.random.default_rng(3)
    n = 100_000
    hits = int(draw_outcomes(profile, window, rng, n)[2].sum())
    se = math.sqrt(nu * (1 - nu) / n)
    assert abs(hits / n - nu) < 3 * se


def test_partial_capture_o_zero_frequency():
    profile = synthetic_profile([0.3, 0.3])  # captured 0.6
    rng = np.random.default_rng(4)
    n = 50_000
    ones = int(draw_outcomes(profile, [0], rng, n)[0].sum())
    assert abs(ones / n - 0.6) < 3 * math.sqrt(0.6 * 0.4 / n)


def test_error_free_returns_only_validated_results():
    cycle = incrementer_cycle()
    profile = halfstep_profile_periodic(cycle.p)
    validate = lambda r: r == (0, "1")
    rng = np.random.default_rng(5)
    for _ in range(300):
        rep = run_error_free(cycle, profile, validate, rng)
        assert not rep.inconclusive
        assert rep.result == (0, "1") and rep.result_valid
        events = rep.to_dict()["events"]
        assert events["prepare"] == events["evolve"] == events["measure_o"] == rep.trials
        assert events["measure_r"] == rep.o_one_count <= rep.trials


def test_error_free_full_window_needs_one_trial():
    # a validate that accepts every result, as if the window covered the
    # whole cycle: the first o=1 draw ends the run, wherever it lands
    cycle = incrementer_cycle()
    profile = halfstep_profile_periodic(cycle.p)
    rng = np.random.default_rng(6)
    reps = [run_error_free(cycle, profile, lambda r: True, rng) for _ in range(100)]
    assert all(rep.trials == 1 for rep in reps)


@pytest.mark.parametrize("other", [lambda p: halfstep_profile_periodic(2 * p),
                                   lambda p: halfstep_profile_periodic(p - 2),
                                   lambda p: halfstep_profile_aperiodic(p // 2)],
                         ids=["twice the period", "a shorter period", "aperiodic"])
def test_error_free_refuses_a_profile_not_indexed_by_the_cycle(other):
    # a profile of another period would have its draws read mod p
    cycle = incrementer_cycle()
    rng = np.random.default_rng(6)
    with pytest.raises(PreconditionError, match="not the cycle's 0..p-1"):
        run_error_free(cycle, other(cycle.p), lambda r: True, rng)
    with pytest.raises(PreconditionError, match="not the cycle's 0..p-1"):
        repeat_error_free(cycle, other(cycle.p), lambda r: True, rng, runs=10)
    assert rng.random() == np.random.default_rng(6).random()  # nothing was drawn


def test_error_free_mean_trials_matches_inverse_nu():
    p = 64
    from halfcycle import alpha_for_period, centered_window
    window = centered_window(p, alpha_for_period(p))
    profile = halfstep_profile_periodic(p)
    nu = nu_of(profile, window)
    from halfcycle.cycle import LabeledCycle
    from halfcycle.machine import TMSpec
    s = window.start
    # waits s - 1 steps on "0", then writes "1" and halts
    states = [f"q{i}" for i in range(s)] + ["done"]
    spec = TMSpec(states=frozenset(states), alphabet=frozenset("01_"), blank="_",
                  transitions={(q, a): (states[min(i + 1, s)], "1" if i == s - 1 else a, "S")
                               for i, q in enumerate(states) for a in "01_"},
                  initial="q0", result_states=frozenset({"done"}))
    trace = run(spec, initial_config(spec, "0"), s)
    assert trace.n_steps == s and trace.result == (0, "1")
    cycle = LabeledCycle(trace=trace, w=28, alpha_requested=Fraction(7, 8), source="synthetic")
    assert (cycle.p, cycle.window) == (p, window)
    rng = np.random.default_rng(7)
    counts, summary = repeat_error_free(cycle, profile, lambda r: r[0] == 0, rng, runs=20_000)
    assert summary.invalid_results == 0
    assert abs(summary.mean_trials - 1 / nu) < 0.05 / nu
    assert summary.chain_ok()
    assert summary.nu_hat <= summary.pi_hat <= summary.nu_c_hat == 1.0


def test_trial_counts_are_geometric():
    # chi-square goodness of fit against Geometric(nu) at the 1% level
    cycle = incrementer_cycle(Fraction(1, 2))  # p = 12, window [3, 9)
    profile = halfstep_profile_periodic(cycle.p)
    nu = nu_of(profile, cycle.window)
    rng = np.random.default_rng(8)
    counts, _ = repeat_error_free(cycle, profile, lambda r: r[0] == 0, rng, runs=100_000)
    counts = np.asarray(counts)
    kmax = 8
    observed = [np.sum(counts == k) for k in range(1, kmax)] + [np.sum(counts >= kmax)]
    probs = [nu * (1 - nu) ** (k - 1) for k in range(1, kmax)] + [(1 - nu) ** (kmax - 1)]
    expected = np.asarray(probs) * counts.size
    result = stats.chisquare(observed, expected)
    assert result.pvalue > 0.01


def test_majority_error_bound_values():
    assert majority_error_bound(0.75, 1) == pytest.approx(0.25)
    # binomial tail sum_{k>=8} C(15,k) (1/4)^k (3/4)^(15-k)
    assert majority_error_bound(0.75, 15) == pytest.approx(0.017299838364, abs=1e-12)
    assert majority_error_bound(0.75, 15) == pytest.approx(float(stats.binom.sf(7, 15, 0.25)))


@pytest.mark.parametrize("m", [1, 15, 1029, 2001])
@pytest.mark.parametrize("epsilon", [0.51, 0.6, 0.75, 0.9, 0.99, 0.999])
def test_majority_error_bound_matches_the_binomial_tail(epsilon, m):
    # summed from its largest term in log space: comb(m, k) no longer
    # overflows past m = 1029, and the terms no longer underflow one by one
    reference = float(stats.binom.sf((m - 1) // 2, m, 1.0 - epsilon))
    bound = majority_error_bound(epsilon, m)
    if reference >= sys.float_info.min:
        assert bound == pytest.approx(reference, rel=1e-12)
    else:
        assert 0.0 <= bound < sys.float_info.min
    assert majority_error_bound(1.0, m) == 0.0


def test_error_bounded_rejects_even_m_and_weak_validity():
    profile = synthetic_profile([0.5, 0.5])
    with pytest.raises(PreconditionError):
        run_error_bounded(profile, [0], lambda j: (0, "r"), 4, np.random.default_rng(0))
    weak = synthetic_profile([0.4, 0.6])
    with pytest.raises(PreconditionError):
        run_error_bounded(weak, [0], lambda j: (0, "r"), 3, np.random.default_rng(0))


def test_error_bounded_m1_is_single_shot():
    profile = synthetic_profile([0.75, 0.25])
    rng = np.random.default_rng(9)
    errors = 0
    runs = 20_000
    for _ in range(runs):
        rep = run_error_bounded(profile, [0], lambda j: (0, "ok") if j == 0 else (1, "bad"),
                                1, rng)
        assert rep.error_bound == pytest.approx(0.25)
        assert sum(rep.votes.values()) == 1
        errors += rep.result != (0, "ok")
    assert abs(errors / runs - 0.25) < 3 * math.sqrt(0.25 * 0.75 / runs)


def test_error_bounded_majority_vote_and_bound():
    # one valid value at 3/4, three distinct wrong values at 1/12 each
    profile = synthetic_profile([0.75, 1 / 12, 1 / 12, 1 / 12])
    result_of = lambda j: (0, "ok") if j == 0 else (1, f"w{j}")
    rng = np.random.default_rng(10)
    errors = 0
    runs = 20_000
    for _ in range(runs):
        rep = run_error_bounded(profile, [0], result_of, 15, rng)
        assert rep.error_bound == pytest.approx(0.017299838364, abs=1e-12)
        assert sum(rep.votes.values()) == 15
        errors += rep.result != (0, "ok")
    # true plurality error with three distinct wrong values: 3.417e-4
    assert errors / runs <= 2e-3
    assert errors / runs <= rep.error_bound


def test_error_bounded_aperiodic_returns_no_result_with_certainty():
    profile = halfstep_profile_aperiodic(200)
    window = range(-199, 201)  # z != 0 everywhere: every index is a valid no-result
    rng = np.random.default_rng(11)
    rep = run_error_bounded(profile, window, lambda j: (1, ""), 15, rng)
    assert rep.result == (1, "")
    assert rep.votes == {(1, ""): 15}


def test_halting_demo_incrementer():
    inc = load_machine("incrementer")
    verdict = halting_demo(inc, initial_config(inc, "0"), 100, 200, Fraction(3, 4),
                           np.random.default_rng(12))
    assert verdict.halts and verdict.value == "1"
    assert not verdict.report.inconclusive


def test_halting_demo_loop_machine():
    loop = load_machine("loop")
    verdict = halting_demo(loop, initial_config(loop, ""), 50, 200, Fraction(3, 4),
                           np.random.default_rng(13))
    assert not verdict.halts and verdict.value is None
    assert verdict.report.votes == {(1, ""): 15}


def test_halting_demo_refuses_alpha_whether_or_not_the_machine_halts():
    loop = load_machine("loop")
    with pytest.raises(PreconditionError, match="^alpha must lie strictly between 0 and 1$"):
        halting_demo(loop, initial_config(loop, ""), 50, 200, 7.0, np.random.default_rng(13))


def test_halting_demo_parity_matches_classical_result():
    par = load_machine("parity")
    for word in ("101", "111", "1001"):
        verdict = halting_demo(par, initial_config(par, word), 100, 200, Fraction(3, 4),
                               np.random.default_rng(14))
        assert verdict.halts
        assert verdict.value == str(word.count("1") % 2)


def test_error_free_inconclusive_on_tiny_budget():
    cycle = incrementer_cycle()
    profile = halfstep_profile_periodic(cycle.p)
    rng = np.random.default_rng(15)
    rep = run_error_free(cycle, profile, lambda r: False, rng, max_trials=30)
    assert rep.inconclusive and rep.result is None


def test_out_of_range_window_index_raises():
    profile = halfstep_profile_periodic(8)
    rng = np.random.default_rng(9)
    with pytest.raises(PreconditionError, match="index 8 outside profile range"):
        run_error_bounded(profile, range(2, 9), lambda j: (0, ""), 3, rng)
    with pytest.raises(PreconditionError, match="index -1 outside profile range"):
        run_error_bounded(profile, [-1, 0, 1], lambda j: (0, ""), 3, rng)
    # nothing was drawn: the range check comes before the first trial
    assert rng.random() == np.random.default_rng(9).random()


def test_a_repeated_window_index_is_refused_before_any_draw():
    # [0] is refused for its validity 0.3; [0, 0] once counted its mass
    # twice, ran with error bound 0.213, and its majority was wrong 95% of
    # the time
    profile = synthetic_profile([0.3, 0.7])
    rng = np.random.default_rng(9)
    with pytest.raises(PreconditionError, match="validity 0.3000 is not above 1/2"):
        run_error_bounded(profile, [0], lambda j: (j, ""), 3, rng)
    with pytest.raises(PreconditionError,
                       match="^window must be one run of consecutive ascending integers$"):
        run_error_bounded(profile, [0, 0], lambda j: (j, ""), 3, rng)
    assert rng.random() == np.random.default_rng(9).random()


def test_captured_must_match_probability_sum():
    # captured 1.0 over probabilities summing to 1/2 would send every
    # u in [0.5, 1) to the last index
    with pytest.raises(PreconditionError, match="differs from sum"):
        AmplitudeProfile(amplitudes=np.sqrt([0.25, 0.25]).astype(complex),
                         indices=np.arange(2), captured=1.0, period=2)
    assert synthetic_profile([0.25, 0.25]).captured == 0.5


# The per-trial loops that the block-drawn procedures replaced, one
# rng.random() per trial, kept as the reference for the stream identity.

def _reference_draw(profile, in_window, rng):
    u = rng.random()
    if u >= profile.captured:
        return 0, None, False
    cum = np.cumsum(profile.probabilities)
    pos = min(int(np.searchsorted(cum, u, side="right")), cum.size - 1)
    return 1, int(profile.indices[pos]), bool(in_window[pos])


def _window_mask(profile, window):
    return np.isin(profile.indices, window)


def _reference_error_free(cycle, profile, validate, rng, max_trials):
    in_window = _window_mask(profile, cycle.window)
    o_ones = 0
    validations = 0
    for trial in range(1, max_trials + 1):
        o, index, _ = _reference_draw(profile, in_window, rng)
        if o == 0:
            continue
        o_ones += 1
        r = cycle_result(cycle, index)
        validations += 1
        if validate(r):
            return RunReport(procedure="error-free", trials=trial, o_one_count=o_ones,
                             result=r, result_valid=True, inconclusive=False,
                             validations=validations)
    return RunReport(procedure="error-free", trials=max_trials, o_one_count=o_ones,
                     result=None, result_valid=None, inconclusive=True,
                     validations=validations)


def _reference_repeat(cycle, profile, validate, rng, runs, max_trials):
    trial_counts = []
    invalid = inconclusive = successes = total_trials = total_o = 0
    for _ in range(runs):
        rep = _reference_error_free(cycle, profile, validate, rng, max_trials)
        total_trials += rep.trials
        total_o += rep.o_one_count
        if rep.inconclusive:
            inconclusive += 1
            continue
        trial_counts.append(rep.trials)
        successes += 1
        if not validate(rep.result):
            invalid += 1
    summary = BatchSummary(
        runs=runs, invalid_results=invalid, inconclusive_runs=inconclusive,
        mean_trials=float(np.mean(trial_counts)) if trial_counts else float("nan"),
        total_trials=total_trials, total_o_ones=total_o,
        nu_hat=successes / total_trials if total_trials else float("nan"),
        pi_hat=successes / total_o if total_o else float("nan"),
        nu_c_hat=1.0 if total_o else float("nan"))
    return trial_counts, summary


def _reference_error_bounded(profile, window, result_of, m, rng, max_trials):
    in_window = _window_mask(profile, window)
    epsilon = nu_of(profile, window) / profile.captured
    bound = majority_error_bound(epsilon, m)
    votes = {}
    trials = o_ones = 0
    for _ in range(m):
        while True:
            if trials >= max_trials:
                return RunReport(procedure="error-bounded", trials=trials, o_one_count=o_ones,
                                 result=None, result_valid=None, inconclusive=True,
                                 majority_m=m, votes=votes, error_bound=bound)
            trials += 1
            o, index, _ = _reference_draw(profile, in_window, rng)
            if o == 1:
                o_ones += 1
                break
        r = result_of(index)
        votes[r] = votes.get(r, 0) + 1
    best = max(sorted(votes), key=lambda r: votes[r])
    return RunReport(procedure="error-bounded", trials=trials, o_one_count=o_ones,
                     result=best, result_valid=None, inconclusive=False,
                     majority_m=m, votes=votes, error_bound=bound)


def _stream_cycle(name, word, alpha):
    spec = load_machine(name)
    return build_alpha_cycle(run(spec, initial_config(spec, word), 200), alpha, source=name)


_CYCLES = [_stream_cycle("incrementer", "0", Fraction(3, 4)),
           _stream_cycle("incrementer", "11", Fraction(1, 2)),
           _stream_cycle("parity", "101", Fraction(1, 3)),
           _stream_cycle("incrementer", "1", Fraction(1, 10))]


@st.composite
def partial_profiles(draw, size):
    """Random index distributions over 0..size-1 with captured mass <= 1."""
    weights = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    assume(weights.sum() > 0)
    captured = draw(st.sampled_from([1.0, 0.9, 0.5, 0.2]))
    return synthetic_profile(weights / weights.sum() * captured)


@st.composite
def error_free_cases(draw):
    cycle = draw(st.sampled_from(_CYCLES))
    profile = draw(partial_profiles(cycle.p))
    results = sorted({cycle_result(cycle, j) for j in range(cycle.p)})
    accepted = set(draw(st.lists(st.sampled_from(results), unique=True)))
    mass = sum(profile.probabilities[j] for j in range(cycle.p)
               if cycle_result(cycle, j) in accepted)
    max_trials = draw(st.one_of(st.integers(1, 40), st.just(10 ** 6)))
    assume(max_trials <= 40 or mass > 0.05)
    return cycle, profile, (lambda r: r in accepted), max_trials


@given(error_free_cases(), st.integers(1, 200), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_repeat_error_free_matches_per_trial_loop(case, runs, seed):
    cycle, profile, validate, max_trials = case
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref_counts, ref_summary = _reference_repeat(cycle, profile, validate, ref_rng, runs,
                                                max_trials)
    counts, summary = repeat_error_free(cycle, profile, validate, rng, runs,
                                        max_trials=max_trials)
    assert counts == ref_counts
    assert repr(summary) == repr(ref_summary)  # repr: nan == nan
    assert rng.random() == ref_rng.random()


@given(error_free_cases(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_run_error_free_matches_per_trial_loop(case, seed):
    cycle, profile, validate, max_trials = case
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(20):
        ref = _reference_error_free(cycle, profile, validate, ref_rng, max_trials)
        rep = run_error_free(cycle, profile, validate, rng, max_trials=max_trials)
        assert rep == ref
        assert rep.to_dict() == ref.to_dict()
    assert rng.random() == ref_rng.random()


@st.composite
def error_bounded_cases(draw):
    size = draw(st.integers(2, 12))
    profile = draw(partial_profiles(size))
    start = draw(st.integers(0, size - 1))
    window = range(start, start + draw(st.integers(1, size - start)))
    while nu_of(profile, window) <= profile.captured / 2:  # widen to a validity above 1/2
        stop = min(window.stop + 1, size)
        window = range(window.start - (stop == window.stop), stop)
    assume(nu_of(profile, window) / profile.captured > 0.5)
    labels = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    m = draw(st.integers(0, 7)) * 2 + 1
    max_trials = draw(st.one_of(st.integers(1, 3 * m), st.just(10 ** 6)))
    return profile, window, (lambda j: (labels[j], f"v{labels[j]}")), m, max_trials


@given(error_bounded_cases(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_run_error_bounded_and_single_draw_match_per_trial_loop(case, seed):
    profile, window, result_of, m, max_trials = case
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    in_window = _window_mask(profile, window)
    for _ in range(20):
        ref = _reference_error_bounded(profile, window, result_of, m, ref_rng, max_trials)
        rep = run_error_bounded(profile, window, result_of, m, rng, max_trials=max_trials)
        assert rep == ref
        assert rep.to_dict() == ref.to_dict()
        o, index, valid = _reference_draw(profile, in_window, ref_rng)
        (o_out,), (index_out,), (valid_out,) = draw_outcomes(profile, window, rng, 1)
        assert (o_out, index_out, valid_out) == (o, -1 if index is None else index, valid)
    assert rng.random() == ref_rng.random()
