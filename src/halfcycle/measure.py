"""Simulated half-cycle measurement and the retry procedures built on it.

One trial is prepare / evolve to tau = T/2 / measure the computational
observable.  The observable is modeled as the projector onto the span of
the computational states, so the o-value is 1 with probability equal to
the profile's captured mass, and conditional on o = 1 the measured cycle
index follows |a_j|^2 normalized over that mass.

Two procedures repeat trials:

* error-free: retry until the measured result passes the validation
  predicate; the returned result is valid with certainty and the trial
  count is geometric with success rate nu (the window mass).
* error-bounded: collect an odd number of single-shot results and return
  the majority; the analytic error bound is the binomial tail at the
  per-shot validity rate.

Every procedure draws through the profile: ``AmplitudeProfile.draw`` maps
one ``rng.random(n)`` call to n o-values and measured cycle indices, and
the per-shot validity rate is ``nu_of``.  Runs end at their first
accepted draws.  A block holds only draws that are certainly needed (at
most one per unfinished run and no more than the run it carries over may
still take; one per missing vote), so the numpy Generator handed in is
consumed exactly as by one ``rng.random()`` per trial: the same trial
counts, results, votes and final generator state, and reports are
bit-reproducible given a seed.  Results and validation verdicts are
computed once per distinct drawn index.  Run counts, majority sizes and
K obey the size rule of ``errors.check_length``.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .cycle import LabeledCycle, _ratio, build_alpha_cycle, cycle_result
from .errors import PreconditionError, check_length
from .machine import run
from .spectral import (AmplitudeProfile, halfstep_profile_aperiodic,
                       halfstep_profile_periodic, nu_of)


@dataclass
class RunReport:
    """Outcome and event accounting for one procedure run.

    Every trial is one prepare, one evolution and one o measurement; the
    result register is read only on the o = 1 events.  ``to_dict`` lists
    these per-phase counts under ``events``; they stand in for the
    procedure's per-phase time constants.
    """

    procedure: str
    trials: int
    o_one_count: int
    result: tuple | None
    result_valid: bool | None
    inconclusive: bool
    validations: int = 0
    majority_m: int | None = None
    votes: dict | None = None
    error_bound: float | None = None

    def to_dict(self) -> dict:
        return {
            "procedure": self.procedure,
            "trials": self.trials,
            "o_one_count": self.o_one_count,
            "result": list(self.result) if self.result is not None else None,
            "result_valid": self.result_valid,
            "inconclusive": self.inconclusive,
            "validations": self.validations,
            "majority_m": self.majority_m,
            "votes": [[list(r), c] for r, c in sorted(self.votes.items())] if self.votes else None,
            "error_bound": self.error_bound,
            "events": {
                "prepare": self.trials,
                "evolve": self.trials,
                "measure_o": self.trials,
                "measure_r": self.o_one_count,
            },
        }


def _error_free_runs(cycle: LabeledCycle, profile: AmplitudeProfile, validate, rng,
                     runs: int, max_trials: int):
    """``runs`` consecutive error-free runs, drawn in blocks.

    Returns per-run trial counts, per-run o = 1 counts, the accepted
    index of each run (-1 where the run used up ``max_trials``) and the
    results by index.  A run ends at its first accepted draw or after
    ``max_trials`` draws; ``carry_t``/``carry_o`` hold the trials and o = 1
    draws of the run that a block leaves unfinished.
    """
    check_length("trial budget", max_trials, cap=math.inf)  # drawn in blocks, never held whole
    if profile.indices != range(cycle.p):  # before the first draw
        raise PreconditionError(f"profile indices {profile.indices} are not the cycle's 0..p-1")
    results: dict = {}
    verdict = np.full(cycle.p, -1, dtype=np.int8)  # -1: not drawn yet
    trials, o_ones, accepted = [], [], []
    done = carry_t = carry_o = 0
    while done < runs:
        # one draw per unfinished run, and no more than the carried run may
        # still take, so only that run can reach max_trials in the block
        n = min(runs - done, max_trials - carry_t)
        o, index = profile.draw(rng, n)
        drawn = index[o]
        for j in np.unique(drawn[verdict[drawn] < 0]).tolist():
            results[j] = cycle_result(cycle, j)
            verdict[j] = bool(validate(results[j]))
        hit = o.copy()
        hit[o] = verdict[drawn] == 1
        ends = np.flatnonzero(hit)
        if not ends.size and n == max_trials - carry_t:
            ends = np.array([n - 1])
        o_cum = np.cumsum(o)
        trials.append(np.diff(ends, prepend=-carry_t - 1))
        o_ones.append(np.diff(o_cum[ends], prepend=-carry_o))
        accepted.append(np.where(hit[ends], index[ends], -1))
        if ends.size:
            carry_t, carry_o = n - 1 - int(ends[-1]), int(o_cum[-1] - o_cum[ends[-1]])
        else:
            carry_t, carry_o = carry_t + n, carry_o + int(o_cum[-1])
        done += ends.size
    return np.concatenate(trials), np.concatenate(o_ones), np.concatenate(accepted), results


def run_error_free(cycle: LabeledCycle, profile: AmplitudeProfile, validate, rng,
                   max_trials: int = 10 ** 6) -> RunReport:
    """Retry prepare/evolve/measure until a validated result comes back.

    ``validate`` decides the result predicate on r = (z, v); the machine
    must be validable for this procedure to make sense.  The returned
    result always passes ``validate``; budget exhaustion yields an
    inconclusive report, never an exception.
    """
    trials, o_ones, accepted, results = _error_free_runs(
        cycle, profile, validate, rng, 1, max_trials)
    o_one_count, j = int(o_ones[0]), int(accepted[0])
    return RunReport(
        procedure="error-free", trials=int(trials[0]), o_one_count=o_one_count,
        result=results[j] if j >= 0 else None, result_valid=True if j >= 0 else None,
        inconclusive=j < 0, validations=o_one_count,
    )


@functools.lru_cache(maxsize=256)
def majority_error_bound(epsilon: float, m: int) -> float:
    """Binomial tail: probability that at least ceil(m/2) of m independent
    shots with validity rate epsilon > 1/2 come back invalid.

    The largest term, k = ceil(m/2), is formed in log space, so no
    binomial coefficient overflows and no term underflows on the way; the
    ratio of consecutive terms adds the rest until a term falls below
    2**-60 of the sum.  Exactly 0.0 at epsilon = 1 (or a rounding above).
    """
    q = 1.0 - epsilon
    if q <= 0.0:
        return 0.0
    k = (m + 1) // 2
    log_lead = (math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                + k * math.log(q) + (m - k) * math.log(epsilon))
    odds = q / epsilon
    total = term = 1.0
    while k < m and term >= 2.0 ** -60 * total:
        term *= (m - k) / (k + 1) * odds
        total += term
        k += 1
    return math.exp(log_lead) * total


def _check_vote(majority_m: int, max_trials: int) -> None:
    """An odd majority size under the size rule; a trial budget of at least 1, uncapped."""
    check_length("majority size", majority_m)
    if majority_m % 2 == 0:
        raise PreconditionError(f"majority size {majority_m} must be odd")
    check_length("trial budget", max_trials, cap=math.inf)


def run_error_bounded(profile: AmplitudeProfile, window, result_of, majority_m: int,
                      rng, max_trials: int = 10 ** 6) -> RunReport:
    """Majority vote over ``majority_m`` single-shot measurements.

    ``result_of`` maps a measured cycle index to its result variable
    r = (z, v).  Before any draw, ``window`` must be one run
    (``errors.check_run``) whose validity rate epsilon = (window mass) /
    (captured mass) exceeds 1/2.  Reports the binomial-tail error bound.
    """
    _check_vote(majority_m, max_trials)
    nu = nu_of(profile, window)
    if profile.captured <= 0.0:
        raise PreconditionError("profile has no computational-state mass")
    epsilon = nu / profile.captured
    if epsilon <= 0.5:
        raise PreconditionError(f"per-shot validity {epsilon:.4f} is not above 1/2")

    trials = 0
    shots = []
    while len(shots) < majority_m and trials < max_trials:
        n = min(majority_m - len(shots), max_trials - trials)
        o, index = profile.draw(rng, n)
        trials += n
        shots += index[o].tolist()
    result_at = {j: result_of(j) for j in dict.fromkeys(shots)}
    votes = dict(Counter(map(result_at.__getitem__, shots)))
    conclusive = len(shots) == majority_m
    # Plurality winner; a tie between distinct wrong results is broken
    # lexicographically (cannot occur in the two-valued setting, where odd
    # m rules ties out).
    best = max(sorted(votes), key=votes.__getitem__) if conclusive else None
    return RunReport(
        procedure="error-bounded", trials=trials, o_one_count=len(shots),
        result=best, result_valid=None, inconclusive=not conclusive,
        majority_m=majority_m, votes=votes,
        error_bound=majority_error_bound(epsilon, majority_m),
    )


@dataclass(frozen=True)
class HaltingVerdict:
    halts: bool
    value: str | None
    budget: int
    report: RunReport

    def to_dict(self) -> dict:
        return {
            "halts": self.halts,
            "value": self.value,
            "budget": self.budget,
            "report": self.report.to_dict(),
        }


def halting_demo(spec, config, budget: int, K: int, alpha, rng,
                 majority_m: int = 15, max_trials: int = 10 ** 6) -> HaltingVerdict:
    """Enact the halting-recognition procedure on a classical simulation.

    If the machine halts within the step budget, its waiting cycle and
    minimal periodic profile feed the error-bounded procedure; the majority
    result decodes to (halts, value).  Otherwise the truncated aperiodic
    profile stands in: every computational-state draw carries z != 0, so
    the no-halt verdict is certain conditional on o = 1.  The budget is
    part of the verdict: this is a statistics-level enactment on a bounded
    classical simulator, and verdicts are relative to it; an inconclusive
    run reads as no halt.  K, alpha, the majority size and the trial
    budget are checked before the machine runs, so whether one is refused
    does not depend on whether the machine halts.
    """
    check_length("K", K)
    alpha = _ratio(alpha)
    _check_vote(majority_m, max_trials)
    trace = run(spec, config, budget)
    if trace.halted:
        cycle = build_alpha_cycle(trace, alpha, source=spec.name or "machine")
        profile, window = halfstep_profile_periodic(cycle.p), cycle.window
        result_of = functools.partial(cycle_result, cycle)
    else:  # z != 0 everywhere: every index is a valid no-result
        profile = halfstep_profile_aperiodic(K)
        window, result_of = profile.indices, lambda j: (1, "")
    report = run_error_bounded(profile, window, result_of, majority_m, rng, max_trials=max_trials)
    z, v = (1, None) if report.inconclusive else report.result
    return HaltingVerdict(z == 0, v if z == 0 else None, budget, report)


@dataclass
class BatchSummary:
    """Aggregate of repeated error-free runs."""

    runs: int
    invalid_results: int
    inconclusive_runs: int
    mean_trials: float
    total_trials: int
    total_o_ones: int
    nu_hat: float      # per-trial full-success rate estimate
    pi_hat: float      # validity rate conditional on o = 1
    nu_c_hat: float    # computational-state rate conditional on o = 1 (projector model: 1)

    def chain_ok(self) -> bool:
        return self.nu_hat <= self.pi_hat + 1e-12 and self.pi_hat <= self.nu_c_hat + 1e-12


def repeat_error_free(cycle: LabeledCycle, profile: AmplitudeProfile, validate, rng,
                      runs: int, max_trials: int = 10 ** 6):
    """Run the error-free procedure ``runs`` times; returns the trial-count
    list and a BatchSummary with the conditional-rate estimates.

    ``runs`` obeys the size rule; ``max_trials`` needs no cap, since each
    run ends after at most ``max_trials`` draws and the draws come in
    blocks of at most ``runs``.  So a call draws at most runs × max_trials
    trials, and holds O(runs) arrays beside the profile, whatever
    ``max_trials`` is."""
    check_length("runs", runs)
    trials, o_ones, accepted, results = _error_free_runs(
        cycle, profile, validate, rng, runs, max_trials)
    ok = accepted >= 0
    trial_counts = trials[ok].tolist()
    successes = len(trial_counts)
    found, times = np.unique(accepted[ok], return_counts=True)
    invalid = sum(c for j, c in zip(found.tolist(), times.tolist()) if not validate(results[j]))
    total_trials = int(trials.sum())
    total_o = int(o_ones.sum())
    mean_trials = float(np.mean(trial_counts)) if trial_counts else float("nan")
    summary = BatchSummary(
        runs=runs,
        invalid_results=invalid,
        inconclusive_runs=runs - successes,
        mean_trials=mean_trials,
        total_trials=total_trials,
        total_o_ones=total_o,
        nu_hat=successes / total_trials if total_trials else float("nan"),
        pi_hat=successes / total_o if total_o else float("nan"),
        nu_c_hat=1.0 if total_o else float("nan"),
    )
    return trial_counts, summary
