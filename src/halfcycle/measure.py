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

Every procedure draws from the profile's own tables: one ``rng.random(n)``
call and one ``searchsorted`` in ``profile.cdf`` map n uniforms to n
outcomes, and the per-shot validity rate is ``nu_of``.  Runs end at their
first accepted draws.  A block holds only draws that are certainly needed (one
per unfinished run, one per missing vote), so the numpy Generator handed
in is consumed exactly as by one ``rng.random()`` per trial: the same
trial counts, results, votes and final generator state, and reports are
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

from .cycle import LabeledCycle, build_alpha_cycle, cycle_result
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


def _draw(profile: AmplitudeProfile, rng, n: int):
    """n trials from n uniforms: the o = 1 mask and the array position of
    each measured index (meaningful only where o = 1), by inverse CDF over
    the profile's defective index distribution."""
    u = rng.random(n)
    pos = np.searchsorted(profile.cdf, u, side="right")
    np.minimum(pos, profile.cdf.size - 1, out=pos)
    return u < profile.captured, pos


def _error_free_runs(cycle: LabeledCycle, profile: AmplitudeProfile, validate, rng,
                     runs: int, max_trials: int):
    """``runs`` consecutive error-free runs, drawn in blocks.

    Returns per-run trial counts, per-run o = 1 counts, the accepted
    position of each run (-1 where the run used up ``max_trials``) and the
    results by position.  A run ends at its first accepted draw or after
    ``max_trials`` draws; ``carry_t``/``carry_o`` hold the trials and o = 1
    draws of the run that a block leaves unfinished.
    """
    if max_trials < 1:
        raise PreconditionError("need at least one trial")
    profile.positions(cycle.window)  # range check before the first draw
    results: dict = {}
    verdict = np.full(len(profile.indices), -1, dtype=np.int8)  # -1: not drawn yet
    trials, o_ones, accepted = [], [], []
    done = carry_t = carry_o = 0
    while done < runs:
        n = runs - done  # one draw per unfinished run
        o, pos = _draw(profile, rng, n)
        drawn = pos[o]
        for q in np.unique(drawn[verdict[drawn] < 0]).tolist():
            results[q] = cycle_result(cycle, profile.indices[q])
            verdict[q] = bool(validate(results[q]))
        hit = o.copy()
        hit[o] = verdict[drawn] == 1
        succ = np.flatnonzero(hit)
        # the failures before each success, and those after the last,
        # end a run at every max_trials-th draw
        starts = np.concatenate(([-carry_t], succ + 1))
        cuts = (np.append(succ, n) - starts) // max_trials
        stretch = np.repeat(np.arange(cuts.size), cuts)
        nth = np.arange(stretch.size) - np.repeat(np.cumsum(cuts) - cuts, cuts) + 1
        ends = np.sort(np.concatenate((starts[stretch] + nth * max_trials - 1, succ)))
        o_cum = np.cumsum(o)
        trials.append(np.diff(ends, prepend=-carry_t - 1))
        o_ones.append(np.diff(o_cum[ends], prepend=-carry_o))
        accepted.append(np.where(hit[ends], pos[ends], -1))
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
    o_one_count, q = int(o_ones[0]), int(accepted[0])
    return RunReport(
        procedure="error-free", trials=int(trials[0]), o_one_count=o_one_count,
        result=results[q] if q >= 0 else None, result_valid=True if q >= 0 else None,
        inconclusive=q < 0, validations=o_one_count,
    )


@functools.lru_cache(maxsize=256)
def majority_error_bound(epsilon: float, m: int) -> float:
    """Binomial tail: probability that at least ceil(m/2) of m independent
    shots with validity rate epsilon come back invalid."""
    q = 1.0 - epsilon
    need = (m + 1) // 2
    return float(sum(math.comb(m, k) * q ** k * epsilon ** (m - k) for k in range(need, m + 1)))


def run_error_bounded(profile: AmplitudeProfile, window, result_of, majority_m: int,
                      rng, max_trials: int = 10 ** 6) -> RunReport:
    """Majority vote over ``majority_m`` single-shot measurements.

    ``result_of`` maps a measured cycle index to its result variable
    r = (z, v).  The per-shot validity rate epsilon = (window mass) /
    (captured mass) must exceed 1/2.  Reports the analytic binomial-tail
    error bound next to the vote.
    """
    check_length("majority size", majority_m)
    if majority_m % 2 == 0:
        raise PreconditionError(f"majority size {majority_m} must be odd")
    if max_trials < 1:
        raise PreconditionError("need at least one trial")
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
        o, pos = _draw(profile, rng, n)
        trials += n
        shots.extend(pos[o].tolist())
    result_at = {q: result_of(profile.indices[q]) for q in dict.fromkeys(shots)}
    votes = dict(Counter(result_at[q] for q in shots))
    conclusive = len(shots) == majority_m
    # Plurality winner; a tie between distinct wrong results is broken
    # lexicographically (cannot occur in the two-valued setting, where odd
    # m rules ties out).
    best = max(sorted(votes), key=lambda r: votes[r]) if conclusive else None
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
    classical simulator, and verdicts are relative to it.  K is checked
    before the machine runs, so whether it is refused does not depend on
    whether the machine halts.
    """
    check_length("K", K)
    trace = run(spec, config, budget)
    if trace.halted:
        src = f"{spec.name or 'machine'}"
        cycle = build_alpha_cycle(trace, alpha, source=src)
        profile = halfstep_profile_periodic(cycle.p)
        report = run_error_bounded(
            profile, cycle.window, lambda j: cycle_result(cycle, j),
            majority_m, rng, max_trials=max_trials,
        )
        if report.inconclusive or report.result is None:
            return HaltingVerdict(halts=False, value=None, budget=budget, report=report)
        z, v = report.result
        return HaltingVerdict(halts=(z == 0), value=v if z == 0 else None,
                              budget=budget, report=report)
    profile = halfstep_profile_aperiodic(K)
    window = range(-K + 1, K + 1)  # z != 0 everywhere: every index is a valid no-result
    report = run_error_bounded(
        profile, window, lambda j: (1, ""), majority_m, rng, max_trials=max_trials,
    )
    return HaltingVerdict(halts=False, value=None, budget=budget, report=report)


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
    list and a BatchSummary with the conditional-rate estimates."""
    check_length("runs", runs)
    trials, o_ones, accepted, results = _error_free_runs(
        cycle, profile, validate, rng, runs, max_trials)
    ok = accepted >= 0
    trial_counts = trials[ok].tolist()
    successes = len(trial_counts)
    found, times = np.unique(accepted[ok], return_counts=True)
    invalid = sum(c for q, c in zip(found.tolist(), times.tolist()) if not validate(results[q]))
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
