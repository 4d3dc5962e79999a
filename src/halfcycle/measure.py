"""Simulated half-cycle measurement and the retry procedures built on it.

One trial is prepare / evolve to tau = T/2 / measure the computational
observable.  The observable is modeled as the projector onto the span of
the computational states, so the o-value is 1 with probability equal to
the profile's captured mass, and conditional on o = 1 the measured cycle
index follows |a_j|^2 normalized over that mass.

Two procedures drive trials in a loop:

* error-free: retry until the measured result passes the validation
  predicate; the returned result is valid with certainty and the trial
  count is geometric with success rate nu (the window mass).
* error-bounded: collect an odd number of single-shot results and return
  the majority; the analytic error bound is the binomial tail at the
  per-shot validity rate.

All randomness flows through the numpy Generator handed in, so reports are
bit-reproducible given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cycle import LabeledCycle, cycle_result
from .errors import PreconditionError
from .spectral import AmplitudeProfile, nu_of


@dataclass(frozen=True)
class MeasurementOutcome:
    o_value: int
    index: int | None
    result_valid: bool

    def __post_init__(self):
        if self.o_value == 0 and self.index is not None:
            raise PreconditionError("o = 0 carries no index")


@dataclass
class RunReport:
    """Outcome and event accounting for one procedure run.

    prepares, evolutions and o_measurements all equal the trial count;
    r_measurements counts the o = 1 events (only then is the result
    register read).  These stand in for the procedure's per-phase time
    constants.
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

    @property
    def prepares(self) -> int:
        return self.trials

    @property
    def evolutions(self) -> int:
        return self.trials

    @property
    def o_measurements(self) -> int:
        return self.trials

    @property
    def r_measurements(self) -> int:
        return self.o_one_count

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
                "prepare": self.prepares,
                "evolve": self.evolutions,
                "measure_o": self.o_measurements,
                "measure_r": self.r_measurements,
            },
        }


class _Sampler:
    """Inverse-CDF sampler over a profile's defective index distribution."""

    def __init__(self, profile: AmplitudeProfile, window):
        if profile.captured > 1.0 + 1e-12:
            raise PreconditionError("profile captures more than unit probability")
        self.profile = profile
        self.cum = np.cumsum(profile.probabilities)
        self.captured = float(profile.captured)
        self.in_window = np.zeros(profile.indices.size, dtype=bool)
        self.in_window[profile.positions(window)] = True

    def draw(self, rng) -> MeasurementOutcome:
        u = rng.random()
        if u >= self.captured:
            return MeasurementOutcome(o_value=0, index=None, result_valid=False)
        pos = int(np.searchsorted(self.cum, u, side="right"))
        pos = min(pos, self.cum.size - 1)
        j = int(self.profile.indices[pos])
        return MeasurementOutcome(o_value=1, index=j, result_valid=bool(self.in_window[pos]))


def sample_outcome(profile: AmplitudeProfile, window, rng) -> MeasurementOutcome:
    """One prepare/evolve/measure trial.

    With probability ``captured`` the observable reads 1 and an index j is
    drawn from |a_j|^2 (normalized); result_valid records whether j lies in
    the result window.
    """
    return _Sampler(profile, window).draw(rng)


def run_error_free(cycle: LabeledCycle, profile: AmplitudeProfile, validate, rng,
                   max_trials: int = 10 ** 6) -> RunReport:
    """Retry prepare/evolve/measure until a validated result comes back.

    ``validate`` decides the result predicate on r = (z, v); the machine
    must be validable for this procedure to make sense.  The returned
    result always passes ``validate``; budget exhaustion yields an
    inconclusive report, never an exception.
    """
    if max_trials < 1:
        raise PreconditionError("need at least one trial")
    sampler = _Sampler(profile, cycle.window)
    o_ones = 0
    validations = 0
    for trial in range(1, max_trials + 1):
        out = sampler.draw(rng)
        if out.o_value == 0:
            continue
        o_ones += 1
        r = cycle_result(cycle, out.index)
        validations += 1
        if validate(r):
            return RunReport(
                procedure="error-free", trials=trial, o_one_count=o_ones,
                result=r, result_valid=True, inconclusive=False,
                validations=validations,
            )
    return RunReport(
        procedure="error-free", trials=max_trials, o_one_count=o_ones,
        result=None, result_valid=None, inconclusive=True, validations=validations,
    )


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
    if majority_m < 1 or majority_m % 2 == 0:
        raise PreconditionError("majority size must be odd and positive")
    if max_trials < 1:
        raise PreconditionError("need at least one trial")
    sampler = _Sampler(profile, window)
    if sampler.captured <= 0.0:
        raise PreconditionError("profile has no computational-state mass")
    epsilon = nu_of(profile, window) / sampler.captured
    if epsilon <= 0.5:
        raise PreconditionError(f"per-shot validity {epsilon:.4f} is not above 1/2")

    votes: dict = {}
    trials = 0
    o_ones = 0
    for _ in range(majority_m):
        while True:
            if trials >= max_trials:
                return RunReport(
                    procedure="error-bounded", trials=trials, o_one_count=o_ones,
                    result=None, result_valid=None, inconclusive=True,
                    majority_m=majority_m, votes=votes,
                    error_bound=majority_error_bound(epsilon, majority_m),
                )
            trials += 1
            out = sampler.draw(rng)
            if out.o_value == 1:
                o_ones += 1
                break
        r = result_of(out.index)
        votes[r] = votes.get(r, 0) + 1
    # Plurality winner; a tie between distinct wrong results is broken
    # lexicographically (cannot occur in the two-valued setting, where odd
    # m rules ties out).
    best = max(sorted(votes), key=lambda r: votes[r])
    return RunReport(
        procedure="error-bounded", trials=trials, o_one_count=o_ones,
        result=best, result_valid=None, inconclusive=False,
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
    classical simulator, and verdicts are relative to it.
    """
    from .cycle import build_alpha_cycle
    from .machine import run
    from .spectral import halfstep_profile_aperiodic, halfstep_profile_periodic

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

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "invalid_results": self.invalid_results,
            "inconclusive_runs": self.inconclusive_runs,
            "mean_trials": self.mean_trials,
            "total_trials": self.total_trials,
            "total_o_ones": self.total_o_ones,
            "nu_hat": self.nu_hat,
            "pi_hat": self.pi_hat,
            "nu_c_hat": self.nu_c_hat,
            "chain_ok": self.chain_ok(),
        }


def repeat_error_free(cycle: LabeledCycle, profile: AmplitudeProfile, validate, rng,
                      runs: int, max_trials: int = 10 ** 6):
    """Run the error-free procedure ``runs`` times; returns the trial-count
    list and a BatchSummary with the conditional-rate estimates."""
    if runs < 1:
        raise PreconditionError("need at least one run")
    trial_counts = []
    invalid = 0
    inconclusive = 0
    successes = 0
    total_trials = 0
    total_o = 0
    for _ in range(runs):
        rep = run_error_free(cycle, profile, validate, rng, max_trials=max_trials)
        total_trials += rep.trials
        total_o += rep.o_one_count
        if rep.inconclusive:
            inconclusive += 1
            continue
        trial_counts.append(rep.trials)
        successes += 1
        if not validate(rep.result):
            invalid += 1
    mean_trials = float(np.mean(trial_counts)) if trial_counts else float("nan")
    summary = BatchSummary(
        runs=runs,
        invalid_results=invalid,
        inconclusive_runs=inconclusive,
        mean_trials=mean_trials,
        total_trials=total_trials,
        total_o_ones=total_o,
        nu_hat=successes / total_trials if total_trials else float("nan"),
        pi_hat=successes / total_o if total_o else float("nan"),
        nu_c_hat=1.0 if total_o else float("nan"),
    )
    return trial_counts, summary
