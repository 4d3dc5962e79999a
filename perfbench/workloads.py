"""Experiment lists and output checks of the three benchmark workloads.

A workload is a fixed list of experiments that one client runs in order,
each waiting for the previous one (a closed loop).  An experiment is one
in-process ``halfcycle.cli.main`` call that writes its report to a file
the benchmark owns, or one library call shaped like an acceptance
criterion.  Every experiment carries a check of its output that is
computed independently of the package: closed forms, step counts of the
shipped machines, binary increments, binomial tails.  Monte-Carlo checks
allow six standard errors, so no seed trips them by chance.

``size="tiny"`` swaps every size for a small one; the harness self-test
uses it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import halfcycle as hc
from halfcycle import cli

SIGMAS = 6.0


@dataclass
class Experiment:
    """One step of a workload.

    ``run(seed)`` performs the experiment and returns its raw result;
    ``check(result, expect)`` returns the list of problems found, empty
    when the output is right.  ``expect`` holds the expected values, so a
    test can swap in a wrong one.
    """

    name: str
    run: Callable[[int], Any]
    check: Callable[[Any, dict], list]
    expect: dict


class CliFailure(Exception):
    """The CLI call ended with an exit code other than the expected one."""


def _cli(name: str, argv: list, payload_check, expect: dict, out_dir: str) -> Experiment:
    path = os.path.join(out_dir, f"{name}.json")

    def run(seed: int):
        if os.path.exists(path):
            os.remove(path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--seed", str(seed), "--out", path])
        return code, stderr.getvalue().strip()

    def check(result, expect):
        code, stderr = result
        if code != expect["rc"]:
            raise CliFailure(f"exit code {code}, expected {expect['rc']}: {stderr}")
        with open(path) as handle:
            return payload_check(json.load(handle), expect)

    return Experiment(name, run, check, {"rc": 0, **expect})


# --- checks of CLI reports ---------------------------------------------------

def _check_cycle(payload, expect) -> list:
    if not payload.get("halted"):
        return ["machine did not halt"]
    problems = []
    if payload["verified"] is not True or payload["violations"]:
        problems.append(f"cycle not verified: {payload['violations']}")
    cyc = payload["cycle"]
    s, w, p = cyc["s"], cyc["w"], cyc["p"]
    if s != expect["steps"]:
        problems.append(f"trace has {s} steps, expected {expect['steps']}")
    if p != 2 * s + 2 * w or p % 2:
        problems.append(f"period {p} is not 2s + 2w")
    if cyc["window"] != [s, s + 2 * w]:
        problems.append(f"window {cyc['window']} is not [s, s + 2w)")
    if Fraction(*cyc["alpha_actual"]) < expect["alpha"]:
        problems.append("waiting ratio below the requested alpha")
    return problems


def _check_no_halt(payload, expect) -> list:
    if payload.get("halted") is not False or payload.get("budget_exceeded") is not True:
        return ["non-halting machine not reported as halted: false"]
    return []


def _check_instant(payload, expect) -> list:
    verdict = payload["verdict"]
    problems = []
    if verdict["report"]["inconclusive"]:
        problems.append("verdict is inconclusive")
    if verdict["halts"] is not expect["halts"] or verdict["value"] != expect["value"]:
        problems.append(f"verdict ({verdict['halts']}, {str(verdict['value'])[:20]}) differs "
                        f"from ({expect['halts']}, {str(expect['value'])[:20]})")
    return problems


def _check_profile_periodic(payload, expect) -> list:
    p = expect["p"]
    peak = 1.0 / (p * math.sin(math.pi / (2 * p)))
    problems = []
    if len(payload["amplitudes"]) != p:
        problems.append(f"{len(payload['amplitudes'])} amplitudes, expected {p}")
    if abs(payload["peak_abs"] - peak) > 1e-9 * peak:
        problems.append(f"peak {payload['peak_abs']!r} differs from 1/(p sin(pi/2p)) = {peak!r}")
    if abs(payload["captured"] - 1.0) > 1e-9:
        problems.append(f"captured {payload['captured']!r} differs from 1")
    return problems


def _check_profile_aperiodic(payload, expect) -> list:
    K = expect["K"]
    tail = 2.0 / (math.pi ** 2 * K)
    problems = []
    if len(payload["amplitudes"]) != 2 * K:
        problems.append(f"{len(payload['amplitudes'])} amplitudes, expected {2 * K}")
    if abs((1.0 - payload["captured"]) - tail) > 1e-3 * tail:
        problems.append(f"1 - captured = {1.0 - payload['captured']!r}, expected ~{tail!r}")
    return problems


def _check_stats(payload, expect) -> list:
    rows = payload["stats"]["rows"]
    problems = []
    if [r["p"] for r in rows] != expect["p"]:
        problems.append(f"rows for p = {[r['p'] for r in rows]}, expected {expect['p']}")
    for r in rows:
        target = (1.0 - r["p"] ** -0.5) * expect["m2"]
        if r["trials"] != expect["trials"] or not abs(r["mean"] - target) <= SIGMAS * r["stderr"]:
            problems.append(f"p={r['p']}: mean {r['mean']!r} vs {target!r} "
                            f"(stderr {r['stderr']!r}, trials {r['trials']})")
    return problems


def _check_pack(payload, expect) -> list:
    pack = payload["pack"]
    n, nu = expect["n"], expect["nu"]
    problems = []
    if not (pack["disjoint"] and pack["energy_bound_ok"] and pack["grid_ok"]):
        problems.append("packing not disjoint, over the energy bound, or off the grid")
    if pack["max_energy"] > 4.0 * math.pi * (1.0 + 1e-12):
        problems.append(f"max energy {pack['max_energy']!r} above 4 pi")
    periods = sorted((i["n"], i["m"], i["period"]) for i in pack["instances"])
    if periods != [(k, m, 2 ** nu[k]) for k in range(n + 1) for m in range(2 ** k)]:
        problems.append("instance list differs from 2^n instances of period 2^nu_n per size")
    return problems


def _check_complexity(payload, expect) -> list:
    p, grid = expect["p"], expect["grid"]
    mean_abs = 2.0 * math.pi * ((p - 1) / (2 * p) + 0.5)
    readings = payload["readings"]
    problems = []
    if payload["lower_bound_ok"] is not True:
        problems.append("distance lower bound violated")
    if len(readings) != grid:
        problems.append(f"{len(readings)} readings, expected {grid}")
    if abs(payload["mean_abs_phase"] - mean_abs) > 1e-12 * mean_abs:
        problems.append(f"mean |phase| {payload['mean_abs_phase']!r}, expected {mean_abs!r}")
    if readings and abs(readings[-1][1] - mean_abs) > 1e-12 * mean_abs:
        problems.append("C(1) differs from the mean absolute phase")
    if not isinstance(payload["zero_count"], int) or payload["zero_count"] < 0:
        problems.append(f"bad zero count {payload['zero_count']!r}")
    return problems


def _check_schrodinger(payload, expect) -> list:
    result = payload["obstruction"]
    if result["certificate"] is not expect["certificate"]:
        return [f"certificate is {result['certificate']}, expected {expect['certificate']}"]
    if expect["certificate"] and not (abs(result["kinetic_mismatch"]) > result["tolerance"]
                                      and result["grid_points"] == expect["grid"]):
        return ["certificate mismatch does not clear its tolerance"]
    return []


# --- library experiments -------------------------------------------------------

def _window_mass(p: int, window) -> float:
    """nu of the minimal period-p profile from its closed form
    |a_j|^2 = 1 / (p cos(pi (j - 1/2) / p))^2."""
    j = np.asarray(window, dtype=float)
    return float(np.sum(1.0 / (p * np.cos(np.pi * (j - 0.5) / p)) ** 2))


def _error_free(name: str, spec, word: str, alpha: Fraction, runs: int) -> Experiment:
    trace = hc.run(spec, hc.initial_config(spec, word), 10 ** 5)
    cycle = hc.build_alpha_cycle(trace, alpha, source=f"{spec.name}({word[:8]})")
    profile = hc.halfstep_profile_periodic(cycle.p)
    expected = (0, _increment(word))

    def run(seed):
        return hc.repeat_error_free(cycle, profile, lambda r: r == expected,
                                    np.random.default_rng(seed), runs=runs)

    def check(result, expect):
        counts, summary = result
        nu = expect["nu"]
        tol = SIGMAS * math.sqrt((1.0 - nu) / nu ** 2 / expect["runs"])
        problems = []
        if summary.invalid_results or summary.inconclusive_runs or not summary.chain_ok():
            problems.append(f"{summary.invalid_results} invalid, "
                            f"{summary.inconclusive_runs} inconclusive, chain_ok "
                            f"{summary.chain_ok()}")
        if len(counts) != expect["runs"] or not abs(summary.mean_trials - 1.0 / nu) <= tol:
            problems.append(f"mean trials {summary.mean_trials!r} vs 1/nu = {1.0 / nu!r} "
                            f"over {len(counts)} runs")
        return problems

    return Experiment(name, run, check, {"nu": _window_mass(cycle.p, cycle.window),
                                         "runs": runs})


def _binomial_tail(epsilon: float, m: int) -> float:
    return sum(math.comb(m, k) * (1 - epsilon) ** k * epsilon ** (m - k)
               for k in range((m + 1) // 2, m + 1))


def _error_bounded(name: str, runs: int, m: int = 15) -> Experiment:
    # the criterion-09 profile: valid value at pi = 3/4, three distinct wrong values
    probs = np.array([0.75, 1 / 12, 1 / 12, 1 / 12])
    profile = hc.AmplitudeProfile(amplitudes=np.sqrt(probs).astype(complex),
                                  indices=np.arange(4), captured=1.0, period=4)

    def result_of(j):
        return (0, "ok") if j == 0 else (1, f"w{j}")

    def run(seed):
        rng = np.random.default_rng(seed)
        reports = [hc.run_error_bounded(profile, [0], result_of, m, rng) for _ in range(runs)]
        return (sum(r.result != (0, "ok") for r in reports),
                sum(r.inconclusive for r in reports), reports[-1].error_bound)

    def check(result, expect):
        errors, inconclusive, bound = result
        expected_bound = expect["bound"]
        limit = expected_bound + SIGMAS * math.sqrt(
            expected_bound * (1 - expected_bound) / expect["runs"])
        problems = []
        if abs(bound - expected_bound) > 1e-12:
            problems.append(f"error bound {bound!r}, expected {expected_bound!r}")
        if inconclusive or errors / expect["runs"] > limit:
            problems.append(f"{errors} errors, {inconclusive} inconclusive in "
                            f"{expect['runs']} runs (bound {expected_bound!r})")
        return problems

    return Experiment(name, run, check, {"bound": _binomial_tail(0.75, m), "runs": runs})


def _increment(word: str) -> str:
    return format(int(word, 2) + 1, "b")


# --- the workloads -------------------------------------------------------------

def _halting(out_dir: str, tiny: bool) -> list:
    carry = (5, 10, 20) if tiny else (125, 250, 500)
    long_word = "1" * (10 if tiny else 500)
    budget = 200 if tiny else 20000
    exps = []
    for n in carry:
        exps.append(_cli(f"cycle-incrementer-{n}",
                         ["cycle", "--machine", "incrementer", "--input", "1" * n,
                          "--alpha", "0.75"],
                         _check_cycle, {"steps": 2 * n + 2, "alpha": Fraction(3, 4)}, out_dir))
    pairs = 5 if tiny else 500
    exps.append(_cli("cycle-parity", ["cycle", "--machine", "parity", "--input", "10" * pairs,
                                      "--alpha", "0.5"],
                     _check_cycle, {"steps": 2 * pairs + 1, "alpha": Fraction(1, 2)}, out_dir))
    exps.append(_cli("cycle-unary", ["cycle", "--machine", "unary_successor",
                                     "--input", long_word, "--alpha", "0.5"],
                     _check_cycle, {"steps": len(long_word) + 1, "alpha": Fraction(1, 2)},
                     out_dir))
    exps.append(_cli("cycle-loop", ["cycle", "--machine", "loop", "--budget", str(budget)],
                     _check_no_halt, {"rc": 1}, out_dir))
    instants = [("11", "0.9"), ("111", "0.95")] if tiny else [("11111", "0.99"),
                                                              ("111", "0.995")]
    instants.append((long_word, "0.5"))
    for word, alpha in instants:
        exps.append(_cli(f"instant-incrementer-{len(word)}-{alpha}",
                         ["instant", "--machine", "incrementer", "--input", word,
                          "--alpha", alpha],
                         _check_instant, {"halts": True, "value": _increment(word)}, out_dir))
    K = 1000 if tiny else 10 ** 5
    exps.append(_cli("instant-loop", ["instant", "--machine", "loop", "--budget", str(budget),
                                      "--K", str(K)],
                     _check_instant, {"halts": False, "value": None}, out_dir))
    for p in ((16, 32, 64) if tiny else (1024, 2048, 4096)):
        exps.append(_cli(f"profile-{p}", ["profile", "--period", str(p)],
                         _check_profile_periodic, {"p": p}, out_dir))
    exps.append(_cli("profile-aperiodic", ["profile", "--aperiodic", "--K", str(K)],
                     _check_profile_aperiodic, {"K": K}, out_dir))
    return exps


def _montecarlo(out_dir: str, tiny: bool) -> list:
    trials = {"uniform": 400, "raised-cosine": 200} if tiny else {"uniform": 20000,
                                                                  "raised-cosine": 10000}
    p_list = [16, 64] if tiny else [64, 256, 1024]
    m2 = {"uniform": 1.0 / 3.0, "raised-cosine": 1.0 / 3.0 - 2.0 / math.pi ** 2}
    exps = [
        _cli(f"stats-{density}",
             ["stats", "--p", ",".join(map(str, p_list)), "--density", density,
              "--trials", str(trials[density])],
             _check_stats, {"p": p_list, "m2": m2[density], "trials": trials[density]}, out_dir)
        for density in ("uniform", "raised-cosine")
    ]
    inc = hc.load_machine("incrementer")
    scale = 20 if tiny else 1
    exps.append(_error_free("error-free-p24", inc, "0", Fraction(3, 4), 20000 // scale))
    exps.append(_error_free("error-free-p8", inc, "0", Fraction(1, 10), 5000 // scale))
    exps.append(_error_free("error-free-tape", inc, "1" * (10 if tiny else 250),
                            Fraction(1, 20), 5000 // scale))
    exps.append(_error_bounded("error-bounded-m15", 5000 // scale))
    return exps


def _certify(out_dir: str, tiny: bool) -> list:
    exps = []
    packs = [(2, None), (3, [0, 2, 4, 6])] if tiny else [(4, None), (5, [0, 2, 4, 6, 8, 10])]
    # pack --n 5 with nu_n = n is feasible but the packing heuristic raises
    # CapacityError on it; it stays in the list and counts as a failure.
    packs.append((5, None))
    for n, nu in packs:
        argv = ["pack", "--n", str(n)] + (["--nu", ",".join(map(str, nu))] if nu else [])
        exps.append(_cli(f"pack-{n}" + ("-nu" if nu else ""), argv, _check_pack,
                         {"n": n, "nu": nu or list(range(n + 1))}, out_dir))
    for p, grid in ((16, 300), (32, 256)) if tiny else ((256, 10000), (1024, 8192)):
        exps.append(_cli(f"complexity-{p}", ["complexity", "--period", str(p),
                                             "--grid", str(grid)],
                         _check_complexity, {"p": p, "grid": grid}, out_dir))
    for grid in (64, 256) if tiny else (2048, 8192):
        exps.append(_cli(f"schrodinger-{grid}", ["schrodinger", "--grid", str(grid)],
                         _check_schrodinger, {"certificate": True, "grid": grid}, out_dir))
    exps.append(_cli("schrodinger-identical", ["schrodinger", "--builtin", "identical"],
                     _check_schrodinger, {"certificate": False}, out_dir))
    return exps


def experiments(workload: str, out_dir: str, size: str = "full") -> list:
    """Build the experiment list of ``workload``; part of the timed set-up."""
    builders = {"halting": _halting, "montecarlo": _montecarlo, "certify": _certify}
    return builders[workload](out_dir, size == "tiny")

