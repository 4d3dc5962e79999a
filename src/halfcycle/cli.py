"""Command-line front end: reproducible experiments with file output.

Subcommands: profile, cycle, instant, stats, pack, schrodinger,
complexity.  Every JSON report records its parsed arguments and its seed
as ``config``, so rerunning a command with those arguments writes
byte-identical output.  ``main`` settles the seed before a command runs:
a given seed must be a nonnegative integer.  The two commands that draw,
``instant`` and ``stats``, take a seed from system entropy when none is
given and print it, and each draws from its own sub-stream of the seed;
the other commands record seed 0 when none is given.  Exit code 0 means
no check in the run reported a violation.  Sizes (periods, K, budgets,
trials, grids, majority sizes) obey the size rule of
``errors.check_length``; a violation exits 2 with an ``error:`` line
before anything is built, as does an unwritable ``--out``.  Each command runs inside the one
``errors.recorded_checks``; its JSON report lists what that held under
``diagnostics``.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import secrets
import sys

import numpy as np

from . import reports
from .complexity import APERIODIC_MEAN_ABS_PHASE, check_lower_bound, complexity, zero_count
from .cycle import build_alpha_cycle, verify_cycle
from .ensemble import get_density, moment_experiment
from .errors import (HalfcycleError, PreconditionError, check_length, check_ratio,
                     recorded_checks)
from .machine import initial_config, load_machine, run
from .measure import halting_demo
from .packing import pack_spectrum
from .schrodinger import (chirped_pair, identical_pair, obstruction_certificate,
                          read_grid_functions)
from .spectral import (halfstep_profile_aperiodic, halfstep_profile_periodic,
                       minimal_periodic_spectrum)

# each drawing command's sub-stream; renumbering one would change every seed's draws
_STREAMS = {"instant": 2, "stats": 3}
# what a report's config leaves out: the run's own objects and the paths,
# so reruns to (or from) other files write the same bytes
_UNRECORDED = {"handler", "checks", "rng", "out", "functions"}


def _int_list(text: str, flag: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise PreconditionError(
            f"{flag} {text!r} is not a comma-separated list of integers") from None


def _emit(out_path, writer, *args) -> None:
    """Write one report, ``writer(*args, write)``, to ``out_path`` or, with
    no path, to stdout.  A regular file is written whole or not at all: the
    report goes to a new file beside it, which replaces it once written and
    is removed if writing fails, so a failed run leaves the old file as it
    was.  Other paths (a pipe, ``/dev/null``) are written in place.  An
    OSError of the file becomes a PreconditionError that names the path."""
    if not out_path:
        writer(*args, sys.stdout.write)
        return
    try:
        if os.path.exists(out_path) and not os.path.isfile(out_path):
            with open(out_path, "w", newline="") as handle:
                writer(*args, handle.write)
            return
        target = os.path.realpath(out_path)
        # mode "x", not tempfile.mkstemp, so the report keeps the umask's mode
        temp = f"{target}.{secrets.token_hex(8)}.tmp"
        try:
            with open(temp, "x", newline="") as handle:
                writer(*args, handle.write)
            os.replace(temp, target)
        except BaseException:
            if os.path.exists(temp):
                os.remove(temp)
            raise
    except OSError as exc:
        raise PreconditionError(
            f"cannot write report to {out_path!r}: {exc.strerror or exc}") from None


def _emit_json(args, body: dict, **diagnostics) -> None:
    """Emit the JSON report: ``config``, ``body`` and ``diagnostics``.
    ``config`` is the parsed arguments, seed included, less those in
    ``_UNRECORDED`` and those that are None.  ``diagnostics`` holds
    ``checks`` beside the command's own keyword ``diagnostics``; ``checks``
    has one entry per check name that the command's recorder
    (``args.checks``) held, in the order each first ran: its runs, the
    points they checked and their largest residual."""
    config = {k: v for k, v in vars(args).items() if k not in _UNRECORDED and v is not None}
    runs = {}
    for what, points, residual in args.checks:
        runs.setdefault(what, []).append((points, residual))
    checks = [{"check": what, "runs": len(r), "points": sum(n for n, _ in r),
               "max_residual": max(x for _, x in r)} for what, r in runs.items()]
    _emit(args.out, reports.write_json,
          {"config": config, **body,
           "diagnostics": {"checks": checks, **diagnostics}})


def cmd_profile(args) -> int:
    if args.period is not None:
        check_length("K", args.truncation)  # unused here, but refused all the same
        profile = halfstep_profile_periodic(args.period)
        peak = args.period // 2
    else:
        profile = halfstep_profile_aperiodic(args.truncation)
        peak = 1
    if args.out_format == "csv":
        _emit(args.out, reports.profile_csv, profile)
    else:
        peak_amp = profile.amplitudes[peak - profile.indices.start]
        body = {
            "captured": profile.captured,
            "peak_index": peak,
            "peak_abs": float(abs(peak_amp)),
            "amplitudes": reports.Table(profile.indices, profile.amplitudes.real,
                                        profile.amplitudes.imag),
        }
        _emit_json(args, body)
    return 0


def cmd_cycle(args) -> int:
    spec = load_machine(args.machine)
    check_ratio(args.alpha)  # refused whether or not the machine halts
    trace = run(spec, initial_config(spec, args.input_word), args.budget)
    if not trace.halted:
        _emit_json(args, {"halted": False, "budget_exceeded": True})
        return 1
    cyc = build_alpha_cycle(trace, args.alpha, source=f"{spec.name}({args.input_word})")
    report = verify_cycle(cyc)
    body = {"halted": True, "cycle": cyc.to_dict(),
            "verified": report.ok, "violations": list(report.violations),
            "checks": list(report.checks)}
    _emit_json(args, body)
    return 0 if report.ok else 1


def cmd_instant(args) -> int:
    spec = load_machine(args.machine)
    verdict = halting_demo(spec, initial_config(spec, args.input_word), args.budget,
                           args.truncation, args.alpha, args.rng, majority_m=args.majority,
                           max_trials=args.trials)
    _emit_json(args, {"verdict": verdict.to_dict()})
    return 1 if verdict.report.inconclusive else 0


def cmd_stats(args) -> int:
    p_list = _int_list(args.p, "--p")
    density = get_density(args.density)
    report = moment_experiment(p_list, density, args.trials, args.rng)
    if args.out_format == "csv":
        _emit(args.out, reports.stats_csv, report)
    else:
        _emit_json(args, {"stats": report.to_dict()})
    return 0


def cmd_pack(args) -> int:
    nu = _int_list(args.nu, "--nu") if args.nu is not None else None
    packed = pack_spectrum(args.n, nu)
    body = packed.to_dict()
    _emit_json(args, {"pack": body}, solver=packed.diagnostics)
    return 0 if body["disjoint"] and body["energy_bound_ok"] and body["grid_ok"] else 1


def cmd_schrodinger(args) -> int:
    check_length("grid", args.grid, 8)  # unused with files, but refused all the same
    if args.functions:
        gset = read_grid_functions(args.functions)
    elif args.builtin == "identical":
        gset = identical_pair(grid_points=args.grid)
    else:
        gset = chirped_pair(grid_points=args.grid)
    result = obstruction_certificate(gset)
    _emit_json(args, {"obstruction": result.to_dict()})
    return 0


def cmd_complexity(args) -> int:
    check_length("grid", args.grid)
    t_grid = np.linspace(0.0, 1.0, args.grid)
    bound = zeros = None
    if args.period is not None:
        spec = minimal_periodic_spectrum(args.period)
        phase, values = spec.mean_abs_phase, complexity(spec, t_grid)
        bound = check_lower_bound(spec, t_grid)
        # zero_count needs 256 samples; coarser grids get their own scan
        zeros = bound.zero_count if args.grid >= 256 else zero_count(spec, 256)
    else:  # a non-halting orbit has no point spectrum, only its mean |phase|
        phase = APERIODIC_MEAN_ABS_PHASE
        values = t_grid * phase
    if args.out_format == "csv":
        _emit(args.out, reports.complexity_csv, t_grid, values, phase, zeros)
    else:
        body = {
            "mean_abs_phase": phase,
            "zero_count": zeros,
            "lower_bound_ok": None if bound is None else bound.ok,
            "readings": reports.Table(t_grid, values),
        }
        _emit_json(args, body, lower_bound=None if bound is None else {
            "max_slack_violation": bound.max_slack_violation, "worst_t": bound.worst_t})
    return 0 if bound is None or bound.ok else 1


@functools.cache  # once, at the first call rather than at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfcycle",
        description="Half-cycle measurement experiments on periodic Turing computations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # each flag two or more subcommands share is defined once, in a parent parser
    common, machine_run, truncation, out_format, spectrum = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    common.add_argument("--seed", type=int)
    common.add_argument("--out", default=None)
    machine_run.add_argument("--machine", required=True)
    machine_run.add_argument("--input", default="", dest="input_word")
    machine_run.add_argument("--alpha", type=float, default=0.75)
    machine_run.add_argument("--budget", type=int, default=10000)
    truncation.add_argument("--K", type=int, default=1000, dest="truncation")
    out_format.add_argument("--format", choices=("csv", "json"), default="json",
                            dest="out_format")
    group = spectrum.add_mutually_exclusive_group(required=True)
    group.add_argument("--period", type=int)
    group.add_argument("--aperiodic", action="store_true")

    def command(name, handler, summary, *parents):
        p = sub.add_parser(name, parents=[*parents, common], help=summary)
        p.set_defaults(handler=handler)
        return p

    command("profile", cmd_profile, "half-cycle amplitude table",
            spectrum, truncation, out_format)
    command("cycle", cmd_cycle, "build and verify a waiting cycle", machine_run)
    p = command("instant", cmd_instant, "halting demo via the retry procedures",
                machine_run, truncation)
    p.add_argument("--majority", type=int, default=15)
    p.add_argument("--trials", type=int, default=10 ** 6,
                   help="measurement-trial cap before a run is inconclusive")
    p = command("stats", cmd_stats, "random-implementation moment experiment", out_format)
    p.add_argument("--p", default="64,256,1024")
    p.add_argument("--density", default="uniform")
    p.add_argument("--trials", type=int, default=100000)
    p = command("pack", cmd_pack, "bounded-energy spectrum packing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", default=None, help="comma-separated exponents")
    p = command("schrodinger", cmd_schrodinger, "shared-orbit obstruction certificate")
    p.add_argument("functions", nargs="*", help="CSV files (x, re, im)")
    p.add_argument("--builtin", choices=("chirped", "identical"), default="chirped")
    p.add_argument("--grid", type=int, default=1024)
    p = command("complexity", cmd_complexity, "evolution-cost readings and zero counts",
                spectrum, out_format)
    p.add_argument("--grid", type=int, default=1024)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None:
            check_length("seed", args.seed, 0, cap=math.inf)
        if args.subcommand in _STREAMS:
            if args.seed is None:
                args.seed = secrets.randbits(63)
                print(f"seed drawn from system entropy: {args.seed}", file=sys.stderr)
            args.rng = np.random.default_rng(
                np.random.SeedSequence((args.seed, _STREAMS[args.subcommand])))
        elif args.seed is None:
            args.seed = 0
        with recorded_checks() as args.checks:
            return args.handler(args)
    except HalfcycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
