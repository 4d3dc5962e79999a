"""Command-line front end: reproducible experiments with file output.

Subcommands: profile, cycle, instant, stats, pack, schrodinger,
complexity.  Every report embeds the seed; one root seed feeds a named
sub-stream per subcommand, so rerunning a command with the same arguments
and seed writes byte-identical output.  Exit code 0 means no check in the
run reported a violation.  Sizes (periods, K, budgets, trials, grids,
majority sizes) obey the size rule of ``errors.check_length``; a
violation exits 2 with an ``error:`` line before anything is built.
"""

from __future__ import annotations

import argparse
import os
import secrets
import sys

import numpy as np

from . import reports
from .complexity import check_lower_bound, complexity, mean_abs_phase, zero_count
from .cycle import build_alpha_cycle, verify_cycle
from .ensemble import get_density, moment_experiment
from .errors import HalfcycleError, PreconditionError, check_length
from .machine import initial_config, load_machine, run
from .measure import halting_demo
from .packing import pack_spectrum
from .schrodinger import (chirped_pair, identical_pair, obstruction_certificate,
                          read_grid_functions)
from .spectral import (aperiodic_spectrum, halfstep_profile_aperiodic,
                       halfstep_profile_periodic, minimal_periodic_spectrum)

_STREAMS = {"profile": 0, "cycle": 1, "instant": 2, "stats": 3, "pack": 4,
            "schrodinger": 5, "complexity": 6}


def _rng_for(seed: int, subcommand: str):
    return np.random.default_rng(np.random.SeedSequence((seed, _STREAMS[subcommand])))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed drawn from system entropy: {seed}", file=sys.stderr)
    return seed


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
    was.  Other paths (a pipe, ``/dev/null``) are written in place."""
    if not out_path:
        writer(*args, sys.stdout.write)
        return
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


def _emit_json(config: dict, body: dict, out_path) -> None:
    """Emit the JSON report: ``config`` without its None values, then ``body``.
    Every config carries ``input_word`` and ``out_format`` ("" and "json"
    unless the command sets them).  The output path stays out, so reruns
    to different files are byte-identical."""
    config = {"input_word": "", "out_format": "json", **config}
    _emit(out_path, reports.write_json,
          {"config": {k: v for k, v in config.items() if v is not None}, **body})


def cmd_profile(args) -> int:
    config = dict(subcommand="profile", period=args.period, truncation=args.K,
                  out_format=args.format, seed=args.seed or 0)
    if args.period is not None:
        check_length("K", args.K)  # unused here, but refused all the same
        profile = halfstep_profile_periodic(args.period)
        peak = args.period // 2
    else:
        profile = halfstep_profile_aperiodic(args.K)
        peak = 1
    if args.format == "csv":
        _emit(args.out, reports.profile_csv, profile)
    else:
        peak_amp = profile.amplitudes[profile.positions([peak])[0]]
        body = {
            "captured": profile.captured,
            "peak_index": peak,
            "peak_abs": float(abs(peak_amp)),
            "amplitudes": reports.Table(profile.indices, profile.amplitudes.real,
                                        profile.amplitudes.imag),
        }
        _emit_json(config, body, args.out)
    return 0


def cmd_cycle(args) -> int:
    config = dict(subcommand="cycle", machine=args.machine, input_word=args.input,
                  alpha=args.alpha, budget=args.budget, seed=args.seed or 0)
    spec = load_machine(args.machine)
    trace = run(spec, initial_config(spec, args.input), args.budget)
    if not trace.halted:
        _emit_json(config, {"halted": False, "budget_exceeded": True}, args.out)
        return 1
    cyc = build_alpha_cycle(trace, args.alpha, source=f"{spec.name}({args.input})")
    report = verify_cycle(cyc)
    body = {"halted": True, "cycle": cyc.to_dict(),
            "verified": report.ok, "violations": list(report.violations),
            "checks": list(report.checks)}
    _emit_json(config, body, args.out)
    return 0 if report.ok else 1


def cmd_instant(args) -> int:
    seed = _resolve_seed(args)
    config = dict(subcommand="instant", machine=args.machine, input_word=args.input,
                  alpha=args.alpha, truncation=args.K, majority=args.majority,
                  budget=args.budget, trials=args.trials, seed=seed)
    spec = load_machine(args.machine)
    rng = _rng_for(seed, "instant")
    verdict = halting_demo(spec, initial_config(spec, args.input), args.budget,
                           args.K, args.alpha, rng, majority_m=args.majority,
                           max_trials=args.trials)
    _emit_json(config, {"verdict": verdict.to_dict()}, args.out)
    return 1 if verdict.report.inconclusive else 0


def cmd_stats(args) -> int:
    seed = _resolve_seed(args)
    p_list = _int_list(args.p, "--p")
    config = dict(subcommand="stats", density=args.density, trials=args.trials,
                  seed=seed, out_format=args.format)
    density = get_density(args.density)
    rng = _rng_for(seed, "stats")
    report = moment_experiment(p_list, density, args.trials, rng)
    if args.format == "csv":
        _emit(args.out, reports.stats_csv, report)
    else:
        _emit_json(config, {"stats": report.to_dict(), "diagnostics": report.diagnostics},
              args.out)
    return 0


def cmd_pack(args) -> int:
    config = dict(subcommand="pack", seed=args.seed or 0)
    nu = _int_list(args.nu, "--nu") if args.nu else None
    packed = pack_spectrum(args.n, nu)
    body = packed.to_dict()
    _emit_json(config, {"pack": body, "diagnostics": packed.diagnostics}, args.out)
    return 0 if body["disjoint"] and body["energy_bound_ok"] and body["grid_ok"] else 1


def cmd_schrodinger(args) -> int:
    config = dict(subcommand="schrodinger", seed=args.seed or 0)
    if args.functions:
        gset = read_grid_functions(args.functions)
    elif args.builtin == "identical":
        gset = identical_pair(grid_points=args.grid)
    else:
        gset = chirped_pair(grid_points=args.grid)
    result = obstruction_certificate(gset)
    _emit_json(config, {"obstruction": result.to_dict()}, args.out)
    return 0


def cmd_complexity(args) -> int:
    config = dict(subcommand="complexity", period=args.period, out_format=args.format,
                  seed=args.seed or 0)
    check_length("grid", args.grid)
    spec = aperiodic_spectrum() if args.aperiodic else minimal_periodic_spectrum(args.period)
    t_grid = np.linspace(0.0, 1.0, args.grid)
    values = complexity(spec, t_grid)
    phase = mean_abs_phase(spec)
    bound = zeros = None
    if not args.aperiodic:
        bound = check_lower_bound(spec, t_grid)
        # zero_count needs 256 samples; coarser grids get their own scan
        zeros = bound.zero_count if args.grid >= 256 else zero_count(spec, 256)
    if args.format == "csv":
        _emit(args.out, reports.complexity_csv, t_grid, values, phase, zeros)
        return 0 if bound is None or bound.ok else 1
    body = {
        "mean_abs_phase": phase,
        "zero_count": zeros,
        "lower_bound_ok": None if bound is None else bound.ok,
        "readings": reports.Table(t_grid, values),
        "diagnostics": None if bound is None else bound.diagnostics,
    }
    _emit_json(config, body, args.out)
    return 0 if bound is None or bound.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfcycle",
        description="Half-cycle measurement experiments on periodic Turing computations",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--out", default=None)

    p = sub.add_parser("profile", help="half-cycle amplitude table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--period", type=int)
    group.add_argument("--aperiodic", action="store_true")
    p.add_argument("--K", type=int, default=1000)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    common(p)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("cycle", help="build and verify a waiting cycle")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--budget", type=int, default=10000)
    common(p)
    p.set_defaults(handler=cmd_cycle)

    p = sub.add_parser("instant", help="halting demo via the retry procedures")
    p.add_argument("--machine", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--K", type=int, default=1000)
    p.add_argument("--majority", type=int, default=15)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--trials", type=int, default=10 ** 6,
                   help="measurement-trial cap before a run is inconclusive")
    common(p)
    p.set_defaults(handler=cmd_instant)

    p = sub.add_parser("stats", help="random-implementation moment experiment")
    p.add_argument("--p", default="64,256,1024")
    p.add_argument("--density", default="uniform")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    common(p)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("pack", help="bounded-energy spectrum packing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--nu", default=None, help="comma-separated exponents")
    common(p)
    p.set_defaults(handler=cmd_pack)

    p = sub.add_parser("schrodinger", help="shared-orbit obstruction certificate")
    p.add_argument("functions", nargs="*", help="CSV files (x, re, im)")
    p.add_argument("--builtin", choices=("chirped", "identical"), default="chirped")
    p.add_argument("--grid", type=int, default=1024)
    common(p)
    p.set_defaults(handler=cmd_schrodinger)

    p = sub.add_parser("complexity", help="evolution-cost readings and zero counts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--period", type=int)
    group.add_argument("--aperiodic", action="store_true")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    common(p)
    p.set_defaults(handler=cmd_complexity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except HalfcycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
