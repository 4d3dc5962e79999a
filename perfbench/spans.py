"""Spans around the public functions of each halfcycle layer, and the
per-layer metrics derived from them.

The package re-binds names with ``from .x import y`` (``cli`` holds the
spectral, cycle and machine functions, ``measure`` holds ``nu_of`` and
``cycle_result``, ``complexity`` holds ``overlap_at``), so a wrapper
replaces the function at every module binding, not only at its home
module.  Each span records its name, start, end, parent span and a few
counts read from the call's arguments and return value.  Spans nest as
the calls do; a span's self time is its duration minus the time its
child spans cover.  Per-call counts of per-step and per-draw work come
from return values (trace lengths, trial counts), so those inner calls
are counted without being timed.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict

# Per-layer metrics and their units; BENCHMARK.json lists the same names.
METRICS = {
    "machine.run.self_s": "s",
    "machine.run.calls": "count",
    "machine.steps": "count",
    "machine.tape_cells_copied": "count",
    "machine.load.self_s": "s",
    "cycle.build.self_s": "s",
    "cycle.verify.self_s": "s",
    "cycle.states": "count",
    "cycle.verify.violations": "count",
    "cycle.result.calls": "count",
    "cycle.result.self_s": "s",
    "cycle.verify.size_exponent": "1",
    "spectral.profile_periodic.self_s": "s",
    "spectral.profile_periodic.points": "count",
    "spectral.overlap_at.self_s": "s",
    "spectral.overlap_at.entries": "count",
    "spectral.overlap_at.bytes_computed": "B",
    "spectral.profile_aperiodic.self_s": "s",
    "spectral.nu_of.self_s": "s",
    "spectral.profile_periodic.size_exponent": "1",
    "measure.halting_demo.self_s": "s",
    "measure.error_free.self_s": "s",
    "measure.error_bounded.self_s": "s",
    "measure.runs": "count",
    "measure.trials": "count",
    "measure.o_ones": "count",
    "measure.accepted": "count",
    "measure.success_per_trial": "1",
    "measure.us_per_trial": "us",
    "measure.inconclusive": "count",
    "ensemble.moment.uniform.self_s": "s",
    "ensemble.moment.raised_cosine.self_s": "s",
    "ensemble.samples": "count",
    "ensemble.ns_per_sample": "ns",
    "packing.pack.self_s": "s",
    "packing.verify.self_s": "s",
    "packing.points": "count",
    "packing.capacity_errors": "count",
    "packing.parity_compliance": "1",
    "complexity.bound.self_s": "s",
    "complexity.bound.points": "count",
    "complexity.zero_count.self_s": "s",
    "complexity.gauge.calls": "count",
    "schrodinger.certificate.self_s": "s",
    "schrodinger.grid_points": "count",
    "schrodinger.certificate.size_exponent": "1",
    "cli.main.self_s": "s",
    "cli.cycle.s": "s",
    "cli.instant.s": "s",
    "cli.profile.s": "s",
    "cli.stats.s": "s",
    "cli.pack.s": "s",
    "cli.complexity.s": "s",
    "cli.schrodinger.s": "s",
    "reports.render.self_s": "s",
    "reports.bytes_out": "B",
    "bench.check.self_s": "s",
    "setup.import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "1",
}

SUBCOMMANDS = ("cycle", "instant", "profile", "stats", "pack", "complexity", "schrodinger")


def _run_report(args, kwargs, report):
    return {"runs": 1, "trials": report.trials, "o_ones": report.o_one_count,
            "accepted": int(not report.inconclusive), "inconclusive": int(report.inconclusive)}


def _trace_counts(args, kwargs, trace):
    return {"steps": trace.n_steps, "cells": sum(len(c.tape) for c in trace.steps)}


def _overlap_entries(args, kwargs, values):
    spec, u = args[0], args[1]
    size = getattr(u, "size", None)
    return {"entries": (1 if size is None else int(size)) * int(spec.phases.size)}


def _moment(args, kwargs, report):
    p_list, density, trials = args[0], args[1], args[2]
    return {"density": density.name, "samples": sum(p_list) * trials}


def _bound_points(args, kwargs, report):
    return {"points": report.n_points * int(args[0].phases.size)}


def _packed_points(args, kwargs, packed):
    return {"points": sum(inst.period for inst in packed.instances)}


# (module, attribute, span name, counts read from the call).  A class
# attribute is written "Class.method".
TARGETS = [
    ("halfcycle.machine", "run", "machine.run", _trace_counts),
    ("halfcycle.machine", "load_machine", "machine.load", None),
    ("halfcycle.cycle", "build_alpha_cycle", "cycle.build", lambda a, k, c: {"size": c.p}),
    ("halfcycle.cycle", "verify_cycle", "cycle.verify",
     lambda a, k, r: {"size": r.p, "violations": len(r.violations)}),
    ("halfcycle.cycle", "cycle_result", "cycle.result", None),
    ("halfcycle.spectral", "halfstep_profile_periodic", "spectral.profile_periodic",
     lambda a, k, prof: {"size": prof.period}),
    ("halfcycle.spectral", "halfstep_profile_aperiodic", "spectral.profile_aperiodic", None),
    ("halfcycle.spectral", "overlap_at", "spectral.overlap_at", _overlap_entries),
    ("halfcycle.spectral", "nu_of", "spectral.nu_of", None),
    ("halfcycle.measure", "halting_demo", "measure.halting_demo", None),
    ("halfcycle.measure", "repeat_error_free", "measure.error_free", None),
    ("halfcycle.measure", "run_error_free", "measure.error_free", _run_report),
    ("halfcycle.measure", "run_error_bounded", "measure.error_bounded", _run_report),
    ("halfcycle.ensemble", "moment_experiment", "ensemble.moment", _moment),
    ("halfcycle.packing", "pack_spectrum", "packing.pack", _packed_points),
    ("halfcycle.packing", "PackedSpectra.to_dict", "packing.verify",
     lambda a, k, d: {"parity": d["parity_compliance"]}),
    ("halfcycle.complexity", "check_lower_bound", "complexity.bound", _bound_points),
    ("halfcycle.complexity", "zero_count", "complexity.zero_count", None),
    ("halfcycle.schrodinger", "obstruction_certificate", "schrodinger.certificate",
     lambda a, k, r: {"size": a[0].size}),
    ("halfcycle.cli", "main", "cli.main",
     lambda a, k, rc: {"subcommand": (a[0] if a else k["argv"])[0]}),
    ("halfcycle.reports", "render_json", "reports.render", lambda a, k, s: {"bytes": len(s)}),
]
# Called once per grid point: counted, not timed.
COUNTED = [("halfcycle.complexity", "complexity", "complexity.gauge")]


class Tracer:
    """Records spans in memory while installed.

    ``spans`` holds [name, start, end, parent index, counts] lists;
    ``counts`` holds the calls of counted-only functions.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._undo: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def _timed(self, name, fn, note):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = time.perf_counter()
                record[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            record[2] = time.perf_counter()
            if note is not None:
                record[4] = note(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span of the harness's own."""
        return self._timed(name, fn, None)(*args)

    def install(self) -> None:
        """Wrap every target at every binding in the loaded halfcycle modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "halfcycle" or n.startswith("halfcycle."))]
        wraps = [(mod, attr, name, note, False) for mod, attr, name, note in TARGETS]
        wraps += [(mod, attr, name, None, True) for mod, attr, name in COUNTED]
        for modname, attr, name, note, counted in wraps:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                bindings = [owner]
            else:
                bindings = modules
            original = owner.__dict__[attr]
            wrapper = self._counted(name, original) if counted else \
                self._timed(name, original, note)
            for holder in bindings:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo = []


def _slope(points) -> float:
    """Least-squares slope of log(duration) against log(size); 0 when the
    calls span fewer than two sizes."""
    pts = [(math.log(size), math.log(dur)) for size, dur in points if size > 0 and dur > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*pts)).slope


def round_metrics(spans: list, counts: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced round from its spans and counts."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)
    sizes = defaultdict(list)
    top = 0.0
    for i, (name, start, end, parent, note) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - child[i]
        calls[name] += 1
        if parent is None:
            top += dur
        note = note or {}
        for key, value in note.items():
            if key == "size":
                sizes[name].append((value, dur))
            elif key == "subcommand":
                total[f"cli.{value}.s"] += dur
            elif key == "density":
                self_s[f"ensemble.moment.{value.replace('-', '_')}"] += dur - child[i]
            elif key == "error":
                total[f"{name}.{value}"] += 1
            else:
                total[f"{name}.{key}"] += value
    m = {
        "machine.run.self_s": self_s["machine.run"],
        "machine.run.calls": calls["machine.run"],
        "machine.steps": total["machine.run.steps"],
        "machine.tape_cells_copied": total["machine.run.cells"],
        "machine.load.self_s": self_s["machine.load"],
        "cycle.build.self_s": self_s["cycle.build"],
        "cycle.verify.self_s": self_s["cycle.verify"],
        "cycle.states": sum(p for p, _ in sizes["cycle.build"]),
        "cycle.verify.violations": total["cycle.verify.violations"],
        "cycle.result.calls": calls["cycle.result"],
        "cycle.result.self_s": self_s["cycle.result"],
        "cycle.verify.size_exponent": _slope(sizes["cycle.verify"]),
        "spectral.profile_periodic.self_s": self_s["spectral.profile_periodic"],
        "spectral.profile_periodic.points": sum(p for p, _ in sizes["spectral.profile_periodic"]),
        "spectral.overlap_at.self_s": self_s["spectral.overlap_at"],
        "spectral.overlap_at.entries": total["spectral.overlap_at.entries"],
        # complex128 entries of the dense phase matrix, as computed (not measured traffic)
        "spectral.overlap_at.bytes_computed": 16 * total["spectral.overlap_at.entries"],
        "spectral.profile_aperiodic.self_s": self_s["spectral.profile_aperiodic"],
        "spectral.nu_of.self_s": self_s["spectral.nu_of"],
        "spectral.profile_periodic.size_exponent": _slope(sizes["spectral.profile_periodic"]),
        "measure.halting_demo.self_s": self_s["measure.halting_demo"],
        "measure.error_free.self_s": self_s["measure.error_free"],
        "measure.error_bounded.self_s": self_s["measure.error_bounded"],
        "measure.inconclusive": (total["measure.error_free.inconclusive"]
                                 + total["measure.error_bounded.inconclusive"]),
        "ensemble.moment.uniform.self_s": self_s["ensemble.moment.uniform"],
        "ensemble.moment.raised_cosine.self_s": self_s["ensemble.moment.raised_cosine"],
        "ensemble.samples": total["ensemble.moment.samples"],
        "packing.pack.self_s": self_s["packing.pack"],
        "packing.verify.self_s": self_s["packing.verify"],
        "packing.points": total["packing.pack.points"],
        "packing.capacity_errors": total["packing.pack.CapacityError"],
        "packing.parity_compliance": (total["packing.verify.parity"] / calls["packing.verify"]
                                      if calls["packing.verify"] else 0.0),
        "complexity.bound.self_s": self_s["complexity.bound"],
        "complexity.bound.points": total["complexity.bound.points"],
        "complexity.zero_count.self_s": self_s["complexity.zero_count"],
        "complexity.gauge.calls": counts.get("complexity.gauge", 0),
        "schrodinger.certificate.self_s": self_s["schrodinger.certificate"],
        "schrodinger.grid_points": sum(g for g, _ in sizes["schrodinger.certificate"]),
        "schrodinger.certificate.size_exponent": _slope(sizes["schrodinger.certificate"]),
        "cli.main.self_s": self_s["cli.main"],
        "reports.render.self_s": self_s["reports.render"],
        "reports.bytes_out": total["reports.render.bytes"],
        "bench.check.self_s": self_s["bench.check"],
        "trace.coverage": top / wall_s,
    }
    for key in ("runs", "trials", "o_ones", "accepted"):
        m[f"measure.{key}"] = (total[f"measure.error_free.{key}"]
                               + total[f"measure.error_bounded.{key}"])
    m["measure.success_per_trial"] = (m["measure.accepted"] / m["measure.trials"]
                                      if m["measure.trials"] else 0.0)
    busy = m["measure.error_free.self_s"] + m["measure.error_bounded.self_s"]
    m["measure.us_per_trial"] = 1e6 * busy / m["measure.trials"] if m["measure.trials"] else 0.0
    moment = m["ensemble.moment.uniform.self_s"] + m["ensemble.moment.raised_cosine.self_s"]
    m["ensemble.ns_per_sample"] = (1e9 * moment / m["ensemble.samples"]
                                   if m["ensemble.samples"] else 0.0)
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = total[f"cli.{sub}.s"]
    return m
