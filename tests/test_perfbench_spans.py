"""The benchmark's span tracer binds to every function it wraps."""

import importlib.util
import sys
from pathlib import Path

import halfcycle.cli  # noqa: F401  (loads every halfcycle module the tracer wraps)
from halfcycle import initial_config, load_machine, run

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _home(modname, attr):
    owner = sys.modules[modname]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_installs_and_uninstalls_on_the_package():
    # a wrapped function that is renamed or deleted fails here, not in a
    # traced benchmark run
    spans = _load_spans()
    targets = [(mod, attr) for mod, attr, *_ in spans.TARGETS + spans.COUNTED]
    originals = [_home(mod, attr) for mod, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (mod, attr), original in zip(targets, originals):
            assert _home(mod, attr).__wrapped__ is original, f"{mod}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    assert [_home(mod, attr) for mod, attr in targets] == originals


def test_trace_counts_read_the_trace():
    # the traced mode counts steps and tape cells off every ``run`` result;
    # a renamed trace field fails here, not in a traced benchmark run
    inc = load_machine("incrementer")
    trace = run(inc, initial_config(inc, "0"), 100)
    assert _load_spans()._trace_counts((), {}, trace) == {"steps": 3, "cells": 4}
