"""One workload run in a fresh process: set up, run rounds, report.

Started by ``run.py``; prints one JSON object as its last stdout line.
Set-up is timed from ``--t0``, the parent's monotonic clock reading taken
just before this process was started, to the moment the experiment list
is built: interpreter start, ``import halfcycle`` (numpy, scipy), machine
loading and input generation from the seed.  With ``--setup-only`` the
process stops there.

The warm-up runs the workload's experiment list once at tiny sizes, which
takes the same code paths (lazy imports included) in a fraction of the
time of a full round; it is not timed and not counted.  Then whole rounds
run until the next one would end past ``--seconds``, with a minimum count.
``round_wall_s`` is the sum over experiments of each experiment's median
wall time across the rounds: a host slowdown that hits one experiment in
one round moves one sample, not the estimate.  The host's speed drifts by
tens of percent over seconds to minutes, so an untraced run also times a
fixed reference kernel (``Reference``): a few times right after set-up,
whose median is ``setup_ref_s``, and between experiments.  ``round_refs``
is the sum over experiments of the median across rounds of each
experiment's wall time divided by the mean of the readings just before
and just after it: the round's cost in reference-kernel times, which
cancels the drift that the program and the kernel share.  ``run.py``
scales both back to seconds.  With ``--trace 1`` traced and untraced
rounds alternate; the traced ones give the per-layer metrics, and the
difference of the two medians of round wall time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import spans  # stdlib only, next to this file

ROOT = Path(__file__).resolve().parents[1]
MIN_ROUNDS = 3
MIN_COVERAGE = 0.9
SETUP_REF_READINGS = 7


class Reference:
    """A fixed kernel owned by the benchmark, timed between experiments to
    read the host's speed at that moment: an interpreter loop, a small
    matrix product, an in-place sort and an in-place pass over 16 MB (more
    than the caches hold), on buffers allocated once, so a call allocates
    nothing.  It does not touch the package, so a change to the package
    cannot change its time."""

    PY_ITERS = 100_000

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((160, 160))
        self.product = np.empty_like(self.a)
        self.src = rng.random(1 << 17)
        self.buf = np.empty_like(self.src)
        self.stream = rng.random(1 << 21)

    def __call__(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(self.PY_ITERS):
            x += i * i
        self.np.matmul(self.a, self.a, out=self.product)
        self.buf[:] = self.src
        self.buf.sort()
        self.np.multiply(self.stream, 1.0, out=self.stream)
        return time.perf_counter() - start


def run_round(exps, seeds, tracer=None, reference=None) -> dict:
    """Run every experiment once, in order.  Returns the round's wall time,
    each experiment's wall time (its output check included), the failed
    experiments with their reasons, and how many of them failed an output
    check (as opposed to raising or exiting with a wrong code).  With a
    ``reference``, it is timed before each experiment and after the last,
    outside the experiments' times, and the readings are returned as
    ``refs``."""
    from workloads import CliFailure

    failures = {}
    incorrect = 0
    times = {}
    refs = []
    start = time.perf_counter()
    for exp, seed in zip(exps, seeds):
        if reference is not None:
            refs.append(reference())
        t_exp = time.perf_counter()
        try:
            result = exp.run(int(seed))
            if tracer is None:
                problems = exp.check(result, exp.expect)
            else:
                problems = tracer.span("bench.check", exp.check, result, exp.expect)
        except CliFailure as exc:
            failures[exp.name] = str(exc)
            continue
        except Exception as exc:  # an experiment that raises counts as failed
            failures[exp.name] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            times[exp.name] = time.perf_counter() - t_exp
        if problems:
            failures[exp.name] = "; ".join(problems)
            incorrect += 1
    if reference is not None:
        refs.append(reference())
    return {"wall_s": time.perf_counter() - start, "times": times, "refs": refs,
            "failures": failures, "incorrect": incorrect}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import halfcycle.cli  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t_import

    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        exps = workloads.experiments(args.workload, str(out_dir), args.size)
        result = {"setup_s": time.monotonic() - args.t0, "import_s": import_s}
        reference = None
        if tracer is None:
            reference = Reference()
            reference()  # first call: cold caches and BLAS start-up
            result["setup_ref_s"] = statistics.median(
                reference() for _ in range(SETUP_REF_READINGS))
        else:
            setup_load_s = spans.round_metrics(tracer.spans, tracer.counts,
                                               1.0)["machine.load.self_s"]
            tracer.uninstall()
            tracer.reset()
        if not args.setup_only:
            warmup = workloads.experiments(args.workload, str(out_dir), "tiny")
            result.update(_measure(args, exps, warmup, tracer, reference))
            if tracer is not None:
                result["layers"]["machine.load.self_s"] += setup_load_s
                result["layers"]["setup.import_s"] = import_s
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _measure(args, exps, warmup, tracer, reference) -> dict:
    import numpy as np

    def seeds(r):
        return np.random.SeedSequence([args.seed, r]).generate_state(len(exps))

    warmup_s = run_round(warmup, seeds(0)[:len(warmup)], reference=reference)["wall_s"]
    rounds, untraced, traced = [], [], []
    elapsed = 0.0
    while True:
        r = len(rounds) + 1
        if tracer is not None and r % 2 == 1:
            tracer.install()
            out = run_round(exps, seeds(r), tracer)
            tracer.uninstall()
            traced.append((out["wall_s"], spans.round_metrics(tracer.spans, tracer.counts,
                                                              out["wall_s"])))
            tracer.reset()
        else:
            out = run_round(exps, seeds(r), reference=reference)
            untraced.append(out)
        rounds.append(out)
        elapsed += out["wall_s"]
        enough = len(untraced) >= MIN_ROUNDS if tracer is None else untraced and traced
        if enough and elapsed + out["wall_s"] > args.seconds:
            break

    failures = {}
    for out in rounds:
        failures.update(out["failures"])
    round_wall_s = sum(statistics.median(out["times"][exp.name] for out in untraced)
                       for exp in exps)
    result = {
        "warmup_s": warmup_s,
        "rounds": len(untraced),
        "round_wall_s": round_wall_s,
        "experiments": len(exps),
        "attempted": len(exps) * len(rounds),
        "failed": sum(len(out["failures"]) for out in rounds),
        "incorrect": sum(out["incorrect"] for out in rounds),
        "failures": failures,
    }
    if reference is not None:
        refs = [ref for out in untraced for ref in out["refs"]]
        result.update(ref_s=statistics.median(refs), ref_samples=len(refs), round_refs=sum(
            statistics.median(2.0 * out["times"][exp.name] / (out["refs"][i] + out["refs"][i + 1])
                              for out in untraced)
            for i, exp in enumerate(exps)))
    if tracer is not None:
        layers = {name: statistics.median(m[name] for _, m in traced) for name in traced[0][1]}
        layers["trace.overhead_s"] = (statistics.median(wall for wall, _ in traced)
                                      - statistics.median(out["wall_s"] for out in untraced))
        result["layers"] = layers
        result["traced_rounds"] = len(traced)
        low = min(m["trace.coverage"] for _, m in traced)
        if low < MIN_COVERAGE:
            failures["trace coverage"] = (f"top-level spans cover {low:.3f} of a traced "
                                          f"round, below {MIN_COVERAGE}")
            result["incorrect"] += 1
    return result


if __name__ == "__main__":
    sys.exit(main())
