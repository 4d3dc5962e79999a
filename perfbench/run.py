"""halfcycle benchmark: its workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload halting --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Workloads (see perfbench/README.md): ``halting``, ``montecarlo``,
``certify``.  Run from the root of a source checkout; the package is
imported from ``src/``, nothing is installed.

Each run starts the workload in a fresh Python process (``worker.py``),
so peak RSS and set-up time belong to that workload alone; one client in
that process runs the experiment list round after round, closed loop.
The host's speed drifts, so ``setup_s`` and ``round_s`` are wall times
scaled to a host on which the benchmark's reference kernel, timed in the
same process, takes REF_S; the raw wall times are printed too.
BLAS and OpenMP use THREADS threads.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of the traced rounds.  Exit code 0 means a result was printed;
``correct`` is false when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans  # stdlib only, next to this file

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("halting", "montecarlo", "certify")
THREADS = 1
SETUPS = 7            # set-up samples per run, half before and half after
                      # the measured process; setup_s is their median
DEADLINE_S = 170.0    # one workload's run, set-up processes included
REF_S = 0.010         # reference-kernel time that setup_s and round_s are
                      # scaled to (worker.Reference, about its quiet reading
                      # on a 2-vCPU VM)


def _worker(args, workload: str, extra: list, deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0", NUMPY_MADVISE_HUGEPAGE="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--t0", repr(t0), *extra]
    # subprocess.run kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - t0), check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str) -> int:
    """Run one workload, print its metrics; the last line is the JSON result."""
    deadline = time.monotonic() + DEADLINE_S

    def setup_samples(count):
        return [] if args.trace else [
            _worker(args, workload, ["--setup-only"], deadline) for _ in range(count)]

    try:
        before = setup_samples(SETUPS // 2)
        out = _worker(args, workload, [], deadline)
        setups = [*before, out, *setup_samples(SETUPS - 1 - SETUPS // 2)]
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {workload} workload process failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {workload}  seed {args.seed}  size {args.size}  "
          f"{out['experiments']} experiments per round  "
          f"BLAS/OpenMP threads {THREADS} (nproc {os.cpu_count()})")
    for name, reason in sorted(out["failures"].items()):
        print(f"  FAILED {name}: {reason}")
    print(f"fail_ratio  {failed / attempted:.4f}  ({failed} failed / {attempted} attempted, "
          f"warm-up not counted)")
    if args.trace:
        print(f"traced rounds {out['traced_rounds']}, untraced rounds {out['rounds']}")
        metrics = {name: {"value": out["layers"][name], "unit": unit}
                   for name, unit in spans.METRICS.items()}
    else:
        setup_s = statistics.median(o["setup_s"] * REF_S / o["setup_ref_s"] for o in setups)
        round_s = out["round_refs"] * REF_S
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "1"},
        }
        print(f"setup_s      {setup_s:.4f} s  (median of {len(setups)} set-ups, each scaled "
              f"by {REF_S * 1e3:g} ms / its reference reading)")
        print(f"setup_wall_s {statistics.median(o['setup_s'] for o in setups):.4f} s  "
              f"(median of {len(setups)}; import {out['import_s']:.4f} s in the measured one)")
        print(f"round_s      {round_s:.4f} s  ({out['round_refs']:.2f} reference-kernel times "
              f"× {REF_S * 1e3:g} ms; reference median {out['ref_s'] * 1e3:.3f} ms over "
              f"{out['ref_samples']} readings)")
        print(f"round_wall_s {out['round_wall_s']:.4f} s  (sum of per-experiment medians over "
              f"{out['rounds']} rounds; tiny-size warm-up {out['warmup_s']:.4f} s excluded)")
    for name, metric in metrics.items():
        if name not in ("setup_s", "round_s"):
            print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": out["incorrect"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                    help="all: every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for the harness self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "halfcycle" / "__init__.py").is_file():
        print(f"error: no halfcycle package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(args, workload)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
