"""Self-test of the benchmark harness at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Checks that
  * every end-to-end and per-layer metric named in BENCHMARK.json is
    emitted, with its unit, for every workload;
  * a deliberately wrong expected value makes a round count a failed,
    incorrect experiment, so fail_ratio rises;
  * without the package sources the benchmark exits non-zero and prints
    no result.
Exits non-zero with a message on the first check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out"


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def run_bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)


def check_metrics(bench: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in bench[key]}
        for workload in (w["name"] for w in bench["workloads"]):
            proc = run_bench(ROOT, workload, trace)
            expect(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: "
                                         f"{proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace {trace}: metrics differ from "
                                  f"BENCHMARK.json {key}: {sorted(set(got) ^ set(wanted))}")
            expect(result["attempted"] >= 1 and result["correct"],
                   f"{workload} trace {trace}: {result['failed']} of "
                   f"{result['attempted']} failed, correct {result['correct']}")
            print(f"ok  {workload:<10} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed")


def check_wrong_expectation() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    with tempfile.TemporaryDirectory(dir=SCRATCH) as out_dir:
        exps = workloads.experiments("halting", out_dir, "tiny")
        seeds = range(1, len(exps) + 1)
        clean = worker.run_round(exps, seeds)
        expect(not clean["failures"], f"clean tiny round failed: {clean['failures']}")
        target = next(e for e in exps if e.name.startswith("instant-incrementer"))
        target.expect = dict(target.expect, value="0" + target.expect["value"])
        wrong = worker.run_round(exps, seeds)
    expect(list(wrong["failures"]) == [target.name] and wrong["incorrect"] == 1,
           f"a wrong expected value gave failures {wrong['failures']}")
    print(f"ok  wrong expected value: fail_ratio 0/{len(exps)} -> 1/{len(exps)} "
          f"({target.name}: {wrong['failures'][target.name]})")


def check_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "halting", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print(f"ok  without sources: exit {proc.returncode}, no result")


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(bench)
    check_wrong_expectation()
    check_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
