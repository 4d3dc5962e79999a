"""Rewrite the golden reports of tests/golden from the current source.

    PYTHONPATH=src python tests/golden/regenerate.py

Each report is the ``--out`` file of one ``halfcycle`` command line, kept
byte for byte; ``tests/test_golden.py`` reruns the same command lines and
compares.  Only commands whose bytes depend on no CPU-dispatched sin, cos
or sum kernel are kept here, so the comparison holds on any host.  After
rewriting, the git diff of this directory is the list of reports that
moved.  It exits 1, naming each command line that did not exit 0: a
refused command leaves the old golden in place, and a failed one writes
a report that is no golden.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

GOLDEN = {
    "cycle-incrementer-111.json": ["cycle", "--machine", "incrementer", "--input", "111"],
    "pack-n4.json": ["pack", "--n", "4"],
    "pack-n5.json": ["pack", "--n", "5"],
    "pack-n5-nu2n.json": ["pack", "--n", "5", "--nu", "0,2,4,6,8,10"],
    "complexity-aperiodic-300.json": ["complexity", "--aperiodic", "--grid", "300"],
    "complexity-aperiodic-300.csv": ["complexity", "--aperiodic", "--grid", "300",
                                     "--format", "csv"],
}


def main() -> int:
    from halfcycle.cli import main as cli_main

    failed = []
    for name, argv in GOLDEN.items():
        start = time.perf_counter()
        code = cli_main([*argv, "--out", str(HERE / name)])
        print(f"{name}: exit {code}, {time.perf_counter() - start:.3f} s", file=sys.stderr)
        if code != 0:
            failed.append(f"{name} ({' '.join(argv)}): exit {code}")
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
