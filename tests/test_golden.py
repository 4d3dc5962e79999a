"""Reports kept byte for byte in tests/golden, rerun through ``cli.main``.

``tests/golden/regenerate.py`` lists the command lines and rewrites the
set; a report that moves shows as its diff there."""

import runpy
from pathlib import Path

import pytest

from halfcycle.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = runpy.run_path(str(GOLDEN_DIR / "regenerate.py"))["GOLDEN"]


@pytest.mark.parametrize("name", GOLDEN)
def test_report_matches_its_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_regenerate_exits_1_naming_each_command_that_did_not_exit_0(tmp_path, capsys):
    # a refused command (exit 2) writes nothing and a failed one (exit 1) is no
    # golden; neither may pass as a rewrite
    regenerate = runpy.run_path(str(GOLDEN_DIR / "regenerate.py"))["main"]
    regenerate.__globals__.update(HERE=tmp_path, GOLDEN={
        "ok.json": ["cycle", "--machine", "incrementer", "--input", "1"],
        "refused.json": ["pack", "--n", "-1"],
        "failed.json": ["cycle", "--machine", "loop", "--budget", "10"]})
    assert regenerate() == 1
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("failed: ")]
    assert failed == ["failed: refused.json (pack --n -1): exit 2",
                      "failed: failed.json (cycle --machine loop --budget 10): exit 1"]
    assert (tmp_path / "ok.json").exists()
