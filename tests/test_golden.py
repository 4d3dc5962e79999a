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
