"""The package namespace exports what the command line, the demos and the
benchmark call."""

import inspect
import re
from pathlib import Path

import halfcycle

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [ROOT / "src" / "halfcycle" / "cli.py",
           *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def test_every_exported_function_and_constant_has_a_caller():
    # classes and exception types are exempt: they are read as types
    exported = [name for name, value in vars(halfcycle).items()
                if not name.startswith("_") and not inspect.ismodule(value)
                and not inspect.isclass(value)]
    text = "\n".join(path.read_text() for path in CALLERS)
    assert [name for name in exported if not re.search(rf"\b{name}\b", text)] == []
