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
    # exception types are exempt: callers catch them without naming them
    exported = [name for name, value in vars(halfcycle).items()
                if not name.startswith("_") and not inspect.ismodule(value)
                and not (inspect.isclass(value) and issubclass(value, BaseException))]
    text = "\n".join(path.read_text() for path in CALLERS)
    assert [name for name in exported if not re.search(rf"\b{name}\b", text)] == []


def test_only_the_command_line_opens_the_check_recorder():
    # one recorder around each command: no module keeps a diagnostics builder of its own
    sources = sorted((ROOT / "src" / "halfcycle").glob("*.py"))
    opens = [path.name for path in sources
             if re.search(r"(?<!def )\brecorded_checks\(", path.read_text())]
    defines = [path.name for path in sources if "def recorded_checks(" in path.read_text()]
    assert (opens, defines) == (["cli.py"], ["errors.py"])
