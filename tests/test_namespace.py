"""The package namespace exports what the command line, the demos and the
benchmark call."""

import ast
import inspect
import re
from pathlib import Path

import halfcycle

ROOT = Path(__file__).resolve().parents[1]
CALLERS = [ROOT / "src" / "halfcycle" / "cli.py",
           *sorted((ROOT / "demos").glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]


def reached_names(path):
    """The package names ``path`` reaches: through ``from .<module> import
    name`` (the command line), ``from halfcycle import name``, or ``X.name``
    where ``import halfcycle [as X]`` binds X."""
    tree = ast.parse(path.read_text())
    names, packages = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and ((node.level, node.module) == (0, "halfcycle")
                                                 or (node.level == 1 and node.module)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            packages.update(alias.asname or alias.name for alias in node.names
                            if alias.name == "halfcycle")
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id in packages)
    return names


def test_every_exported_function_and_constant_has_a_caller():
    # exception types are exempt: callers catch them without naming them
    exported = [name for name, value in vars(halfcycle).items()
                if not name.startswith("_") and not inspect.ismodule(value)
                and not (inspect.isclass(value) and issubclass(value, BaseException))]
    reached = set().union(*map(reached_names, CALLERS))
    assert [name for name in exported if name not in reached] == []


def test_only_the_command_line_opens_the_check_recorder():
    # one recorder around each command: no module keeps a diagnostics builder of its own
    sources = sorted((ROOT / "src" / "halfcycle").glob("*.py"))
    opens = [path.name for path in sources
             if re.search(r"(?<!def )\brecorded_checks\(", path.read_text())]
    defines = [path.name for path in sources if "def recorded_checks(" in path.read_text()]
    assert (opens, defines) == (["cli.py"], ["errors.py"])


def rule_calls(rule):
    """``file:function`` of every call of ``rule`` in the package, and the
    files that define a function of that name."""
    defines, calls = [], []
    for path in sorted((ROOT / "src" / "halfcycle").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                defines += [path.name] if func.name == rule else []
                calls += [f"{path.name}:{func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.Call) and getattr(node.func, "id", None)
                          == rule]
    return defines, sorted(calls)


def test_one_run_rule_reads_every_window():
    # a window or a profile's index set is one run, read by errors.check_run
    # alone; no module keeps an index-list reader or a positions helper of its own
    assert rule_calls("check_run") == (["errors.py"], [
        "ensemble.py:nu_from_y", "spectral.py:__post_init__", "spectral.py:nu_of"])
    assert [rule_calls(name)[0] for name in ("check_indices", "positions")] == [[], []]


def test_one_ratio_rule_reads_every_alpha():
    # a waiting ratio from outside is read by errors.check_ratio, which no
    # module imports from cycle; no module imports a private name of cycle
    assert rule_calls("check_ratio") == (["errors.py"], [
        "cli.py:cmd_cycle", "cycle.py:build_alpha_cycle", "cycle.py:centered_window",
        "measure.py:halting_demo"])
    private = [f"{path.name}:{alias.name}"
               for path in sorted((ROOT / "src" / "halfcycle").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and node.module == "cycle"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_one_readout_draws_every_measurement():
    # AmplitudeProfile.draw is the one inverse-CDF draw: no other module
    # defines a draw or reads a profile's CDF; measure takes cycle indices
    # from the draw, never array positions, and halting_demo runs one procedure
    draws, cdf_readers, offsets, procedure_calls = [], set(), [], None
    for path in sorted((ROOT / "src" / "halfcycle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and "draw" in node.name:
                draws.append(f"{path.name}:{node.name}")
            if isinstance(node, ast.Attribute) and node.attr in ("cdf", "_cdf"):
                cdf_readers.add(path.name)
            base = getattr(node, "value", None)
            if path.name == "measure.py" and "indices" in (getattr(base, "attr", None),
                                                          getattr(base, "id", None)):
                if isinstance(node, ast.Subscript) or getattr(node, "attr", None) == "start":
                    offsets.append(ast.unparse(node))
            if isinstance(node, ast.FunctionDef) and node.name == "halting_demo":
                procedure_calls = [ast.unparse(call.func) for call in ast.walk(node)
                                   if isinstance(call, ast.Call)
                                   and getattr(call.func, "id", None) == "run_error_bounded"]
    assert (draws, cdf_readers) == (["spectral.py:draw"], {"spectral.py"})
    assert offsets == [] and procedure_calls == ["run_error_bounded"]


def test_the_readme_self_check_table_names_every_check():
    # a row is named by the text a report carries in diagnostics.checks[].check,
    # before " at ...": the literal start of check_residual's first argument
    named = set()
    for path in sorted((ROOT / "src" / "halfcycle").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_residual":
                what = node.args[0]
                literal = what.values[0] if isinstance(what, ast.JoinedStr) else what
                named.add(literal.value.split(" at ")[0])
    section = (ROOT / "README.md").read_text().split("\n## Self-checks\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE)
    assert sorted(rows) == sorted(named) and named
