"""Every benchmark experiment runs once, at the tiny size, and passes its
own output check: a change that breaks a call the benchmark makes, or the
output it checks, fails here rather than in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass resolves annotations through it
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("workload", NAMES)
def test_each_tiny_experiment_passes_its_check(workload, tmp_path):
    problems = {exp.name: exp.check(exp.run(1), exp.expect)
                for exp in WORKLOADS.experiments(workload, str(tmp_path), "tiny")}
    assert problems and not any(problems.values()), problems
