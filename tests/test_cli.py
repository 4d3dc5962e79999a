"""CLI: subcommand behavior, file output, seeded determinism."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import halfcycle
from halfcycle import (halfstep_profile_aperiodic, halfstep_profile_periodic, overlap_at,
                       reports)
from halfcycle.cli import main


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


def fmt(x) -> str:
    """Reference CSV text of one value: 17 significant digits for floats."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def csv_reference(header, rows) -> str:
    return "".join(",".join(map(fmt, row)) + "\n" for row in [header, *rows])


def test_profile_period_json(tmp_path):
    code, payload = run_cli(["profile", "--period", "100"], tmp_path)
    assert code == 0
    data = json.loads(payload)
    assert data["peak_index"] == 50
    assert abs(data["peak_abs"] - 0.6366459530600068) < 1e-12
    assert abs(data["captured"] - 1.0) < 1e-10


def test_profile_period_csv(tmp_path):
    code, payload = run_cli(["profile", "--period", "2", "--format", "csv"], tmp_path, "out.csv")
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == "index,amplitude_real,amplitude_imag,probability"
    assert len(lines) == 3
    probs = [float(line.split(",")[3]) for line in lines[1:]]
    assert probs == pytest.approx([0.5, 0.5])


def test_profile_aperiodic(tmp_path):
    code, payload = run_cli(["profile", "--aperiodic", "--K", "1000"], tmp_path)
    assert code == 0
    assert abs(json.loads(payload)["captured"] - 0.9998) < 3e-5


@pytest.mark.parametrize("args, profile", [
    (["profile", "--period", "1024"], lambda: halfstep_profile_periodic(1024)),
    (["profile", "--aperiodic", "--K", "2000"], lambda: halfstep_profile_aperiodic(2000)),
    (["profile", "--period", "1024", "--format", "csv"], lambda: halfstep_profile_periodic(1024)),
])
def test_profile_rows_match_per_element_conversion(args, profile, tmp_path):
    _, payload = run_cli(args, tmp_path)
    prof = profile()
    if "csv" in args:
        rows = [(int(j), np.real(a), np.imag(a), q)
                for j, a, q in zip(prof.indices, prof.amplitudes, prof.probabilities)]
        lines = ["index,amplitude_real,amplitude_imag,probability"]
        lines += [",".join(fmt(v) for v in row) for row in rows]
        assert payload == ("\n".join(lines) + "\n").encode()
        return
    expected = json.loads(payload)
    expected["amplitudes"] = [[int(j), float(np.real(a)), float(np.imag(a))]
                              for j, a in zip(prof.indices, prof.amplitudes)]
    assert payload == reports.render_json(expected).encode()


def test_profile_odd_period_rejected(capsys):
    assert main(["profile", "--period", "7"]) == 2
    assert "even" in capsys.readouterr().err


def test_profile_period_above_cap_rejected(capsys):
    for args in (["profile", "--period", "8388608"], ["complexity", "--period", "8388608"],
                 ["stats", "--p", "8388608", "--seed", "1"],
                 ["profile", "--aperiodic", "--K", "2097153"],
                 ["instant", "--machine", "loop", "--budget", "10", "--K", "2097153"]):
        assert main(args) == 2
        assert "exceeds cap" in capsys.readouterr().err


def test_cycle_command(tmp_path):
    code, payload = run_cli(
        ["cycle", "--machine", "incrementer", "--input", "0", "--alpha", "0.75"], tmp_path)
    assert code == 0
    data = json.loads(payload)
    assert data["verified"] and data["cycle"]["p"] == 24
    assert data["checks"][-3:] == ["index_tags_distinct", "index_palindrome",
                                   "index_window_at_s"]


def test_instant_incrementer(tmp_path):
    code, payload = run_cli(
        ["instant", "--machine", "incrementer", "--input", "0", "--seed", "5"], tmp_path)
    assert code == 0
    verdict = json.loads(payload)["verdict"]
    assert verdict["halts"] and verdict["value"] == "1"


def test_instant_loop(tmp_path):
    code, payload = run_cli(
        ["instant", "--machine", "loop", "--input", "", "--seed", "5", "--budget", "50"],
        tmp_path)
    assert code == 0
    verdict = json.loads(payload)["verdict"]
    assert not verdict["halts"] and verdict["value"] is None


def test_instant_missing_machine(capsys):
    assert main(["instant", "--machine", "no_such_machine", "--seed", "1"]) == 2
    assert "no machine" in capsys.readouterr().err


def test_machine_parse_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["instant", "--machine", str(bad), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_stats_csv(tmp_path):
    code, payload = run_cli(
        ["stats", "--p", "64", "--density", "uniform", "--trials", "500",
         "--seed", "9", "--format", "csv"], tmp_path, "stats.csv")
    assert code == 0
    lines = payload.decode().strip().splitlines()
    assert lines[0] == "p,density,trials,mean,stderr,var,var_p,chebyshev_fraction"
    assert lines[1].startswith("64,uniform,500,")


def test_stats_single_trial_flagged_not_crashed(tmp_path):
    code, payload = run_cli(
        ["stats", "--p", "64", "--trials", "1", "--seed", "9"], tmp_path)
    assert code == 0
    row = json.loads(payload)["stats"]["rows"][0]
    assert row["variance_defined"] is False


def test_stats_unknown_density(capsys):
    assert main(["stats", "--density", "cauchy", "--trials", "10", "--seed", "1"]) == 2
    assert "unknown density" in capsys.readouterr().err


def test_pack_command(tmp_path):
    code, payload = run_cli(["pack", "--n", "3"], tmp_path)
    assert code == 0
    report = json.loads(payload)
    data = report["pack"]
    assert data["disjoint"] and data["energy_bound_ok"] and data["grid_ok"]
    # the solver's figures sit beside the report body, not inside it
    assert report["diagnostics"] == {"path": "lp+restricted", "objective": -15,
                                     "lp_bound": -15, "gap": 0.0, "nodes": 0}


def test_schrodinger_builtin_pair(tmp_path):
    code, payload = run_cli(["schrodinger", "--builtin", "chirped"], tmp_path)
    assert code == 0
    data = json.loads(payload)["obstruction"]
    assert data["certificate"] and abs(data["kinetic_mismatch"] + 2.0) < 0.01

    code, payload = run_cli(["schrodinger", "--builtin", "identical"], tmp_path)
    assert code == 0
    assert json.loads(payload)["obstruction"]["certificate"] is False


def test_complexity_command(tmp_path):
    code, payload = run_cli(["complexity", "--period", "4", "--grid", "512"], tmp_path)
    assert code == 0
    data = json.loads(payload)
    assert data["lower_bound_ok"] is True
    assert abs(data["mean_abs_phase"] - 7 * 3.141592653589793 / 4) < 1e-9


@pytest.mark.parametrize("args", [
    ["complexity", "--period", "8", "--grid", "0"],
    ["complexity", "--period", "8", "--grid", "-3"],
    ["complexity", "--aperiodic", "--grid", "0"],
    ["complexity", "--period", "1099511627776"],
    ["schrodinger", "--grid", "0"],
    ["schrodinger", "--grid", "1"],
    ["schrodinger", "--builtin", "identical", "--grid", "-5"],
    ["stats", "--p", "64,x", "--trials", "10", "--seed", "1"],
    ["stats", "--p", "", "--trials", "10", "--seed", "1"],
    ["stats", "--p", ",,", "--trials", "10", "--seed", "1"],
    ["pack", "--n", "2", "--nu", "0,x,3"],
    ["cycle", "--machine", "loop", "--budget", "50000000"],
    ["instant", "--machine", "loop", "--budget", "50000000", "--seed", "1"],
    ["cycle", "--machine", "incrementer", "--input", "0", "--alpha", "nan"],
    ["cycle", "--machine", "incrementer", "--input", "0", "--alpha", "inf"],
    ["instant", "--machine", "incrementer", "--input", "0", "--alpha", "nan", "--seed", "1"],
    # 4194305 is DEFAULT_PERIOD_CAP + 1
    ["stats", "--trials", "4194305", "--seed", "1"],
    ["complexity", "--period", "8", "--grid", "4194305"],
    ["schrodinger", "--grid", "4194305"],
    ["instant", "--machine", "incrementer", "--input", "1", "--majority", "4194305",
     "--seed", "1"],
    # K is checked even where the command does not use it
    ["instant", "--machine", "incrementer", "--input", "1", "--K", "0", "--seed", "1"],
    ["profile", "--period", "8", "--K", "-5"],
])
def test_complexity_bad_input_rejected(args, tmp_path, capsys):
    # grids, periods, K, step budgets, trial and majority counts, waiting
    # ratios and integer lists are checked before anything is built
    out = tmp_path / "out.json"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_complexity_scans_the_overlap_once(monkeypatch, tmp_path):
    calls = []

    def counted(spec, u):
        calls.append(np.size(u))
        return overlap_at(spec, u)

    # the package's ``complexity`` attribute is the function, not the module
    monkeypatch.setattr(importlib.import_module("halfcycle.complexity"), "overlap_at", counted)
    assert main(["complexity", "--period", "64", "--grid", "512",
                 "--out", str(tmp_path / "out.json")]) == 0
    assert calls == [512]


@pytest.mark.parametrize("args", [
    ["profile", "--period", "64"],
    ["profile", "--aperiodic", "--K", "500"],
    ["cycle", "--machine", "parity", "--input", "101", "--alpha", "0.6"],
    ["instant", "--machine", "incrementer", "--input", "11", "--seed", "1234"],
    ["instant", "--machine", "loop", "--seed", "77", "--budget", "40"],
    ["stats", "--p", "64,256", "--trials", "400", "--seed", "1234"],
    ["stats", "--p", "64", "--trials", "400", "--seed", "1234", "--format", "csv"],
    ["pack", "--n", "4"],
    ["schrodinger", "--builtin", "chirped", "--grid", "512"],
    ["complexity", "--period", "8", "--grid", "300"],
])
def test_reruns_are_byte_identical(args, tmp_path):
    _, first = run_cli(args, tmp_path, "first.out")
    _, second = run_cli(args, tmp_path, "second.out")
    assert first == second


def test_reports_embed_seed(tmp_path):
    _, payload = run_cli(["instant", "--machine", "incrementer", "--input", "0",
                          "--seed", "321"], tmp_path)
    assert json.loads(payload)["config"]["seed"] == 321


def test_import_leaves_scipy_unloaded():
    # scipy costs a fraction of a second to import; only the packing solver
    # and the test reference need it, so it stays out of start-up
    src = str(Path(halfcycle.__file__).resolve().parents[1])
    code = "import halfcycle, halfcycle.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src})


NUMBERS = st.one_of(
    st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e22]))
TRICKY = ['", "', '"], ["', "[[1, 2], [3]]", "]", "[", "\0", "\\u0000", ""]
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.floats().map(np.float64),
                    st.text(max_size=8), st.sampled_from(TRICKY))
# empty, one-element and ragged rows; number rows and rows mixing in other values
ROWS = st.one_of(st.lists(NUMBERS, max_size=4), st.tuples(NUMBERS, NUMBERS),
                 st.lists(SCALARS, max_size=3))
PAYLOADS = st.recursive(
    st.one_of(SCALARS, st.lists(ROWS, max_size=5)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.one_of(st.text(max_size=5),
                                                      st.sampled_from(TRICKY)),
                                            inner, max_size=4)),
    max_leaves=12)


@given(st.dictionaries(st.text(max_size=5), PAYLOADS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_render_json_matches_stock_encoder(payload):
    expected = json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert reports.render_json(payload) == expected


FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
STATS_ROWS = st.builds(SimpleNamespace, p=st.integers(4, 2 ** 22), density=st.text(),
                       trials=st.integers(1, 10 ** 9), mean=FLOATS, stderr=FLOATS, var=FLOATS,
                       var_times_p=FLOATS, cheb_fraction=FLOATS)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_csv_writers_match_per_value_reference(data):
    n = data.draw(st.integers(0, 6))
    floats = st.lists(FLOATS, min_size=n, max_size=n)

    start = data.draw(st.integers(-2 ** 40, 2 ** 40))
    amplitudes = [complex(a, b) for a, b in zip(data.draw(floats), data.draw(floats))]
    profile = SimpleNamespace(indices=np.arange(start, start + n),
                              amplitudes=np.array(amplitudes, dtype=complex),
                              probabilities=np.array(data.draw(floats)))
    rows = zip(profile.indices.tolist(), profile.amplitudes.real.tolist(),
               profile.amplitudes.imag.tolist(), profile.probabilities.tolist())
    assert reports.profile_csv(profile) == csv_reference(
        ["index", "amplitude_real", "amplitude_imag", "probability"], rows)

    stats = SimpleNamespace(rows=data.draw(st.lists(STATS_ROWS, max_size=n)))
    rows = [(r.p, r.density, r.trials, r.mean, r.stderr, r.var, r.var_times_p,
             r.cheb_fraction) for r in stats.rows]
    assert reports.stats_csv(stats) == csv_reference(
        ["p", "density", "trials", "mean", "stderr", "var", "var_p", "chebyshev_fraction"],
        rows)

    t_grid, values = np.array(data.draw(floats)), np.array(data.draw(floats))
    phase = data.draw(FLOATS)
    zeros = data.draw(st.none() | st.integers(0, 100))
    expected = csv_reference(["t", "mean_abs_phase", "complexity"],
                             [(t, phase, v) for t, v in zip(t_grid, values)])
    if zeros is not None:
        expected += f"# overlap_zero_count,{zeros}\n"
    assert reports.complexity_csv(t_grid, values, phase, zeros) == expected
