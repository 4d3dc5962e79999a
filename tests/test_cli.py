"""CLI: subcommand behavior, file output, seeded determinism."""

import functools
import importlib
import json
import math
import subprocess
import sys
import time
from importlib import resources
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
from halfcycle.spectral import OrbitSpectrum


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


def test_stats_diagnostics_beside_the_report(tmp_path):
    code, payload = run_cli(
        ["stats", "--p", "64,32768", "--trials", "5000", "--seed", "9"], tmp_path)
    assert code == 0
    small, large = json.loads(payload)["diagnostics"]["periods"]
    # 5000 trials at p = 64 are two chunks, each with its first row checked
    assert (small["p"], small["path"], small["checked_rows"]) == (64, "parseval", 2)
    assert 0.0 <= small["max_residual"] <= 1e-12
    assert large == {"p": 32768, "path": "fft", "checked_rows": 0, "max_residual": None}


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
    diagnostics = data["diagnostics"]
    assert diagnostics["path"] == "closed_form" and diagnostics["cross_check_points"] == 512
    assert 0.0 <= diagnostics["cross_check_residual"] < 1e-14
    assert diagnostics["max_slack_violation"] <= 0.0 <= diagnostics["worst_t"] <= 1.0
    code, payload = run_cli(["complexity", "--aperiodic", "--grid", "50"], tmp_path)
    assert code == 0 and json.loads(payload)["diagnostics"] is None


def test_complexity_cost_does_not_grow_with_the_period(tmp_path):
    # the closed form costs O(grid); the direct sum took ~2 s at 65536 x 1024
    # and would take minutes at the cap.  The fastest of three runs is timed,
    # so a moment of load on the host does not fail the test.
    main(["complexity", "--period", "64", "--grid", "300", "--out", str(tmp_path / "warm")])
    for period, grid, limit in (("65536", "1024", 0.1), ("4194304", "10000", 1.0)):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            code, payload = run_cli(["complexity", "--period", period, "--grid", grid], tmp_path)
            times.append(time.perf_counter() - start)
            data = json.loads(payload)
            assert code == 0 and data["diagnostics"]["cross_check_points"] == 1
        assert min(times) < limit


def test_complexity_takes_the_mean_abs_phase_once(tmp_path, monkeypatch):
    # complexity, check_lower_bound and the report body all read it
    original = OrbitSpectrum.__dict__["_mean_abs_phase"].func
    periods = []

    def counted(spec):
        periods.append(spec.period)
        return original(spec)

    cached = functools.cached_property(counted)
    cached.__set_name__(OrbitSpectrum, "_mean_abs_phase")
    monkeypatch.setattr(OrbitSpectrum, "_mean_abs_phase", cached)
    code, payload = run_cli(["complexity", "--period", "64", "--grid", "300"], tmp_path)
    assert code == 0 and periods == [64]
    assert json.loads(payload)["mean_abs_phase"] == original(halfcycle.minimal_periodic_spectrum(64))


INCREMENTER = json.loads((resources.files("halfcycle") / "machines/incrementer.json").read_text())
BAD_MACHINES = {
    "transitions-number.json": {"transitions": 5},
    "states-number.json": {"states": 7},
    "state-list.json": {"transitions": [["scan", "0", ["scan"], "0", "R"]]},
    "move-list.json": {"transitions": [["scan", "0", "scan", "0", ["R"]]]},
    # read as the 5-tuple ("a", "_", "a", "_", "S") before it was refused
    "transition-string.json": {"states": ["a"], "alphabet": ["_"], "blank": "_",
                               "initial": "a", "result_states": ["a"],
                               "transitions": ["a_a_S"]},
}
BAD_FILES = {"one.csv": b"x,re,im\n0,1,0\n",
             "binary.csv": b"\xff\xfe", "binary.json": b"\xff\xfe",
             "deep.json": b"[" * 100_000 + b"]" * 100_000,  # deeper than json recurses
             "wide.csv": b"x,re,im\n" + b"1" * 200_000 + b",0,0\n",  # past csv's field limit
             **{name: json.dumps({**INCREMENTER, **bad}).encode()
                for name, bad in BAD_MACHINES.items()}}


def gaussian_csv(bad_row=None, bad_cell=""):
    """A 64-point Gaussian as CSV rows x, re, im; row ``bad_row`` (if any)
    gets ``bad_cell`` in place of its last cell."""
    x = np.linspace(-8.0, 8.0, 64)
    rows = [[repr(v), repr(float(np.exp(-v * v / 2))), "0.0"] for v in x.tolist()]
    if bad_row is not None:
        rows[bad_row][2] = bad_cell
    return ("x,re,im\n" + "".join(",".join(r) + "\n" for r in rows)).encode()


BAD_FILES |= {"gauss.csv": gaussian_csv(), "nan.csv": gaussian_csv(10, "nan"),
              "inf.csv": gaussian_csv(40, "inf")}


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
    # packings whose largest size alone holds more than 2**20 points
    ["pack", "--n", "100000"],
    ["pack", "--n", "1000000000"],
    ["pack", "--n", "2", "--nu", "0,1,100000000"],
    # missing, unreadable and one-point grid files; {tmp} holds BAD_FILES
    ["schrodinger", "{tmp}/missing.csv"],
    ["schrodinger", "{tmp}"],
    ["schrodinger", "{tmp}/one.csv", "{tmp}/one.csv"],
    ["schrodinger", "{tmp}/binary.csv"],
    ["schrodinger", "{tmp}/wide.csv"],
    ["cycle", "--machine", "{tmp}/binary.json"],
    ["cycle", "--machine", "{tmp}/deep.json"],
    # machine files with the wrong JSON types
    *[["cycle", "--machine", f"{{tmp}}/{name}"] for name in BAD_MACHINES],
    # a Gaussian pair with a NaN or an infinite function value
    ["schrodinger", "{tmp}/gauss.csv", "{tmp}/nan.csv"],
    ["schrodinger", "{tmp}/inf.csv", "{tmp}/gauss.csv"],
])
def test_complexity_bad_input_rejected(args, tmp_path, capsys):
    # grids, periods, K, step budgets, trial and majority counts, waiting
    # ratios, integer lists and input files are checked before anything is built
    for name, data in BAD_FILES.items():
        (tmp_path / name).write_bytes(data)
    out = tmp_path / "out.json"
    assert main([*(a.replace("{tmp}", str(tmp_path)) for a in args), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_instant_large_majority(tmp_path):
    # the binomial tail of a majority past 1029 votes no longer overflows
    code, payload = run_cli(["instant", "--machine", "incrementer", "--input", "1",
                             "--majority", "2001", "--seed", "1"], tmp_path)
    report = json.loads(payload)["verdict"]["report"]
    assert code == 0 and report["majority_m"] == 2001
    assert 0.0 <= report["error_bound"] < 1e-100


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


def stock_lines(payload) -> list:
    # lists of lines, since pytest takes minutes to diff two long texts
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n").split("\n")


def test_render_json_matches_stock_encoder_on_large_tables():
    rng = np.random.default_rng(7)
    big = [(i, *rng.standard_normal(2).tolist()) for i in range(10 ** 4)]
    big[-1] = (big[-1][0], big[-1][1], math.nan)
    ragged = [[1, 2.5], [3], [4.0, -0.0, 5]]
    finite = [[i, i / 3] for i in range(50)]
    for payload in ({"rows": big}, {"rows": ragged, "n": 1},
                    {"outer": {"inner": {"rows": finite}}, "rows": finite}):
        assert reports.render_json(payload).split("\n") == stock_lines(payload)


@pytest.mark.parametrize("args", [
    ["profile", "--period", "64"],
    ["profile", "--aperiodic", "--K", "1000"],
    ["complexity", "--period", "16", "--grid", "300"],
])
def test_cli_reports_match_stock_encoder(args, tmp_path):
    _, payload = run_cli(args, tmp_path)
    assert payload.decode().split("\n") == stock_lines(json.loads(payload))


@pytest.mark.parametrize("args, table", [
    (["profile", "--aperiodic", "--K", "100"], "amplitudes"),
    (["complexity", "--period", "16", "--grid", "300"], "readings"),
])
def test_report_tables_take_the_template_path(args, table, tmp_path, monkeypatch):
    # the stock encoder gives the same bytes, so only this shows a table
    # written value by value
    payloads, templated = [], []
    write_json, template = reports.write_json, reports._json_table

    def spy(table, indent, write):
        templated.append(table)
        template(table, indent, write)

    monkeypatch.setattr(reports, "write_json", lambda p, w: payloads.append(p) or write_json(p, w))
    monkeypatch.setattr(reports, "_json_table", spy)
    run_cli(args, tmp_path)
    assert isinstance(payloads[0][table], reports.Table)
    assert [t is payloads[0][table] for t in templated] == [True]


def as_rows(obj):
    """``obj`` with every ``Table`` in it turned into a list of rows."""
    if isinstance(obj, reports.Table):
        columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in obj.columns]
        return [list(row) for row in zip(*columns)]
    if isinstance(obj, dict):
        return {key: as_rows(value) for key, value in obj.items()}
    return [as_rows(item) for item in obj] if isinstance(obj, list) else obj


@st.composite
def tables(draw):
    n, width = draw(st.integers(0, 5)), draw(st.integers(1, 3))
    column = st.one_of(st.lists(NUMBERS, min_size=n, max_size=n),
                       st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
                       st.integers(-2 ** 40, 2 ** 40).map(lambda start: range(start, start + n)))
    return reports.Table(*(draw(column) for _ in range(width)))


TABLE_PAYLOADS = st.recursive(
    st.one_of(tables(), NUMBERS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@given(st.dictionaries(st.text(max_size=3), TABLE_PAYLOADS, max_size=3))
@settings(max_examples=200, deadline=None)
def test_tables_render_as_the_stock_encoder_renders_their_rows(payload):
    expected = json.dumps(as_rows(payload), indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert reports.render_json(payload) == expected


def test_tables_of_many_blocks_render_as_their_rows():
    n = 2 * reports._BLOCK + 5
    floats = np.random.default_rng(3).standard_normal(n)
    floats[[reports._BLOCK, reports._BLOCK + 7, 2 * reports._BLOCK + 1, n - 1]] = (
        -0.0, math.nan, math.inf, -math.inf)
    ints = list(range(-n, n, 2))
    ints[-1] = 2 ** 70
    payload = {"outer": [{"rows": reports.Table(range(-3, n - 3), floats, ints)}], "n": 1}
    assert reports.render_json(payload).split("\n") == stock_lines(as_rows(payload))
    with pytest.raises(ValueError, match="one length"):
        reports.Table(range(3), [1.0, 2.0])


def test_failed_report_leaves_the_old_out_file(tmp_path, monkeypatch):
    out = tmp_path / "out.json"
    out.write_bytes(b"old report\n")

    def fails_after_first_write(payload, write):
        write("{")
        raise RuntimeError("encoder failed")

    monkeypatch.setattr(reports, "write_json", fails_after_first_write)
    with pytest.raises(RuntimeError, match="encoder failed"):
        run_cli(["cycle", "--machine", "incrementer", "--input", "0"], tmp_path)
    assert out.read_bytes() == b"old report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.json"]
    monkeypatch.undo()
    _, payload = run_cli(["cycle", "--machine", "incrementer", "--input", "0"], tmp_path)
    assert json.loads(payload)["verified"]
    assert [path.name for path in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("payload", [{1: 2}, {"a": [{"b": 0, None: 0}]}, {"a": {1.5: [1]}}])
def test_render_json_refuses_keys_that_are_not_str(payload):
    # the stock encoder would write these keys as strings
    with pytest.raises(TypeError, match="report keys must be str"):
        reports.render_json(payload)


FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
STATS_ROWS = st.builds(SimpleNamespace, p=st.integers(4, 2 ** 22), density=st.text(),
                       trials=st.integers(1, 10 ** 9), mean=FLOATS, stderr=FLOATS, var=FLOATS,
                       var_times_p=FLOATS, cheb_fraction=FLOATS)


def csv_text(writer, *args) -> str:
    out = []
    writer(*args, out.append)
    return "".join(out)


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
    assert csv_text(reports.profile_csv, profile) == csv_reference(
        ["index", "amplitude_real", "amplitude_imag", "probability"], rows)

    stats = SimpleNamespace(rows=data.draw(st.lists(STATS_ROWS, max_size=n)))
    rows = [(r.p, r.density, r.trials, r.mean, r.stderr, r.var, r.var_times_p,
             r.cheb_fraction) for r in stats.rows]
    assert csv_text(reports.stats_csv, stats) == csv_reference(
        ["p", "density", "trials", "mean", "stderr", "var", "var_p", "chebyshev_fraction"],
        rows)

    t_grid, values = np.array(data.draw(floats)), np.array(data.draw(floats))
    phase = data.draw(FLOATS)
    zeros = data.draw(st.none() | st.integers(0, 100))
    expected = csv_reference(["t", "mean_abs_phase", "complexity"],
                             [(t, phase, v) for t, v in zip(t_grid, values)])
    if zeros is not None:
        expected += f"# overlap_zero_count,{zeros}\n"
    assert csv_text(reports.complexity_csv, t_grid, values, phase, zeros) == expected


def test_stats_csv_without_rows_is_its_header():
    assert (csv_text(reports.stats_csv, SimpleNamespace(rows=[]))
            == "p,density,trials,mean,stderr,var,var_p,chebyshev_fraction\n")
