"""CLI: subcommand behavior, file output, seeded determinism."""

import argparse
import contextlib
import errno
import functools
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import halfcycle
from halfcycle import (halfstep_profile_aperiodic, halfstep_profile_periodic, overlap_at,
                       reports, spectral)
from halfcycle.cli import build_parser, main
from halfcycle.errors import DEFAULT_PERIOD_CAP as CAP
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
    assert data["checks"] == ["waiting_ratio"]


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


@pytest.mark.parametrize("seed", [1, 2, 7, 10])
def test_stats_two_point_at_period_four_writes_its_report(tmp_path, seed):
    # every two-point draw at p = 4 has window mass 1/2, so a var*p is 0 up
    # to rounding (seed 10 reads 2.5e-32); the spread of the rows was once
    # divided by it
    code, payload = run_cli(["stats", "--p", "4,8", "--trials", "2", "--density", "two-point",
                             "--seed", str(seed)], tmp_path)
    assert code == 0
    stats = json.loads(payload)["stats"]
    assert [row["p"] for row in stats["rows"]] == [4, 8]
    assert math.isnan(stats["var_p_spread"])


def test_stats_diagnostics_beside_the_report(tmp_path):
    code, payload = run_cli(["stats", "--p", "64", "--trials", "5000", "--seed", "9"], tmp_path)
    assert code == 0
    # 5000 trials at p = 64 are two chunks, each with its first row checked
    check, = json.loads(payload)["diagnostics"]["checks"]
    assert (check["check"], check["runs"], check["points"]) == (
        "Parseval window mass vs direct sum at p=64", 2, 2)
    assert 0.0 <= check["max_residual"] <= 1e-12
    # past the basis bound every row takes the FFT, the reference: nothing to check
    code, payload = run_cli(["stats", "--p", "32768", "--trials", "3", "--seed", "9"], tmp_path)
    assert code == 0 and json.loads(payload)["diagnostics"] == {"checks": []}


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
    assert report["diagnostics"] == {"checks": [], "solver": {
        "path": "closed", "objective": -15, "bound": -15, "gap": 0.0, "nodes": 0, "points": 0}}


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
    (check,), bound = data["diagnostics"]["checks"], data["diagnostics"]["lower_bound"]
    assert (check["check"], check["runs"], check["points"]) == (
        "overlap closed form vs direct sum at p=4", 1, 512)
    assert 0.0 <= check["max_residual"] < 1e-14
    assert bound["max_slack_violation"] <= 0.0 <= bound["worst_t"] <= 1.0
    code, payload = run_cli(["complexity", "--aperiodic", "--grid", "50"], tmp_path)
    data = json.loads(payload)
    assert code == 0 and data["diagnostics"] == {"checks": [], "lower_bound": None}
    # a non-halting orbit: uniform phase density, mean |phase| pi, C(t) = t * pi
    assert data["mean_abs_phase"] == math.pi and len(data["readings"]) == 50
    assert all(value == t * math.pi for t, value in data["readings"])


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
            assert code == 0 and data["diagnostics"]["checks"][0]["points"] == 1
        assert min(times) < limit


def test_complexity_takes_the_mean_abs_phase_once(tmp_path, monkeypatch):
    # complexity, check_lower_bound and the report body all read it
    original = OrbitSpectrum.__dict__["mean_abs_phase"].func
    periods = []

    def counted(spec):
        periods.append(spec.period)
        return original(spec)

    cached = functools.cached_property(counted)
    cached.__set_name__(OrbitSpectrum, "mean_abs_phase")
    monkeypatch.setattr(OrbitSpectrum, "mean_abs_phase", cached)
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


def gaussian_csv(bad_row=None, bad_cell="", x=None):
    """A Gaussian on ``x`` (64 points on [-8, 8] by default) as CSV rows
    x, re, im; row ``bad_row`` (if any) gets ``bad_cell`` in place of its
    last cell."""
    x = np.linspace(-8.0, 8.0, 64) if x is None else x
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
    # a seed is a nonnegative integer, whether the command draws or not
    ["instant", "--machine", "incrementer", "--input", "1", "--seed", "-1"],
    ["stats", "--p", "64", "--trials", "10", "--seed", "-1"],
    ["profile", "--period", "8", "--seed", "-1"],
    # an empty exponent list is refused like ",", not read as the default
    ["pack", "--n", "1", "--nu", ""],
    ["pack", "--n", "1", "--nu", ","],
    # a grid is checked even where files give the functions
    ["schrodinger", "{tmp}/gauss.csv", "{tmp}/gauss.csv", "--grid", "-5"],
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


_ALPHA = "alpha must lie strictly between 0 and 1"


@pytest.mark.parametrize("args, error", [
    (["instant", "--machine", "unary_successor", "--input", "1", "--alpha", "0.999999",
      "--majority", "2"], "majority size 2 must be odd"),
    (["instant", "--machine", "unary_successor", "--input", "1", "--alpha", "0.999999",
      "--majority", "0"], "majority size 0 must be at least 1"),
    (["instant", "--machine", "unary_successor", "--input", "1", "--alpha", "0.999999",
      "--trials", "0"], "trial budget 0 must be at least 1"),
    (["instant", "--machine", "loop", "--budget", "100", "--alpha", "5"], _ALPHA),
    (["instant", "--machine", "loop", "--budget", "100", "--alpha", "nan"], _ALPHA),
    (["cycle", "--machine", "loop", "--budget", "2000000", "--alpha", "5"], _ALPHA),
    # --grid is unused with files, but checked before any file is read
    (["schrodinger", "missing.csv", "missing.csv", "--grid", "-5"], "grid -5 must be at least 8"),
])
def test_arguments_are_refused_before_the_machine_runs(args, error, tmp_path, monkeypatch,
                                                         capsys):
    # whether an argument is refused must not depend on whether the machine
    # halts, and nothing is stepped or built before it is
    def ran(*_):
        raise AssertionError("the machine ran")
    for module in ("halfcycle.cli", "halfcycle.measure"):
        monkeypatch.setattr(importlib.import_module(module), "run", ran)
    out = tmp_path / "out.json"
    assert main([*args, "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("x", [np.linspace(8.0, -8.0, 64),  # descending
                               np.r_[-8.0, np.linspace(-8.0, 8.0, 63)]])  # x repeated
def test_schrodinger_grid_not_strictly_increasing_rejected(x, tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        path.write_bytes(gaussian_csv(x=x))
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["schrodinger", *map(str, paths), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid must be strictly increasing")
    assert not caught and not out.exists()


def chirp_rows():
    """The cells x, re, im (as ``repr`` text) of each function of chirped_pair(64)."""
    gset = halfcycle.chirped_pair(64)
    return [[[repr(v), repr(c.real), repr(c.imag)] for v, c in zip(gset.x.tolist(), f.tolist())]
            for f in gset.functions]


def csv_form(rows, header="x,re,im\n", sep=",", end="\n"):
    """``rows`` as CSV bytes under ``header``, cells joined by ``sep``, rows ended by ``end``."""
    return (header + "".join(sep.join(row) + end for row in rows)).encode()


def ends_with(rows, *cells):
    """Each row with extra cells appended, taken from ``cells`` in turn."""
    return [row + list(cells[i % len(cells)]) for i, row in enumerate(rows)]


def with_cell(rows, row, col, cell):
    """``rows`` with cell (``row``, ``col``) replaced by ``cell``."""
    return [r[:col] + [cell] + r[col + 1:] if i == row else r for i, r in enumerate(rows)]


# every form a grid CSV may take: each accepted form gives the report of the
# plain file, each refused one an error line naming the file; blank lines
# were refused before the reader used np.loadtxt, and 0_0.0 accepted
ACCEPTED_FORMS = {
    "no header": lambda rows: csv_form(rows, header=""),
    "x alone": lambda rows: csv_form(rows, header="x\n"),
    "quoted header": lambda rows: csv_form(rows, header='"x","re","im"\n'),
    "crlf": lambda rows: csv_form(rows, header="x,re,im\r\n", end="\r\n"),
    "quoted cells": lambda rows: csv_form([[f'"{c}"' for c in row] for row in rows]),
    "spaces after commas": lambda rows: csv_form(rows, sep=", "),
    "extra numeric column": lambda rows: csv_form(ends_with(rows, ["1.5"])),
    "extra text column": lambda rows: csv_form(ends_with(rows, ["note"])),
    "ragged extra columns": lambda rows: csv_form(ends_with(rows, [], ["1"], ["a", "2"])),
    "trailing comma": lambda rows: csv_form(rows, end=",\n"),
    "no final newline": lambda rows: csv_form(rows)[:-1],
    "blank lines": lambda rows: csv_form(rows, header="x,re,im\n\n", end="\n\n"),
}
REFUSED_FORMS = {
    "comment line": lambda rows: csv_form(rows, header="x,re,im\n# note\n"),
    "semicolons": lambda rows: csv_form(rows, header="x;re;im\n", sep=";"),
    "empty cell": lambda rows: csv_form(with_cell(rows, 5, 2, "")),
    "two columns": lambda rows: csv_form([row[:2] for row in rows], header="x,re\n"),
    "empty file": lambda rows: b"",
    "header only": lambda rows: b"x,re,im\n",
    "underscore": lambda rows: csv_form(with_cell(rows, 5, 2, "0_0.0")),
}


def schrodinger_on(tmp_path, form):
    """Exit code, report (None when none was written) and input paths of
    ``schrodinger`` on the chirped pair written in ``form``, run with every
    warning an error."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, rows in zip(paths, chirp_rows()):
        path.write_bytes(form(rows))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["schrodinger", *map(str, paths), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None, paths


@pytest.mark.parametrize("form", ACCEPTED_FORMS.values(), ids=ACCEPTED_FORMS.keys())
def test_schrodinger_accepted_csv_forms_give_the_plain_report(form, tmp_path, capsys):
    code, report, _ = schrodinger_on(tmp_path, form)
    (tmp_path / "plain").mkdir()
    plain = schrodinger_on(tmp_path / "plain", csv_form)
    assert (code, report) == plain[:2] and code == 0
    assert b'"certificate": true' in report and capsys.readouterr().err == ""


@pytest.mark.parametrize("form", REFUSED_FORMS.values(), ids=REFUSED_FORMS.keys())
def test_schrodinger_refused_csv_forms_name_the_file(form, tmp_path, capsys):
    code, report, paths = schrodinger_on(tmp_path, form)
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert err.startswith("error:") and str(paths[0]) in err and "Traceback" not in err


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


# the flags whose dest differs from their name
FLAG_OF = {"truncation": "--K", "input_word": "--input", "out_format": "--format"}


def argv_of(config) -> list:
    """The command line that a report's ``config`` records."""
    argv = [config["subcommand"]]
    for key, value in config.items():
        if key != "subcommand" and value is not False:
            flag = FLAG_OF.get(key, f"--{key}")
            argv += [flag] if value is True else [flag, str(value)]
    return argv


# every option away from its default, so a value the config left out
# would change the rerun's report
REPLAYED = {
    "profile": ["profile", "--aperiodic", "--K", "300"],
    "cycle": ["cycle", "--machine", "parity", "--input", "101", "--alpha", "0.6",
              "--budget", "500", "--seed", "4"],
    "instant": ["instant", "--machine", "incrementer", "--input", "11", "--alpha", "0.7",
                "--K", "300", "--majority", "5", "--budget", "500", "--trials", "5000"],
    "stats": ["stats", "--p", "64,128", "--density", "raised-cosine", "--trials", "300"],
    "pack": ["pack", "--n", "2", "--nu", "0,2,4", "--seed", "9"],
    "schrodinger": ["schrodinger", "--builtin", "identical", "--grid", "64"],
    "complexity": ["complexity", "--period", "8", "--grid", "100", "--seed", "2"],
}


@pytest.mark.parametrize("argv", REPLAYED.values(), ids=REPLAYED.keys())
def test_rerunning_a_reports_config_reproduces_it(argv, tmp_path, capsys):
    code, payload = run_cli(argv, tmp_path, "first.json")
    config = json.loads(payload)["config"]
    drawn = capsys.readouterr().err
    if argv[0] in ("instant", "stats"):  # no seed given: one is drawn and printed
        assert drawn == f"seed drawn from system entropy: {config['seed']}\n"
    else:
        assert drawn == "" and config["seed"] == int(argv[argv.index("--seed") + 1]
                                                     if "--seed" in argv else 0)
    assert (code, payload) == run_cli(argv_of(config), tmp_path, "second.json")
    assert capsys.readouterr().err == ""


_SEED_OUT = {"--seed": ("seed", None, False, None), "--out": ("out", None, False, None)}
_FORMAT = {"--format": ("out_format", "json", False, ("csv", "json"))}
_SPECTRUM = {"--period": ("period", None, False, None),
             "--aperiodic": ("aperiodic", False, False, None)}
_MACHINE_RUN = {"--machine": ("machine", None, True, None),
                "--input": ("input_word", "", False, None),
                "--alpha": ("alpha", 0.75, False, None),
                "--budget": ("budget", 10000, False, None)}
_K = {"--K": ("truncation", 1000, False, None)}
OPTION_TABLES = {
    "profile": _SPECTRUM | _K | _FORMAT | _SEED_OUT,
    "cycle": _MACHINE_RUN | _SEED_OUT,
    "instant": _MACHINE_RUN | _K | _SEED_OUT | {
        "--majority": ("majority", 15, False, None),
        "--trials": ("trials", 10 ** 6, False, None)},
    "stats": _FORMAT | _SEED_OUT | {"--p": ("p", "64,256,1024", False, None),
                                    "--density": ("density", "uniform", False, None),
                                    "--trials": ("trials", 100000, False, None)},
    "pack": _SEED_OUT | {"--n": ("n", None, True, None), "--nu": ("nu", None, False, None)},
    "schrodinger": _SEED_OUT | {
        "--builtin": ("builtin", "chirped", False, ("chirped", "identical")),
        "--grid": ("grid", 1024, False, None)},
    "complexity": _SPECTRUM | _FORMAT | _SEED_OUT | {"--grid": ("grid", 1024, False, None)},
}


def subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_keeps_its_option_table():
    # a flag shared by several subcommands has one default, one dest and
    # one set of choices in each; --period and --aperiodic are one required choice
    tables, groups = {}, {}
    for name, p in subparsers().items():
        tables[name] = {a.option_strings[-1]: (a.dest, a.default, a.required, a.choices)
                        for a in p._actions if a.option_strings and a.dest != "help"}
        groups[name] = [(sorted(a.dest for a in g._group_actions), g.required)
                        for g in p._mutually_exclusive_groups]
    assert tables == OPTION_TABLES
    assert groups == {name: [(["aperiodic", "period"], True)] if "--period" in table else []
                      for name, table in OPTION_TABLES.items()}


@pytest.mark.parametrize("name", OPTION_TABLES)
def test_help_exits_0_for_every_subcommand(name, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([name, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: halfcycle {name} ")


def test_import_leaves_scipy_unloaded():
    # scipy costs a fraction of a second to import; only the packing solver
    # and the test reference need it, so it stays out of start-up
    src = str(Path(halfcycle.__file__).resolve().parents[1])
    code = "import halfcycle, halfcycle.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_packing_with_no_binding_budget_leaves_scipy_unloaded():
    # at n = 2 no budget row can bind; at n = 4 some can, but the closed-form
    # ranking of every pile keeps within every budget, so no solver runs
    src = str(Path(halfcycle.__file__).resolve().parents[1])
    for n in ("2", "4"):
        code = (f"import halfcycle.cli, sys; assert halfcycle.cli.main(['pack', '--n', '{n}']) == 0;"
                " assert 'scipy' not in sys.modules")
        run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=src))
        assert json.loads(run.stdout)["diagnostics"]["solver"]["path"] == "closed"


# one small command per subcommand, and the complexity scan whose cross-check
# sums 65536 terms, where a BLAS product's order of summation followed the thread count
THREADED = [["profile", "--period", "64"],
            ["cycle", "--machine", "incrementer", "--input", "1"],
            ["instant", "--machine", "incrementer", "--input", "1", "--seed", "1"],
            ["stats", "--p", "64,256", "--trials", "200", "--seed", "1"],
            ["pack", "--n", "2"],
            ["schrodinger", "--grid", "64"],
            ["complexity", "--period", "65536", "--grid", "1024"]]


def test_report_bytes_do_not_depend_on_the_blas_thread_count():
    src = str(Path(halfcycle.__file__).resolve().parents[1])
    code = f"import halfcycle.cli; [halfcycle.cli.main(argv) for argv in {THREADED!r}]"
    outputs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                                       OPENBLAS_NUM_THREADS=threads,
                                       PYTHONDONTWRITEBYTECODE="1")).stdout
               for threads in ("1", "2")]
    assert outputs[0].count(b'"config"') == len(THREADED) and outputs[0] == outputs[1]


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


def test_reports_write_numpy_integers_as_their_python_values():
    # the size rule admits numpy integers, and each lands in its result's report
    inc, rng = halfcycle.load_machine("incrementer"), np.random.default_rng(0)
    results = [
        halfcycle.moment_experiment(np.array([8]), halfcycle.get_density("uniform"), 2, rng),
        halfcycle.pack_spectrum(np.int64(2)),
        halfcycle.halting_demo(inc, halfcycle.initial_config(inc, "0"), np.int64(100), 200,
                               Fraction(3, 4), rng)]
    for body in (result.to_dict() for result in results):
        expected = json.dumps(body, indent=2, sort_keys=True, default=lambda x: x.item()) + "\n"
        assert reports.render_json(body) == expected


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


def test_a_second_block_alone_with_nan_and_inf_is_rewritten():
    # the first block is finite, so it has no "n" and is written as formatted;
    # the second holds a NaN and an inf: JSON writes NaN/Infinity, CSV nan/inf
    n = reports._BLOCK + 3
    values = np.arange(n) / 7
    values[[reports._BLOCK + 1, reports._BLOCK + 2]] = math.nan, math.inf
    payload = {"rows": reports.Table(range(n), values)}
    text = reports.render_json(payload)
    assert text.split("\n") == stock_lines(as_rows(payload))
    assert (text.count("NaN"), text.count("Infinity"), "nan" in text, "inf" in text) == (
        1, 1, False, False)
    assert csv_text(reports.complexity_csv, range(n), values, 0.5, None) == csv_reference(
        ["t", "mean_abs_phase", "complexity"], [(t, 0.5, v) for t, v in enumerate(values)])


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


@pytest.mark.parametrize("target, reason", [("nodir/x.json", "No such file or directory"),
                                            ("outdir", "Is a directory")])
def test_unwritable_out_is_an_error_line(target, reason, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "outdir").mkdir()
    assert main(["profile", "--period", "4", "--out", target]) == 2
    assert capsys.readouterr().err == f"error: cannot write report to {target!r}: {reason}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["outdir"]
    assert list((tmp_path / "outdir").iterdir()) == []


@pytest.mark.parametrize("failure", [OSError(errno.ENOSPC, "No space left on device"),
                                     KeyboardInterrupt()], ids=["oserror", "interrupt"])
def test_failed_write_leaves_the_old_out_file(failure, tmp_path, monkeypatch, capsys):
    # an OSError of the sink is an error line; an interrupt goes on up
    out = tmp_path / "out.json"
    out.write_bytes(b"old report\n")

    def fails_after_first_write(payload, write):
        write("{")
        raise failure

    monkeypatch.setattr(reports, "write_json", fails_after_first_write)
    argv = ["cycle", "--machine", "incrementer", "--input", "0"]
    if isinstance(failure, OSError):
        assert run_cli(argv, tmp_path)[0] == 2
        assert capsys.readouterr().err == (
            f"error: cannot write report to {str(out)!r}: No space left on device\n")
    else:
        with pytest.raises(KeyboardInterrupt):
            run_cli(argv, tmp_path)
    assert out.read_bytes() == b"old report\n"
    assert [path.name for path in tmp_path.iterdir()] == ["out.json"]


def profile_checks(p):
    return {f"profile closed form vs direct sum at p={p}": (1, p),
            f"minimal profile capture vs 1 at p={p}": (1, 1)}


# every JSON subcommand: its arguments and its checks, {name: (runs, points)}
JSON_REPORTS = {
    "profile": (["profile", "--period", "64"], profile_checks(64)),
    "cycle": (["cycle", "--machine", "incrementer", "--input", "0"], {}),
    "instant": (["instant", "--machine", "incrementer", "--input", "1"], profile_checks(32)),
    "stats": (["stats", "--p", "64", "--trials", "100"],
              {"Parseval window mass vs direct sum at p=64": (1, 1)}),
    "pack": (["pack", "--n", "3"], {}),
    "schrodinger": (["schrodinger", "--grid", "64"], {}),
    # the second run is the 256-point zero scan of a grid below 256 points
    "complexity": (["complexity", "--period", "16", "--grid", "100"],
                   {"overlap closed form vs direct sum at p=16": (2, 100 + 256)}),
}


@pytest.mark.parametrize("argv, expected", JSON_REPORTS.values(), ids=JSON_REPORTS.keys())
def test_every_json_report_lists_the_checks_of_its_command(argv, expected, tmp_path):
    code, payload = run_cli(argv + ["--seed", "3"], tmp_path)
    assert code == 0
    checks = json.loads(payload)["diagnostics"]["checks"]
    assert isinstance(checks, list)
    for entry in checks:
        assert set(entry) == {"check", "runs", "points", "max_residual"}
        assert entry["runs"] >= 1 and 0.0 <= entry["max_residual"] < math.inf
    names = [entry["check"] for entry in checks]
    assert len(set(names)) == len(names)
    assert {entry["check"]: (entry["runs"], entry["points"]) for entry in checks} == expected


def test_a_failed_check_is_an_error_line_and_writes_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spectral, "_PROFILE_TOL", -1.0)
    out = tmp_path / "out.json"
    assert main(["profile", "--period", "64", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: profile closed form vs direct sum at p=64: residual ")
    assert list(tmp_path.iterdir()) == []


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


# --- the fuzz gate: every command line the grammar below builds ends in
# exit 0, 1 or 2, without a traceback or a warning, and reruns the same

NOT_INTS = ["nan", "inf", "1e-300", "x", "", str(2 ** 70)]  # 2**70: past every cap


def part(plain, edge):
    """One part of a command line as (plain, edge) pools of token lists:
    ``plain`` holds values the command runs on at a small size, ``edge``
    values at or past the edges of what it accepts."""
    return st.sampled_from(plain), st.sampled_from(edge)


def option(flag, plain, edge, required=False):
    """``part`` of ``flag`` and one value; an optional flag may also be left out."""
    return part([*([] if required else [[]]), *([flag, v] for v in plain)],
                [[flag, v] for v in edge])


def lists(items, size, min_size=0):
    """Comma-separated lists of ``min_size`` to ``size`` of ``items``."""
    return [",".join(row) for n in range(min_size, size + 1)
            for row in itertools.product(items, repeat=n)]


def period_or_aperiodic(*plain):
    """``part`` of the required choice of ``--period``, with a value of
    ``plain``, or ``--aperiodic``."""
    return part([["--aperiodic"], *(["--period", v] for v in plain)],
                [[], ["--period", "8", "--aperiodic"],
                 *(["--period", v] for v in ["-2", "0", "1", "3", str(CAP - 1), str(CAP + 1),
                                             *NOT_INTS])])


FORMAT = option("--format", ["csv", "json"], ["xml", ""])
MACHINE = part([["--machine", m] for m in ("incrementer", "loop", "parity", "unary_successor")],
               [[], ["--machine", "none"], ["--machine", "{tmp}/gauss.csv"]])
INPUT = option("--input", ["", "0", "1", "11", "101"], ["2", "x"])
ALPHA = option("--alpha", ["0.5", "0.6", "0.75", "0.9"],
               ["0", "1", "-1", "2", "nan", "inf", "-inf", "1e-300", "x", ""])
BUDGET = option("--budget", ["2", "50", "1000"], ["-1", "0", "1", str(CAP // 2), *NOT_INTS])
K = option("--K", ["1", "2", "7", "300"], ["-1", "0", str(CAP // 2 + 1), *NOT_INTS])
CSV_FILES = {"gauss.csv": gaussian_csv(), "nan.csv": gaussian_csv(10, "nan"),
             "descending.csv": gaussian_csv(x=np.linspace(8.0, -8.0, 64)),
             "one.csv": BAD_FILES["one.csv"]}
# each command's parts; sizes whose default is large (stats --p and
# --trials, schrodinger --grid) are always given
GRAMMAR = {
    "profile": [period_or_aperiodic("2", "4", "8", "64"), K, FORMAT],
    "cycle": [MACHINE, INPUT, ALPHA, BUDGET],
    "instant": [MACHINE, INPUT, ALPHA, K, BUDGET,
                option("--majority", ["1", "3", "5", "15"],
                       ["-1", "0", "2", str(CAP + 1), *NOT_INTS]),
                option("--trials", ["1", "2", "100", "5000"], ["-1", "0", *NOT_INTS])],
    "stats": [option("--p", lists(["4", "64", "128"], 2, 1),
                     lists(["-4", "0", "3", "64", str(CAP - 1), str(CAP + 1), *NOT_INTS], 2),
                     required=True),
              option("--density", ["uniform", "raised-cosine", "two-point"], ["cauchy", ""]),
              option("--trials", ["1", "2", "3", "50"], ["-1", "0", str(CAP + 1), *NOT_INTS],
                     required=True),
              FORMAT],
    "pack": [part([["--n", n] for n in ("0", "1", "2", "3")]
                  + [["--n", "1", "--nu", "0,2"], ["--n", "2", "--nu", "1,2,4"]],
                  [[], *(["--n", v] for v in ["-1", str(10 ** 9), *NOT_INTS]),
                   *(["--n", "1", "--nu", v] for v in lists(["-1", "0", "2", *NOT_INTS], 2))])],
    "schrodinger": [part([[], ["{tmp}/gauss.csv", "{tmp}/gauss.csv"]],
                         [[f"{{tmp}}/{a}", f"{{tmp}}/{b}"]
                          for a in [*CSV_FILES, "missing.csv"] for b in CSV_FILES]),
                    option("--builtin", ["chirped", "identical"], ["other"]),
                    option("--grid", ["8", "9", "64"], ["-1", "0", "1", "7", str(CAP + 1),
                                                        *NOT_INTS], required=True)],
    "complexity": [period_or_aperiodic("2", "4", "8", "16"),
                   option("--grid", ["1", "2", "255", "256", "300"],
                          ["-1", "0", str(CAP + 1), *NOT_INTS]),
                   FORMAT],
}
SEED = option("--seed", ["0", "1", "7", str(2 ** 70)], ["-1", "x", "nan"])
OUT = option("--out", ["{tmp}/out"], ["{tmp}/nodir/out", "{tmp}"])


@st.composite
def command_lines(draw):
    """A command and its parts, each plain but for up to two at an edge."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    parts = [*GRAMMAR[command], SEED, OUT]
    edges = draw(st.sets(st.sampled_from(range(len(parts))), max_size=2))
    return [command, *itertools.chain.from_iterable(
        draw(pools[i in edges]) for i, pools in enumerate(parts))]


def run_in_process(argv, tmp):
    """Exit code, stdout, stderr and the report at ``{tmp}/out`` (None if
    there is none) of ``main(argv)``, run with every warning an error."""
    report = Path(tmp, "out")
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings()):
        warnings.simplefilter("error")
        try:
            code = main([arg.replace("{tmp}", tmp) for arg in argv])
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue(), report.read_bytes() if report.exists() else None


@given(command_lines())
@example(["instant", "--machine", "incrementer", "--input", "1", "--seed", "-1"])
@example(["schrodinger", "--grid", "0"])
@example(["profile", "--period", "4", "--out", "{tmp}/nodir/out"])
@example(["pack", "--n", "1", "--nu", f"0,{2 ** 70}"])
@example(["pack", "--n", "1", "--nu", ""])
@example(["schrodinger", "{tmp}/descending.csv", "{tmp}/descending.csv"])
@example(["cycle", "--machine", "incrementer", "--alpha", "nan"])
@example(["stats", "--p", "64", "--trials", "3", "--out", "{tmp}/out"])
@settings(derandomize=True, max_examples=500, deadline=None, database=None)
def test_no_command_line_crashes_and_reruns_give_the_same_bytes(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in CSV_FILES.items():
            Path(tmp, name).write_bytes(data)
        code, out, err, report = run_in_process(argv, tmp)
        assert code in (0, 1, 2)
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1
            assert "Traceback" not in err and report is None
        drawn = re.match(r"seed drawn from system entropy: (\d+)\n", err)
        if drawn:  # rerun with the seed the first run drew
            argv, err = [*argv, "--seed", drawn[1]], err[drawn.end():]
        assert run_in_process(argv, tmp) == (code, out, err, report)
