"""Deterministic CSV/JSON rendering for experiment outputs.

Floats go out with 17 significant digits in CSV (round-trip exact) and via
repr in JSON; key order is fixed, so identical configurations and seeds
produce byte-identical files.
"""

from __future__ import annotations

import io
import json

import numpy as np


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _csv_lines(header, rows) -> str:
    out = io.StringIO()
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(fmt(v) for v in row) + "\n")
    return out.getvalue()


def profile_csv(profile) -> str:
    rows = zip(profile.indices.tolist(), profile.amplitudes.real.tolist(),
               profile.amplitudes.imag.tolist(), profile.probabilities.tolist())
    return _csv_lines(["index", "amplitude_real", "amplitude_imag", "probability"], rows)


def stats_csv(report) -> str:
    rows = (
        (r.p, r.density, r.trials, r.mean, r.stderr, r.var, r.var_times_p, r.cheb_fraction)
        for r in report.rows
    )
    return _csv_lines(
        ["p", "density", "trials", "mean", "stderr", "var", "var_p", "chebyshev_fraction"],
        rows,
    )


def complexity_csv(t_grid, values, mean_abs_phase: float, zeros: int | None = None) -> str:
    rows = ((t, mean_abs_phase, v) for t, v in zip(t_grid.tolist(), values.tolist()))
    text = _csv_lines(["t", "mean_abs_phase", "complexity"], rows)
    if zeros is not None:
        text += f"# overlap_zero_count,{zeros}\n"
    return text
