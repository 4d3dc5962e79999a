"""Deterministic CSV/JSON rendering for experiment outputs.

Floats go out with 17 significant digits in CSV (round-trip exact) and via
repr in JSON; key order is fixed, so identical configurations and seeds
produce byte-identical files.

Reports are mostly tables: lists of rows of one width that hold only
``int`` and ``float`` values (amplitudes, complexity readings).  Every
table, in both formats, is written by one printf-style row template
applied to all of its values at once (``_rows``).  In CSV, ``%.17g`` and
``%d`` give the same text as ``format(x, ".17g")`` and ``str``.  In JSON,
one recursive pass (``_encode``) writes every report as the stock
``indent=2, sort_keys=True`` encoder would; only tables take the row
template, which holds ``%r`` fields and the padding of the depth the table
sits at (``%r`` gives the stock encoder's text for every int and finite
float).  Tables with ragged rows, with rows holding anything else (bools,
strings, None, numpy scalars) or with a nan or infinity (``%r`` writes
``nan``/``inf``, JSON ``NaN``/``Infinity``) are written like any other
list.
"""

from __future__ import annotations

import json
from itertools import chain

_NUMBERS = {int, float}
_ARRAYS = {list, tuple}


def _is_table(rows) -> bool:
    return (bool(rows) and set(map(type, rows)) <= _ARRAYS and len(set(map(len, rows))) == 1
            and bool(rows[0]) and set(map(type, chain.from_iterable(rows))) <= _NUMBERS)


def _rows(template: str, rows) -> str:
    """``template``, which has one field per value of a row, applied to
    each row in turn."""
    values = tuple(chain.from_iterable(rows))
    return (template * (len(values) // template.count("%"))) % values


def _json_table(rows, indent: int) -> str:
    """The stock indented text of a table of finite numbers whose opening
    bracket sits on a line indented by ``indent`` spaces."""
    row_pad = "\n" + " " * (indent + 2)
    value_pad = row_pad + "  "
    row = f"{row_pad}[{value_pad}" + f",{value_pad}".join(["%r"] * len(rows[0])) + f"{row_pad}],"
    return f"[{_rows(row, rows)[:-1]}\n{' ' * indent}]"


def _encode(obj, indent: int, out: list) -> None:
    """Append to ``out`` the stock indented text of ``obj``, which starts on
    a line indented by ``indent`` spaces; its members add 2."""
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(json.dumps(obj))
        return
    pad = "\n" + " " * (indent + 2)
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("report keys must be str")
        brackets, items = "{}", [(f"{pad}{json.dumps(key)}: ", obj[key]) for key in sorted(obj)]
    elif _is_table(obj) and "n" not in (text := _json_table(obj, indent)):
        out.append(text)
        return
    else:
        brackets, items = "[]", [(pad, item) for item in obj]
    out.append(brackets[0])
    for head, value in items:
        out.append(head)
        _encode(value, indent + 2, out)
        out.append(",")
    out[-1] = f"\n{' ' * indent}{brackets[1]}"


def render_json(payload: dict) -> str:
    """The stock ``indent=2, sort_keys=True`` JSON text of ``payload`` and a
    final newline, with the tables written by row templates."""
    out = []
    _encode(payload, 0, out)
    out.append("\n")
    return "".join(out)


def profile_csv(profile) -> str:
    rows = zip(profile.indices, profile.amplitudes.real.tolist(),
               profile.amplitudes.imag.tolist(), profile.probabilities.tolist())
    return ("index,amplitude_real,amplitude_imag,probability\n"
            + _rows("%d,%.17g,%.17g,%.17g\n", rows))


def stats_csv(report) -> str:
    rows = (
        (r.p, r.density, r.trials, r.mean, r.stderr, r.var, r.var_times_p, r.cheb_fraction)
        for r in report.rows
    )
    return ("p,density,trials,mean,stderr,var,var_p,chebyshev_fraction\n"
            + _rows("%d,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n", rows))


def complexity_csv(t_grid, values, mean_abs_phase: float, zeros: int | None = None) -> str:
    rows = ((t, mean_abs_phase, v) for t, v in zip(t_grid.tolist(), values.tolist()))
    text = "t,mean_abs_phase,complexity\n" + _rows("%.17g,%.17g,%.17g\n", rows)
    if zeros is not None:
        text += f"# overlap_zero_count,{zeros}\n"
    return text
