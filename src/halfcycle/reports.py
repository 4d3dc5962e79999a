"""Deterministic CSV/JSON writers for experiment outputs.

Floats go out with 17 significant digits in CSV (round-trip exact) and via
repr in JSON; key order is fixed, so identical configurations and seeds
produce byte-identical files.  Each writer hands its text piece by piece
to ``write``, so no report is held whole in memory.

Tables arrive as a ``Table`` of columns.  In both formats one printf-style
row template formats ``_BLOCK`` rows at a time, each from its own slice of
every column: ``%.17g`` and ``%d`` give the text of ``format(x, ".17g")``
and ``str``, and ``%r`` the stock JSON text of every int and finite float
(its ``nan``/``inf`` are replaced by ``NaN``/``Infinity``).  The rest of a
JSON report takes one recursive pass (``_encode``) that writes what the
stock ``indent=2, sort_keys=True`` encoder would, a numpy integer or bool
scalar as its Python value.
"""

from __future__ import annotations

import json

import numpy as np

_BLOCK = 4096


class Table:
    """Columns of one length (sequences, numpy arrays or ranges of ``int``
    and ``float``; a CSV column may also hold ``str``), written as rows."""

    def __init__(self, *columns):
        if len(set(map(len, columns))) != 1:
            raise ValueError("a table needs columns of one length")
        self.columns = columns


def _rows(template: str, table: Table, write, start: int = 0, stop: int | None = None) -> None:
    """Write ``template`` (one field per column) applied to rows ``start`` to ``stop``."""
    width, stop = len(table.columns), len(table.columns[0]) if stop is None else stop
    for first in range(start, stop, _BLOCK):
        last = min(first + _BLOCK, stop)
        values = [None] * (width * (last - first))
        for i, column in enumerate(table.columns):
            part = column[first:last]
            values[i::width] = part.tolist() if hasattr(part, "tolist") else part
        text = (template * (last - first)) % tuple(values)
        write(text.replace("nan", "NaN").replace("inf", "Infinity") if "%r" in template else text)


def _json_table(table: Table, indent: int, write) -> None:
    """Write the stock indented text of ``table``'s rows, whose opening
    bracket sits on a line indented by ``indent`` spaces."""
    row_pad = "\n" + " " * (indent + 2)
    fields = f",{row_pad}  ".join(["%r"] * len(table.columns))
    row = f"{row_pad}[{row_pad}  {fields}{row_pad}]"
    write("[")
    _rows(row, table, write, stop=1)
    _rows("," + row, table, write, start=1)
    write(f"\n{' ' * indent}]")


def _encode(obj, indent: int, write) -> None:
    """Write the stock indented text of ``obj``, which starts on a line
    indented by ``indent`` spaces; its members add 2."""
    if isinstance(obj, Table):
        return _json_table(obj, indent, write) if len(obj.columns[0]) else write("[]")
    if isinstance(obj, (np.integer, np.bool_)):  # the size rule admits numpy integers
        obj = obj.item()
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return write(json.dumps(obj))
    pad = "\n" + " " * (indent + 2)
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise TypeError("report keys must be str")
        brackets, items = "{}", [(f"{pad}{json.dumps(key)}: ", obj[key]) for key in sorted(obj)]
    else:
        brackets, items = "[]", [(pad, item) for item in obj]
    for i, (head, value) in enumerate(items):
        write(("," if i else brackets[0]) + head)
        _encode(value, indent + 2, write)
    write(f"\n{' ' * indent}{brackets[1]}")


def write_json(payload: dict, write) -> None:
    """Write the stock ``indent=2, sort_keys=True`` JSON text of ``payload``, then a newline."""
    _encode(payload, 0, write)
    write("\n")


def render_json(payload: dict) -> str:
    """The text ``write_json`` writes for ``payload``."""
    out = []
    write_json(payload, out.append)
    return "".join(out)


def profile_csv(profile, write) -> None:
    write("index,amplitude_real,amplitude_imag,probability\n")
    _rows("%d,%.17g,%.17g,%.17g\n", Table(profile.indices, profile.amplitudes.real,
                                          profile.amplitudes.imag, profile.probabilities), write)


def stats_csv(report, write) -> None:
    fields = ("p", "density", "trials", "mean", "stderr", "var", "var_times_p", "cheb_fraction")
    write("p,density,trials,mean,stderr,var,var_p,chebyshev_fraction\n")
    _rows("%d,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n",
          Table(*([getattr(r, name) for r in report.rows] for name in fields)), write)


def complexity_csv(t_grid, values, mean_abs_phase: float, zeros: int | None, write) -> None:
    write("t,mean_abs_phase,complexity\n")
    _rows(f"%.17g,{mean_abs_phase:.17g},%.17g\n", Table(t_grid, values), write)
    if zeros is not None:
        write(f"# overlap_zero_count,{zeros}\n")
