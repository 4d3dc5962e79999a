"""Deterministic CSV/JSON rendering for experiment outputs.

Floats go out with 17 significant digits in CSV (round-trip exact) and via
repr in JSON; key order is fixed, so identical configurations and seeds
produce byte-identical files.

Reports are mostly tables: lists of rows that hold only ``int`` and
``float`` values (amplitudes, complexity readings).  Tables take one path
at C speed in both formats.  In JSON, each table is encoded compactly by
the C encoder and turned into the indented layout by plain text
replacement, which is safe because number text never contains ``", "``
or ``"], ["``; the small envelope around the tables goes through the
stock ``indent=2, sort_keys=True`` encoder, and the result is the same
text that encoder gives for the whole payload.  Rows holding anything
else (bools, strings, None, numpy scalars) stay with the stock encoder.
In CSV, each table applies one printf-style row template to all of its
values at once; ``%.17g`` and ``%d`` give the same text as
``format(x, ".17g")`` and ``str``.
"""

from __future__ import annotations

import json
from itertools import chain

_NUMBERS = {int, float}
_ARRAYS = {list, tuple}
# A table's place in the envelope holds "\0<index>", which the encoder
# writes as "\u0000<index>"; every other occurrence of that escape sends
# the payload back to the stock encoder.
_MARK = "\0"
_MARK_TEXT = '"\\u0000'


def _stock_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)


def _is_table(rows) -> bool:
    return (bool(rows) and set(map(type, rows)) <= _ARRAYS and all(rows)
            and set(map(type, chain.from_iterable(rows))) <= _NUMBERS)


def _lift_tables(obj, tables: list):
    """A copy of the payload's dicts and arrays with each table replaced
    by its mark; the tables are appended to ``tables``."""
    kind = type(obj)
    if kind is dict:
        return {key: _lift_tables(value, tables) for key, value in obj.items()}
    if kind in _ARRAYS:
        if _is_table(obj):
            tables.append(obj)
            return f"{_MARK}{len(tables) - 1}"
        return [_lift_tables(value, tables) for value in obj]
    return obj


def _json_table(rows, indent: int) -> str:
    """The stock indented text of a table whose opening bracket sits on a
    line indented by ``indent`` spaces."""
    row_pad = "\n" + " " * (indent + 2)
    value_pad = row_pad + "  "
    body = json.dumps(rows, allow_nan=True)[2:-2]
    body = body.replace("], [", f"{row_pad}],{row_pad}[{value_pad}").replace(", ", "," + value_pad)
    return f"[{row_pad}[{value_pad}{body}{row_pad}]\n{' ' * indent}]"


def render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)``
    and a final newline, with the tables encoded at C speed."""
    tables = []
    head, *marked = _stock_json(_lift_tables(payload, tables)).split(_MARK_TEXT)
    if len(marked) != len(tables):
        return _stock_json(payload) + "\n"
    out = [head]
    for piece in marked:
        index, tail = piece.split('"', 1)
        line = out[-1][out[-1].rfind("\n") + 1:]
        out.append(_json_table(tables[int(index)], len(line) - len(line.lstrip(" "))))
        out.append(tail)
    out.append("\n")
    return "".join(out)


def _csv(header, template: str, rows) -> str:
    """The header line, then one line per row formatted by ``template``,
    which has one field per header column."""
    values = tuple(chain.from_iterable(rows))
    return ",".join(header) + "\n" + (template * (len(values) // len(header))) % values


def profile_csv(profile) -> str:
    rows = zip(profile.indices.tolist(), profile.amplitudes.real.tolist(),
               profile.amplitudes.imag.tolist(), profile.probabilities.tolist())
    return _csv(["index", "amplitude_real", "amplitude_imag", "probability"],
                "%d,%.17g,%.17g,%.17g\n", rows)


def stats_csv(report) -> str:
    rows = (
        (r.p, r.density, r.trials, r.mean, r.stderr, r.var, r.var_times_p, r.cheb_fraction)
        for r in report.rows
    )
    return _csv(
        ["p", "density", "trials", "mean", "stderr", "var", "var_p", "chebyshev_fraction"],
        "%d,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n", rows,
    )


def complexity_csv(t_grid, values, mean_abs_phase: float, zeros: int | None = None) -> str:
    rows = ((t, mean_abs_phase, v) for t, v in zip(t_grid.tolist(), values.tolist()))
    text = _csv(["t", "mean_abs_phase", "complexity"], "%.17g,%.17g,%.17g\n", rows)
    if zeros is not None:
        text += f"# overlap_zero_count,{zeros}\n"
    return text
