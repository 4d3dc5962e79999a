"""Deterministic CSV/JSON rendering for experiment outputs.

Floats go out with 17 significant digits in CSV (round-trip exact) and via
repr in JSON; key order is fixed, so identical configurations and seeds
produce byte-identical files.

Reports are mostly tables: lists of rows of one width that hold only
``int`` and ``float`` values (amplitudes, complexity readings).  Every
table, in both formats, is written by one printf-style row template
applied to all of its values at once (``_rows``).  In CSV, ``%.17g`` and
``%d`` give the same text as ``format(x, ".17g")`` and ``str``.  In JSON,
the template holds ``%r`` fields and the padding of the depth the table
sits at; ``%r`` gives the stock encoder's text for every int and finite
float, and the small envelope around the tables goes through the stock
``indent=2, sort_keys=True`` encoder, so the result is the text that
encoder gives for the whole payload.  Tables with ragged rows, with rows
holding anything else (bools, strings, None, numpy scalars) or with a
nan or infinity (``%r`` writes ``nan``/``inf``, JSON ``NaN``/``Infinity``)
stay with the stock encoder as ordinary values.
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


def _lift_tables(obj, tables: list, indent: int = 0):
    """A copy of the payload's dicts and arrays with each table of finite
    numbers replaced by its mark; the tables' text is appended to ``tables``.
    ``obj`` starts on a line indented by ``indent``; its members add 2."""
    kind = type(obj)
    if kind is dict:
        return {key: _lift_tables(value, tables, indent + 2) for key, value in obj.items()}
    if kind in _ARRAYS:
        if not _is_table(obj):
            return [_lift_tables(value, tables, indent + 2) for value in obj]
        text = _json_table(obj, indent)
        if "n" in text:
            return obj
        tables.append(text)
        return f"{_MARK}{len(tables) - 1}"
    return obj


def render_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)``
    and a final newline, with the tables written by row templates."""
    tables = []
    head, *marked = _stock_json(_lift_tables(payload, tables)).split(_MARK_TEXT)
    if len(marked) != len(tables):
        return _stock_json(payload) + "\n"
    out = [head]
    for index, tail in (piece.split('"', 1) for piece in marked):
        out += [tables[int(index)], tail]
    return "".join(out + ["\n"])


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
