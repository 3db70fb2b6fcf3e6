"""The one writer of every CSV and JSON table the package emits.

A table is a tuple of column names and an iterable of column chunks.  A
chunk holds one sequence per column, all of one length: a numpy array or
a list.  Chunks are formatted and written one at a time, so an export
never holds more than one chunk of text.  The bytes are the contract:

- CSV: the header line, then one comma-joined line per row.  A float is
  its ``repr``, a bool ``true``/``false``, anything else ``str``; strings
  are written raw, unquoted.
- JSON: exactly ``json.dumps(rows, indent=1)`` of the rows as dicts, then
  a newline.

Cells are scalars.  An array column is converted once with ``.tolist()``
and formatted by its dtype; a list column goes through the cell rule one
value at a time, so it may mix types (``""`` beside floats, say).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

FORMATS = ("csv", "json")


def write_table(fileobj, columns, chunks, fmt: str = "csv") -> int:
    """Write the table to `fileobj` as CSV or JSON; returns its row count."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "json":
        keys = [encode_basestring_ascii(c) + ": " for c in columns]
        layout = (" {\n  ", ",\n  ", "\n }", ",\n")
        fileobj.write("[")
    else:
        keys = [""] * len(columns)
        layout = ("", ",", "\n", "")
        fileobj.write(",".join(columns) + "\n")
    count = 0
    for chunk in chunks:
        size = len(chunk[0])
        if not size:
            continue
        cells = [_column(column, fmt == "json") for column in chunk]
        text = _rows(keys, cells, size, *layout)
        if fmt == "json":
            text = ("\n" if count == 0 else ",\n") + text
        fileobj.write(text)
        count += size
    if fmt == "json":
        fileobj.write("\n]\n" if count else "]\n")
    return count


def _rows(keys, cells, size, head, sep, tail, joiner) -> str:
    """`size` rows joined by `joiner`, each head + key/cell pairs joined by
    `sep` + tail.  A column of one repeated value is part of the row
    template.  With one column left varying, the rows are a single join
    of its texts; otherwise each row is one %-format of the template."""
    varying = [i for i, (conversion, _) in enumerate(cells) if conversion]
    if len(varying) == 1:
        (i,) = varying
        conversion, values = cells[i]
        before = head + "".join(keys[j] + cells[j][1] + sep for j in range(i)) + keys[i]
        after = "".join(sep + keys[j] + cells[j][1] for j in range(i + 1, len(cells))) + tail
        return before + (after + joiner + before).join(map(conversion.__mod__, values)) + after
    row = head + sep.join(
        key.replace("%", "%%") + (conversion or text.replace("%", "%%"))
        for key, (conversion, text) in zip(keys, cells)
    ) + tail
    if not varying:
        return joiner.join([row % ()] * size)
    return joiner.join(map(row.__mod__, zip(*(cells[i][1] for i in varying))))


def _column(column, as_json: bool):
    """(conversion, values) of one column: the %-conversion that formats
    its cells and the cells ready for it, or (None, text) for a string
    column holding one value throughout.  Arrays convert by dtype; a list
    goes through the cell rule, so it may mix types."""
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "U" and (column == column[0]).all():
            value = column[0].item()
            return None, encode_basestring_ascii(value) if as_json else value
        values = column.tolist()
        if kind in "iu":
            return "%d", values
        if kind == "f" and (not as_json or np.isfinite(column).all()):
            return "%r", values
        if kind == "U":
            return "%s", list(map(encode_basestring_ascii, values)) if as_json else values
        column = values
    return "%s", [_json_cell(v) if as_json else _csv_cell(v) for v in column]


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_cell(value) -> str:
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)
