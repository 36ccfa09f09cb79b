"""Atomic, deterministic file output and schema-versioned, strict JSON.

Every JSON text the package writes comes from ``_json_text``: compact (no
whitespace), on a single line, strict (no NaN or infinity) and with its keys
sorted. Without an indent, ``json`` encodes in C. ``python3 -m json.tool
FILE`` pretty-prints an output file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

SCHEMA_VERSION = "1"


def atomic_write_text(path, text: str):
    """Write via a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_fields(report) -> dict:
    """A report (a dataclass) as JSON writes it: field by field, under the
    field names, with a non-finite float field written as null."""
    if not dataclasses.is_dataclass(report) or isinstance(report, type):
        raise TypeError(f"{type(report).__name__} is not a report JSON can write")
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {name: None if isinstance(value, float) and not math.isfinite(value) else value
            for name, value in fields.items()}


def _json_text(value) -> str:
    """``value`` as one line of compact, key-sorted, strict JSON: reports
    anywhere in it are written by ``json_fields``; any other non-finite float
    raises ValueError. Private, so a layer trace charges its time to the
    caller."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False,
                      default=json_fields)


def write_json(path, payload: dict):
    """``payload``, with a ``schema_version``, as ``_json_text`` and a newline;
    when ``_json_text`` raises, nothing is written."""
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    atomic_write_text(path, _json_text(body) + "\n")


def write_csv(path, header, rows):
    """One line per row, each field written with ``str``."""
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")
