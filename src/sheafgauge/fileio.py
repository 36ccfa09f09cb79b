"""Atomic, deterministic file output and schema-versioned JSON."""

from __future__ import annotations

import json
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


def write_json(path, payload: dict):
    body = dict(payload)
    body.setdefault("schema_version", SCHEMA_VERSION)
    atomic_write_text(path, json.dumps(body, sort_keys=True, indent=2) + "\n")


def write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_field(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _csv_field(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)
