"""Tiny CSV/JSON writing helpers with atomic file replacement."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

__all__ = ["write_csv", "write_json"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    _atomic_write(path, buf.getvalue())


def write_json(path: str, payload) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")
