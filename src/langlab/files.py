"""Whole-file writes: a reader finds the old file or the new one, never
half of one.

Every file langlab writes goes through write_file, which writes beside
the target and renames over it; write_json is the one JSON writer and
read_json the one JSON reader, which names the file it refuses.  This
module imports nothing from langlab, so every module that reads or
writes files can import it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


def line_bytes(lines) -> bytes:
    """The utf-8 text of lines, each ended by a newline."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_file(path, *chunks: bytes) -> None:
    """Write the chunks to path through a .tmp file beside it; a failed
    write leaves path as it was and removes the .tmp file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Write obj as sorted, indented JSON; NaN and infinities are refused
    before anything is written."""
    write_file(path, (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
                      + "\n").encode("utf-8"))


def read_json(path) -> dict:
    """The JSON object path holds; a file that is not JSON, or holds
    anything but an object, fails as a ValueError naming path."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:    # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path} is not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return obj
