"""Whole-file writes: a reader finds the old file or the new one, never
half of one.

Every file langlab writes goes through write_file, which writes beside
the target and renames over it.  This module imports nothing from
langlab, so every module that writes files can import it.
"""

from __future__ import annotations

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
