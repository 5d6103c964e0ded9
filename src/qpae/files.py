"""Artifact files written whole or not at all."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write data (str as UTF-8) to path through a temporary file in the
    same directory, renamed over path once complete.

    A reader, or a run killed part-way, sees the old file or the whole new
    one, never part of either. A write that fails removes its temporary
    file. The file gets the mode a plain write would give it.
    """
    path = Path(path)
    blob = data.encode() if isinstance(data, str) else data
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
