"""Artifact files written whole or not at all; what a JSON field read back must hold."""

from __future__ import annotations

import numbers
import os
import sys
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


def _is_int(value) -> bool:
    """True for integers, bool excluded (JSON true is not a count or an id)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """True for a number a float holds: no NaN, infinity or huge integer; bool excluded."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_list_of(holds):
    return lambda v: isinstance(v, (list, tuple)) and all(map(holds, v))


def _is_counts(value) -> bool:
    """A non-empty square matrix of counts an int64 holds."""
    return isinstance(value, list) and len(value) > 0 and all(
        isinstance(row, list) and len(row) == len(value)
        and all(_is_int(n) and 0 <= n < 2 ** 63 for n in row) for row in value)


# what a JSON value must hold to fill a config or report field, keyed by
# the field's annotation; the one array field is a report's confusion matrix
FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_finite),
    "float | None": ("a finite number or null", lambda v: v is None or _is_finite(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "list[int]": ("a list of integers", _is_list_of(_is_int)),
    "list[str]": ("a list of strings", _is_list_of(lambda v: isinstance(v, str))),
    "list[float | None]": ("a list of finite numbers or nulls",
                           _is_list_of(lambda v: v is None or _is_finite(v))),
    "list[list[int]]": ("a list of integer lists", _is_list_of(_is_list_of(_is_int))),
    "np.ndarray": ("a square matrix of non-negative integers", _is_counts),
}
