"""Exception types shared across the package, the one rule for an integer
argument and the one for a real number, the text-file reader that reports
undecodable input as one of them, and the one way the package writes a
file."""

import math
import os
from contextlib import contextmanager

import numpy as np


class SetnError(Exception):
    """Base class for package-specific failures."""


class ShapeError(SetnError, ValueError):
    """Operands have incompatible shapes."""


class ContractError(SetnError, RuntimeError):
    """An operation was called outside its contract."""


class DataError(SetnError, ValueError):
    """Malformed or inconsistent input data."""


class NonFiniteError(SetnError, ValueError):
    """A tensor would hold NaN or Inf, e.g. after a float64 overflow."""


class LabelError(SetnError, ValueError):
    """A class label is outside the valid range."""


class CheckpointError(SetnError, RuntimeError):
    """A checkpoint file is unreadable, corrupt, or incompatible."""


class TrainingError(SetnError, RuntimeError):
    """Training aborted, e.g. on a non-finite loss."""


def is_int_type(kind: type) -> bool:
    """The package's one rule for an integer's type: ``int`` or a numpy
    integer, never ``bool``, which would count as 1 or 0."""
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def is_finite_number(value) -> bool:
    """The package's one rule for a real number: an ``int`` or ``float``, never
    ``bool``, that converts to a finite float; an int past the float range
    overflows."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_int(value, name: str, least: int, most: int | None = None) -> int:
    """``value`` as an ``int`` if its type passes ``is_int_type`` and it lies in
    [least, most], no upper bound by default; else a DataError starting with ``name``."""
    if not (is_int_type(type(value)) and least <= value and (most is None or value <= most)):
        bounds = f"of at least {least}" if most is None else f"in [{least}, {most}]"
        raise DataError(f"{name} must be an integer {bounds}, got {value!r}")
    return int(value)


@contextmanager
def open_text(path):
    """``open(path)`` for reading UTF-8 text; a byte sequence that is not
    UTF-8 raises DataError naming the path."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


@contextmanager
def replacing(path, mode: str):
    """A file opened with ``mode`` ("w" or "wb") beside ``path`` that replaces
    ``path`` when the block completes. When the block or the replacement
    fails, ``path`` stays as it was and the new file is removed."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    except OSError as exc:
        exc.filename = str(path)  # the error names the file asked for
        raise
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
