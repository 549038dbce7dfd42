"""Exception types shared across the package, the one rule for an integer
argument, the text-file reader that reports undecodable input as one of
them, and the one way the package writes a file."""

import os
from contextlib import contextmanager
from contextvars import ContextVar

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


# (new file, target) of each ``replacing`` block that completed inside the
# innermost open ``replacing_together`` of this thread or task
_staged: ContextVar[list | None] = ContextVar("_staged", default=None)


@contextmanager
def replacing(path, mode: str):
    """A file opened with ``mode`` ("w" or "wb") beside ``path`` that replaces
    ``path`` when the block completes, or when an enclosing
    ``replacing_together`` block does. When the block or the replacement
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
        staged = _staged.get()
        if staged is None:
            os.replace(tmp, path)
        else:
            staged.append((tmp, path))
    except BaseException:
        os.unlink(tmp)
        raise


@contextmanager
def replacing_together():
    """Hold back every ``replacing`` that completes inside the block: their
    files replace their targets one after another once the whole block
    completes. When the block fails, no target changes and every new file
    is removed."""
    staged: list = []
    token = _staged.set(staged)
    try:
        try:
            yield
        finally:
            _staged.reset(token)
        while staged:
            os.replace(*staged[0])
            del staged[0]
    finally:
        for tmp, _ in staged:
            os.unlink(tmp)
