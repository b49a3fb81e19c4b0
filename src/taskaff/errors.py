"""Exception types shared across the package, and its checks of read artifacts.

Four classes, none with attributes of its own: everything an error knows is
in its message. The command line exits 2 on a TaskAffError and on its
subclasses InvalidInputError (a bad argument) and ParseError (a malformed
file), and 3 on a TrainingError.
"""

import json
from contextlib import contextmanager
from zipfile import BadZipFile

import numpy as np


class TaskAffError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(TaskAffError):
    """An argument violates a documented precondition."""


class ParseError(TaskAffError):
    """An input file could not be parsed."""


class TrainingError(TaskAffError):
    """Model training failed (non-finite loss or a propagated failure)."""


@contextmanager
def reading(path):
    """Report the exception a reader raises on a malformed artifact (BadZipFile
    and EOFError: a damaged or empty .npz) as a ParseError naming the file."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, BadZipFile, EOFError) as exc:
        raise ParseError(f"{path} is malformed: {type(exc).__name__}: {exc}") from None


def read_json_object(path) -> dict:
    """The JSON object a file holds; anything else is a ParseError naming the file."""
    with open(path, "r", encoding="utf-8") as fh, reading(path):
        return {**json.load(fh)}  # a JSON array, string or number is a TypeError


def int_ids(value) -> np.ndarray:
    """JSON ids as int64; a float, string or bool id is a TypeError, not truncated."""
    ids = np.asarray(value)
    if ids.size and ids.dtype.kind not in "iu":
        raise TypeError(f"ids must be integers, not {ids.dtype} values")
    return ids.astype(np.int64, copy=False)
