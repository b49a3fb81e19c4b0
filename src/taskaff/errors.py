"""Exception types shared across the package, and its checks of read artifacts."""

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

    def __init__(self, message, line_number=None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


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


class ShortfallError(InvalidInputError):
    """Fewer items are available than were requested."""

    def __init__(self, message, available):
        super().__init__(f"{message} (available: {available})")
        self.available = available


class ConvergenceError(TaskAffError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (residual: {residual:g})")
        self.residual = residual


class TrainingError(TaskAffError):
    """Model training failed (non-finite loss or a propagated failure)."""

    def __init__(self, message, epoch=None, subset_index=None, group_index=None):
        parts = [message]
        if epoch is not None:
            parts.append(f"epoch {epoch}")
        if subset_index is not None:
            parts.append(f"subset {subset_index}")
        if group_index is not None:
            parts.append(f"group {group_index}")
        super().__init__(", ".join(parts))
        self.epoch = epoch
        self.subset_index = subset_index
        self.group_index = group_index


class CoverageError(TaskAffError):
    """A required pair or task is not covered by the available data/models."""

    def __init__(self, message, uncovered=None):
        super().__init__(message)
        self.uncovered = uncovered


class DegenerateInputError(InvalidInputError):
    """Input is formally valid but carries no usable signal (e.g. constant matrix)."""


class GenerationError(TaskAffError):
    """Synthetic instance generation could not satisfy its separation targets."""

    def __init__(self, message, achieved_within, achieved_between):
        super().__init__(
            f"{message} (achieved within={achieved_within:g}, between={achieved_between:g})"
        )
        self.achieved_within = achieved_within
        self.achieved_between = achieved_between


class EmptyDomainError(TaskAffError):
    """A statistic has an empty domain (PPR similarity over fewer than two tasks)."""
