"""Exception types shared across the package."""

import numbers

import numpy as np


class GlgError(Exception):
    """Base class for all package errors."""


class ShapeError(GlgError):
    """Operands have incompatible dimensions."""


class NumericError(GlgError):
    """A numerical routine failed (SVD non-convergence, overflow, ...)."""


class DataFormatError(GlgError):
    """A dataset file is malformed; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}]" if line is not None else "]")
        super().__init__(message + where)


class AmbiguousLabelError(GlgError):
    """The gradient sign rule did not single out one class."""


class UnrecoverableError(GlgError):
    """A closed-form recovery has no usable gradient rows."""


class PartialRecoveryError(GlgError):
    """Per-node recovery failed for a subset of nodes."""

    def __init__(self, message, failed_nodes):
        self.failed_nodes = list(failed_nodes)
        super().__init__(f"{message}: nodes {self.failed_nodes}")


class DegenerateGradientError(GlgError):
    """A gradient bundle has zero norm where the objective needs one."""


class UndefinedMetricError(GlgError):
    """The metric is undefined for the given inputs (e.g. single-class truth)."""


class ConfigError(GlgError):
    """Experiment configuration failed validation; carries the field path."""

    def __init__(self, message, field=None):
        self.field = field
        prefix = f"{field}: " if field else ""
        super().__init__(prefix + message)


def check_int(value, field, minimum):
    """Raise :class:`ConfigError` unless ``value`` is an integer >= ``minimum``.

    A bool is not accepted as an integer.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"must be an integer, got {value!r}", field)
    if value < minimum:
        raise ConfigError(f"must be at least {minimum}, got {value}", field)


def check_indices(values, what, size=None, of=""):
    """``values`` as an int64 vector (itself if it is one) of indices in [0,
    size), or [0, inf) without ``size``; non-integers, bools too, and
    indices out of range raise :class:`ShapeError`."""
    arr = np.atleast_1d(np.asarray(values))
    if arr.ndim != 1 or arr.size and arr.dtype.kind not in "iu":
        raise ShapeError(f"{what}s must be a vector of integers, got "
                         f"{arr.dtype} of shape {arr.shape}")
    # an unsigned index past int64's range turns negative here
    arr = arr.astype(np.int64, copy=False)
    if np.any(arr < 0) or size is not None and np.any(arr >= size):
        raise ShapeError(f"{what} out of range "
                         + ("(negative)" if size is None else f"for {size} {of}"))
    return arr


def check_real(value, field):
    """Raise :class:`ConfigError` unless ``value`` is a real number.

    A bool is not accepted as a number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"must be a real number, got {value!r}", field)
