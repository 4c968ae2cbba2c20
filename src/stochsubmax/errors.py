"""Shared exception types, the field checks that raise :class:`InvalidInputError`
or :class:`MissingFieldError`, and the read-only cache of derived arrays
(:func:`cached_array`)."""

from functools import cached_property, wraps

import numpy as np


class EnumerationLimitError(Exception):
    """Raised when an exact enumeration would exceed its size guard.

    Exact checkers and oracles refuse oversized inputs instead of silently
    falling back to sampling.
    """


class LpStallError(Exception):
    """Raised when the simplex solver exceeds its iteration cap."""

    def __init__(self, iterations: int, objective: float):
        super().__init__(
            f"simplex stalled after {iterations} iterations (objective {objective:.6g})"
        )
        self.iterations = iterations
        self.objective = objective


class LpCertificateError(LpStallError):
    """Raised when a simplex answer fails its primal or optimality check.

    ``check`` is the failed check ("row", "bound", "basis", "dual sign" or
    "duality gap"), ``at`` names the row, column or basis at
    fault and ``amount`` is the size of the violation or gap found there.
    ``index`` is the failing objective's position in a stack of objectives,
    0 for a single one. ``iterations`` is None: the check does not see the
    pivots.
    """

    def __init__(self, check: str, at, amount: float, objective: float, index: int = 0):
        Exception.__init__(
            self,
            f"LP answer fails its {check} check at {at}: {amount:.6g} "
            f"(objective {objective:.6g})",
        )
        self.iterations = None
        self.objective = objective
        self.check = check
        self.at = at
        self.amount = amount
        self.index = index


class InvalidInputError(ValueError):
    """Raised when an input document or argument holds a value of the wrong kind.

    Such values are rejected rather than coerced: a cost of 1.7 is an error,
    never a cost of 1.
    """


class MissingFieldError(KeyError):
    """Raised when an input document lacks a required field; the message names its
    path (``utility.params.weights is missing``). It stays a ``KeyError``, the mark of
    a malformed document rather than of a wrong value."""

    def __str__(self) -> str:
        return f"{self.args[0]} is missing"


def required(doc, key: str, field: str):
    """``doc[key]``; a missing key raises :class:`MissingFieldError` naming ``field``."""
    try:
        return doc[key]
    except KeyError:
        raise MissingFieldError(field) from None


def as_int(value, field: str) -> int:
    """``value`` as an int if it is integral (5, 5.0 or a numpy integer); ``field`` names it in the error."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{field} must be an integer, got {value!r}")


def as_ints(values, field: str) -> list[int]:
    """``values`` as ints by :func:`as_int`, entry j named ``field[j]`` in the error;
    a list of plain ints passes one type sweep as it is, and a 1-D numpy integer
    array none."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return values.tolist()
    values = list(values)
    if set(map(type, values)) <= {int}:
        return values
    return [as_int(v, f"{field}[{j}]") for j, v in enumerate(values)]


def json_number(value, field: str):
    """``value`` unchanged if it is a JSON number; ``field`` names it in the error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{field} must be a number, got {value!r}")


def cached_array(method):
    """A cached property whose array cannot be written: every later reader of a
    cached table sees the table it was built as, never a caller's edit of it."""

    @wraps(method)
    def read_only(self):
        out = method(self)
        out.flags.writeable = False
        return out

    return cached_property(read_only)
