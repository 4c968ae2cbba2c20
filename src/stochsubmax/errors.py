"""Shared exception types, and the JSON field checks that raise :class:`InvalidInputError`."""


class EnumerationLimitError(Exception):
    """Raised when an exact enumeration would exceed its size guard.

    Exact checkers and oracles refuse oversized inputs instead of silently
    falling back to sampling.
    """


class NoCompactPolytopeError(Exception):
    """Raised when a constraint family has no materialized inequality description."""


class LpStallError(Exception):
    """Raised when the simplex solver exceeds its iteration cap."""

    def __init__(self, iterations: int, objective: float):
        super().__init__(
            f"simplex stalled after {iterations} iterations (objective {objective:.6g})"
        )
        self.iterations = iterations
        self.objective = objective


class InvalidInputError(ValueError):
    """Raised when an input document holds a value of the wrong kind.

    Such values are rejected rather than coerced: a cost of 1.7 is an error,
    never a cost of 1.
    """


def json_int(value, field: str) -> int:
    """``value`` as an int if it is integral (5 or 5.0); ``field`` names it in the error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidInputError(f"{field} must be an integer, got {value!r}")


def json_number(value, field: str):
    """``value`` unchanged if it is a JSON number; ``field`` names it in the error."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise InvalidInputError(f"{field} must be a number, got {value!r}")
