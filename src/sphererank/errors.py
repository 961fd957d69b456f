"""Exceptions shared across the package."""


class GuardExceeded(Exception):
    """An enumeration or search guard was exceeded.

    Guards keep exhaustive computations at desk scale; callers that need
    larger instances must use search-based operations instead.
    """

    def __init__(self, guard: str, message: str):
        super().__init__(message)
        self.guard = guard


class SchemaError(ValueError):
    """A JSON document failed validation; `fields` lists every failing path."""

    def __init__(self, fields: list[str]):
        super().__init__("schema violations: " + "; ".join(fields))
        self.fields = list(fields)


def require_keys(obj: dict, *keys: str) -> None:
    """Raise a SchemaError naming every one of `keys` that `obj` lacks."""
    missing = [f"missing key {k!r}" for k in keys if k not in obj]
    if missing:
        raise SchemaError(missing)


class NonSquareSystemError(ValueError):
    """Regularity was requested for a system with #generators != #variables.

    The finite-quotient criterion only characterizes regular sequences in
    the square case, so non-square input is rejected rather than answered
    unsoundly.
    """
