"""Error types shared across the package, and the one check of integer arguments."""


class ConsistencyError(RuntimeError):
    """A mathematically guaranteed property failed to hold.

    Raised when a computation contradicts a proven fact (for example a
    kernel element that should be divisible by r is not).  Seeing this
    exception means the engine has a bug, not that the input was bad;
    bad input raises ValueError instead.
    """


def _integer(name: str, value, low: int, high: int | None = None) -> int:
    """`value` if it is an int, not a bool, and low <= value (<= high); else a ValueError naming `name`."""
    if type(value) is int and low <= value and (high is None or value <= high):
        return value
    bound = f">= {low}" if high is None else f"with {low} <= {name} <= {high}"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
