"""Read-only, finite array fields for the frozen dataclasses, and the rule
for a uniform sample axis that they and the functions building one share."""

import numpy as np

from .errors import EmptyGrid, InvariantViolation


def finite_array(value, dtype, what: str) -> np.ndarray:
    """``value`` as a new C-ordered array of ``dtype``; ragged, non-numeric
    or non-finite input raises ``InvariantViolation`` naming ``what``."""
    try:
        arr = np.array(value, dtype=dtype, order="C")
        if np.isfinite(arr).all():
            return arr
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"{what} entries do not stack into one numeric array") from exc
    raise InvariantViolation(f"{what} has non-finite entries")


def freeze_fields(instance, dtype=None, **fields):
    """Set each field to a read-only ``finite_array`` copy; the caller's arrays stay writable."""
    for name, value in fields.items():
        value = finite_array(value, dtype, f"{type(instance).__name__}.{name}")
        value.setflags(write=False)
        object.__setattr__(instance, name, value)


def axis_step(what: str, n: int, lo: float, hi: float) -> float:
    """Step of the uniform axis of ``n`` samples from ``lo`` to ``hi``, both
    included. An end that is not finite raises ``InvariantViolation`` naming
    ``<what>_min`` or ``<what>_max``, fewer than 2 samples ``EmptyGrid``, and
    ends not in increasing order ``InvariantViolation``."""
    for end, value in (("min", lo), ("max", hi)):
        if not np.isfinite(value):
            raise InvariantViolation(f"{what}_{end} must be finite, got {value}")
    if n < 2:
        raise EmptyGrid(f"{what} axis needs at least 2 samples, got {n}")
    if not lo < hi:
        raise InvariantViolation(f"grid extents must be ordered, got {what}_min = {lo} "
                                 f"and {what}_max = {hi}")
    return (hi - lo) / (n - 1)
