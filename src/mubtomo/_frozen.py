"""Read-only, finite array fields for the frozen dataclasses."""

import numpy as np

from .errors import InvariantViolation


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
