"""Read-only, finite array fields and finite scalar fields for the frozen dataclasses."""

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


def require_finite(instance, *names):
    """Raise ``InvariantViolation`` naming the first of the scalar fields
    ``names`` that is not finite."""
    for name in names:
        value = getattr(instance, name)
        if not np.isfinite(value):
            raise InvariantViolation(f"{type(instance).__name__}.{name} must be finite, got {value}")
