"""Read-only, finite array fields for the frozen dataclasses, and the rules for a
uniform sample axis and for a set of angles that they and the functions building one share."""

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
    ends not in increasing order, or a span hi - lo that overflows float64,
    ``InvariantViolation``."""
    for end, value in (("min", lo), ("max", hi)):
        if not np.isfinite(value):
            raise InvariantViolation(f"{what}_{end} must be finite, got {value}")
    if n < 2:
        raise EmptyGrid(f"{what} axis needs at least 2 samples, got {n}")
    if not lo < hi:
        raise InvariantViolation(f"grid extents must be ordered, got {what}_min = {lo} "
                                 f"and {what}_max = {hi}")
    span = float(hi) - float(lo)  # Python floats overflow to inf without a numpy warning
    if not np.isfinite(span):
        raise InvariantViolation(f"{what} span {what}_max - {what}_min must be finite, "
                                 f"got {span} from {lo} to {hi}")
    return span / (n - 1)


def half_axis_step(what: str, n: int, half: float) -> float:
    """``axis_step`` from -half to half; a half-extent that is not finite and
    positive raises ``InvariantViolation`` naming ``<what>_max``."""
    if not 0 < half < np.inf:
        raise InvariantViolation(f"{what}_max must be finite and positive, got {half}")
    return axis_step(what, n, -half, half)


def angle_set(what: str, thetas) -> np.ndarray:
    """``thetas`` as a new 1-D float array of one or more angles in [0, pi);
    anything else raises ``InvariantViolation`` naming ``what``."""
    try:
        thetas = np.array(thetas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation(f"{what} entries do not stack into one numeric array") from exc
    if thetas.ndim != 1 or not thetas.size:
        raise InvariantViolation(f"{what} needs at least one angle, as a nonempty 1D sequence")
    outside = ~((thetas >= 0.0) & (thetas < np.pi))
    if outside.any():
        raise InvariantViolation(f"{what} angle theta = {thetas[outside][0]} outside [0, pi)")
    return thetas
