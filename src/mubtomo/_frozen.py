"""Read-only, finite array fields and axes for the frozen dataclasses, and the rules for
a real and a whole number, a uniform sample axis and a set of angles that they share."""

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


def real(what: str, value) -> float:
    """``value``, a real number of any Python or numpy type, as a Python float."""
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    raise InvariantViolation(f"{what} = {value!r} is not a number")


def whole(what: str, value) -> int:
    """``value``, an integer of any Python or numpy type, as a Python int."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise InvariantViolation(f"{what} = {value!r} is not a whole number")


def axis_step(what: str, n: int, lo: float, hi: float) -> float:
    """Step of the uniform axis of ``n`` samples from ``lo`` to ``hi``, both
    included. An end that is not a number, or not finite, raises ``InvariantViolation``
    naming ``<what>_min`` or ``<what>_max``, a size that is not a whole number names
    ``<what> axis size``, fewer than 2 samples raise ``EmptyGrid``, and ends not in
    increasing order, or a span hi - lo that overflows float64, ``InvariantViolation``."""
    lo, hi, n = real(f"{what}_min", lo), real(f"{what}_max", hi), whole(f"{what} axis size", n)
    for end, value in (("min", lo), ("max", hi)):
        if not np.isfinite(value):
            raise InvariantViolation(f"{what}_{end} must be finite, got {value}")
    if n < 2:
        raise EmptyGrid(f"{what} axis needs at least 2 samples, got {n}")
    if not lo < hi:
        raise InvariantViolation(f"grid extents must be ordered, got {what}_min = {lo} "
                                 f"and {what}_max = {hi}")
    span = hi - lo  # Python floats overflow to inf without a numpy warning
    if not np.isfinite(span):
        raise InvariantViolation(f"{what} span {what}_max - {what}_min must be finite, "
                                 f"got {span} from {lo} to {hi}")
    return span / (n - 1)


def half_axis_step(what: str, n: int, half: float) -> float:
    """``axis_step`` from -half to half; a half-extent that is not a real number,
    or not finite and positive, raises ``InvariantViolation`` naming ``<what>_max``."""
    half = real(f"{what}_max", half)
    if not 0 < half < np.inf:
        raise InvariantViolation(f"{what}_max must be finite and positive, got {half}")
    return axis_step(what, n, -half, half)


@np.errstate(over="ignore")  # linspace's (n - 1) * step may overflow near the largest float;
def freeze_axis(instance, name: str, n: int):
    """Store the ends of axis ``name`` of ``instance`` as floats, its step by ``axis_step``
    (as ``<Type>.<name>``) as ``d<name>``, and its n samples, read-only, as ``<name>``."""
    what = f"{type(instance).__name__}.{name}"
    lo, hi = (real(f"{what}_{end}", getattr(instance, f"{name}_{end}")) for end in ("min", "max"))
    step = axis_step(what, n, lo, hi)
    samples = np.linspace(lo, hi, n)  # it then sets the last sample to hi
    samples.setflags(write=False)
    vars(instance).update({f"{name}_min": lo, f"{name}_max": hi, f"d{name}": step, name: samples})


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
