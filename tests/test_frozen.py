"""Every frozen dataclass stores read-only, finite copies of the arrays it is given."""

import numpy as np
import pytest

from mubtomo.classical_radon import PhaseSpaceGrid, Sinogram
from mubtomo.cv_wigner import PositionDensityMatrix
from mubtomo.errors import InvariantViolation
from mubtomo.qudit_mub import MubBasisSet
from mubtomo.qudit_tomography import CountTable, ProbabilityTable


def _cases():
    rho = np.eye(4, dtype=complex) / 3.0  # trace integral 1 with dx = 0.75
    yield lambda a: PhaseSpaceGrid(a, -1.0, 1.0, -1.0, 1.0), np.ones((3, 3)), "values"
    yield lambda a: Sinogram(a, np.array([0.0, 1.0]), -1.0, 1.0), np.ones((2, 3)), "values"
    yield lambda a: Sinogram(np.ones((2, 3)), a, -1.0, 1.0), np.array([0.0, 1.0]), "thetas"
    yield lambda a: PositionDensityMatrix(a, -1.125, 1.125), rho, "values"
    yield lambda a: ProbabilityTable(2, a), np.full((3, 2), 0.5), "values"
    yield lambda a: CountTable(2, 4, a), np.full((3, 2), 2), "counts"
    yield lambda a: MubBasisSet(3, a), np.stack([np.eye(3, dtype=complex)] * 4), "bases"


_IDS = ["grid", "sinogram", "thetas", "density", "probabilities", "counts", "bases"]


@pytest.mark.parametrize("make, arr, field", list(_cases()), ids=_IDS)
def test_fields_are_read_only_copies(make, arr, field):
    obj = make(arr)
    stored = getattr(obj, field)
    assert stored.flags.writeable is False
    assert arr.flags.writeable is True
    before = stored.copy()
    arr.flat[0] += 1
    assert np.array_equal(stored, before)
    with pytest.raises(ValueError):
        stored.flat[0] = 0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make, arr, field", list(_cases()), ids=_IDS)
def test_fields_reject_non_finite_entries(make, arr, field, bad):
    """Checks of the form ``deviation > tol`` are false for NaN, so the
    stored array is checked for finiteness before any of them runs."""
    arr = arr.astype(np.result_type(arr, float))
    arr.flat[-1] = bad
    with pytest.raises(InvariantViolation, match=rf"\.{field} has non-finite entries"):
        make(arr)


def _extent_cases():
    rho = np.eye(4, dtype=complex) / 3.0
    extents = {"x_min": -1.0, "x_max": 1.0, "p_min": -1.0, "p_max": 1.0}
    for field in extents:
        yield lambda bad, f=field: PhaseSpaceGrid(np.ones((3, 3)), **{**extents, f: bad}), \
            f"PhaseSpaceGrid.{field}"
    for field in ("s_min", "s_max"):
        yield lambda bad, f=field: Sinogram(np.ones((2, 3)), np.array([0.0, 1.0]),
                                            **{"s_min": -1.0, "s_max": 1.0, f: bad}), \
            f"Sinogram.{field}"
    for field in ("x_min", "x_max"):
        yield lambda bad, f=field: PositionDensityMatrix(
            rho, **{"x_min": -1.125, "x_max": 1.125, f: bad}), f"PositionDensityMatrix.{field}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make, name", list(_extent_cases()),
                         ids=[name for _, name in _extent_cases()])
def test_extents_reject_non_finite_values_by_name(make, name, bad):
    """An infinite extent passes the ordering check, and a NaN one would be
    blamed on the ordering, the row masses or the trace; each is named."""
    with pytest.raises(InvariantViolation, match=rf"^{name} must be finite"):
        make(bad)
