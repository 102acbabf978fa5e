"""Every frozen dataclass stores read-only copies of the arrays it is given."""

import numpy as np
import pytest

from mubtomo.classical_radon import PhaseSpaceGrid, Sinogram
from mubtomo.cv_wigner import PositionDensityMatrix
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


@pytest.mark.parametrize("make, arr, field", list(_cases()),
                         ids=["grid", "sinogram", "thetas", "density", "probabilities", "counts",
                              "bases"])
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

