"""Every frozen dataclass stores read-only, finite copies of the arrays it is given,
and every owner of a uniform sample axis checks it by the one rule of ``axis_step``."""

import warnings

import numpy as np
import pytest

from mubtomo.classical_radon import PhaseSpaceGrid, Sinogram, inverse_radon, radon_forward
from mubtomo.cv_wigner import (PositionDensityMatrix, density_from_wavefunction, ground_state,
                               quadrature_sinogram, reconstruct_density_continuous,
                               wigner_from_density)
from mubtomo.errors import EmptyGrid, InvariantViolation
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


def _axis_owners():
    """Every owner of a uniform axis as (name, make, ends, lengths, named).
    ``make(n, lo, hi)`` builds an axis of n samples from lo to hi, ``ends``
    are ordered finite ends, and an array-backed axis takes no negative n.
    An owner of a symmetric axis takes its half-extent hi and checks that
    itself; ``named`` is then the start of its message for a non-finite one."""
    grid = PhaseSpaceGrid(np.ones((8, 8)) / 4.0, -1.0, 1.0, -1.0, 1.0)
    sino = Sinogram(np.ones((4, 16)), np.arange(4) * np.pi / 4, -3.0, 3.0)
    x64 = np.linspace(-8.0, 8.0, 64)
    rho = density_from_wavefunction(ground_state(x64), -8.0, 8.0)
    quads = quadrature_sinogram(rho, np.arange(16) * np.pi / 16)
    arrays, counts = (0, 1), (1, 0, -1)
    yield ("PhaseSpaceGrid.x", lambda n, lo, hi: PhaseSpaceGrid(np.ones((n, 3)), lo, hi, -1.0, 1.0),
           (-1.0, 1.0), arrays, None)
    yield ("PhaseSpaceGrid.p", lambda n, lo, hi: PhaseSpaceGrid(np.ones((3, n)), -1.0, 1.0, lo, hi),
           (-1.0, 1.0), arrays, None)
    yield ("Sinogram.s", lambda n, lo, hi: Sinogram(np.ones((2, n)), np.array([0.0, 1.0]), lo, hi),
           (-1.0, 1.0), arrays, None)
    yield ("PositionDensityMatrix.x",
           lambda n, lo, hi: PositionDensityMatrix(np.eye(n) / 3.0, lo, hi), (-1.125, 1.125),
           arrays, None)
    yield ("density_from_wavefunction x",
           lambda n, lo, hi: density_from_wavefunction(ground_state(x64[:n]), lo, hi),
           (-8.0, 8.0), arrays, None)
    yield ("inverse_radon x", lambda n, lo, hi: inverse_radon(sino, n, 8, x_min=lo, x_max=hi),
           (-1.0, 1.0), counts, None)
    yield ("inverse_radon p", lambda n, lo, hi: inverse_radon(sino, 8, n, p_min=lo, p_max=hi),
           (-1.0, 1.0), counts, None)
    yield ("projection s", lambda n, lo, hi: radon_forward(grid, [0.1], n_s=n, s_max=hi),
           (-3.0, 3.0), counts, "need finite s_max > 0")
    yield ("wigner_from_density p", lambda n, lo, hi: wigner_from_density(rho, n_p=n, p_max=hi),
           (-4.0, 4.0), counts, "wigner_from_density p_max must be finite")
    yield ("reconstruct_density_continuous x",
           lambda n, lo, hi: reconstruct_density_continuous(quads, n_x=n, x_max=hi),
           (-4.0, 4.0), counts, "reconstruct_density_continuous x_max must be finite")


def _axis_cases():
    for name, make, (lo, hi), lengths, named in _axis_owners():
        for n in lengths:
            yield pytest.param(make, n, lo, hi, EmptyGrid, rf"^{name} axis needs at least 2 samples",
                               id=f"{name}-n={n}")
        for bad in (np.nan, np.inf, -np.inf):
            if named:
                yield pytest.param(make, 4, -bad, bad, InvariantViolation, f"^{named}",
                                   id=f"{name}-half={bad}")
                continue
            yield pytest.param(make, 4, bad, hi, InvariantViolation,
                               rf"^{name}_min must be finite, got {bad}", id=f"{name}_min={bad}")
            yield pytest.param(make, 4, lo, bad, InvariantViolation,
                               rf"^{name}_max must be finite, got {bad}", id=f"{name}_max={bad}")
        if not named:
            for ends, what in (((hi, lo), "reversed"), ((lo, lo), "equal")):
                yield pytest.param(make, 4, *ends, InvariantViolation,
                                   "grid extents must be ordered", id=f"{name}-{what}")


@pytest.mark.parametrize("make, n, lo, hi, error, match", list(_axis_cases()))
def test_every_axis_owner_follows_the_axis_rule(make, n, lo, hi, error, match):
    """n samples from lo to hi, both included: fewer than 2 samples raise
    EmptyGrid, a non-finite end is named, and the ends must increase, each
    before numpy can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            make(n, lo, hi)
