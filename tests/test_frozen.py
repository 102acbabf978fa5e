"""Every frozen dataclass stores read-only, finite copies of the arrays it is given,
every owner of a uniform sample axis checks it by the one rule of ``axis_step``,
and every owner of a set of projection angles by the one rule of ``angle_set``."""

import json
import warnings

import numpy as np
import pytest

from mubtomo.classical_radon import PhaseSpaceGrid, Sinogram, inverse_radon, radon_forward
from mubtomo.cv_wigner import (PositionDensityMatrix, density_from_wavefunction, ground_state,
                               quadrature_distribution, quadrature_sinogram,
                               reconstruct_density_continuous, wigner_from_density)
from mubtomo.errors import EmptyGrid, FormatError, InvariantViolation
from mubtomo.io_formats import read_sinogram
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
    """Every owner of a uniform axis as (name, make, ends, lengths, half).
    ``make(n, lo, hi)`` builds an axis of n samples from lo to hi, ``ends``
    are ordered finite ends, and an array-backed axis takes no negative n.
    An owner of a symmetric axis (``half``) takes only its half-extent hi,
    which ``half_axis_step`` names as ``<name>_max`` unless it is finite and
    positive."""
    grid = PhaseSpaceGrid(np.ones((8, 8)) / 4.0, -1.0, 1.0, -1.0, 1.0)
    sino = Sinogram(np.ones((4, 16)), np.arange(4) * np.pi / 4, -3.0, 3.0)
    x64 = np.linspace(-8.0, 8.0, 64)
    rho = density_from_wavefunction(ground_state(x64), -8.0, 8.0)
    quads = quadrature_sinogram(rho, np.arange(16) * np.pi / 16)
    arrays, counts = (0, 1), (1, 0, -1)
    yield ("PhaseSpaceGrid.x", lambda n, lo, hi: PhaseSpaceGrid(np.ones((n, 3)), lo, hi, -1.0, 1.0),
           (-1.0, 1.0), arrays, False)
    yield ("PhaseSpaceGrid.p", lambda n, lo, hi: PhaseSpaceGrid(np.ones((3, n)), -1.0, 1.0, lo, hi),
           (-1.0, 1.0), arrays, False)
    yield ("Sinogram.s", lambda n, lo, hi: Sinogram(np.ones((2, n)), np.array([0.0, 1.0]), lo, hi),
           (-1.0, 1.0), arrays, False)
    yield ("PositionDensityMatrix.x",
           lambda n, lo, hi: PositionDensityMatrix(np.eye(n) / 3.0, lo, hi), (-1.125, 1.125),
           arrays, False)
    yield ("density_from_wavefunction x",
           lambda n, lo, hi: density_from_wavefunction(ground_state(x64[:n]), lo, hi),
           (-8.0, 8.0), arrays, False)
    yield ("inverse_radon x", lambda n, lo, hi: inverse_radon(sino, n, 8, x_min=lo, x_max=hi),
           (-1.0, 1.0), counts, False)
    yield ("inverse_radon p", lambda n, lo, hi: inverse_radon(sino, 8, n, p_min=lo, p_max=hi),
           (-1.0, 1.0), counts, False)
    yield ("projection s", lambda n, lo, hi: radon_forward(grid, [0.1], n_s=n, s_max=hi),
           (-3.0, 3.0), counts, True)
    yield ("wigner_from_density p", lambda n, lo, hi: wigner_from_density(rho, n_p=n, p_max=hi),
           (-4.0, 4.0), counts, True)
    yield ("reconstruct_density_continuous x",
           lambda n, lo, hi: reconstruct_density_continuous(quads, n_x=n, x_max=hi),
           (-4.0, 4.0), counts, True)


def _axis_cases():
    for name, make, (lo, hi), lengths, half in _axis_owners():
        for n in lengths:
            yield pytest.param(make, n, lo, hi, EmptyGrid, rf"^{name} axis needs at least 2 samples",
                               id=f"{name}-n={n}")
        for bad in (np.nan, np.inf, -np.inf):
            if half:
                yield pytest.param(make, 4, -bad, bad, InvariantViolation,
                                   rf"^{name}_max must be finite and positive, got {bad}",
                                   id=f"{name}-half={bad}")
                continue
            yield pytest.param(make, 4, bad, hi, InvariantViolation,
                               rf"^{name}_min must be finite, got {bad}", id=f"{name}_min={bad}")
            yield pytest.param(make, 4, lo, bad, InvariantViolation,
                               rf"^{name}_max must be finite, got {bad}", id=f"{name}_max={bad}")
        if not half:
            for ends, what in (((hi, lo), "reversed"), ((lo, lo), "equal")):
                yield pytest.param(make, 4, *ends, InvariantViolation,
                                   "grid extents must be ordered", id=f"{name}-{what}")
            huge = np.float64(1.7e308)
            yield pytest.param(make, 4, -huge, huge, InvariantViolation,
                               rf"^{name} span {name}_max - {name}_min must be finite, got inf",
                               id=f"{name}-span-overflow")


@pytest.mark.parametrize("make, n, lo, hi, error, match", list(_axis_cases()))
def test_every_axis_owner_follows_the_axis_rule(make, n, lo, hi, error, match):
    """n samples from lo to hi, both included: fewer than 2 samples raise
    EmptyGrid, a non-finite end is named, the ends must increase and their
    span must be finite, each before numpy can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            make(n, lo, hi)


def _read_sinogram(thetas, path):
    """``read_sinogram`` of a one-row document whose angles are ``thetas``."""
    path.write_text(json.dumps({"format": 1, "kind": "sinogram", "n_theta": 1, "thetas": thetas,
                                "n_s": 2, "s_min": -1.5, "s_max": 1.5, "data": [[0.1, 0.3]]}))
    return read_sinogram(path)


def _angle_owners():
    """Every owner of an angle set as (name, make, named): ``make(thetas,
    path)`` hands it ``thetas``, and ``named`` starts its messages.
    ``quadrature_distribution`` takes one angle, so a one-element list is
    unwrapped; ``Sinogram`` freezes its angles before it checks them, so a
    non-finite one is named by ``freeze_fields``."""
    grid = PhaseSpaceGrid(np.ones((8, 8)) / 4.0, -1.0, 1.0, -1.0, 1.0)
    rho = density_from_wavefunction(ground_state(np.linspace(-8.0, 8.0, 64)), -8.0, 8.0)
    yield "Sinogram", lambda t, _: Sinogram(np.ones((1, 4)), t, -1.0, 1.0), "Sinogram"
    yield "radon_forward", lambda t, _: radon_forward(grid, t, n_s=16), "radon_forward"
    yield "quadrature_sinogram", lambda t, _: quadrature_sinogram(rho, t), "quadrature_sinogram"
    yield ("quadrature_distribution",
           lambda t, _: quadrature_distribution(rho, t[0] if len(t) == 1 else t),
           "quadrature_distribution")
    yield "read_sinogram", _read_sinogram, "Sinogram"


_BAD_ANGLES = [
    ("empty", [], r"needs at least one angle"),
    ("nested", [[0.1]], r"needs at least one angle"),
    ("non-numeric", ["a"], r"entries do not stack into one numeric array"),
    ("ragged", [[0.1], [0.2, 0.3]], r"entries do not stack into one numeric array"),
    ("nan", [np.nan], r"(angle theta = nan outside \[0, pi\)|has non-finite entries)$"),
    ("inf", [np.inf], r"(angle theta = inf outside \[0, pi\)|has non-finite entries)$"),
    ("-inf", [-np.inf], r"(angle theta = -inf outside \[0, pi\)|has non-finite entries)$"),
    ("negative", [-0.1], r"angle theta = -0.1 outside \[0, pi\)$"),
    ("pi", [np.pi], r"angle theta = 3.141592653589793 outside \[0, pi\)$"),
]


def _angle_cases():
    for owner, make, named in _angle_owners():
        for case, thetas, cause in _BAD_ANGLES:
            error, match = InvariantViolation, rf"^{named}(\.thetas)? {cause}"
            if owner == "read_sinogram" and case in ("empty", "nested", "non-numeric", "ragged"):
                error, match = FormatError, r": 'thetas' (shape|must be numeric)"
            yield pytest.param(make, thetas, error, match, id=f"{owner}-{case}")


@pytest.mark.parametrize("make, thetas, error, match", list(_angle_cases()))
def test_every_angle_owner_follows_the_angle_rule(tmp_path, make, thetas, error, match):
    """One or more angles in a 1-D numeric sequence, each in [0, pi): any
    other set is named by its owner before numpy can warn or raise. A file
    whose angles are not a flat numeric list of n_theta entries is the
    format's to reject, as for every other key of a document."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            make(thetas, tmp_path / "sino.json")
