"""Every frozen dataclass stores read-only, finite copies of the arrays it is given,
its whole-number fields as Python ints and, through ``freeze_axis``, float extents
and read-only samples of its axes; every owner of a uniform sample axis checks it by
the one rule of ``axis`` and computes only from the axis that hands back, so an
extent of any number type gives the output of its float, and every owner of a set
of projection angles follows the one rule of ``angle_set``."""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubtomo.classical_radon import (PhaseSpaceGrid, Sinogram, inverse_radon, project_at_angle,
                                     radon_forward)
from mubtomo.cv_wigner import (PositionDensityMatrix, density_from_wavefunction, ground_state,
                               quadrature_distribution, quadrature_sinogram,
                               reconstruct_density_continuous, wigner_from_density)
from mubtomo.errors import EmptyGrid, FormatError, InvariantViolation
from mubtomo import io_formats as iof
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
    which ``half_axis`` names as ``<name>_max`` unless it is finite and
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
        for bad in ("3", [1.0], 1j):
            number = rf" = {re.escape(repr(bad))} is not a number$"
            if half:
                yield pytest.param(make, 4, lo, bad, InvariantViolation, rf"^{name}_max{number}",
                                   id=f"{name}-half={bad!r}")
                continue
            yield pytest.param(make, 4, bad, hi, InvariantViolation, rf"^{name}_min{number}",
                               id=f"{name}_min={bad!r}")
            yield pytest.param(make, 4, lo, bad, InvariantViolation, rf"^{name}_max{number}",
                               id=f"{name}_max={bad!r}")
        for bad in (8.5, 8.0, "8") if -1 in lengths else ():  # a size the caller hands in
            whole = rf" = {re.escape(repr(bad))} is not a whole number$"
            yield pytest.param(make, bad, lo, hi, InvariantViolation, rf"^{name} axis size{whole}",
                               id=f"{name}-n={bad!r}")
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
    EmptyGrid, an end that is not a real number or not finite is named, as
    is a size that is not an integer, the ends must increase and their span
    must be finite, each before numpy can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            make(n, lo, hi)


def _typed_axis_owners():
    """Each frozen type with an axis as (make, writers, reader, axes): ``make(kind)``
    builds it with extents of the number type ``kind``, the JSON writer first."""
    rho = np.eye(3, dtype=complex) / 3.0  # trace integral 1 with dx = 1
    yield (lambda kind: PhaseSpaceGrid(np.ones((3, 4)), kind(-1), kind(1), kind(-3), kind(3)),
           (iof.write_grid, iof.write_grid_csv), iof.read_grid, {"x": 3, "p": 4})
    yield (lambda kind: Sinogram(np.ones((2, 3)), np.array([0.0, 1.0]), kind(-1), kind(2)),
           (iof.write_sinogram, iof.write_sinogram_csv), iof.read_sinogram, {"s": 3})
    yield (lambda kind: PositionDensityMatrix(rho, kind(-1), kind(1)),
           (iof.write_position_density,), iof.read_position_density, {"x": 3})


_TYPED_IDS = ["grid", "sinogram", "density"]
_KINDS = pytest.mark.parametrize("kind", [int, np.float32, np.int64, float],
                                 ids=["int", "float32", "int64", "float"])


@_KINDS
@pytest.mark.parametrize("make, writers, reader, axes", list(_typed_axis_owners()), ids=_TYPED_IDS)
def test_extents_of_any_number_type_write_the_float_bytes(tmp_path, make, writers, reader, axes,
                                                          kind):
    """Extents are stored as Python floats, so a type built from int or numpy
    extents writes the bytes of the float-built one, and a file written,
    read and written again keeps its bytes."""
    for writer in writers:
        writer(tmp_path / "float", make(float))
        writer(tmp_path / "typed", make(kind))
        assert (tmp_path / "typed").read_bytes() == (tmp_path / "float").read_bytes()
    writers[0](tmp_path / "first", make(kind))
    writers[0](tmp_path / "again", reader(tmp_path / "first"))
    assert (tmp_path / "again").read_bytes() == (tmp_path / "first").read_bytes()


@_KINDS
@pytest.mark.parametrize("make, writers, reader, axes", list(_typed_axis_owners()), ids=_TYPED_IDS)
def test_axes_are_stored_read_only_samples(make, writers, reader, axes, kind):
    """Each axis is built once: float ends, and samples that are the read-only
    ``np.linspace`` of those ends."""
    obj = make(kind)
    for name, n in axes.items():
        lo, hi = getattr(obj, f"{name}_min"), getattr(obj, f"{name}_max")
        samples = getattr(obj, name)
        assert type(lo) is float and type(hi) is float
        assert samples is getattr(obj, name)
        assert samples.dtype == float and np.array_equal(samples, np.linspace(lo, hi, n))
        assert samples.flags.writeable is False
        with pytest.raises(ValueError):
            samples[0] = 0.0


def test_an_axis_spanning_the_float_range_builds_without_a_warning():
    """linspace's (n - 1) * step may round past the largest float when the
    span is near it; the last sample is then set to the end, so the samples
    are finite and built without a numpy warning."""
    top = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = PhaseSpaceGrid(np.ones((4, 4)), 0.0, top, -top / 2, top / 2)
    assert grid.x[-1] == top and grid.p[-1] == top / 2
    assert np.isfinite(grid.x).all() and np.isfinite(grid.p).all()


def _whole_fields():
    """Each whole-number field of a frozen type as (name, make, writer):
    ``make(v)`` builds the type with that field set to v."""
    yield ("ProbabilityTable.dim", lambda v: ProbabilityTable(v, np.full((3, 2), 0.5)),
           iof.write_probability_table)
    yield "CountTable.dim", lambda v: CountTable(v, 4, np.full((3, 2), 2)), iof.write_count_table
    yield ("CountTable.shots_per_basis", lambda v: CountTable(2, v, np.full((3, 2), 2)),
           iof.write_count_table)
    yield ("MubBasisSet.dim", lambda v: MubBasisSet(v, np.stack([np.eye(2, dtype=complex)] * 3)),
           iof.write_mub_set)


_WHOLE = pytest.mark.parametrize("name, make, writer", list(_whole_fields()),
                                 ids=[name for name, _, _ in _whole_fields()])


@_WHOLE
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, int])
def test_whole_fields_of_any_integer_type_write_the_int_bytes(tmp_path, name, make, writer, kind):
    """A size or shot count is stored as a Python int, so a type built from a
    numpy integer writes the JSON of the int-built one."""
    obj = make(kind(2 if name.endswith("dim") else 4))
    assert type(getattr(obj, name.split(".")[1])) is int
    writer(tmp_path / "typed", obj)
    writer(tmp_path / "int", make(2 if name.endswith("dim") else 4))
    assert (tmp_path / "typed").read_bytes() == (tmp_path / "int").read_bytes()


@_WHOLE
@pytest.mark.parametrize("bad", [2.0, np.float64(4.0), "2"], ids=["float", "float64", "str"])
def test_whole_fields_reject_other_numbers_by_name(name, make, writer, bad):
    """A whole float is not a size: it would be written as 2.0 and read back as 2."""
    with pytest.raises(InvariantViolation,
                       match=rf"^{name} = {re.escape(repr(bad))} is not a whole number$"):
        make(bad)


def _extent_takers():
    """Each function that takes an extent as (call, lo, hi): ``call(v)`` hands it
    the extent v, or the ends -v and v, with v in [lo, hi]."""
    psi = ground_state(np.linspace(-6.0, 6.0, 48))
    rho = density_from_wavefunction(psi, -6.0, 6.0)
    grid = PhaseSpaceGrid(np.ones((8, 8)) / 4.0, -1.0, 1.0, -1.0, 1.0)
    sino = radon_forward(grid, np.arange(8) * np.pi / 8, 16)
    quads = quadrature_sinogram(rho, np.arange(16) * np.pi / 16)
    yield lambda v: wigner_from_density(rho, 16, p_max=v), 1, 5
    yield lambda v: inverse_radon(sino, 8, 9, x_min=-v, x_max=v, p_min=-v, p_max=v), 1, 2
    yield lambda v: reconstruct_density_continuous(quads, x_max=v), 1, 5
    yield lambda v: radon_forward(grid, np.arange(4) * np.pi / 4, 12, s_max=v), 2, 5
    yield lambda v: project_at_angle(grid, 4.0, 12, s_max=v), 2, 5
    yield lambda v: density_from_wavefunction(psi, -v, v), 4, 8


_TAKER_IDS = ["wigner_from_density", "inverse_radon", "reconstruct_density_continuous",
              "radon_forward", "project_at_angle", "density_from_wavefunction"]


def _arrays(result):
    """The arrays of a result, its frozen types' values and axes included."""
    if isinstance(result, tuple):
        return [arr for part in result for arr in _arrays(part)]
    if isinstance(result, (PhaseSpaceGrid, Sinogram, PositionDensityMatrix)):
        return [result.values] + [getattr(result, name) for name in ("x", "p", "s")
                                  if hasattr(result, name)]
    return [np.asarray(result)]


@settings(max_examples=15, deadline=None)
@given(share=st.floats(0.0, 1.0))
@pytest.mark.parametrize("kind", [np.float32, np.int64, int], ids=["float32", "int64", "int"])
@pytest.mark.parametrize("call, lo, hi", list(_extent_takers()), ids=_TAKER_IDS)
def test_extents_of_any_number_type_give_the_float_output(call, lo, hi, kind, share):
    """Every function that takes an extent computes only from the axis the
    axis rule hands back, so an extent of any number type gives, bit for bit
    and on float64 axes, the output of the float of the same value."""
    value = lo + share * (hi - lo)
    typed = kind(value) if kind is np.float32 else kind(round(value))
    for got, want in zip(_arrays(call(typed)), _arrays(call(float(typed))), strict=True):
        assert got.dtype == want.dtype and got.dtype in (np.float64, np.complex128)
        assert np.array_equal(got, want)


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
