import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import ISOTROPIC, gaussian_mixture_grid, rel_l2
from mubtomo import io_formats as iof
from mubtomo.classical_radon import PhaseSpaceGrid, Sinogram, radon_forward
from mubtomo.cli import main
from mubtomo.cv_wigner import PositionDensityMatrix, density_from_wavefunction, ground_state
from mubtomo.errors import ROUNDING_TOL, DimensionMismatch, FormatError, InvariantViolation
from mubtomo.finite_field import PrimeModulus
from mubtomo.qudit_mub import MubBasisSet, build_mub_set
from mubtomo.qudit_tomography import (
    CountTable,
    ProbabilityTable,
    random_density_matrix,
    sample_counts,
)

# ------------------------------------------------------------------- files


def test_qudit_density_round_trip(tmp_path):
    rho = random_density_matrix(5, seed=1)
    path = tmp_path / "rho.json"
    iof.write_qudit_density(path, rho)
    back = iof.read_qudit_density(path)
    assert np.array_equal(back, rho)  # bit-exact via repr floats


def test_position_density_round_trip(tmp_path):
    x = np.linspace(-6, 6, 64)
    rho = density_from_wavefunction(ground_state(x), -6, 6)
    path = tmp_path / "rho.json"
    iof.write_position_density(path, rho)
    back = iof.read_position_density(path)
    assert np.array_equal(back.values, rho.values)
    assert back.x_min == rho.x_min and back.x_max == rho.x_max


def test_wavefunction_round_trip(tmp_path):
    x = np.linspace(-5, 5, 32)
    psi = ground_state(x) * np.exp(0.3j * x)
    path = tmp_path / "psi.json"
    iof.write_wavefunction(path, psi, -5, 5)
    back, x_min, x_max = iof.read_wavefunction(path)
    assert np.array_equal(back, psi)
    assert (x_min, x_max) == (-5, 5)


def test_mub_set_round_trip(tmp_path):
    ms = build_mub_set(PrimeModulus(5))
    path = tmp_path / "mub.json"
    iof.write_mub_set(path, ms)
    back = iof.read_mub_set(path)
    assert len(back.bases) == 6
    for a, b in zip(back.bases, ms.bases):
        assert np.array_equal(a, b)


def test_table_round_trips(tmp_path):
    table = ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3))
    p1 = tmp_path / "probs.json"
    iof.write_probability_table(p1, table)
    assert np.array_equal(iof.read_probability_table(p1).values, table.values)

    counts = sample_counts(table, 50, 3)
    p2 = tmp_path / "counts.json"
    iof.write_count_table(p2, counts, seed=3)
    back = iof.read_count_table(p2)
    assert np.array_equal(back.counts, counts.counts)
    assert back.shots_per_basis == 50


def test_grid_and_sinogram_round_trips(tmp_path):
    grid = gaussian_mixture_grid(48, 6.0, ISOTROPIC)
    p1 = tmp_path / "grid.json"
    iof.write_grid(p1, grid)
    back = iof.read_grid(p1)
    assert np.array_equal(back.values, grid.values)

    sino = radon_forward(grid, np.arange(6) * np.pi / 6, n_s=64)
    p2 = tmp_path / "sino.json"
    iof.write_sinogram(p2, sino)
    back = iof.read_sinogram(p2)
    assert np.array_equal(back.values, sino.values)
    assert np.array_equal(back.thetas, sino.thetas)


# signed zeros, the least subnormal, the largest subnormal, the least normal, the extremes
_EDGE_FLOATS = np.array([-0.0, 0.0, 5e-324, -2.225073858507201e-308, np.finfo(float).tiny,
                         np.finfo(float).max, -np.finfo(float).max, 1.0 / 3.0])
_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(values=arrays(float, array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=5),
                     elements=_ANY_FINITE),
       pairs=arrays(float, st.tuples(st.integers(2, 10), st.just(2)), elements=_ANY_FINITE))
@example(values=_EDGE_FLOATS.reshape(2, 4), pairs=_EDGE_FLOATS.reshape(4, 2))
def test_grid_and_wavefunction_round_trips_are_bit_exact(tmp_path_factory, values, pairs):
    """Any finite float64 survives a write/read cycle bit for bit; the bits
    are compared, since array_equal does not tell -0.0 from 0.0."""
    path = tmp_path_factory.mktemp("bits") / "doc.json"
    iof.write_grid(path, PhaseSpaceGrid(values, -1.0, 1.0, -2.0, 2.0))
    assert np.array_equal(iof.read_grid(path).values.view(np.uint64), values.view(np.uint64))
    psi = pairs.view(complex)[:, 0]
    iof.write_wavefunction(path, psi, -3.0, 3.0)
    back, _, _ = iof.read_wavefunction(path)
    assert np.array_equal(back.view(np.uint64), psi.view(np.uint64))


_SMALL_EDGES = np.array([-0.0, 0.0, 5e-324, -2.225073858507201e-308, np.finfo(float).tiny, -5e-324])
_MAX = np.finfo(float).max


def _bits(arr) -> np.ndarray:
    return np.ascontiguousarray(arr).view(np.uint64)


def _upper_triangles(sizes, elements):
    """(n, upper): n from ``sizes`` and n(n-1)/2 [re, im] pairs for the strict upper triangle."""
    return sizes.flatmap(lambda n: st.tuples(
        st.just(n), arrays(float, (n * (n - 1) // 2, 2), elements=elements)))


def _hermitian(n, upper, diagonal) -> np.ndarray:
    """The n x n matrix with the complex ``upper`` above the diagonal, row by
    row, its conjugates below and the real ``diagonal``."""
    m = np.zeros((n, n), dtype=complex)
    i, j = np.triu_indices(n, 1)
    m[i, j] = upper.view(complex)[:, 0]
    m[j, i] = m[i, j].conj()
    m[np.diag_indices(n)] = diagonal
    return m


@settings(max_examples=50, deadline=None)
@given(parts=_upper_triangles(st.integers(1, 4), st.floats(-1 / 64, 1 / 64)))
@example(parts=(3, _SMALL_EDGES.reshape(3, 2)))
def test_qudit_density_round_trip_is_bit_exact(tmp_path_factory, parts):
    """Off-diagonal entries of modulus at most 1/64 * sqrt(2) keep the
    diagonal 1/d positive definite for d <= 4."""
    d, upper = parts
    rho = _hermitian(d, upper, np.full(d, 1 / d))
    path = tmp_path_factory.mktemp("bits") / "rho.json"
    iof.write_qudit_density(path, rho)
    assert np.array_equal(_bits(iof.read_qudit_density(path)), _bits(rho))


@settings(max_examples=50, deadline=None)
@given(parts=_upper_triangles(st.integers(2, 4), _ANY_FINITE),
       ends=st.tuples(_ANY_FINITE, _ANY_FINITE).map(sorted))
@example(parts=(3, np.array([[-0.0, _MAX], [5e-324, -_MAX], [-2.225073858507201e-308,
                                                             np.finfo(float).tiny]])),
         ends=[-0.0, _MAX])
def test_position_density_round_trip_is_bit_exact(tmp_path_factory, parts, ends):
    """Only Hermiticity and the trace integral constrain the samples, so
    the off-diagonal entries and the extents are any finite floats."""
    n, upper = parts
    x_min, x_max = ends
    assume(1e-300 < x_max - x_min < np.inf)
    dx = (x_max - x_min) / (n - 1)
    rho = PositionDensityMatrix(_hermitian(n, upper, np.full(n, 1 / n / dx)), x_min, x_max)
    path = tmp_path_factory.mktemp("bits") / "rho.json"
    iof.write_position_density(path, rho)
    back = iof.read_position_density(path)
    assert np.array_equal(_bits(back.values), _bits(rho.values))
    assert np.array_equal(_bits([back.x_min, back.x_max]), _bits([x_min, x_max]))


def _near_monomial(perms, angles, small) -> np.ndarray:
    """Bases U_k with the phase exp(i angles[k, c]) at row perms[k][c] of
    column c and the complex ``small`` entries elsewhere: unitary to about
    2 d max|small|."""
    d = angles.shape[1]
    onto = np.zeros((len(perms), d, d), dtype=bool)
    for k, perm in enumerate(perms):
        onto[k, perm, np.arange(d)] = True
    phases = np.exp(1j * angles)[:, np.newaxis, :]
    return np.where(onto, phases, np.ascontiguousarray(small).view(complex)[..., 0])


@st.composite
def _unitary_sets(draw):
    d = draw(st.integers(1, 3))
    return _near_monomial(
        draw(st.lists(st.permutations(range(d)), min_size=d + 1, max_size=d + 1)),
        draw(arrays(float, (d + 1, d), elements=st.floats(-4.0, 4.0))),
        draw(arrays(float, (d + 1, d, d, 2), elements=st.floats(-1e-14, 1e-14))))


@settings(max_examples=50, deadline=None)
@given(bases=_unitary_sets())
@example(bases=_near_monomial([[0, 1], [1, 0], [1, 0]], np.array([[0.0, 1.0], [2.0, -3.0],
                                                                    [0.5, 4.0]]),
                              np.resize(_SMALL_EDGES, (3, 2, 2, 2))))
def test_mub_set_round_trip_is_bit_exact(tmp_path_factory, bases):
    """A unitary file need not hold MUBs; near-monomial matrices put signed
    zeros and subnormals next to unit-modulus phases."""
    path = tmp_path_factory.mktemp("bits") / "mub.json"
    iof.write_mub_set(path, MubBasisSet(dim=bases.shape[1], bases=bases))
    assert np.array_equal(_bits(iof.read_mub_set(path).bases), _bits(bases))


@settings(max_examples=50, deadline=None)
@given(values=st.integers(1, 4).flatmap(lambda d: arrays(
    float, (d + 1, d), elements=st.floats(-ROUNDING_TOL, 1.0))))
@example(values=np.array([[-0.0, 5e-324], [-2.225073858507201e-308, np.finfo(float).tiny],
                          [1.0, 1.0 / 3.0]]))
def test_probability_table_round_trip_is_bit_exact(tmp_path_factory, values):
    """Entries are any float in [-ROUNDING_TOL, 1]; rows that do not sum to 1 only warn."""
    path = tmp_path_factory.mktemp("bits") / "probs.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        iof.write_probability_table(path, ProbabilityTable(dim=values.shape[1], values=values))
        back = iof.read_probability_table(path)
    assert np.array_equal(_bits(back.values), _bits(values))


@st.composite
def _sinogram_parts(draw):
    """Identical rows, so every row carries the same mass, with angles in
    [0, pi) and a pair of finite ends."""
    n_theta, n_s = draw(st.integers(1, 4)), draw(st.integers(2, 5))
    row = draw(arrays(float, n_s, elements=_ANY_FINITE))
    thetas = draw(arrays(float, n_theta, elements=st.floats(0.0, np.pi, exclude_max=True)))
    return np.tile(row, (n_theta, 1)), thetas, sorted(draw(st.tuples(_ANY_FINITE, _ANY_FINITE)))


@settings(max_examples=50, deadline=None)
@given(parts=_sinogram_parts())
@example(parts=(np.tile(np.append(_SMALL_EDGES[[0, 2, 3, 4]], [_MAX, -_MAX]), (2, 1)),
                np.array([-0.0, np.nextafter(np.pi, 0.0)]), [-2.225073858507201e-308, 5e-324]))
def test_sinogram_round_trip_is_bit_exact(tmp_path_factory, parts):
    """Any finite samples, angles and ordered extents survive, as long as
    the span and the row masses stay finite."""
    values, thetas, (s_min, s_max) = parts
    assume(s_min < s_max and s_max - s_min < np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        assume(np.isfinite(len(thetas) * values[0].sum() * (s_max - s_min)))
    path = tmp_path_factory.mktemp("bits") / "sino.json"
    iof.write_sinogram(path, Sinogram(values, thetas, s_min, s_max))
    back = iof.read_sinogram(path)
    assert np.array_equal(_bits(back.values), _bits(values))
    assert np.array_equal(_bits(back.thetas), _bits(thetas))
    assert np.array_equal(_bits([back.s_min, back.s_max]), _bits([s_min, s_max]))


def test_csv_exports(tmp_path):
    grid = gaussian_mixture_grid(16, 4.0, ISOTROPIC)
    iof.write_grid_csv(tmp_path / "g.csv", grid)
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert lines[0].startswith("# kind=grid")
    assert len(lines) == 1 + 16
    parsed = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    assert np.array_equal(parsed, grid.values)

    sino = radon_forward(grid, np.arange(4) * np.pi / 4, n_s=24)
    iof.write_sinogram_csv(tmp_path / "s.csv", sino)
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0].startswith("# kind=sinogram")
    assert lines[1].startswith("# thetas=")
    assert len(lines) == 2 + 4


def test_format_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(FormatError):
        iof.read_qudit_density(bad)

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": 1, "kind": "grid"}))
    with pytest.raises(FormatError):
        iof.read_qudit_density(wrong)

    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    with pytest.raises(FormatError, match="top level must be a JSON object"):
        iof.read_qudit_density(listing)

    futur = tmp_path / "future.json"
    futur.write_text(json.dumps({"format": 2, "kind": "density"}))
    with pytest.raises(FormatError):
        iof.read_qudit_density(futur)


# Small fixed objects and the exact text each writer gives for them: key
# order, separators, repr floats (signed zeros included) and the trailing
# newline are all part of the format.
_THIRD = 1 / 3
_HALF = np.sqrt(0.5)
_GRID = PhaseSpaceGrid(values=np.array([[0.1, _THIRD], [_THIRD, 0.1]]),
                       x_min=-1.5, x_max=1.5, p_min=-2.0, p_max=2.0)
_SINO = Sinogram(values=np.array([[0.1, _THIRD], [_THIRD, 0.1]]),
                 thetas=np.array([0.0, np.pi / 2]), s_min=-1.5, s_max=1.5)
_PAIRS = "[[[0.1, 0.0], [0.0, 0.3333333333333333]], [[-0.0, -0.3333333333333333], "
_ROWS = "[[0.1, 0.3333333333333333], [0.3333333333333333, 0.1]]"
_H = "0.7071067811865476"

GOLDEN = [
    pytest.param(
        lambda p: iof.write_qudit_density(
            p, np.array([[0.1, _THIRD * 1j], [-_THIRD * 1j, 0.9]])),
        '{"format": 1, "kind": "density", "dim": 2, "data": ' + _PAIRS + '[0.9, 0.0]]]}\n',
        id="qudit_density"),
    pytest.param(
        lambda p: iof.write_position_density(
            p, PositionDensityMatrix(values=np.array([[0.1, _THIRD * 1j], [-_THIRD * 1j, 0.4]]),
                                     x_min=-1.0, x_max=1.0),
            pre_normalization_trace=0.1),
        '{"format": 1, "kind": "density", "n": 2, "x_min": -1.0, "x_max": 1.0, "data": '
        + _PAIRS + '[0.4, 0.0]]], "pre_normalization_trace": 0.1}\n',
        id="position_density"),
    pytest.param(
        lambda p: iof.write_wavefunction(p, np.array([0.1, _THIRD * 1j]), -1.5, 1.5),
        '{"format": 1, "kind": "wavefunction", "n": 2, "x_min": -1.5, "x_max": 1.5, '
        '"data": [[0.1, 0.0], [0.0, 0.3333333333333333]]}\n',
        id="wavefunction"),
    pytest.param(
        lambda p: iof.write_mub_set(p, MubBasisSet(dim=2, bases=(
            np.eye(2), _HALF * np.array([[1, 1], [1, -1]]),
            _HALF * np.array([[1, 1], [1j, -1j]])))),
        '{"format": 1, "kind": "unitary", "dim": 2, "count": 3, "data": '
        '[[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], '
        f'[[[{_H}, 0.0], [{_H}, 0.0]], [[{_H}, 0.0], [-{_H}, 0.0]]], '
        f'[[[{_H}, 0.0], [{_H}, 0.0]], [[0.0, {_H}], [0.0, -{_H}]]]]}}\n',
        id="mub_set"),
    pytest.param(
        lambda p: iof.write_probability_table(p, ProbabilityTable(
            dim=2, values=np.array([[0.1, 0.9], [_THIRD, 1 - _THIRD], [0.5, 0.5]]))),
        '{"format": 1, "kind": "probabilities", "dim": 2, "data": '
        '[[0.1, 0.9], [0.3333333333333333, 0.6666666666666667], [0.5, 0.5]]}\n',
        id="probability_table"),
    pytest.param(
        lambda p: iof.write_count_table(p, CountTable(
            dim=2, shots_per_basis=5, counts=np.array([[3, 2], [1, 4], [5, 0]])), seed=3),
        '{"format": 1, "kind": "counts", "dim": 2, "shots_per_basis": 5, '
        '"data": [[3, 2], [1, 4], [5, 0]], "seed": 3}\n',
        id="count_table"),
    pytest.param(
        lambda p: iof.write_grid(p, _GRID),
        '{"format": 1, "kind": "grid", "nx": 2, "np": 2, "x_min": -1.5, "x_max": 1.5, '
        '"p_min": -2.0, "p_max": 2.0, "data": ' + _ROWS + '}\n',
        id="grid"),
    pytest.param(
        lambda p: iof.write_sinogram(p, _SINO),
        '{"format": 1, "kind": "sinogram", "n_theta": 2, "thetas": [0.0, 1.5707963267948966], '
        '"n_s": 2, "s_min": -1.5, "s_max": 1.5, "data": ' + _ROWS + '}\n',
        id="sinogram"),
    pytest.param(
        lambda p: iof.write_grid_csv(p, _GRID),
        "# kind=grid nx=2 np=2 x_min=-1.5 x_max=1.5 p_min=-2.0 p_max=2.0\n"
        "0.1,0.3333333333333333\n0.3333333333333333,0.1\n",
        id="grid_csv"),
    pytest.param(
        lambda p: iof.write_sinogram_csv(p, _SINO),
        "# kind=sinogram n_theta=2 n_s=2 s_min=-1.5 s_max=1.5\n"
        "# thetas=0.0,1.5707963267948966\n"
        "0.1,0.3333333333333333\n0.3333333333333333,0.1\n",
        id="sinogram_csv"),
]


@pytest.mark.parametrize("write, text", GOLDEN)
def test_writer_golden_text(tmp_path, write, text):
    path = tmp_path / "out"
    write(path)
    assert path.read_bytes() == text.encode("utf-8")


def test_write_read_write_keeps_signed_zeros(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    iof.write_qudit_density(first, np.conj(np.eye(3) / 3 + 0j))
    iof.write_qudit_density(second, iof.read_qudit_density(first))
    assert "-0.0" in first.read_text()
    assert second.read_bytes() == first.read_bytes()


def test_infinite_part_reaches_the_finiteness_check_alone(tmp_path):
    """An Infinity imaginary part leaves the real part as it was, so the
    reader raises without a numpy warning on the way."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps(_document(
        "read_qudit_density", data=[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, float("inf")]]])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="non-finite"):
            iof.read_qudit_density(path)


# One readable document per reader: its kind, header keys and data. Each
# malformed case changes one thing in it.
_VALID = {
    "read_qudit_density": ("density", {"dim": 2},
                           [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]),
    "read_position_density": ("density", {"n": 2, "x_min": -1.0, "x_max": 1.0},
                              [[[0.25, 0.0], [0.0, 0.1]], [[0.0, -0.1], [0.25, 0.0]]]),
    "read_wavefunction": ("wavefunction", {"n": 2, "x_min": -1.5, "x_max": 1.5},
                          [[0.1, 0.0], [0.0, 0.3]]),
    "read_mub_set": ("unitary", {"dim": 1, "count": 2}, [[[[1.0, 0.0]]], [[[0.0, 1.0]]]]),
    "read_probability_table": ("probabilities", {"dim": 2}, [[0.1, 0.9], [0.5, 0.5], [1.0, 0.0]]),
    "read_count_table": ("counts", {"dim": 2, "shots_per_basis": 5}, [[3, 2], [1, 4], [5, 0]]),
    "read_grid": ("grid", {"nx": 2, "np": 2, "x_min": -1.5, "x_max": 1.5,
                           "p_min": -2.0, "p_max": 2.0}, [[0.1, 0.3], [0.3, 0.1]]),
    "read_sinogram": ("sinogram", {"n_theta": 2, "thetas": [0.0, 1.5], "n_s": 2,
                                   "s_min": -1.5, "s_max": 1.5}, [[0.1, 0.3], [0.3, 0.1]]),
}
_COMPLEX = ("read_qudit_density", "read_position_density", "read_wavefunction", "read_mub_set")


def _document(reader, **changes):
    """The reader's valid document with ``changes``; a None value drops the key."""
    kind, header, data = _VALID[reader]
    doc = {"format": 1, "kind": kind, **header, "data": data, **changes}
    return {key: value for key, value in doc.items() if value is not None}


def _malformed_cases():
    for reader, (kind, header, data) in _VALID.items():
        first = next(iter(header))
        yield reader, "wrong_kind", {"kind": "sinogram" if kind == "grid" else "grid"}
        yield reader, "format_2", {"format": 2}
        yield reader, "missing_header_key", {first: None}
        yield reader, "missing_data", {"data": None}
        yield reader, "non-numeric_data", {"data": [["a", "b"], ["c", "d"]]}
        yield reader, "non-numeric_header", {first: "x"}
        yield reader, "list_header", {first: [1]}
        for key, value in header.items():
            if type(value) is int:
                yield reader, f"fractional_{key}", {key: value + 0.5}
            if type(value) is float:
                yield reader, f"infinite_{key}", {key: float("inf")}
                yield reader, f"nan_{key}", {key: float("nan")}
        if reader in _COMPLEX:
            yield reader, "complex_not_in_pairs", {"data": np.asarray(data)[..., :1].tolist()}
        if reader == "read_mub_set":
            yield reader, "data_shape_differs_from_header", {"count": 3}
            yield reader, "matrix_shape_differs_from_header_dim", {"dim": 2}
        elif kind not in ("probabilities", "counts"):  # see the test after this one
            yield reader, "data_shape_differs_from_header", {first: header[first] + 1}
        if reader == "read_sinogram":
            yield reader, "thetas_length_differs_from_n_theta", {"thetas": [0.0, 0.5, 1.5]}
            yield reader, "nested_thetas", {"thetas": [[0.0, 0.5], [1.0, 1.5]]}
            yield reader, "scalar_thetas", {"thetas": 0.0}
    yield "read_count_table", "shots_beyond_int64", {"shots_per_basis": 1e300}
    yield "read_count_table", "count_beyond_int64", {"data": [[1e300, 2], [1, 4], [5, 0]]}


@pytest.mark.parametrize("reader, case, changes", [
    pytest.param(reader, case, changes, id=f"{reader}-{case}")
    for reader, case, changes in _malformed_cases()
])
def test_reader_rejects_malformed(tmp_path, reader, case, changes):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_document(reader)))
    getattr(iof, reader)(path)  # the unchanged document loads
    path.write_text(json.dumps(_document(reader, **changes)))
    with pytest.raises(FormatError):
        getattr(iof, reader)(path)


@pytest.mark.parametrize("reader", ["read_probability_table", "read_count_table"])
def test_table_shape_is_checked_by_the_table(tmp_path, reader):
    """Tables carry no shape in their header; the table type checks the
    rows against dim, a domain error (exit 3)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_document(reader, dim=3)))
    with pytest.raises(DimensionMismatch):
        getattr(iof, reader)(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("reader", ["read_qudit_density", "read_position_density", "read_mub_set",
                                    "read_probability_table", "read_grid", "read_sinogram"])
def test_readers_reject_non_finite_data(tmp_path, reader, bad):
    """A parsed NaN or Infinity in the data is the domain type's error (exit 3)."""
    data = np.array(_VALID[reader][2], dtype=float)
    data.flat[-1] = bad
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_document(reader, data=data.tolist())))
    with pytest.raises(InvariantViolation, match="non-finite"):
        getattr(iof, reader)(path)


@pytest.mark.parametrize("reader, lo, hi, what", [
    ("read_position_density", "x_min", "x_max", "PositionDensityMatrix.x"),
    ("read_grid", "x_min", "x_max", "PhaseSpaceGrid.x"),
    ("read_grid", "p_min", "p_max", "PhaseSpaceGrid.p"),
    ("read_sinogram", "s_min", "s_max", "Sinogram.s"),
], ids=["density-x", "grid-x", "grid-p", "sinogram-s"])
def test_readers_reject_extents_whose_span_overflows(tmp_path, reader, lo, hi, what):
    """Finite extents pass the header check; their difference is the axis
    rule's to reject (exit 3)."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_document(reader, **{lo: -1.7e308, hi: 1.7e308})))
    with pytest.raises(InvariantViolation, match=rf"^{what} span {what}_max - {what}_min "
                                                 "must be finite, got inf"):
        getattr(iof, reader)(path)


def _fractional_counts(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "format": 1, "kind": "counts", "dim": 3, "shots_per_basis": 10,
        "data": [[2.5, 3.5, 5], [10, 0, 0], [0, 10, 0], [0, 0, 10]],
    }))
    return path


def test_count_table_rejects_fractional_counts(tmp_path):
    """Truncating 2.5 and 3.5 would give a row that still sums to 10."""
    with pytest.raises(FormatError, match="whole numbers"):
        iof.read_count_table(_fractional_counts(tmp_path))
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps(_document("read_count_table", data=[[3.0, 2.0], [1, 4], [5, 0]])))
    assert iof.read_count_table(whole).counts.tolist() == [[3, 2], [1, 4], [5, 0]]


def test_loader_revalidates_invariants(tmp_path):
    path = tmp_path / "rho.json"
    iof.write_qudit_density(path, np.eye(3, dtype=complex))  # trace 3
    with pytest.raises(InvariantViolation):
        iof.read_qudit_density(path)


# --------------------------------------------------------------------- CLI


def test_cli_mub_writes_four_bases(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["mub", "--dim", "3", "--out", str(out)]) == 0
    ms = iof.read_mub_set(out)
    assert len(ms.bases) == 4


def test_cli_mub_rejects_composite(tmp_path, capsys):
    code = main(["mub", "--dim", "4", "--out", str(tmp_path / "b.json")])
    assert code == 3
    assert "NotPrime" in capsys.readouterr().err


def test_cli_mub_rejects_two(tmp_path, capsys):
    code = main(["mub", "--dim", "2", "--out", str(tmp_path / "b.json")])
    assert code == 3
    assert "EvenDimension" in capsys.readouterr().err


def test_cli_maximally_mixed_pipeline(tmp_path):
    d = 5
    state = tmp_path / "mixed.json"
    iof.write_qudit_density(state, np.eye(d, dtype=complex) / d)
    probs = tmp_path / "p.json"
    assert main(["simulate", "--dim", "5", "--state", str(state),
                 "--out", str(probs)]) == 0
    rec = tmp_path / "r.json"
    assert main(["reconstruct", "--probs", str(probs), "--out", str(rec)]) == 0
    back = iof.read_qudit_density(rec)
    assert np.max(np.abs(back - np.eye(d) / d)) <= 1e-10


def test_cli_shots_are_deterministic(tmp_path):
    state = tmp_path / "mixed.json"
    iof.write_qudit_density(state, np.eye(3, dtype=complex) / 3)
    c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
    for out in (c1, c2):
        assert main(["simulate", "--dim", "3", "--state", str(state),
                     "--shots", "500", "--seed", "7", "--out", str(out)]) == 0
    assert c1.read_text() == c2.read_text()


def test_cli_reconstruct_counts_with_projection(tmp_path):
    state = tmp_path / "s.json"
    rho = random_density_matrix(3, seed=4)
    iof.write_qudit_density(state, rho)
    counts = tmp_path / "c.json"
    assert main(["simulate", "--dim", "3", "--state", str(state),
                 "--shots", "20000", "--seed", "1", "--out", str(counts)]) == 0
    rec = tmp_path / "r.json"
    assert main(["reconstruct", "--probs", str(counts), "--project",
                 "--out", str(rec)]) == 0
    back = iof.read_qudit_density(rec)  # projection makes it physical
    assert np.max(np.abs(back - rho)) <= 0.1


def test_cli_reconstruct_rejects_fractional_counts(tmp_path, capsys):
    code = main(["reconstruct", "--probs", str(_fractional_counts(tmp_path)),
                 "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("FormatError:")
    assert not (tmp_path / "r.json").exists()


def test_cli_reconstruct_rejects_fractional_header(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_document("read_count_table", shots_per_basis=5.5)))
    code = main(["reconstruct", "--probs", str(path), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("FormatError:")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flags", [["--shots", "-5"], ["--shots", "10", "--seed", "-1"]])
def test_cli_simulate_rejects_negative_shots_and_seed(tmp_path, capsys, flags):
    state = tmp_path / "s.json"
    iof.write_qudit_density(state, np.eye(3, dtype=complex) / 3)
    code = main(["simulate", "--dim", "3", "--state", str(state), *flags,
                 "--out", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("UsageError:")
    assert not (tmp_path / "c.json").exists()


def _valid_argv(tmp_path, command):
    """A ``command`` invocation on readable inputs that writes ``out.json``."""
    state, psi, grid, sino, quads, counts = (
        tmp_path / f"{n}.json" for n in ("state", "psi", "grid", "sino", "quads", "counts"))
    iof.write_qudit_density(state, np.eye(3, dtype=complex) / 3)
    x = np.linspace(-6, 6, 64)
    iof.write_wavefunction(psi, ground_state(x).astype(complex), -6, 6)
    grid_obj = gaussian_mixture_grid(16, 4.0, ISOTROPIC)
    iof.write_grid(grid, grid_obj)
    iof.write_sinogram(sino, radon_forward(grid_obj, np.arange(8) * np.pi / 8, 16))
    assert main(["quads", "--state", str(psi), "--angles", "8", "--out", str(quads)]) == 0
    iof.write_count_table(counts, CountTable(dim=3, shots_per_basis=10,
                                             counts=np.array([[4, 3, 3]] * 4)))
    inputs = {
        "mub": ["--dim", "3"],
        "reconstruct": ["--probs", str(counts)],
        "simulate": ["--dim", "3", "--state", str(state), "--shots", "10"],
        "radon": ["--in", str(grid), "--angles", "8"],
        "iradon": ["--in", str(sino)],
        "wigner": ["--state", str(psi), "--grid", "64", "--xmax", "6"],
        "quads": ["--state", str(psi), "--angles", "8"],
        "reconstruct-cv": ["--quads", str(quads)],
    }
    return [command, *inputs[command], "--out", str(tmp_path / "out.json")]


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--shots"), ("simulate", "--seed"), ("radon", "--angles"), ("radon", "--ns"),
    ("iradon", "--nx"), ("iradon", "--np"), ("wigner", "--grid"), ("wigner", "--np"),
    ("quads", "--angles"), ("reconstruct-cv", "--nx"),
])
def test_cli_rejects_negative_count_flags(tmp_path, capsys, command, flag):
    argv = _valid_argv(tmp_path, command)
    assert main(argv) == 0  # the inputs are valid without the flag
    (tmp_path / "out.json").unlink()
    capsys.readouterr()
    code = main(argv + [flag, "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and err.startswith("UsageError:") and flag in err
    assert not (tmp_path / "out.json").exists()


def test_cli_reconstruct_rejects_zero_shots(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_document("read_count_table", shots_per_basis=0,
                                         data=[[0, 0], [0, 0], [0, 0]])))
    code = main(["reconstruct", "--probs", str(path), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("InvariantViolation:")


@pytest.mark.parametrize("command, flag", [
    ("radon", "--smax"), ("iradon", "--xmax"), ("iradon", "--pmax"), ("wigner", "--xmax"),
    ("wigner", "--pmax"), ("reconstruct-cv", "--xmax"),
])
def test_cli_rejects_non_finite_extent_flags(tmp_path, capsys, command, flag):
    argv = _valid_argv(tmp_path, command)
    assert main(argv) == 0  # the inputs are valid without the flag
    (tmp_path / "out.json").unlink()
    capsys.readouterr()
    for value in ("inf", "-inf", "nan", "0", "-1"):
        code = main(argv + [flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("UsageError:") and flag in err
        assert not (tmp_path / "out.json").exists()
    assert main(argv + [flag, "abc"]) == 2  # not a number: the flag's own message, not argparse's
    assert f"{flag}: must be a finite positive number, got 'abc'" in capsys.readouterr().err


def _unusable_argv(tmp_path, case):
    """A CLI invocation, writing ``out.json``, on input the readers parse but
    the pipeline cannot use."""
    state, doc = tmp_path / "state.json", tmp_path / "doc.json"
    rho = np.eye(3, dtype=complex) / 3
    if case == "nan_state":
        rho[0, 1] = np.nan  # eigvalsh reads only the lower triangle
    iof.write_qudit_density(state, rho)
    probs = np.full((4, 3), 1 / 3)
    probs[1, 1] = np.nan
    docs = {
        "nan_probabilities": _document("read_probability_table", dim=3, data=probs.tolist()),
        "zero_dim_probabilities": _document("read_probability_table", dim=0, data=[[]]),
        "zero_dim_counts": _document("read_count_table", dim=0, data=[[]]),
        "infinite_x_max": _document("read_wavefunction", x_max=float("inf")),
        "zero_quadratures": _document("read_sinogram", thetas=[0.0, np.pi / 2], n_s=8,
                                      data=np.zeros((2, 8)).tolist()),
    }
    docs["nan_probabilities_projected"] = docs["nan_probabilities"]
    docs["x_max_outside_disk"] = docs["zero_quadratures"]
    doc.write_text(json.dumps(docs.get(case, {})))
    argv = {
        "nan_state": ["simulate", "--dim", "3", "--state", str(state)],
        "zero_shots": ["simulate", "--dim", "3", "--state", str(state), "--shots", "0"],
        "infinite_x_max": ["quads", "--state", str(doc), "--angles", "4"],
        "zero_quadratures": ["reconstruct-cv", "--quads", str(doc)],
        "x_max_outside_disk": ["reconstruct-cv", "--quads", str(doc), "--xmax", "1e3"],
        "nan_probabilities_projected": ["reconstruct", "--probs", str(doc), "--project"],
    }.get(case, ["reconstruct", "--probs", str(doc)])
    return argv + ["--out", str(tmp_path / "out.json")]


@pytest.mark.parametrize("case, code, error", [
    ("nan_state", 3, "InvariantViolation"),
    ("nan_probabilities", 3, "InvariantViolation"),
    ("nan_probabilities_projected", 3, "InvariantViolation"),
    ("zero_shots", 2, "UsageError"),
    ("infinite_x_max", 2, "FormatError"),
    ("zero_dim_probabilities", 3, "InvariantViolation"),
    ("zero_dim_counts", 3, "InvariantViolation"),
    ("zero_quadratures", 3, "InvariantViolation"),
    ("x_max_outside_disk", 3, "OutsideProjectionDisk"),
])
def test_cli_rejects_unusable_input(tmp_path, capsys, case, code, error):
    assert main(_unusable_argv(tmp_path, case)) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{error}:")
    assert not (tmp_path / "out.json").exists()


# The input flag of each command that reads files of more than one kind.
_KIND_ARGV = {
    "reconstruct": ["reconstruct", "--probs"],
    "wigner": ["wigner", "--grid", "64", "--xmax", "6", "--state"],
    "quads": ["quads", "--angles", "4", "--state"],
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("command, reader, what", [
    ("reconstruct", "read_grid", "a measurement table"),
    ("wigner", "read_count_table", "a continuous state"),
    ("quads", "read_count_table", "a continuous state"),
])
def test_cli_rejects_wrong_kind(tmp_path, capsys, command, reader, what, version):
    """The kind is checked before the format: a wrong kind is a usage error
    even in a file of another format version."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(_document(reader, format=version)))
    assert main([*_KIND_ARGV[command], str(path), "--out", str(out)]) == 2
    kind = _VALID[reader][0]
    assert capsys.readouterr().err == f"UsageError: {path}: kind {kind!r} is not {what}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", list(_KIND_ARGV))
def test_cli_rejects_file_without_kind(tmp_path, capsys, command):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(_document("read_count_table", kind=None)))
    assert main([*_KIND_ARGV[command], str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"FormatError: {path}: no 'kind' field\n"
    assert not out.exists()


@pytest.mark.parametrize("command, kind, loads", [
    ("mub", None, 0), ("simulate", None, 1),
    ("reconstruct", "counts", 1), ("reconstruct", "probabilities", 1),
    ("wigner", "wavefunction", 1), ("wigner", "density", 1),
    ("quads", "wavefunction", 1), ("quads", "density", 1),
    ("radon", None, 1), ("iradon", None, 1), ("reconstruct-cv", None, 1),
])
def test_cli_parses_each_input_once(tmp_path, monkeypatch, capsys, command, kind, loads):
    """A ``kind`` file replaces the input path, ``argv[2]``, of ``_valid_argv``."""
    argv = _valid_argv(tmp_path, command)
    other = tmp_path / "other.json"
    if kind == "probabilities":
        iof.write_probability_table(other, ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3)))
    elif kind == "density":
        x = np.linspace(-6, 6, 64)
        iof.write_position_density(other, density_from_wavefunction(ground_state(x), -6, 6))
    if other.exists():
        argv[2] = str(other)
    parse, calls = json.load, []

    def counting_load(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(json, "load", counting_load)
    assert main(argv) == 0
    assert len(calls) == loads


def test_cli_radon_iradon_round_trip(tmp_path):
    grid = gaussian_mixture_grid(64, 6.0, ISOTROPIC)
    gfile = tmp_path / "g.json"
    iof.write_grid(gfile, grid)
    sfile = tmp_path / "s.json"
    assert main(["radon", "--in", str(gfile), "--angles", "48",
                 "--out", str(sfile)]) == 0
    rfile = tmp_path / "r.json"
    assert main(["iradon", "--in", str(sfile), "--nx", "64", "--np", "64",
                 "--xmax", "6", "--pmax", "6", "--out", str(rfile)]) == 0
    rec = iof.read_grid(rfile)
    assert rel_l2(rec.values, grid.values) <= 0.05


def test_cli_radon_names_mass_off_the_axis(tmp_path, capsys):
    gfile = tmp_path / "g.json"
    iof.write_grid(gfile, gaussian_mixture_grid(128, 6.0, ISOTROPIC))
    code = main(["radon", "--in", str(gfile), "--angles", "8", "--smax", "3",
                 "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("MassOutsideAxis:")


@pytest.mark.parametrize("thetas", [
    np.array([0.0, 0.3, 1.2]),  # uneven
    np.arange(45) * (np.pi / 2) / 45,  # even, but a quarter turn
])
def test_cli_iradon_rejects_angle_sets(tmp_path, capsys, thetas):
    sfile = tmp_path / "s.json"
    iof.write_sinogram(sfile, Sinogram(values=np.zeros((thetas.size, 32)), thetas=thetas,
                                       s_min=-4, s_max=4))
    code = main(["iradon", "--in", str(sfile), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("InsufficientAngles:")


def test_cli_wigner_from_wavefunction(tmp_path):
    x = np.linspace(-6, 6, 128)
    pfile = tmp_path / "psi.json"
    iof.write_wavefunction(pfile, ground_state(x).astype(complex), -6, 6)
    wfile = tmp_path / "w.json"
    assert main(["wigner", "--state", str(pfile), "--grid", "128",
                 "--xmax", "6", "--out", str(wfile)]) == 0
    W = iof.read_grid(wfile)
    Xg, Pg = np.meshgrid(W.x, W.p, indexing="ij")
    assert np.max(np.abs(W.values - np.exp(-(Xg**2 + Pg**2)) / np.pi)) <= 1e-4


def test_cli_quads_then_reconstruct_cv(tmp_path, capsys):
    x = np.linspace(-7, 7, 128)
    sfile = tmp_path / "rho.json"
    iof.write_position_density(sfile, density_from_wavefunction(ground_state(x), -7, 7))
    qfile = tmp_path / "q.json"
    assert main(["quads", "--state", str(sfile), "--angles", "60",
                 "--out", str(qfile)]) == 0
    rfile = tmp_path / "rec.json"
    assert main(["reconstruct-cv", "--quads", str(qfile), "--out", str(rfile)]) == 0
    out = capsys.readouterr().out
    assert "pre_normalization_trace=" in out
    rec = iof.read_position_density(rfile)
    diag = np.real(np.diag(rec.values))
    exact = np.exp(-rec.x**2) / np.sqrt(np.pi)
    assert np.max(np.abs(diag - exact)) <= 0.05 * exact.max()


def test_cli_quads_names_momentum_outside_grid(tmp_path, capsys):
    x = np.linspace(-8, 8, 256)
    pfile = tmp_path / "psi.json"
    iof.write_wavefunction(pfile, ground_state(x) * np.exp(5j * x), -8, 8)
    code = main(["quads", "--state", str(pfile), "--angles", "12",
                 "--out", str(tmp_path / "q.json")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.count("\n") == 1 and err.startswith("MomentumOutsideGrid:")


def test_cli_quads_names_mass_off_the_axis(tmp_path, capsys):
    # two angles, 0 and pi/2, stay on the position side, so the lost
    # momentum mass shows as a row that misses part of the trace
    x = np.linspace(-8, 8, 256)
    pfile = tmp_path / "psi.json"
    iof.write_wavefunction(pfile, ground_state(x) * np.exp(6j * x), -8, 8)
    code = main(["quads", "--state", str(pfile), "--angles", "2",
                 "--out", str(tmp_path / "q.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.count("\n") == 1 and err.startswith("MassOutsideAxis:")


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["bogus"]) == 2
    assert main(["simulate", "--dim", "3", "--state", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o.json")]) == 2
    grid = gaussian_mixture_grid(16, 4.0, ISOTROPIC)
    gfile = tmp_path / "g.json"
    iof.write_grid(gfile, grid)
    # a grid file is not a qudit density
    assert main(["simulate", "--dim", "3", "--state", str(gfile),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_cli_dim_mismatch_is_usage_error(tmp_path, capsys):
    state = tmp_path / "s.json"
    iof.write_qudit_density(state, np.eye(3, dtype=complex) / 3)
    assert main(["simulate", "--dim", "5", "--state", str(state),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_cli_wigner_density_axis_must_match(tmp_path, capsys):
    x = np.linspace(-6, 6, 64)
    sfile = tmp_path / "rho.json"
    iof.write_position_density(sfile, density_from_wavefunction(ground_state(x), -6, 6))
    code = main(["wigner", "--state", str(sfile), "--grid", "128", "--xmax", "6",
                 "--out", str(tmp_path / "w.json")])
    assert code == 2
    assert "UsageError" in capsys.readouterr().err


@pytest.mark.parametrize("psi, x_min, x_max, error, named", [
    (ground_state(np.linspace(-6, 6, 64)), 6.0, -6.0, "InvariantViolation",
     "grid extents must be ordered, got wavefunction x_min = 6.0"),
    (np.ones(1), -6.0, 6.0, "EmptyGrid", "wavefunction x axis needs at least 2 samples, got 1"),
], ids=["reversed", "one_sample"])
@pytest.mark.parametrize("command", ["wigner", "quads"])
def test_cli_rejects_a_wavefunction_axis_before_resampling(tmp_path, capsys, psi, x_min, x_max,
                                                           error, named, command):
    """A wavefunction file's axis follows the axis rule when it is read, before
    any flag is matched against it, so neither command can turn reversed
    extents or a single sample into a state."""
    pfile = tmp_path / "psi.json"
    iof.write_wavefunction(pfile, psi.astype(complex), x_min, x_max)
    argv = [command, "--state", str(pfile), "--out", str(tmp_path / "out.json")]
    argv += ["--grid", "64", "--xmax", "6"] if command == "wigner" else ["--angles", "4"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{error}: {named}")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("kind", ["wavefunction", "density"])
@pytest.mark.parametrize("flags, asked", [
    (["--grid", "128", "--xmax", "6"], "--grid 128 --xmax 6.0"),
    (["--grid", "128"], "--grid 128"),
    (["--xmax", "5"], "--xmax 5.0"),
    (["--grid", "64", "--xmax", "6.5"], "--grid 64 --xmax 6.5"),
], ids=["grid", "grid-only", "xmax-only", "xmax"])
def test_cli_wigner_rejects_a_state_off_the_asked_axis(tmp_path, capsys, kind, flags, asked):
    """``wigner`` reads a state file of either kind on its own axis; ``--grid``
    and ``--xmax`` must match that axis, and one usage error names both."""
    x = np.linspace(-6, 6, 64)
    pfile, out = tmp_path / "state.json", tmp_path / "w.json"
    if kind == "wavefunction":
        iof.write_wavefunction(pfile, ground_state(x).astype(complex), -6, 6)
    else:
        iof.write_position_density(pfile, density_from_wavefunction(ground_state(x), -6, 6))
    assert main(["wigner", "--state", str(pfile), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"UsageError: state file axis (64 points on [-6.0, 6.0]) does not match {asked}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["wavefunction", "density"])
@pytest.mark.parametrize("extra", [[], ["--np", "40", "--pmax", "3.7"]], ids=["default", "p"])
def test_cli_wigner_flags_only_check_the_axis(tmp_path, kind, extra):
    """Without ``--grid`` and ``--xmax`` the state's own axis is used and the
    default p_max is the library's, so the bytes are those of matching flags."""
    x = np.linspace(-6, 6, 64)
    pfile = tmp_path / "state.json"
    psi = (ground_state(x - 0.5) * np.exp(0.7j * x)).astype(complex)
    if kind == "wavefunction":
        iof.write_wavefunction(pfile, psi, -6, 6)
    else:
        iof.write_position_density(pfile, density_from_wavefunction(psi, -6, 6))
    outputs = []
    for flags in ([], ["--grid", "64"], ["--xmax", "6"], ["--grid", "64", "--xmax", "6"]):
        out = tmp_path / f"w{len(outputs)}.json"
        assert main(["wigner", "--state", str(pfile), *flags, *extra, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1:] == outputs[:1] * 3


def test_cli_aliased_wigner_exits_4(tmp_path, capsys):
    x = np.linspace(-6, 6, 128)
    pfile = tmp_path / "psi.json"
    iof.write_wavefunction(pfile, ground_state(x).astype(complex), -6, 6)
    code = main(["wigner", "--state", str(pfile), "--grid", "128", "--xmax", "6",
                 "--pmax", "60", "--out", str(tmp_path / "w.json")])
    assert code == 4
    assert "AliasedGrid" in capsys.readouterr().err


def test_cli_error_is_single_line(tmp_path, capsys):
    main(["mub", "--dim", "9", "--out", str(tmp_path / "b.json")])
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("NotPrime:")


def _csv_argv(tmp_path, command):
    """A ``command`` invocation with ``--csv``, on a small input of its kind."""
    grid = gaussian_mixture_grid(16, 4.0, ISOTROPIC)
    x = np.linspace(-6, 6, 64)
    inp = tmp_path / "in.json"
    if command == "radon":
        iof.write_grid(inp, grid)
        return ["radon", "--in", str(inp), "--angles", "4"]
    if command == "iradon":
        iof.write_sinogram(inp, radon_forward(grid, np.arange(8) * np.pi / 8, n_s=24))
        return ["iradon", "--in", str(inp), "--nx", "16", "--np", "16"]
    if command == "wigner":
        iof.write_wavefunction(inp, ground_state(x).astype(complex), -6, 6)
        return ["wigner", "--state", str(inp), "--grid", "64", "--xmax", "6"]
    iof.write_position_density(inp, density_from_wavefunction(ground_state(x), -6, 6))
    return ["quads", "--state", str(inp), "--angles", "4"]


@pytest.mark.parametrize("command, read, write_csv", [
    ("radon", iof.read_sinogram, iof.write_sinogram_csv),
    ("iradon", iof.read_grid, iof.write_grid_csv),
    ("wigner", iof.read_grid, iof.write_grid_csv),
    ("quads", iof.read_sinogram, iof.write_sinogram_csv),
])
def test_cli_csv_is_the_csv_of_the_output(tmp_path, command, read, write_csv):
    out, csv, expected = tmp_path / "out.json", tmp_path / "out.csv", tmp_path / "expected.csv"
    argv = _csv_argv(tmp_path, command) + ["--csv", str(csv), "--out", str(out)]
    assert main(argv) == 0
    write_csv(expected, read(out))
    assert csv.read_bytes() == expected.read_bytes()


def _file_failure_argv(tmp_path, case):
    """An invocation, writing ``out.json``, whose input or output path
    cannot be opened or decoded."""
    out = tmp_path / "out.json"
    probs = {"missing_input": tmp_path / "absent.json", "directory_input": tmp_path,
             "non_utf8_input": tmp_path / "latin1.json",
             "too_deeply_nested_input": tmp_path / "deep.json"}
    (tmp_path / "latin1.json").write_bytes(b'{"format": 1, "kind": "caf\xe9"}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    if case == "missing_output_directory":
        return ["mub", "--dim", "3", "--out", str(tmp_path / "absent" / out.name)]
    return ["reconstruct", "--probs", str(probs[case]), "--out", str(out)]


@pytest.mark.parametrize("case", ["missing_input", "directory_input", "non_utf8_input",
                                  "too_deeply_nested_input", "missing_output_directory"])
def test_cli_file_failures_are_format_errors(tmp_path, capsys, case):
    assert main(_file_failure_argv(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("FormatError:")
    assert not list(tmp_path.rglob("out.json"))


@pytest.mark.parametrize("command", ["radon", "iradon", "wigner", "quads"])
def test_cli_failed_csv_leaves_no_output(tmp_path, capsys, command):
    """The --out file is written first; when the --csv file then cannot be
    written, the command removes it again."""
    out = tmp_path / "out.json"
    argv = _csv_argv(tmp_path, command) + ["--csv", str(tmp_path / "absent" / "x.csv"),
                                           "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("FormatError:")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("command", ["radon", "iradon", "wigner", "quads"])
def test_cli_empty_output_path_is_a_format_error(tmp_path, capsys, command, flag):
    """An empty path is a path that cannot be opened, not an absent flag."""
    argv = _csv_argv(tmp_path, command)
    argv += ["--out", ""] if flag == "--out" else ["--csv", "", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "FormatError: '': No such file or directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["in.json"]


def test_cli_mub_file_bytes_are_pinned(tmp_path):
    """sha256 of ``mub --dim 7`` as written when every basis matrix was built
    eagerly; the canonical set builds them on demand to the same bytes."""
    out = tmp_path / "mub.json"
    assert main(["mub", "--dim", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0490019f0a7ba614305c1702b5b3a66284581febfc3e1000d51868465c11cdd0")


def test_cli_counts_file_bytes_are_pinned(tmp_path):
    """sha256 of ``simulate --shots`` as written when the Born rows were the
    line sums of W; the lattice route moves the probabilities in their last
    bits only, and no draw of this stream lands that close to a cut."""
    state, out = tmp_path / "rho.json", tmp_path / "counts.json"
    iof.write_qudit_density(state, random_density_matrix(31, seed=5))
    assert main(["simulate", "--dim", "31", "--state", str(state), "--shots", "100000",
                 "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "9d007751f4a9ff8e882cdb50c95ed40c2dc9e7132a54e191917d31cf80e7b559")
