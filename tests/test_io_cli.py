import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mubtomo
from conftest import ISOTROPIC, gaussian_mixture_grid, rel_l2
from mubtomo import io_formats as iof
from mubtomo.classical_radon import PhaseSpaceGrid, Sinogram, radon_forward
from mubtomo.cli import main
from mubtomo.cv_wigner import PositionDensityMatrix, density_from_wavefunction, ground_state
from mubtomo.errors import DimensionMismatch, FormatError, InvariantViolation
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
    state, psi, grid, sino, quads = (tmp_path / f"{n}.json"
                                     for n in ("state", "psi", "grid", "sino", "quads"))
    iof.write_qudit_density(state, np.eye(3, dtype=complex) / 3)
    x = np.linspace(-6, 6, 64)
    iof.write_wavefunction(psi, ground_state(x).astype(complex), -6, 6)
    grid_obj = gaussian_mixture_grid(16, 4.0, ISOTROPIC)
    iof.write_grid(grid, grid_obj)
    iof.write_sinogram(sino, radon_forward(grid_obj, np.arange(8) * np.pi / 8, 16))
    assert main(["quads", "--state", str(psi), "--angles", "8", "--out", str(quads)]) == 0
    inputs = {
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
    for value in ("inf", "-inf", "nan"):
        code = main(argv + [flag, value])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("UsageError:") and flag in err
        assert not (tmp_path / "out.json").exists()


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
    }
    docs["nan_probabilities_projected"] = docs["nan_probabilities"]
    doc.write_text(json.dumps(docs.get(case, {})))
    argv = {
        "nan_state": ["simulate", "--dim", "3", "--state", str(state)],
        "zero_shots": ["simulate", "--dim", "3", "--state", str(state), "--shots", "0"],
        "infinite_x_max": ["quads", "--state", str(doc), "--angles", "4"],
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
])
def test_cli_rejects_unusable_input(tmp_path, capsys, case, code, error):
    assert main(_unusable_argv(tmp_path, case)) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{error}:")
    assert not (tmp_path / "out.json").exists()


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


# Run as the child of test_console_entry_respects_thread_cap: record the
# environment at the moment numpy is first imported, then run the CLI exactly
# as ``python -m mubtomo.cli`` would, and print what was recorded.
_WATCH_NUMPY_THEN_RUN_CLI = """
import importlib.abc, json, os, runpy, sys

seen = {}

class WatchNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update(os.environ)
        return None

sys.meta_path.insert(0, WatchNumpy())
try:
    runpy.run_module("mubtomo.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(seen))
"""

_CAPPED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_console_entry_respects_thread_cap(tmp_path):
    out = tmp_path / "b.json"
    # The child sees only these variables, so an inherited OMP_NUM_THREADS
    # and the like cannot stand in for the cap; the package is found through
    # the absolute directory it was imported from, installed or not.
    package_root = Path(mubtomo.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _WATCH_NUMPY_THEN_RUN_CLI,
         "mub", "--dim", "5", "--out", str(out)],
        env={"PATH": "/usr/bin:/bin", "MUBTOMO_THREADS": "1",
             "PYTHONPATH": str(package_root)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    env_at_numpy_import = json.loads(proc.stdout.splitlines()[-1])
    capped = {v: env_at_numpy_import.get(v) for v in _CAPPED}
    assert capped == dict.fromkeys(_CAPPED, "1")
