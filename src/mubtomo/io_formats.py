"""Versioned JSON file formats plus CSV export for grids and sinograms.

Every document is ``{"format": 1, "kind": <kind>, <header keys>, "data": ...}``.
Complex entries are [re, im] pairs, matrices row-major nested lists. Writers
emit plain ``repr`` floats, so a write/read cycle is bit-exact for float64.
Each file is parsed once, by ``_parse``: ``read_one_of`` converts a file that
may hold one of several kinds with the converter its kind names, such as
``as_count_table(doc, path)``, and ``read_count_table(path)`` is the same
parse and converter. Readers re-validate the wrapped type's invariants; file
and schema problems raise FormatError (exit 2), a kind the caller cannot use
UsageError (exit 2), violated invariants the domain error (exit 3).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from ._frozen import axis_step
from .classical_radon import PhaseSpaceGrid, Sinogram
from .cv_wigner import PositionDensityMatrix
from .errors import FormatError, UsageError
from .qudit_mub import MubBasisSet
from .qudit_tomography import CountTable, ProbabilityTable, validate_density_matrix

FORMAT_VERSION = 1


def _pairs(arr: np.ndarray) -> list:
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


@contextmanager
def _opened(path, mode: str):
    """``path`` as UTF-8 text; any OS failure on it is a FormatError naming
    it, an empty path as ``''``."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise FormatError(f"{path or repr(path)}: {exc.strerror or exc}") from exc


def _dump(path, kind: str, data, extra: dict | None = None, **header):
    """Write format, kind, the header keys in order, data, then extra keys."""
    doc = {"format": FORMAT_VERSION, "kind": kind, **header, "data": data, **(extra or {})}
    text = json.dumps(doc) + "\n"  # dumps runs the C encoder; dump does not
    with _opened(path, "w") as fh:
        fh.write(text)


def _parse(path) -> dict:
    try:
        with _opened(path, "r") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, too deep, too long an int
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    return doc


def _load(doc: dict, path, kind: str, **types) -> list:
    """Values of the header keys, each converted by ``_array`` to its type in
    ``types`` (int, float, or None to keep it as parsed), then ``data``, of
    ``doc``, a ``kind`` document parsed from ``path``. Float header values
    must be finite."""
    if doc.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format {doc.get('format')!r}")
    if doc.get("kind") != kind:
        raise FormatError(f"{path}: kind is {doc.get('kind')!r}, expected {kind!r}")
    for key in (*types, "data"):
        if key not in doc:
            raise FormatError(f"{path}: missing required key {key!r}")
    header = {key: doc[key] if typ is None else _array(doc[key], path, (), typ, repr(key)).item()
              for key, typ in types.items()}
    for key, value in header.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise FormatError(f"{path}: {key!r} must be finite, got {value!r}")
    return [*header.values(), doc["data"]]


def _array(data, path, shape: tuple | None = None, dtype=float, name="data") -> np.ndarray:
    """``data`` as a real, complex ([re, im] pairs) or integer array, checked
    against ``shape`` when one is given. Integers must be whole numbers
    within int64. ``name`` says what ``data`` is in the error messages."""
    try:
        arr = np.asarray(data, dtype=np.int64 if dtype is int else float)
        exact = dtype is not int or np.array_equal(arr, np.asarray(data, dtype=float))
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact:
        noun = "whole numbers within int64" if dtype is int else "numeric"
        raise FormatError(f"{path}: {name} must be {noun}, got {data!r:.40}")
    if dtype is complex:
        if arr.ndim < 1 or arr.shape[-1] != 2:
            raise FormatError(f"{path}: complex entries must be [re, im] pairs")
        arr = np.ascontiguousarray(arr).view(complex)[..., 0]  # bit for bit, signed zeros too
    if shape is not None and arr.shape != shape:
        raise FormatError(f"{path}: {name} shape {arr.shape} does not match {shape}")
    return arr


def _write_csv(path, comments: list, rows):
    with _opened(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        for row in rows:
            fh.write(",".join(map(repr, row.tolist())) + "\n")


def read_one_of(path, what: str, **converters):
    """The document at ``path`` converted by ``converters[kind]``, a function
    of (doc, path). A kind with no converter is a UsageError saying that the
    file is not ``what``; it is checked before the format version."""
    doc = _parse(path)
    if "kind" not in doc:
        raise FormatError(f"{path}: no 'kind' field")
    kind = str(doc["kind"])
    if kind not in converters:
        raise UsageError(f"{path}: kind {kind!r} is not {what}")
    return converters[kind](doc, path)


# ---------------------------------------------------------------- densities


def write_qudit_density(path, rho: np.ndarray):
    rho = np.asarray(rho, dtype=complex)
    _dump(path, "density", _pairs(rho), dim=int(rho.shape[0]))


def read_qudit_density(path) -> np.ndarray:
    dim, data = _load(_parse(path), path, "density", dim=int)
    return validate_density_matrix(_array(data, path, (dim,) * 2, complex))


def write_position_density(path, rho: PositionDensityMatrix, **extra):
    _dump(path, "density", _pairs(rho.values), extra,
          n=rho.n, x_min=rho.x_min, x_max=rho.x_max)


def as_position_density(doc, path) -> PositionDensityMatrix:
    n, x_min, x_max, data = _load(doc, path, "density", n=int, x_min=float, x_max=float)
    return PositionDensityMatrix(values=_array(data, path, (n,) * 2, complex),
                                 x_min=x_min, x_max=x_max)


def read_position_density(path) -> PositionDensityMatrix:
    return as_position_density(_parse(path), path)


def write_wavefunction(path, psi: np.ndarray, x_min: float, x_max: float):
    psi = np.asarray(psi, dtype=complex)
    _dump(path, "wavefunction", _pairs(psi),
          n=int(psi.size), x_min=float(x_min), x_max=float(x_max))


def as_wavefunction(doc, path):
    n, x_min, x_max, data = _load(doc, path, "wavefunction", n=int, x_min=float, x_max=float)
    axis_step("wavefunction x", n, x_min, x_max)
    return _array(data, path, (n,), complex), x_min, x_max


def read_wavefunction(path):
    """Returns (psi, x_min, x_max); density formation is the caller's call."""
    return as_wavefunction(_parse(path), path)


# ----------------------------------------------------------------- unitaries


def write_mub_set(path, mub_set: MubBasisSet):
    _dump(path, "unitary", _pairs(mub_set.bases), dim=mub_set.dim, count=len(mub_set.bases))


def read_mub_set(path) -> MubBasisSet:
    dim, count, data = _load(_parse(path), path, "unitary", dim=int, count=int)
    return MubBasisSet(dim=dim, bases=_array(data, path, (count, dim, dim), complex))


# -------------------------------------------------------- probability tables


def write_probability_table(path, table: ProbabilityTable):
    _dump(path, "probabilities", table.values.tolist(), dim=table.dim)


def as_probability_table(doc, path) -> ProbabilityTable:
    dim, data = _load(doc, path, "probabilities", dim=int)
    return ProbabilityTable(dim=dim, values=_array(data, path))


def read_probability_table(path) -> ProbabilityTable:
    return as_probability_table(_parse(path), path)


def write_count_table(path, counts: CountTable, **extra):
    _dump(path, "counts", counts.counts.tolist(), extra,
          dim=counts.dim, shots_per_basis=counts.shots_per_basis)


def as_count_table(doc, path) -> CountTable:
    dim, shots, data = _load(doc, path, "counts", dim=int, shots_per_basis=int)
    return CountTable(dim=dim, shots_per_basis=shots,
                      counts=_array(data, path, dtype=int))


def read_count_table(path) -> CountTable:
    return as_count_table(_parse(path), path)


# -------------------------------------------------------- grids and sinograms


def write_grid(path, grid: PhaseSpaceGrid):
    _dump(path, "grid", grid.values.tolist(), nx=grid.nx, np=grid.n_p,
          x_min=grid.x_min, x_max=grid.x_max, p_min=grid.p_min, p_max=grid.p_max)


def read_grid(path) -> PhaseSpaceGrid:
    nx, n_p, x_min, x_max, p_min, p_max, data = _load(
        _parse(path), path, "grid",
        nx=int, np=int, x_min=float, x_max=float, p_min=float, p_max=float)
    return PhaseSpaceGrid(values=_array(data, path, (nx, n_p)),
                          x_min=x_min, x_max=x_max, p_min=p_min, p_max=p_max)


def write_sinogram(path, sino: Sinogram):
    _dump(path, "sinogram", sino.values.tolist(), n_theta=sino.n_theta,
          thetas=sino.thetas.tolist(), n_s=sino.n_s, s_min=sino.s_min, s_max=sino.s_max)


def read_sinogram(path) -> Sinogram:
    n_theta, thetas, n_s, s_min, s_max, data = _load(
        _parse(path), path, "sinogram",
        n_theta=int, thetas=None, n_s=int, s_min=float, s_max=float)
    return Sinogram(values=_array(data, path, (n_theta, n_s)),
                    thetas=_array(thetas, path, (n_theta,), name="'thetas'"),
                    s_min=s_min, s_max=s_max)


def write_grid_csv(path, grid: PhaseSpaceGrid):
    """Row-major CSV: one line per x sample, p along columns."""
    _write_csv(path, [f"kind=grid nx={grid.nx} np={grid.n_p} "
                      f"x_min={grid.x_min!r} x_max={grid.x_max!r} "
                      f"p_min={grid.p_min!r} p_max={grid.p_max!r}"], grid.values)


def write_sinogram_csv(path, sino: Sinogram):
    """Row-major CSV: one line per angle, s along columns."""
    _write_csv(path, [f"kind=sinogram n_theta={sino.n_theta} n_s={sino.n_s} "
                      f"s_min={sino.s_min!r} s_max={sino.s_max!r}",
                      "thetas=" + ",".join(map(repr, sino.thetas.tolist()))], sino.values)
