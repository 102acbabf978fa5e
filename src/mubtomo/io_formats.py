"""Versioned JSON file formats plus CSV export for grids and sinograms.

Every document is ``{"format": 1, "kind": <kind>, ...}``. Complex entries
are [re, im] pairs, matrices row-major nested lists. Writers emit plain
``repr`` floats, so a write/read cycle is bit-exact for float64. Readers
re-validate the wrapped type's invariants; schema problems raise
FormatError (exit 2), violated invariants raise the domain error (exit 3).
"""

from __future__ import annotations

import json

import numpy as np

from .classical_radon import PhaseSpaceGrid, Sinogram
from .cv_wigner import PositionDensityMatrix
from .errors import FormatError
from .qudit_mub import MubBasisSet
from .qudit_tomography import CountTable, ProbabilityTable, validate_density_matrix

FORMAT_VERSION = 1


def _complex_out(arr: np.ndarray):
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def _complex_in(data, what: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: complex data must be nested [re, im] pairs") from exc
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise FormatError(f"{what}: complex entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _real_in(data, what: str) -> np.ndarray:
    try:
        return np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what}: expected nested numeric arrays") from exc


def _load(path, expected_kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: top level must be a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format {doc.get('format')!r}")
    if doc.get("kind") != expected_kind:
        raise FormatError(
            f"{path}: kind is {doc.get('kind')!r}, expected {expected_kind!r}"
        )
    return doc


def _need(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise FormatError(f"{path}: missing required key {key!r}")
    return doc[key]


def _dump(path, doc: dict):
    text = json.dumps(doc) + "\n"  # dumps runs the C encoder; dump does not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def peek_kind(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise FormatError(f"{path}: no 'kind' field")
    return str(doc["kind"])


# ---------------------------------------------------------------- densities


def write_qudit_density(path, rho: np.ndarray):
    rho = np.asarray(rho, dtype=complex)
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "density",
        "dim": int(rho.shape[0]),
        "data": _complex_out(rho),
    })


def read_qudit_density(path) -> np.ndarray:
    doc = _load(path, "density")
    dim = int(_need(doc, "dim", path))
    rho = _complex_in(_need(doc, "data", path), f"{path}: data")
    if rho.shape != (dim, dim):
        raise FormatError(f"{path}: data shape {rho.shape} does not match dim {dim}")
    return validate_density_matrix(rho)


def write_position_density(path, rho: PositionDensityMatrix, **extra):
    doc = {
        "format": FORMAT_VERSION,
        "kind": "density",
        "n": rho.n,
        "x_min": rho.x_min,
        "x_max": rho.x_max,
        "data": _complex_out(rho.values),
    }
    doc.update(extra)
    _dump(path, doc)


def read_position_density(path) -> PositionDensityMatrix:
    doc = _load(path, "density")
    if "n" not in doc or "x_min" not in doc:
        raise FormatError(f"{path}: not a continuous density (needs n, x_min, x_max)")
    vals = _complex_in(_need(doc, "data", path), f"{path}: data")
    n = int(doc["n"])
    if vals.shape != (n, n):
        raise FormatError(f"{path}: data shape {vals.shape} does not match n {n}")
    return PositionDensityMatrix(
        values=vals, x_min=float(_need(doc, "x_min", path)),
        x_max=float(_need(doc, "x_max", path)),
    )


def write_wavefunction(path, psi: np.ndarray, x_min: float, x_max: float):
    psi = np.asarray(psi, dtype=complex)
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "wavefunction",
        "n": int(psi.size),
        "x_min": float(x_min),
        "x_max": float(x_max),
        "data": _complex_out(psi),
    })


def read_wavefunction(path):
    """Returns (psi, x_min, x_max); density formation is the caller's call."""
    doc = _load(path, "wavefunction")
    psi = _complex_in(_need(doc, "data", path), f"{path}: data")
    n = int(_need(doc, "n", path))
    if psi.shape != (n,):
        raise FormatError(f"{path}: data length {psi.shape} does not match n {n}")
    return psi, float(_need(doc, "x_min", path)), float(_need(doc, "x_max", path))


# ----------------------------------------------------------------- unitaries


def write_mub_set(path, mub_set: MubBasisSet):
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "unitary",
        "dim": mub_set.dim,
        "count": len(mub_set.bases),
        "data": [_complex_out(U) for U in mub_set.bases],
    })


def read_mub_set(path) -> MubBasisSet:
    doc = _load(path, "unitary")
    dim = int(_need(doc, "dim", path))
    data = _need(doc, "data", path)
    if not isinstance(data, list) or len(data) != int(_need(doc, "count", path)):
        raise FormatError(f"{path}: data must list 'count' matrices")
    bases = tuple(_complex_in(m, f"{path}: basis") for m in data)
    return MubBasisSet(dim=dim, bases=bases)


# -------------------------------------------------------- probability tables


def write_probability_table(path, table: ProbabilityTable):
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "probabilities",
        "dim": table.dim,
        "data": table.values.tolist(),
    })


def read_probability_table(path) -> ProbabilityTable:
    doc = _load(path, "probabilities")
    dim = int(_need(doc, "dim", path))
    return ProbabilityTable(dim=dim, values=_real_in(_need(doc, "data", path), path))


def write_count_table(path, counts: CountTable, **extra):
    doc = {
        "format": FORMAT_VERSION,
        "kind": "counts",
        "dim": counts.dim,
        "shots_per_basis": counts.shots_per_basis,
        "data": counts.counts.tolist(),
    }
    doc.update(extra)
    _dump(path, doc)


def read_count_table(path) -> CountTable:
    doc = _load(path, "counts")
    data = _need(doc, "data", path)
    try:
        arr = np.asarray(data, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: counts must be integers") from exc
    return CountTable(
        dim=int(_need(doc, "dim", path)),
        shots_per_basis=int(_need(doc, "shots_per_basis", path)),
        counts=arr,
    )


# -------------------------------------------------------- grids and sinograms


def write_grid(path, grid: PhaseSpaceGrid):
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "grid",
        "nx": grid.nx,
        "np": grid.n_p,
        "x_min": grid.x_min,
        "x_max": grid.x_max,
        "p_min": grid.p_min,
        "p_max": grid.p_max,
        "data": grid.values.tolist(),
    })


def read_grid(path) -> PhaseSpaceGrid:
    doc = _load(path, "grid")
    vals = _real_in(_need(doc, "data", path), path)
    if vals.shape != (int(_need(doc, "nx", path)), int(_need(doc, "np", path))):
        raise FormatError(f"{path}: data shape {vals.shape} does not match nx/np")
    return PhaseSpaceGrid(
        values=vals,
        x_min=float(_need(doc, "x_min", path)),
        x_max=float(_need(doc, "x_max", path)),
        p_min=float(_need(doc, "p_min", path)),
        p_max=float(_need(doc, "p_max", path)),
    )


def write_sinogram(path, sino: Sinogram):
    _dump(path, {
        "format": FORMAT_VERSION,
        "kind": "sinogram",
        "n_theta": sino.n_theta,
        "thetas": sino.thetas.tolist(),
        "n_s": sino.n_s,
        "s_min": sino.s_min,
        "s_max": sino.s_max,
        "data": sino.values.tolist(),
    })


def read_sinogram(path) -> Sinogram:
    doc = _load(path, "sinogram")
    vals = _real_in(_need(doc, "data", path), path)
    thetas = _real_in(_need(doc, "thetas", path), path)
    if vals.shape != (int(_need(doc, "n_theta", path)), int(_need(doc, "n_s", path))):
        raise FormatError(f"{path}: data shape {vals.shape} does not match n_theta/n_s")
    return Sinogram(
        values=vals,
        thetas=thetas,
        s_min=float(_need(doc, "s_min", path)),
        s_max=float(_need(doc, "s_max", path)),
    )


def write_grid_csv(path, grid: PhaseSpaceGrid):
    """Row-major CSV: one line per x sample, p along columns."""
    header = (
        f"# kind=grid nx={grid.nx} np={grid.n_p} "
        f"x_min={grid.x_min!r} x_max={grid.x_max!r} "
        f"p_min={grid.p_min!r} p_max={grid.p_max!r}"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in grid.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def write_sinogram_csv(path, sino: Sinogram):
    """Row-major CSV: one line per angle, s along columns."""
    header = (
        f"# kind=sinogram n_theta={sino.n_theta} n_s={sino.n_s} "
        f"s_min={sino.s_min!r} s_max={sino.s_max!r}"
    )
    thetas = "# thetas=" + ",".join(repr(float(t)) for t in sino.thetas)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write(thetas + "\n")
        for row in sino.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
