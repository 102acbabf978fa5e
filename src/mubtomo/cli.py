"""mubtomo command line: reproducible file-to-file tomography pipelines.

Exit codes: 0 success, 2 invalid invocation or unusable file, 3 violated
domain invariant, 4 numeric failure (aliased grid, degenerate angle).
Errors print exactly one ``Name: message`` line on stderr.
"""

import argparse
import contextlib
import os
import sys

import numpy as np

from . import io_formats as iof
from .classical_radon import inverse_radon, radon_forward
from .cv_wigner import (
    density_from_wavefunction,
    quadrature_sinogram,
    reconstruct_density_continuous,
    wigner_from_density,
)
from .errors import SPACING_TOL, MubTomoError, UsageError
from .finite_field import assert_odd_prime
from .qudit_mub import build_mub_set
from .qudit_tomography import (
    frequencies,
    measure_probabilities,
    project_to_physical,
    reconstruct_density,
    sample_counts,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _count(minimum: int):
    """argparse ``type`` of a count flag: an int of at least ``minimum``. Sizes
    the library rejects itself (0 or 1 samples) stay its domain errors."""
    def count(text: str) -> int:
        if int(text) < minimum:
            raise UsageError(f"must be at least {minimum}, got {text}")
        return int(text)
    return count


def _half_extent(text: str) -> float:
    """argparse ``type`` of a half-extent flag: a finite positive float, so an
    infinite, NaN, zero or negative extent is a usage error naming the flag
    rather than a failure inside the library."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not 0 < value < np.inf:
        raise UsageError(f"must be a finite positive number, got {text!r}")
    return value


def _write(*outputs):
    """Run each (writer, path, value) whose path is not None; an empty path
    is given, and fails to open. When one fails, remove the files the
    earlier ones wrote, so a failed command leaves no output behind."""
    with contextlib.ExitStack() as undo:
        for writer, path, value in outputs:
            if path is not None:
                writer(path, value)
                undo.callback(os.remove, path)
        undo.pop_all()


def _uniform_angles(n: int) -> np.ndarray:
    return np.arange(n) * np.pi / n


def _load_cv_state(path, n=None, xmax=None):
    """Position density from a density or wavefunction file, parsed once by
    ``io_formats.read_one_of``; any other kind is a UsageError.

    Wavefunctions are linearly resampled onto n points over [-xmax, xmax]
    when those flags are given; density matrices must already match.
    """
    def wavefunction(doc, path):
        psi, x_min, x_max = iof.as_wavefunction(doc, path)
        if n is not None and xmax is not None:
            old = np.linspace(x_min, x_max, psi.size)
            new = np.linspace(-xmax, xmax, n)
            psi = np.interp(new, old, psi.real) + 1j * np.interp(new, old, psi.imag)
            x_min, x_max = -xmax, xmax
        return density_from_wavefunction(psi, x_min, x_max)

    def density(doc, path):
        rho = iof.as_position_density(doc, path)
        if n is not None and (rho.n != n or abs(rho.x_max - xmax) > SPACING_TOL
                              or abs(rho.x_min + xmax) > SPACING_TOL):
            raise UsageError(
                f"density file axis ({rho.n} points on [{rho.x_min}, {rho.x_max}]) "
                f"does not match --grid {n} --xmax {xmax}; resampling is only "
                f"supported for wavefunction inputs"
            )
        return rho

    return iof.read_one_of(path, "a continuous state", wavefunction=wavefunction, density=density)


def _cmd_mub(args):
    mub_set = build_mub_set(assert_odd_prime(args.dim))
    iof.write_mub_set(args.out, mub_set)


def _cmd_simulate(args):
    rho = iof.read_qudit_density(args.state)
    if rho.shape[0] != args.dim:
        raise UsageError(f"--dim {args.dim} but state file has dim {rho.shape[0]}")
    mub_set = build_mub_set(assert_odd_prime(args.dim))
    table = measure_probabilities(rho, mub_set)
    if args.shots is None:
        iof.write_probability_table(args.out, table)
    else:
        counts = sample_counts(table, args.shots, args.seed)
        iof.write_count_table(args.out, counts, seed=args.seed)


def _cmd_reconstruct(args):
    table = iof.read_one_of(
        args.probs, "a measurement table", probabilities=iof.as_probability_table,
        counts=lambda doc, path: frequencies(iof.as_count_table(doc, path)))
    mub_set = build_mub_set(assert_odd_prime(table.dim))
    rho = reconstruct_density(table, mub_set)
    if args.project:
        rho = project_to_physical(rho)
    iof.write_qudit_density(args.out, rho)


def _cmd_radon(args):
    grid = iof.read_grid(args.inp)
    sino = radon_forward(
        grid,
        _uniform_angles(args.angles),
        n_s=args.ns if args.ns is not None else grid.nx,
        s_max=args.smax,
    )
    _write((iof.write_sinogram, args.out, sino), (iof.write_sinogram_csv, args.csv, sino))


def _cmd_iradon(args):
    sino = iof.read_sinogram(args.inp)
    kwargs = {}
    if args.xmax is not None:
        kwargs.update(x_min=-args.xmax, x_max=args.xmax)
    if args.pmax is not None:
        kwargs.update(p_min=-args.pmax, p_max=args.pmax)
    grid = inverse_radon(sino, args.nx, args.np, window=args.window, **kwargs)
    _write((iof.write_grid, args.out, grid), (iof.write_grid_csv, args.csv, grid))


def _cmd_wigner(args):
    rho = _load_cv_state(args.state, n=args.grid, xmax=args.xmax)
    W = wigner_from_density(
        rho,
        n_p=args.np,
        p_max=args.pmax if args.pmax is not None else args.xmax,
    )
    _write((iof.write_grid, args.out, W), (iof.write_grid_csv, args.csv, W))


def _cmd_quads(args):
    rho = _load_cv_state(args.state)
    sino = quadrature_sinogram(rho, _uniform_angles(args.angles))
    _write((iof.write_sinogram, args.out, sino), (iof.write_sinogram_csv, args.csv, sino))


def _cmd_reconstruct_cv(args):
    quads = iof.read_sinogram(args.quads)
    rho, raw_trace = reconstruct_density_continuous(
        quads, n_x=args.nx, x_max=args.xmax
    )
    iof.write_position_density(args.out, rho, pre_normalization_trace=raw_trace)
    print(f"pre_normalization_trace={raw_trace!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mubtomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mub", help="write the d+1 unbiased bases for odd prime d")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mub)

    p = sub.add_parser("simulate", help="measure a qudit state in every basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--state", required=True, help="density JSON file")
    p.add_argument("--shots", type=_count(1), default=None,
                   help="finite-shot counts instead of exact probabilities")
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert a probability or count table")
    p.add_argument("--probs", required=True, help="probabilities or counts JSON file")
    p.add_argument("--project", action="store_true",
                   help="project the estimate onto physical states")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("radon", help="forward Radon transform of a grid")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--angles", type=_count(1), required=True,
                   help="number of uniform angles on [0, pi)")
    p.add_argument("--ns", type=_count(0), default=None, help="samples per projection")
    p.add_argument("--smax", type=_half_extent, default=None)
    p.add_argument("--csv", default=None, help="also export rows as CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_radon)

    p = sub.add_parser("iradon", help="filtered back-projection of a sinogram")
    p.add_argument("--in", dest="inp", required=True)
    p.add_argument("--nx", type=_count(0), default=None)
    p.add_argument("--np", type=_count(0), default=None)
    p.add_argument("--xmax", type=_half_extent, default=None)
    p.add_argument("--pmax", type=_half_extent, default=None)
    p.add_argument("--window", choices=["hann"], default=None,
                   help="apodize the ramp filter (for noisy rows)")
    p.add_argument("--csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_iradon)

    p = sub.add_parser("wigner", help="Wigner function of a continuous state")
    p.add_argument("--state", required=True, help="density or wavefunction JSON")
    p.add_argument("--grid", type=_count(0), required=True, help="samples per axis")
    p.add_argument("--xmax", type=_half_extent, required=True, help="half extent of the axis")
    p.add_argument("--np", type=_count(0), default=None)
    p.add_argument("--pmax", type=_half_extent, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("quads", help="quadrature distributions of a state")
    p.add_argument("--state", required=True)
    p.add_argument("--angles", type=_count(1), required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quads)

    p = sub.add_parser("reconstruct-cv",
                       help="position density matrix from quadratures")
    p.add_argument("--quads", required=True, help="sinogram JSON of quadrature rows")
    p.add_argument("--nx", type=_count(0), default=None)
    p.add_argument("--xmax", type=_half_extent, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reconstruct_cv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except MubTomoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
