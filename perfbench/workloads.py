"""The four seeded tomography workloads: input generators, timed ops, checks.

Each workload makes the input of op i from (seed, i) outside the timed
region, runs one full pipeline pass on it in ``run``, and verifies the
output in ``check``, which returns the op's reconstruction error or raises
CheckFailed. Library functions are called through their modules, so the
traced run can rebind them. Importing this module imports numpy, so the
caller caps thread pools first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from harness import CheckFailed
from mubtomo import (
    classical_radon,
    cli,
    finite_field,
    io_formats,
    qudit_mub,
    qudit_tomography,
)


def op_seed(seed: int, i: int) -> int:
    """32-bit seed of op i, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _read_complex_doc(path):
    """A written density file, parsed without the library under test."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    data = np.asarray(doc["data"], dtype=float)
    return doc, data[..., 0] + 1j * data[..., 1]


def _require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


def _require_exit_codes(codes):
    _require(all(code == 0 for code in codes), f"exit codes {codes}, expected zeros")


class QuditExact:
    """d = 101: build and certify the MUBs, then measure and invert exactly."""

    DIM = 101

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.modulus = finite_field.assert_odd_prime(self.DIM)

    def make_input(self, i: int):
        return qudit_tomography.random_density_matrix(self.DIM, op_seed(self.seed, i))

    def run(self, rho):
        mub_set = qudit_mub.build_mub_set(self.modulus)
        deviation = qudit_mub.mub_deviation(mub_set)
        table = qudit_tomography.measure_probabilities(rho, mub_set)
        return deviation, qudit_tomography.reconstruct_density(table, mub_set)

    def check(self, rho, out) -> float:
        deviation, estimate = out
        _require(deviation < 1e-12, f"mub_deviation {deviation:.3g} >= 1e-12")
        error = float(np.max(np.abs(estimate - rho)))
        _require(error < 1e-10, f"round-trip error {error:.3g} >= 1e-10")
        return error


class QuditShotsCli:
    """d = 31 through the command line: simulate 1e5 shots per basis, then
    reconstruct and project, with JSON files in between."""

    DIM = 31
    SHOTS = 100_000

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.state, self.counts, self.estimate = (
            os.path.join(workdir, f"{name}.json") for name in ("state", "counts", "estimate")
        )

    def make_input(self, i: int):
        seed = op_seed(self.seed, i)
        rho = qudit_tomography.random_density_matrix(self.DIM, seed)
        io_formats.write_qudit_density(self.state, rho)
        return rho, seed

    def run(self, inp):
        _, seed = inp
        return (
            cli.main(["simulate", "--dim", str(self.DIM), "--state", self.state,
                      "--shots", str(self.SHOTS), "--seed", str(seed), "--out", self.counts]),
            cli.main(["reconstruct", "--probs", self.counts, "--project",
                      "--out", self.estimate]),
        )

    def check(self, inp, codes) -> float:
        """Physical estimate within shot noise of the truth; returns the trace distance.

        Each frequency row has E||dp||^2 <= 1/N, the MUB inversion maps
        that to E||d rho||_2^2 <= (d+1)/N, projection onto states does not
        increase it, and the trace distance is at most sqrt(d)/2 times the
        Hilbert-Schmidt norm. The check allows three times that scale.
        """
        rho, _ = inp
        _require_exit_codes(codes)
        _, est = _read_complex_doc(self.estimate)
        _require(est.shape == rho.shape, f"estimate has shape {est.shape}")
        _require(np.max(np.abs(est - est.conj().T)) <= 1e-12, "estimate is not Hermitian")
        _require(abs(np.trace(est) - 1.0) <= 1e-10, f"estimate has trace {np.trace(est)}")
        _require(np.min(np.linalg.eigvalsh(est)) >= -1e-10, "estimate is not positive")
        distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(est - rho))))
        bound = 3 * 0.5 * np.sqrt(self.DIM * (self.DIM + 1) / self.SHOTS)
        _require(distance <= bound, f"trace distance {distance:.3g} > shot-noise bound {bound:.3g}")
        return distance


def _coherent(x, x0: float, p0: float):
    return np.pi**-0.25 * np.exp(-((x - x0) ** 2) / 2 + 1j * p0 * x)


class CvQuadsCli:
    """n = 256 on [-8, 8] through the command line: quadratures at 180 angles
    of a two-coherent-state superposition, then the density reconstruction."""

    N = 256
    XMAX = 8.0
    ANGLES = 180
    MAX_ERROR = 0.05  # measured errors sit near 0.012

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.state, self.quads, self.estimate = (
            os.path.join(workdir, f"{name}.json") for name in ("psi", "quads", "rho")
        )

    def make_input(self, i: int):
        """Coherent states at +-(x0, p0), |(x0, p0)| in [1.25, 1.75], with a
        random relative phase: momentum support stays well inside the grid."""
        rng = np.random.default_rng([self.seed, i])
        radius = rng.uniform(1.25, 1.75)
        angle = rng.uniform(0.0, np.pi)
        phase = np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        x0, p0 = radius * np.cos(angle), radius * np.sin(angle)

        def psi(x):
            return _coherent(x, x0, p0) + phase * _coherent(x, -x0, -p0)

        x = np.linspace(-self.XMAX, self.XMAX, self.N)
        samples = psi(x)
        io_formats.write_wavefunction(self.state, samples, -self.XMAX, self.XMAX)
        norm = np.sum(np.abs(samples) ** 2) * (x[1] - x[0])
        return psi, norm

    def run(self, inp):
        quads = cli.main(["quads", "--state", self.state, "--angles", str(self.ANGLES),
                          "--out", self.quads])
        with contextlib.redirect_stdout(io.StringIO()):
            recon = cli.main(["reconstruct-cv", "--quads", self.quads, "--out", self.estimate])
        return quads, recon

    def check(self, inp, codes) -> float:
        """Relative Hilbert-Schmidt error on the reconstruction grid."""
        psi, norm = inp
        _require_exit_codes(codes)
        doc, rho = _read_complex_doc(self.estimate)
        _require(bool(np.all(np.isfinite(rho))), "estimate has non-finite entries")
        u = np.linspace(doc["x_min"], doc["x_max"], doc["n"])
        truth = np.outer(psi(u), np.conj(psi(u))) / norm
        error = float(np.linalg.norm(rho - truth) / np.linalg.norm(truth))
        _require(error < self.MAX_ERROR, f"relative HS error {error:.3g} >= {self.MAX_ERROR}")
        return error


class RadonRoundtrip:
    """256^2 three-Gaussian phantom: forward Radon at 180 angles, then FBP
    back onto the phantom's extents."""

    N = 256
    EXTENT = 6.0
    THETAS = np.arange(180) * np.pi / 180
    MAX_ERROR = 0.02  # measured errors sit near 3.5e-3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def make_input(self, i: int):
        """Unit-mass mixture; centres within 1.5 of the origin and widths in
        [0.55, 0.75], so the default s_max encloses all mass."""
        rng = np.random.default_rng([self.seed, i])
        x = np.linspace(-self.EXTENT, self.EXTENT, self.N)
        X, P = np.meshgrid(x, x, indexing="ij")
        values = np.zeros((self.N, self.N))
        for weight in rng.dirichlet([4.0, 4.0, 4.0]):
            r, a = 1.5 * np.sqrt(rng.uniform()), rng.uniform(0.0, 2 * np.pi)
            sigma = rng.uniform(0.55, 0.75)
            values += weight * np.exp(
                -((X - r * np.cos(a)) ** 2 + (P - r * np.sin(a)) ** 2) / (2 * sigma**2)
            ) / (2 * np.pi * sigma**2)
        return classical_radon.PhaseSpaceGrid(
            values=values, x_min=-self.EXTENT, x_max=self.EXTENT,
            p_min=-self.EXTENT, p_max=self.EXTENT,
        )

    def run(self, grid):
        sino = classical_radon.radon_forward(grid, self.THETAS, n_s=self.N)
        back = classical_radon.inverse_radon(
            sino, self.N, self.N, x_min=grid.x_min, x_max=grid.x_max,
            p_min=grid.p_min, p_max=grid.p_max,
        )
        return sino, back

    def check(self, grid, out) -> float:
        """Every row carries the phantom's mass; returns the relative L2 error."""
        sino, back = out
        mass = grid.mass()
        rows = sino.values.sum(axis=1) * sino.ds
        _require(np.max(np.abs(rows - mass)) <= 1e-6 * mass, "row masses disagree with the phantom")
        error = float(np.linalg.norm(back.values - grid.values) / np.linalg.norm(grid.values))
        _require(error < self.MAX_ERROR, f"relative L2 error {error:.3g} >= {self.MAX_ERROR}")
        return error


WORKLOADS = {
    "qudit-exact": QuditExact,
    "qudit-shots-cli": QuditShotsCli,
    "cv-quads-cli": CvQuadsCli,
    "radon-roundtrip": RadonRoundtrip,
}
