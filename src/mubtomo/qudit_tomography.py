"""Simulate unbiased-basis measurements and invert them back to the state.

The exact-probability inversion is affine and closed form:

    rho = sum_{k=0}^{d} U_k diag(p_k) U_k^dagger - I

where k runs over the computational basis and the d bases of the set, and
p_k is the probability row measured in basis k. Each row sums to 1, so the
(d+1)(d-1) = d^2 - 1 free numbers determine rho completely. Finite-shot
frequency tables go through the same formula and may come out unphysical;
``project_to_physical`` repairs them in a separate, explicit step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._frozen import finite_array, freeze_fields
from .errors import (EIGENVALUE_FLOOR, ROUNDING_TOL, ROW_SUM_TOL, DimensionMismatch,
                     InvariantViolation, NonHermitianInput)
from .qudit_mub import MubBasisSet


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity; return a complex copy."""
    rho = finite_array(rho, complex, "density matrix")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > ROUNDING_TOL:
        raise NonHermitianInput(f"density matrix not Hermitian within {ROUNDING_TOL}")
    if abs(np.trace(rho).real - 1.0) > ROUNDING_TOL or abs(np.trace(rho).imag) > ROUNDING_TOL:
        raise InvariantViolation(f"trace is {np.trace(rho)}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < EIGENVALUE_FLOOR:
        raise InvariantViolation("density matrix has a negative eigenvalue")
    return rho


def random_density_matrix(dim: int, seed: int) -> np.ndarray:
    """Full-rank generic mixed state rho = A A^dagger / Tr(A A^dagger).

    A has independent standard complex Gaussian entries drawn from the
    seeded default numpy generator.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """(d+1) x d Born probabilities; row 0 computational, row 1+b basis b."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        freeze_fields(self, float, values=self.values)
        if self.dim < 1:
            raise InvariantViolation(f"dimension must be at least 1, got {self.dim}")
        if self.values.shape != (self.dim + 1, self.dim):
            raise DimensionMismatch(
                f"expected shape {(self.dim + 1, self.dim)}, got {self.values.shape}"
            )
        if np.min(self.values) < -ROUNDING_TOL or np.max(self.values) > 1 + ROUNDING_TOL:
            raise InvariantViolation("probabilities must lie in [0, 1]")
        # finite-shot frequency tables are allowed through with a warning
        worst = float(np.max(np.abs(self.values.sum(axis=1) - 1.0)))
        if worst > ROW_SUM_TOL:
            warnings.warn(
                f"probability rows deviate from unit sum by up to {worst:.3g}",
                stacklevel=3,
            )


@dataclass(frozen=True, eq=False)
class CountTable:
    """Multinomial outcome counts, one row per basis."""

    dim: int
    shots_per_basis: int
    counts: np.ndarray

    def __post_init__(self):
        freeze_fields(self, counts=self.counts)
        if self.dim < 1:
            raise InvariantViolation(f"dimension must be at least 1, got {self.dim}")
        if self.counts.shape != (self.dim + 1, self.dim):
            raise DimensionMismatch(
                f"expected shape {(self.dim + 1, self.dim)}, got {self.counts.shape}"
            )
        if np.min(self.counts) < 0 or not np.issubdtype(self.counts.dtype, np.integer):
            raise InvariantViolation("counts must be nonnegative integers")
        if np.any(self.counts.sum(axis=1) != self.shots_per_basis):
            raise InvariantViolation("each row must sum to shots_per_basis")


def measure_probabilities(rho: np.ndarray, mub_set: MubBasisSet) -> ProbabilityTable:
    """Exact Born probabilities <k;n|rho|k;n> for every basis of the set."""
    rho = validate_density_matrix(rho)
    if rho.shape[0] != mub_set.dim:
        raise DimensionMismatch(
            f"state dimension {rho.shape[0]} != basis dimension {mub_set.dim}"
        )
    rows = [np.real(np.sum(np.conj(U) * (rho @ U), axis=0)) for U in mub_set.bases]
    return ProbabilityTable(dim=mub_set.dim, values=np.array(rows))


def sample_counts(table: ProbabilityTable, shots: int, seed: int) -> CountTable:
    """Draw a multinomial count table, reproducible across platforms.

    RNG contract (byte-for-byte): row r of the table uses numpy's
    counter-based Philox4x64-10 bit generator with the 128-bit key
    ``(seed mod 2^64) + r * 2^64`` and zero counter. The ``shots``
    uniforms are ``(next_uint64 >> 11) * 2**-53`` in stream order, and
    outcome t is ``searchsorted(c, u_t, side="right")`` where c is the
    row's cumulative distribution rescaled so c[d-1] = 1. Identical
    (table, shots, seed) always reproduce the same counts.

    The counts are computed from each row's sorted stream, cut at c[:-1]
    with ``side="left"`` (a draw equal to c[k] is outcome k + 1), which
    gives the same counts as the per-draw search.
    """
    if shots < 0:
        raise InvariantViolation(f"shots must be nonnegative, got {shots}")
    if seed < 0:
        raise InvariantViolation(f"seed must be nonnegative, got {seed}")
    d = table.dim
    counts = np.zeros((d + 1, d), dtype=np.int64)
    if shots > 0:
        for r in range(d + 1):
            key = (seed & ((1 << 64) - 1)) + (r << 64)
            gen = np.random.Generator(np.random.Philox(key=key))
            cum = np.cumsum(table.values[r])
            # probabilities down to -ROUNDING_TOL may dip c; keep counts nonnegative
            cum = np.maximum.accumulate(cum / cum[-1])
            below = np.searchsorted(np.sort(gen.random(shots)), cum[:-1], side="left")
            counts[r] = np.diff(below, prepend=0, append=shots)
    return CountTable(dim=d, shots_per_basis=shots, counts=counts)


def frequencies(counts: CountTable) -> ProbabilityTable:
    """Naive maximum-likelihood frequencies count/shots."""
    if counts.shots_per_basis == 0:
        raise InvariantViolation("cannot form frequencies from zero shots")
    return ProbabilityTable(
        dim=counts.dim, values=counts.counts / counts.shots_per_basis
    )


def reconstruct_density(table: ProbabilityTable, mub_set: MubBasisSet) -> np.ndarray:
    """Invert a probability table to a density matrix.

    Returns the raw affine combination; it is Hermitian by construction
    and has unit trace whenever every row sums to 1, but finite-shot input
    can make it non-positive. Physicality repair is deliberately a
    separate step (``project_to_physical``).
    """
    if table.dim != mub_set.dim:
        raise DimensionMismatch(
            f"table dimension {table.dim} != basis dimension {mub_set.dim}"
        )
    d = table.dim
    rho = -np.eye(d, dtype=complex)
    for row, U in zip(table.values, mub_set.bases):
        rho += (U * row[np.newaxis, :]) @ U.conj().T
    return rho


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1} by sorted threshold."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, len(v) + 1)
    last = np.nonzero(u + (1.0 - css) / k > 0)[0][-1]
    tau = (1.0 - css[last]) / (last + 1)
    return np.maximum(v + tau, 0.0)


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Nearest physical state: Hermitize, then project the spectrum.

    Eigenvalues are mapped to the probability simplex (nonnegative, unit
    sum) and the matrix is rebuilt in the same eigenbasis. Already
    physical input is returned unchanged up to rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {rho.shape}")
    herm = 0.5 * (rho + rho.conj().T)
    w, V = np.linalg.eigh(herm)
    w = _project_to_simplex(w)
    return (V * w[np.newaxis, :]) @ V.conj().T
