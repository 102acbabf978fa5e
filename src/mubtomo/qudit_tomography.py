"""Simulate unbiased-basis measurements and invert them back to the state.

The exact-probability inversion is affine and closed form:

    rho = sum_{k=0}^{d} U_k diag(p_k) U_k^dagger - I

where k runs over the computational basis and the d bases of the set, and
p_k is the probability row measured in basis k. Each row sums to 1, so the
(d+1)(d-1) = d^2 - 1 free numbers determine rho completely. Finite-shot
frequency tables go through the same formula and may come out unphysical;
``project_to_physical`` repairs them in a separate, explicit step.

For the canonical set of ``qudit_mub.build_mub_set`` both directions are a
finite Radon transform on Z_d x Z_d (Wootters 1987), the discrete twin of
``cv_wigner.reconstruct_density_continuous``. With R[k, m] = rho[m + k, m]
the wrapped subdiagonals of rho and the lattice j = k(k-1)/2 + m k,

    p_{1+b}(c) = (1/d) sum_k omega^(c k) sum_m omega^(-b j) R[k, m]
    R[k, m]    = (1/d) sum_b omega^(b j) sum_c omega^(-c k) p_{1+b}(c)
                 + [k = 0] (p_0(m) - 1)

and p_0 = diag rho: one FFT pair and one scatter or gather on the lattice
each way, O(d^2 log d) against the O(d^4) of the matrix products. For a
Hermitian rho, R[d - k, m] = conj R[k, m - k], so column d - k of the
spectrum is the conjugate of column k: both directions transform and move
only k = 0 .. (d-1)/2, and the measurement reads the Hermitian part of rho
there, as the dense Born map does. The inversion equals the affine formula
on any table, also one whose rows do not sum to 1, and is exactly
Hermitian. Each set carries three routes: the pair as ``_born_rows`` and
``_invert``, and the overlap moduli that ``qudit_mub.mub_deviation``
reads. A set of arbitrary matrices (read from a file, or built by hand)
takes the dense products. ``qudit_wigner`` is an independent route to the
rows: row 1+b sums W along the lines of slope b.

Sampled at x_n = (n - (d-1)/2) delta with delta = sqrt(2 pi / d), a
resolved continuous state gives a qudit state whose row 1+b is its
quadrature distribution at the lattice angle theta_b = atan2(1, -b),
binned at spacing 2 pi / (d delta sqrt(1 + b^2)). This holds while the
state sheared by b stays inside the torus, for small |b|; acceptance
criterion C12 checks it at d = 101 and 211.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._frozen import finite_array, freeze_fields, whole
from .errors import (EIGENVALUE_FLOOR, ROUNDING_TOL, ROW_SUM_TOL, DimensionMismatch,
                     InvariantViolation, NonHermitianInput)
from .finite_field import assert_odd_prime
from .qudit_mub import MubBasisSet


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check finiteness, Hermiticity, unit trace and positivity; return a complex copy.

    Positivity is the least eigenvalue at least ``EIGENVALUE_FLOOR``, read
    as whether rho - EIGENVALUE_FLOOR * I has a Cholesky factor: O(d^3 / 3)
    and no eigensolver. The two agree except within about d * eps of the
    floor, where rounding decides either way.
    """
    rho = finite_array(rho, complex, "density matrix")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise DimensionMismatch(f"density matrix must be square and nonempty, got shape "
                                f"{rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > ROUNDING_TOL:
        raise NonHermitianInput(f"density matrix not Hermitian within {ROUNDING_TOL}")
    if abs(np.trace(rho).real - 1.0) > ROUNDING_TOL or abs(np.trace(rho).imag) > ROUNDING_TOL:
        raise InvariantViolation(f"trace is {np.trace(rho)}, expected 1")
    try:
        np.linalg.cholesky(rho - EIGENVALUE_FLOOR * np.eye(rho.shape[0]))
    except np.linalg.LinAlgError:
        raise InvariantViolation("density matrix has a negative eigenvalue") from None
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


def _check_rows(dim: int, rows: np.ndarray):
    """A table of a d-level system has d >= 1 and one row of d per basis."""
    if dim < 1:
        raise InvariantViolation(f"dimension must be at least 1, got {dim}")
    if rows.shape != (dim + 1, dim):
        raise DimensionMismatch(f"expected shape {(dim + 1, dim)}, got {rows.shape}")


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """(d+1) x d Born probabilities; row 0 computational, row 1+b basis b."""

    dim: int
    values: np.ndarray

    def __post_init__(self):
        freeze_fields(self, float, values=self.values)
        _check_rows(self.dim, self.values)
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
        _check_rows(self.dim, self.counts)
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
    return ProbabilityTable(dim=mub_set.dim, values=mub_set._born_rows(rho))


def qudit_wigner(rho: np.ndarray) -> np.ndarray:
    """Discrete Wigner function of a qudit state, odd prime d; the counterpart
    of ``cv_wigner.wigner_from_density``.

        W[q, p] = (1/d) sum_y omega^(-p y) rho[q + y h, q - y h],  h = 2^-1 mod d

    W is real and sums to 1. Its line sums are the MUB rows of the canonical
    set: row 0 is sum_p W[q, p], and row 1+b at c = -(k + b h) mod d is
    sum_q W[q, b q + k]; a view of the state and a cross-check of both routes.

    For a continuous state sampled as in the module docstring, column k h
    mod d, |k| <= (d-1)/2, times d/pi is ``wigner_from_density`` at
    p = k pi / (d delta) on the band |x| < d delta / 4. Outside it W holds the odd-d
    ghost: the odd offsets y pair points half a period apart, and the
    difference is about max |W|.
    """
    rho = validate_density_matrix(rho)
    d = assert_odd_prime(rho.shape[0]).d
    q, y = np.ogrid[:d, :d]
    h = (d + 1) // 2  # the inverse of 2 mod d
    return np.fft.fft(rho[(q + y * h) % d, (q - y * h) % d], axis=1).real / d


def sample_counts(table: ProbabilityTable, shots: int, seed: int) -> CountTable:
    """Draw a multinomial count table, reproducible across platforms.

    RNG contract (byte-for-byte): row r of the table uses numpy's
    counter-based Philox4x64-10 bit generator with the 128-bit key
    ``(seed mod 2^64) + r * 2^64`` and zero counter. The ``shots``
    uniforms are ``(next_uint64 >> 11) * 2**-53`` in stream order, and
    outcome t is ``searchsorted(c, u_t, side="right")`` where c is the
    row's cumulative distribution rescaled so c[d-1] = 1. Identical
    (table, shots, seed) always reproduce the same counts.

    Each row's stream is drawn into one buffer of ``shots`` floats,
    allocated once per call, and sorted in place; the counts are cut from
    it at c[:-1] with ``side="left"`` (a draw equal to c[k] is outcome
    k + 1), which gives the same counts as the per-draw search. ``shots``
    and ``seed`` must be integers of any type (``whole``); with ``shots > 0``,
    a row whose total is not positive raises ``InvariantViolation``.
    """
    if (shots := whole("shots", shots)) < 0:
        raise InvariantViolation(f"shots must be nonnegative, got {shots}")
    if (seed := whole("seed", seed)) < 0:
        raise InvariantViolation(f"seed must be nonnegative, got {seed}")
    d = table.dim
    counts = np.zeros((d + 1, d), dtype=np.int64)
    if shots > 0:
        draws = np.empty(shots)
        for r in range(d + 1):
            key = (seed & ((1 << 64) - 1)) + (r << 64)
            gen = np.random.Generator(np.random.Philox(key=key))
            cum = np.cumsum(table.values[r])
            if not cum[-1] > 0:
                raise InvariantViolation(f"probability row {r} has total {cum[-1]:.3g}; "
                                         "there is nothing to sample")
            # probabilities down to -ROUNDING_TOL may dip c; keep counts nonnegative
            cum = np.maximum.accumulate(cum / cum[-1])
            gen.random(out=draws)
            draws.sort()
            below = np.searchsorted(draws, cum[:-1], side="left")
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
    (exactly, for the canonical set) and has unit trace whenever every row
    sums to 1, but finite-shot input can make it non-positive. Physicality
    repair is deliberately a separate step (``project_to_physical``).
    """
    if table.dim != mub_set.dim:
        raise DimensionMismatch(
            f"table dimension {table.dim} != basis dimension {mub_set.dim}"
        )
    return mub_set._invert(table.values)


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

    Of a MUB inversion this is the least-squares state: for frequencies f
    whose rows sum to 1, rho = ``reconstruct_density(f)`` and any unit-trace
    sigma, sum_kn (f_kn - <kn|sigma|kn>)^2 = ||rho - sigma||_HS^2 (the d + 1
    bases are a 2-design), so the nearest physical state to rho is the
    physical state whose Born table is nearest to f.
    """
    rho = finite_array(rho, complex, "matrix")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or not rho.size:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {rho.shape}")
    herm = 0.5 * (rho + rho.conj().T)
    w, V = np.linalg.eigh(herm)
    w = _project_to_simplex(w)
    return (V * w[np.newaxis, :]) @ V.conj().T
