"""Clock/shift operators and the d+1 mutually unbiased bases for odd prime d.

Conventions, with omega = exp(2*pi*i/d) and |n + d> identified with |n>:

    Z|n> = omega^n |n>          (clock)
    X|n> = |n + 1>              (shift)
    ZX   = omega XZ

Basis b (b = 0..d-1) diagonalises X Z^b; its column c is

    |b;c> = d^{-1/2} sum_n omega^{b n(n-1)/2 - c n} |n>

with eigenvalue omega^c. All phase exponents are reduced exactly mod d as
integers and then pick one of the d amplitudes omega^k / sqrt(d), each a
single complex exponential, so no rounding accumulates.
The amplitude at n = 0 is the positive real d^{-1/2}; this pins the free
global phase of each ket and makes serialization reproducible.

``build_mub_set`` returns a ``CanonicalMubSet``, which holds only d and
builds the (d+1, d, d) array when a caller reads ``bases``. Its overlap
<b;c|b';c'> depends only on (b' - b, c' - c), so it yields the moduli that
``mub_deviation`` certifies from d - 1 chirp FFTs, O(d^2 log d), where a
set of arbitrary matrices takes the pairwise O(d^5) products.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from ._frozen import freeze_fields
from .errors import ROUNDING_TOL, IndexOutOfRange, InvariantViolation
from .finite_field import PrimeModulus


def clock_operator(modulus: PrimeModulus) -> np.ndarray:
    """Diagonal matrix diag(1, omega, ..., omega^(d-1)), the Weyl operator Z."""
    return weyl_operator(modulus, 0, 1)


def shift_operator(modulus: PrimeModulus) -> np.ndarray:
    """Cyclic permutation sending basis column n to row n+1 mod d, the Weyl operator X."""
    return weyl_operator(modulus, 1, 0)


def weyl_operator(modulus: PrimeModulus, m: int, l: int) -> np.ndarray:
    """X^m Z^l assembled entrywise: column n holds omega^(l n) at row n+m.

    Exact for any exponents; m and l are reduced mod d.
    """
    d = modulus.d
    n = np.arange(d)
    M = np.zeros((d, d), dtype=complex)
    M[(n + m) % d, n] = np.exp(2j * np.pi * ((l * n) % d) / d)
    return M


def _amplitudes(d: int) -> np.ndarray:
    """The d values omega^k / sqrt(d) that every amplitude <n|b;c> takes."""
    return np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d)


def _mub_amplitudes(d: int, b: int, c) -> np.ndarray:
    """Amplitudes <n|b;c> along axis 0, broadcast over an array of labels c."""
    n = np.arange(d).reshape((d,) + (1,) * np.ndim(c))
    expo = (b * (n * (n - 1) // 2) - np.asarray(c) * n) % d
    return _amplitudes(d)[expo]


def mub_vector(modulus: PrimeModulus, b: int, c: int) -> np.ndarray:
    """Ket |b;c> in the computational basis, unit norm."""
    d = modulus.d
    if not (0 <= b < d and 0 <= c < d):
        raise IndexOutOfRange(f"(b, c) = ({b}, {c}) outside [0, {d})^2")
    return _mub_amplitudes(d, b, c)


def basis_matrix(modulus: PrimeModulus, b: int) -> np.ndarray:
    """Unitary whose column c is |b;c>."""
    d = modulus.d
    if not 0 <= b < d:
        raise IndexOutOfRange(f"b = {b} outside [0, {d})")
    return _mub_amplitudes(d, b, np.arange(d))


@dataclass(frozen=True, eq=False)
class MubBasisSet:
    """The full measurement family as one read-only complex (d+1, d, d) array.

    ``bases[0]`` is the identity (computational basis); ``bases[1 + b]``
    diagonalises X Z^b. Cross-basis overlaps all have modulus 1/sqrt(d);
    ``mub_deviation`` measures how far a given set strays from that. Sets
    read from a file or built by hand are this type. Their three routes
    (Born map, inversion, overlap moduli) are the dense products:
    the oracle for ``CanonicalMubSet``, which ``build_mub_set`` returns.
    """

    dim: int
    bases: np.ndarray

    def __post_init__(self):
        freeze_fields(self, complex, bases=self.bases)
        shape = (self.dim + 1, self.dim, self.dim)
        if self.bases.shape != shape:
            raise InvariantViolation(f"bases have shape {self.bases.shape}, expected {shape}")
        eye = np.eye(self.dim)
        for k, U in enumerate(self.bases):
            if np.max(np.abs(U.conj().T @ U - eye)) > ROUNDING_TOL:
                raise InvariantViolation(f"basis {k} is not unitary within {ROUNDING_TOL}")

    def _born_rows(self, rho: np.ndarray) -> np.ndarray:
        """(d+1, d) probabilities <k;n|rho|k;n>, one O(d^3) product per basis."""
        return np.array([np.real(np.sum(np.conj(U) * (rho @ U), axis=0)) for U in self.bases])

    def _invert(self, values: np.ndarray) -> np.ndarray:
        """The affine inversion rho = sum_k U_k diag(p_k) U_k^dagger - I."""
        rho = -np.eye(self.dim, dtype=complex)
        for row, U in zip(values, self.bases):
            rho += (U * row[np.newaxis, :]) @ U.conj().T
        return rho

    def _overlap_moduli(self):
        """|<u|v>| over every cross-basis ket pair, one pair of bases at a time."""
        for U, V in itertools.combinations(self.bases, 2):
            yield np.abs(U.conj().T @ V)


def _lattice(d: int):
    """The two index pairs of the canonical transform pair, on the Hermitian
    half k = 0 .. (d-1)/2 of the wrapped diagonals: R[k, m] = rho[m + k, m]
    is ``rho[diagonal]``, and its place in the spectrum is ``spectrum[line]``,
    row j = k(k-1)/2 + m k of column k. Diagonal d - k is the conjugate
    transpose of diagonal k, so the other half needs no table."""
    k, m = np.ogrid[:(d + 1) // 2, :d]
    return ((m + k) % d, m), ((k * (k - 1) // 2 + m * k) % d, k)


class CanonicalMubSet(MubBasisSet):
    """The bases |b;c> of the module docstring for an odd prime d, held as d alone.

    ``bases`` is built on first read, with the bytes and the read-only flag
    that ``MubBasisSet`` would hold, and kept. No route reads it: the Born
    map and inversion are the finite Radon transform pair of the
    ``qudit_tomography`` module docstring, O(d^2 log d), on the Hermitian
    half k <= (d-1)/2 of the lattice. The dense routes are their oracle.
    """

    def __init__(self, modulus: PrimeModulus):
        object.__setattr__(self, "dim", modulus.d)

    def __repr__(self):
        return f"CanonicalMubSet(dim={self.dim})"

    @functools.cached_property
    def bases(self) -> np.ndarray:
        d = self.dim
        bases = np.empty((d + 1, d, d), dtype=complex)
        bases[0] = np.eye(d)
        for b in range(d):
            bases[1 + b] = _mub_amplitudes(d, b, np.arange(d))
        bases.setflags(write=False)
        return bases

    def _born_rows(self, rho: np.ndarray) -> np.ndarray:
        """Scatter the Hermitian half of R onto the lattice, FFT over j,
        complete the conjugate columns d - k, inverse FFT over k."""
        d, h = self.dim, (self.dim + 1) // 2
        diagonal, line = _lattice(d)
        half = np.zeros((d, h), dtype=complex)
        # the Hermitian part, as the dense Born map reads it
        half[line] = 0.5 * (rho[diagonal] + rho[diagonal[::-1]].conj())
        half[0, 0] = np.trace(rho).real  # every m of the k = 0 column lands on j = 0
        spectrum = np.empty((d, d), dtype=complex)
        spectrum[:, :h] = np.fft.fft(half, axis=0)
        spectrum[:, h:] = spectrum[:, h - 1:0:-1].conj()  # column d - k
        rows = np.fft.ifft(spectrum, axis=1).real
        return np.vstack([np.diag(rho).real, rows])

    def _invert(self, values: np.ndarray) -> np.ndarray:
        """FFT over c, inverse FFT over b on the half k < (d+1)/2, gather from
        the lattice, and place each diagonal and its conjugate transpose; the
        affine inversion of ``MubBasisSet`` on any table, exactly Hermitian."""
        d, h = self.dim, (self.dim + 1) // 2
        diagonal, line = _lattice(d)
        spectrum = np.fft.fft(values[1:], axis=1)[:, :h]
        diagonals = np.fft.ifft(spectrum, axis=0)[line]
        # k = 0 from plain sums: the DC term of the FFTs is about 1 and would
        # carry its rounding into every diagonal entry
        diagonals[0] = values[0] + (values[1:].sum(axis=1).mean() - 1.0)
        rho = np.empty((d, d), dtype=complex)
        rho[diagonal[::-1]] = diagonals.conj()  # diagonal d - k; k = 0 is rewritten next
        rho[diagonal] = diagonals
        return rho

    def _overlap_moduli(self):
        """The amplitudes, then every pair off the computational basis."""
        yield np.abs(_amplitudes(self.dim))
        yield np.abs(_cross_overlaps(self.dim))


def build_mub_set(modulus: PrimeModulus) -> CanonicalMubSet:
    """The d+1 bases for the validated odd prime d; no matrix is built yet."""
    return CanonicalMubSet(modulus)


def _cross_overlaps(d: int) -> np.ndarray:
    """<b;c|b';c'> of the canonical set, b' != b, at [(b' - b) - 1, c' - c] mod d.

    The overlap is (1/d) sum_n omega^((b' - b) n(n-1)/2 - (c' - c) n), so it
    depends only on the two differences: the DFT of the chirp of each
    b' - b gives all d of them.
    """
    n = np.arange(d)
    chirps = _amplitudes(d)[(np.arange(1, d)[:, np.newaxis] * (n * (n - 1) // 2)) % d]
    return np.fft.fft(chirps, axis=1) / np.sqrt(d)


def mub_deviation(mub_set: MubBasisSet) -> float:
    """Worst | |<u|v>| - 1/sqrt(d) | over the cross-basis moduli the set yields."""
    target = 1.0 / np.sqrt(mub_set.dim)
    return max(float(np.max(np.abs(m - target))) for m in mub_set._overlap_moduli())
