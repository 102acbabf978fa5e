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
"""

from __future__ import annotations

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


def _mub_amplitudes(d: int, b: int, c) -> np.ndarray:
    """Amplitudes <n|b;c> along axis 0, broadcast over an array of labels c."""
    n = np.arange(d).reshape((d,) + (1,) * np.ndim(c))
    expo = (b * (n * (n - 1) // 2) - np.asarray(c) * n) % d
    return (np.exp(2j * np.pi * np.arange(d) / d) / np.sqrt(d))[expo]


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
    ``mub_deviation`` measures how far a given set strays from that.
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


def build_mub_set(modulus: PrimeModulus) -> MubBasisSet:
    """Construct all d+1 bases for the validated odd prime d."""
    d = modulus.d
    bases = np.empty((d + 1, d, d), dtype=complex)
    bases[0] = np.eye(d)
    for b in range(d):
        bases[1 + b] = basis_matrix(modulus, b)
    return MubBasisSet(dim=d, bases=bases)


def mub_deviation(mub_set: MubBasisSet) -> float:
    """Worst-case | |<u|v>| - 1/sqrt(d) | over all cross-basis ket pairs."""
    target = 1.0 / np.sqrt(mub_set.dim)
    worst = 0.0
    for U, V in itertools.combinations(mub_set.bases, 2):
        worst = max(worst, float(np.max(np.abs(np.abs(U.conj().T @ V) - target))))
    return worst
