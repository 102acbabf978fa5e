"""Arithmetic modulo an odd prime d, including Weyl-exponent bookkeeping.

Pure integer functions, all exact. ``qudit_mub`` reduces its own exponents;
``weyl_decompose`` is the operator grouping acceptance criterion C03 checks,
and the grouping that the canonical set's finite-Radon transform pair in
``qudit_mub`` vectorises, for measurement and inversion alike.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

from ._frozen import whole
from .errors import EvenDimension, IndexOutOfRange, InvariantViolation, NotPrime, ZeroDivisor


@dataclass(frozen=True)
class PrimeModulus:
    """Validated odd-prime Hilbert-space dimension of any integer type, stored as an int."""

    d: int

    def __post_init__(self):
        try:
            d = whole("dimension", self.d)
        except InvariantViolation as exc:
            raise NotPrime(str(exc)) from None
        if d < 2:
            raise NotPrime(f"dimension must be an integer >= 2, got {d}")
        object.__setattr__(self, "d", d)
        if d == 2:
            raise EvenDimension("d = 2 is excluded; the construction needs an odd prime")
        if d % 2 == 0:
            raise NotPrime(f"{d} is even and composite")
        # trial division is plenty at desk scale
        f = 3
        while f * f <= d:
            if d % f == 0:
                raise NotPrime(f"{d} = {f} * {d // f} is not prime")
            f += 2

    @property
    def omega(self) -> complex:
        """Primitive d-th root of unity exp(2*pi*i/d)."""
        return cmath.exp(2j * cmath.pi / self.d)

    def root_power(self, exponent: int) -> complex:
        """omega**exponent with the exponent reduced exactly mod d first."""
        return cmath.exp(2j * cmath.pi * (exponent % self.d) / self.d)


class WeylIndex(NamedTuple):
    """Exponent pair (m, l) labelling the operator X^m Z^l."""

    m: int
    l: int


class WeylDecomposition(NamedTuple):
    """Grouping data: X^m Z^l = omega^nu (X Z^b)^m."""

    b: int
    m: int
    nu: int


def assert_odd_prime(d: int) -> PrimeModulus:
    """Validate d and return the modulus, or raise NotPrime / EvenDimension."""
    return PrimeModulus(d)


def mod_inverse(a: int, modulus: PrimeModulus) -> int:
    """Multiplicative inverse of a modulo the prime d.

    Raises ZeroDivisor when a is congruent to 0.
    """
    d = modulus.d
    a = a % d
    if a == 0:
        raise ZeroDivisor(f"0 has no inverse mod {d}")
    return pow(a, -1, d)


def weyl_decompose(idx: WeylIndex, modulus: PrimeModulus) -> WeylDecomposition:
    """Group a shifted-clock product into a power of a single generator.

    For m != 0 the operator X^m Z^l equals omega^nu (X Z^b)^m with
    b = l/m and nu = -b*m*(m-1)/2, all mod d. Since m*(m-1) is even the
    half is taken in plain integers, so no inverse of 2 is needed and the
    exponent is exact.

    So the Weyl operators on the line l = b m through the origin are powers
    of X Z^b, diagonal in basis b: the DFT over c of MUB row 1+b holds the
    expectations of (X Z^b)^-m. The canonical set's transform pair in
    ``qudit_mub`` applies this grouping to all d^2 - 1 pairs (m, l) at once,
    in both directions, instead of calling this function for each: for each
    power m of X, its FFT over b runs over l = b m, and the chirp
    omega^(b m(m-1)/2) in its lattice is omega^-nu.
    """
    m, l = idx
    d = modulus.d
    if not (0 <= m < d and 0 <= l < d):
        raise IndexOutOfRange(f"(m, l) = ({m}, {l}) outside [0, {d})^2")
    if m == 0:
        raise ZeroDivisor("m = 0 operators are clock powers; no grouping exists")
    b = (l * mod_inverse(m, modulus)) % d
    nu = (-b * (m * (m - 1) // 2)) % d
    return WeylDecomposition(b=b, m=m, nu=nu)
