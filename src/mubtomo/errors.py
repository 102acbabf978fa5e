"""Tolerance table and exception vocabulary shared by all modules.

Every "close enough" in the package is one of the constants below, defined
once with its reason; the checking modules import them from here and hold
no tolerance literal of their own.

Every error the library raises is a ``MubTomoError``. Each class doubles as
a machine-readable error code: the CLI prints the class name on stderr and
exits with ``exit_code`` (2 bad invocation or unusable file, 3 violated
domain invariant, 4 numeric failure). ``InvariantViolation`` and
``InsufficientAngles`` reject an argument's value, so they are also
``ValueError``s; ``UsageError`` is also an ``argparse.ArgumentTypeError``,
so argparse names the flag whose value it rejects.
"""

import argparse

# Float rounding of a quantity that is exact in real arithmetic: qudit basis
# unitarity, density Hermiticity and unit trace, probabilities in [0, 1], and
# the relative slack that lets a grid sized exactly at the Nyquist or kernel
# alias limit pass.
ROUNDING_TOL = 1e-12
# Narrowest cell footprint of the forward Radon projector, in units of ds;
# keeps the 1/(2ab) of the footprint share finite at theta = 0 and pi/2,
# where one side is 0.
FOOTPRINT_FLOOR = 1e-12
# Most negative eigenvalue a qudit density matrix may have; checked as the
# existence of a Cholesky factor of rho - EIGENVALUE_FLOOR * I, which rounding
# decides only within about d * eps of the floor.
EIGENVALUE_FLOOR = -1e-10
# Unit-sum deviation of a probability row above which ProbabilityTable warns;
# finite-shot frequency tables pass with the warning.
ROW_SUM_TOL = 1e-10
# Mass a projection row may differ from its siblings by (Sinogram), or lose
# against the grid mass (Radon rows) or the position trace (quadrature rows,
# the momentum representation). One value, so a loss the producers let
# through cannot resurface in Sinogram as a generic mismatch.
MASS_TOL = 1e-6
# Mismatch, relative to the step, of axes that must agree: uniformly spaced
# angles spanning the half turn, a uniform s axis, s on the x lattice; and,
# absolute, a density file's x extents against --xmax.
SPACING_TOL = 1e-9
# Hermiticity of sampled <x|rho|x'>, which carries reconstruction rounding.
CV_HERMITIAN_TOL = 1e-10
# Distance of the rectangle-rule trace of <x|rho|x'> from 1.
CV_TRACE_TOL = 1e-6
# Imaginary part the Wigner transform may leave before it is discarded.
IMAG_RESIDUE_TOL = 1e-8
# |sin(theta)| below which the quadrature kernel is degenerate.
SIN_EPS = 1e-9


class MubTomoError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class UsageError(MubTomoError, argparse.ArgumentTypeError):
    """Invalid command line invocation."""

    exit_code = 2


class FormatError(MubTomoError):
    """File cannot be opened, or is not a readable mubtomo JSON document."""

    exit_code = 2


class NotPrime(MubTomoError):
    """Dimension is composite."""


class EvenDimension(MubTomoError):
    """Dimension is even; the basis construction needs an odd prime."""


class ZeroDivisor(MubTomoError):
    """Inverse of 0 requested modulo d."""


class IndexOutOfRange(MubTomoError):
    """Basis or vector label outside [0, d)."""


class DimensionMismatch(MubTomoError):
    """Operands describe different Hilbert-space or grid dimensions."""


class InvariantViolation(MubTomoError, ValueError):
    """A domain type received data breaking one of its invariants."""


class EmptyGrid(MubTomoError):
    """Phase-space grid with fewer than two samples per axis."""


class InsufficientAngles(MubTomoError, ValueError):
    """Projection angles too few, unevenly spaced or short of a half turn."""


class MassOutsideAxis(InvariantViolation):
    """Projection mass falls outside the s axis; s_max is too small."""


class OutsideProjectionDisk(InvariantViolation):
    """An x extent reaches past the disk x^2 + p^2 <= reach^2 the projection rows cover."""


class NonHermitianInput(MubTomoError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class AliasedGrid(MubTomoError):
    """Sampling too coarse to resolve the oscillatory kernel phase."""

    exit_code = 4


class MomentumOutsideGrid(AliasedGrid):
    """Momentum support reaches past the mirrored grid p_k = x_k."""


class DegenerateAngle(MubTomoError):
    """Quadrature kernel evaluated at sin(theta) = 0."""

    exit_code = 4
