"""Exception vocabulary shared by all modules.

Every class doubles as a machine-readable error code: the CLI prints the
class name on stderr and exits with ``exit_code`` (2 bad invocation or
unreadable file, 3 violated domain invariant, 4 numeric failure).
"""


class MubTomoError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class UsageError(MubTomoError):
    """Invalid command line invocation."""

    exit_code = 2


class FormatError(MubTomoError):
    """File exists but is not a readable mubtomo JSON document."""

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


class InvariantViolation(MubTomoError):
    """A domain type received data breaking one of its invariants."""


class EmptyGrid(MubTomoError):
    """Phase-space grid with fewer than two samples per axis."""


class InsufficientAngles(MubTomoError, ValueError):
    """Projection angles too few, unevenly spaced or short of a half turn."""


class MassOutsideAxis(InvariantViolation):
    """Projection mass falls outside the s axis; s_max is too small."""


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
