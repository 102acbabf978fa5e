"""Forward Radon transform and filtered back-projection on 2D phase space.

A density rho(x, p) is sampled on a uniform grid; its projection at angle
theta is the line-integral marginal along x cos(theta) + p sin(theta) = s.
The forward transform treats every sample as a dx x dp box and integrates
the box's trapezoidal footprint exactly over each s bin, so every row
carries the grid's rectangle-rule mass to rounding. Inversion is filtered
back-projection: each row is convolved with the band-limited ramp kernel
(frequency response |r| with the correct discrete DC term) and smeared
back across the plane. That filter is the
stable realization of the principal-value kernel -P/(2 pi^2) (s* - s)^-2
obtained from the polar r dr measure of the Fourier inversion.

Angles are sampled on [0, pi) only; the other half plane is redundant via
the reflection identity marginal(-s, theta) = marginal(s, theta + pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import freeze_fields
from .errors import (FOOTPRINT_FLOOR, MASS_TOL, SPACING_TOL, EmptyGrid, IndexOutOfRange,
                     InsufficientAngles, InvariantViolation, MassOutsideAxis)


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Uniformly sampled real function on [x_min, x_max] x [p_min, p_max].

    ``values[i, j]`` is the sample at (x_i, p_j); endpoints included.
    Holds either a classical density (nonnegative, unit mass) or a Wigner
    function (may be negative); only shape and finiteness are enforced.
    """

    values: np.ndarray
    x_min: float
    x_max: float
    p_min: float
    p_max: float

    def __post_init__(self):
        freeze_fields(self, float, values=self.values)
        if self.values.ndim != 2 or min(self.values.shape) < 2:
            raise EmptyGrid(f"grid needs at least 2x2 samples, got shape {self.values.shape}")
        if not (self.x_min < self.x_max and self.p_min < self.p_max):
            raise InvariantViolation("grid extents must be ordered")

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def n_p(self) -> int:
        return self.values.shape[1]

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def p(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.n_p)

    def mass(self) -> float:
        """Rectangle-rule integral of the samples."""
        return float(self.values.sum() * self.dx * self.dp)


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Projection rows, one per angle, on a shared uniform s axis."""

    values: np.ndarray
    thetas: np.ndarray
    s_min: float
    s_max: float

    def __post_init__(self):
        freeze_fields(self, float, values=self.values, thetas=self.thetas)
        if self.values.ndim != 2 or self.values.shape[:1] != self.thetas.shape:
            raise InvariantViolation(f"got values of shape {self.values.shape} "
                                     f"for angles of shape {self.thetas.shape}")
        if self.n_theta < 1 or self.n_s < 2:
            raise InvariantViolation("sinogram needs at least one angle and two s samples")
        if np.any(self.thetas < 0.0) or np.any(self.thetas >= np.pi):
            raise InvariantViolation("angles must lie in [0, pi)")
        if not self.s_min < self.s_max:
            raise InvariantViolation("s extents must be ordered")
        masses = self.values.sum(axis=1) * self.ds
        mean = float(np.mean(masses))
        if np.max(np.abs(masses - mean)) > MASS_TOL * max(1.0, abs(mean)):
            raise InvariantViolation("projection rows carry inconsistent total mass")

    @property
    def n_theta(self) -> int:
        return self.values.shape[0]

    @property
    def n_s(self) -> int:
        return self.values.shape[1]

    @property
    def ds(self) -> float:
        return (self.s_max - self.s_min) / (self.n_s - 1)

    @property
    def s(self) -> np.ndarray:
        return np.linspace(self.s_min, self.s_max, self.n_s)


def _circumscribing_radius(grid: PhaseSpaceGrid) -> float:
    """Distance from the origin to the farthest corner of the outermost
    cells, so every cell footprint lies in [-r, r] at any angle."""
    return float(np.hypot(max(-grid.x_min, grid.x_max) + grid.dx / 2,
                          max(-grid.p_min, grid.p_max) + grid.dp / 2))


def _footprint_cdf(d, a, b):
    """CDF at offset d of the unit-mass trapezoid box(a) * box(b), a >= b > 0."""

    def ramp(u):  # antiderivative of the CDF of box(b)
        return np.clip(u + b / 2, 0.0, b) ** 2 / (2 * b) + np.maximum(u - b / 2, 0.0)

    return (ramp(d + a / 2) - ramp(d - a / 2)) / a


def _project_rows(grid: PhaseSpaceGrid, thetas, n_s: int, s_max: float) -> np.ndarray:
    """Exact bin integrals of the cell footprints, one row per angle.

    Sample v[i, j] is a dx x dp box of mass v dx dp. At angle theta it
    projects to the trapezoid box(a) * box(b) centred on
    x_i cos(theta) + p_j sin(theta), where a and b are the larger and the
    smaller of |cos| dx and |sin| dp; its CDF, evaluated at bin edges
    measured from the centre, gives the share of every bin
    [s_k - ds/2, s_k + ds/2]. Raises ``MassOutsideAxis`` when a row misses
    part of ``grid.mass()`` because s_max is too small.
    """
    if n_s < 2 or not 0 < s_max < np.inf or not np.all(np.isfinite(thetas)):
        raise InvariantViolation(f"need n_s >= 2, finite s_max > 0 and finite angles, "
                                 f"got n_s = {n_s}, s_max = {s_max}")
    ds = 2.0 * s_max / (n_s - 1)
    mass = (grid.values * (grid.dx * grid.dp)).ravel()
    out = np.empty((len(thetas), n_s))
    for it, th in enumerate(thetas):
        c, s = np.cos(th), np.sin(th)
        wx, wp = abs(c) * grid.dx, abs(s) * grid.dp
        a, b = max(wx, wp), max(min(wx, wp), FOOTPRINT_FLOOR * ds)
        half = (a + b) / 2
        n_bins = int(np.ceil((a + b) / ds)) + 1
        # left end of each footprint, in bins from the left edge of bin 0
        left = ((np.add.outer(grid.x * c, grid.p * s) + (s_max - half)) / ds + 0.5).ravel()
        k = np.floor(left)
        frac = left - k
        # footprints that start far off the axis still land off it
        idx = np.clip(k, -n_bins, n_s).astype(np.intp) + n_bins
        row = np.zeros(n_s + 2 * n_bins)
        below = 0.0
        for m in range(n_bins):
            upto = 1.0 if m == n_bins - 1 else _footprint_cdf((m + 1 - frac) * ds - half, a, b)
            row += np.bincount(idx + m, weights=mass * (upto - below), minlength=row.size)
            below = upto
        out[it] = row[n_bins : n_bins + n_s]
    total = grid.mass()
    lost = float(np.max(np.abs(total - out.sum(axis=1))))
    if lost > MASS_TOL * max(1.0, abs(total)):
        raise MassOutsideAxis(
            f"projection rows miss {lost:.3g} of the grid mass {total:.6g} outside "
            f"|s| <= {s_max:.6g}; the default s_max {_circumscribing_radius(grid):.6g} "
            "encloses the grid"
        )
    return out / ds


def project_at_angle(grid: PhaseSpaceGrid, theta: float, n_s: int, s_max: float | None = None):
    """Single projection row at an unrestricted angle.

    Unlike ``radon_forward`` this accepts any theta (e.g. theta + pi for
    the reflection identity). The row is built by the same box-footprint
    projector and carries ``grid.mass()``. Returns ``(s_axis, row)``.
    """
    if s_max is None:
        s_max = _circumscribing_radius(grid)
    rows = _project_rows(grid, [float(theta)], n_s, s_max)
    return np.linspace(-s_max, s_max, n_s), rows[0]


def radon_forward(grid: PhaseSpaceGrid, thetas, n_s: int,
                  s_max: float | None = None) -> Sinogram:
    """Forward Radon transform of a phase-space grid.

    Each sample is a dx x dp box (the rectangle rule of ``grid.mass()``),
    and its trapezoidal footprint is integrated exactly over every s bin,
    so every row carries ``grid.mass()`` to rounding.

    Parameters
    ----------
    grid : PhaseSpaceGrid
        Input density (or any real function; linearity holds exactly).
    thetas : array_like
        Projection angles, each in [0, pi).
    n_s : int
        Samples per projection row, uniform on [-s_max, s_max].
    s_max : float, optional
        Row half-extent. Defaults to the circumscribing radius of the
        outermost cell corners so no mass is dropped at any angle; a
        smaller value that drops mass raises ``MassOutsideAxis``.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or thetas.size == 0:
        raise InvariantViolation("thetas must be a nonempty 1D sequence")
    if not np.all((thetas >= 0.0) & (thetas < np.pi)):
        raise InvariantViolation("radon_forward angles must lie in [0, pi); "
                                 "use project_at_angle for the reflected half plane")
    if s_max is None:
        s_max = _circumscribing_radius(grid)
    rows = _project_rows(grid, thetas, n_s, s_max)
    return Sinogram(values=rows, thetas=thetas, s_min=-s_max, s_max=s_max)


def fourier_slice(sinogram: Sinogram, theta_index: int):
    """1D Fourier transform of one projection row.

    Returns ``(r, values)`` with values(r) = integral of row(s) e^{i s r} ds
    on the symmetric discrete frequency axis. By the central-slice
    relation this equals the 2D transform of the density evaluated along
    the ray (r cos(theta), r sin(theta)); values[r = 0] is the total mass.
    """
    if not 0 <= theta_index < sinogram.n_theta:
        raise IndexOutOfRange(
            f"theta_index {theta_index} outside [0, {sinogram.n_theta})"
        )
    n_s, ds = sinogram.n_s, sinogram.ds
    r = 2 * np.pi * np.fft.fftshift(np.fft.fftfreq(n_s, d=ds))
    # s_k = s_min + k ds and r ds = 2 pi q / n_s, so the sum is n_s ifft
    dft = np.fft.fftshift(n_s * np.fft.ifft(sinogram.values[theta_index]))
    return r, ds * np.exp(1j * sinogram.s_min * r) * dft


def _ramp_kernel_response(n_pad: int, ds: float, window: str | None) -> np.ndarray:
    """Frequency response of the band-limited ramp (Ram-Lak) filter.

    Built from the real-space kernel h(0) = 1/(4 ds^2),
    h(odd n) = -1/(pi n ds)^2, h(even n) = 0; its DFT tracks |r| while
    keeping the small positive DC term the sampled ramp requires (a bare
    |r| zeroes DC and biases the reconstructed mass by several percent).
    """
    k = np.fft.fftfreq(n_pad, d=1.0 / n_pad).astype(np.int64)
    h = np.zeros(n_pad)
    h[0] = 1.0 / (4.0 * ds * ds)
    odd = (k % 2) != 0
    h[odd] = -1.0 / (np.pi * np.pi * (k[odd] * ds) ** 2)
    H = np.fft.fft(h).real
    if window is None:
        return H
    if window == "hann":
        f = np.fft.fftfreq(n_pad, d=ds)
        return H * 0.5 * (1.0 + np.cos(np.pi * f / np.abs(f).max()))
    raise InvariantViolation(f"unknown filter window {window!r}")


def inverse_radon(
    sinogram: Sinogram,
    nx: int | None = None,
    n_p: int | None = None,
    x_min: float | None = None,
    x_max: float | None = None,
    p_min: float | None = None,
    p_max: float | None = None,
    window: str | None = None,
) -> PhaseSpaceGrid:
    """Filtered back-projection of a sinogram onto an nx x n_p grid.

    Both sizes default to n_s. Angles must be uniformly spaced and span a
    half turn, ``n_theta * dtheta = pi``; other angle sets raise
    ``InsufficientAngles``. Default extents are the square inscribed in
    the projection circle, |x|, |p| <= s_max / sqrt(2); pass the original
    grid extents to compare round trips. ``window``
    ("hann") apodizes the ramp for noisy rows; the default is the plain
    band-limited ramp.

    Of quadrature distributions this is the Wigner function
    (``cv_wigner.reconstruct_wigner``). Negative values are genuine and
    are not clamped.
    """
    if sinogram.n_theta < 2:
        raise InsufficientAngles(f"{sinogram.n_theta} angle(s); need at least 2")
    dth = np.diff(sinogram.thetas)
    if np.any(dth <= 0) or np.max(np.abs(dth - dth[0])) > SPACING_TOL * dth[0]:
        raise InsufficientAngles("inverse_radon requires uniformly spaced increasing angles")
    delta = float(dth[0])
    if abs(sinogram.n_theta * delta - np.pi) > SPACING_TOL * np.pi:
        raise InsufficientAngles(f"{sinogram.n_theta} angles spaced {delta:.6g} rad "
                                 "do not span the half turn [0, pi)")

    half = min(abs(sinogram.s_min), abs(sinogram.s_max)) / np.sqrt(2.0)
    x_min = -half if x_min is None else x_min
    x_max = half if x_max is None else x_max
    p_min = -half if p_min is None else p_min
    p_max = half if p_max is None else p_max

    n_s = sinogram.n_s
    nx = n_s if nx is None else nx
    n_p = n_s if n_p is None else n_p
    ds = sinogram.ds
    n_pad = 1 << int(np.ceil(np.log2(2 * n_s)))
    H = _ramp_kernel_response(n_pad, ds, window)
    rows = np.zeros((sinogram.n_theta, n_pad))
    rows[:, :n_s] = sinogram.values
    filtered = np.fft.ifft(np.fft.fft(rows, axis=1) * H[None, :], axis=1).real[:, :n_s]
    filtered *= ds

    s_axis = sinogram.s
    X, P = np.meshgrid(
        np.linspace(x_min, x_max, nx), np.linspace(p_min, p_max, n_p), indexing="ij"
    )
    acc = np.zeros((nx, n_p))
    for th, frow in zip(sinogram.thetas, filtered):
        acc += np.interp(X * np.cos(th) + P * np.sin(th), s_axis, frow, left=0.0, right=0.0)
    acc *= delta
    return PhaseSpaceGrid(values=acc, x_min=x_min, x_max=x_max, p_min=p_min, p_max=p_max)
