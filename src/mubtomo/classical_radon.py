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
obtained from the polar r dr measure of the Fourier inversion. The smearing
reads each filtered row's trigonometric interpolant, and by the
Fourier-slice theorem the sum over angles is evaluated as one type-1
non-uniform FFT of the row spectra (gridding with an "exponential of
semicircle" kernel, Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput.
41 (2019) C479), not as one interpolation per angle and pixel.

Angles are sampled on [0, pi) only; the other half plane is redundant via
the reflection identity marginal(-s, theta) = marginal(s, theta + pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._frozen import Axis, angle_set, axis, freeze_axis, freeze_fields, half_axis, real
from .errors import (FOOTPRINT_FLOOR, MASS_TOL, SPACING_TOL, IndexOutOfRange, InsufficientAngles,
                     InvariantViolation, MassOutsideAxis, OutsideProjectionDisk)

# Back-projection by gridding: width (in grid steps) and oversampling of the
# "exponential of semicircle" spreading kernel, and points per spreading pass.
# At width 8 the kernel error stays below 1e-5 of the maximum down to two
# angles, where width 6 reached 1.2e-4. A pass spreads 512 points, 32k kernel
# weights, so its work arrays stay near 0.3 MB each.
_ES_WIDTH = 8
_ES_OVERSAMPLING = 1.5
_SPREAD_CHUNK = 512


@dataclass(frozen=True, eq=False)
class PhaseSpaceGrid:
    """Uniformly sampled real function on [x_min, x_max] x [p_min, p_max].

    ``values[i, j]`` is the sample at (x_i, p_j); endpoints included.
    Holds either a classical density (nonnegative, unit mass) or a Wigner
    function (may be negative); only shape and finiteness are enforced.
    ``freeze_axis`` stores float extents, steps ``dx``, ``dp`` and samples ``x``, ``p``.
    """

    values: np.ndarray
    x_min: float
    x_max: float
    p_min: float
    p_max: float

    def __post_init__(self):
        freeze_fields(self, float, values=self.values)
        if self.values.ndim != 2:
            raise InvariantViolation(f"grid values must be 2D, got shape {self.values.shape}")
        freeze_axis(self, "x", self.nx)
        freeze_axis(self, "p", self.n_p)

    @property
    def nx(self) -> int:
        return self.values.shape[0]

    @property
    def n_p(self) -> int:
        return self.values.shape[1]

    def mass(self) -> float:
        """Rectangle-rule integral of the samples."""
        return float(self.values.sum() * self.dx * self.dp)


@dataclass(frozen=True, eq=False)
class Sinogram:
    """Projection rows, one per angle in [0, pi), on a shared uniform s axis.

    ``freeze_axis`` stores float extents, the step ``ds`` and the samples ``s``;
    ``reach`` is stored too, the radius of the disk about the origin every row covers:
    min(-s_min, s_max) when s_min < 0 < s_max, and 0 otherwise.
    """

    values: np.ndarray
    thetas: np.ndarray
    s_min: float
    s_max: float

    def __post_init__(self):
        freeze_fields(self, float, values=self.values, thetas=self.thetas)
        angle_set("Sinogram", self.thetas)
        if self.values.ndim != 2 or self.values.shape[:1] != self.thetas.shape:
            raise InvariantViolation(f"got values of shape {self.values.shape} "
                                     f"for angles of shape {self.thetas.shape}")
        freeze_axis(self, "s", self.n_s)
        object.__setattr__(self, "reach", max(0.0, min(-self.s_min, self.s_max)))
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

    def disk_radius(self, owner: str) -> float:
        """``reach``; an s axis that does not straddle 0 covers no disk and
        raises ``OutsideProjectionDisk`` naming ``owner``."""
        if not self.reach:
            raise OutsideProjectionDisk(f"{owner}: s_min = {self.s_min:.6g} and s_max = "
                                        f"{self.s_max:.6g} do not straddle 0, so the rows "
                                        "cover no disk about the origin")
        return self.reach


def _circumscribing_radius(grid: PhaseSpaceGrid) -> float:
    """Distance from the origin to the farthest corner of the outermost
    cells, so every cell footprint lies in [-r, r] at any angle."""
    return float(np.hypot(max(-grid.x_min, grid.x_max) + grid.dx / 2,
                          max(-grid.p_min, grid.p_max) + grid.dp / 2))


def _share(y, a, b, work, spare):
    """Overwrite y, in bins from a footprint's left end, with the share of
    the unit-mass trapezoid box(a) * box(b) that lies within y of that end.

    With y clipped to [0, a + b] the share is one closed form for the rising
    ramp, the plateau and the falling ramp, for any sides a, b > 0:
    (y - b/2)/a + (max(b - y, 0)^2 - max(y - a, 0)^2) / (2ab).
    ``work`` and ``spare`` are scratch arrays of y's shape.
    """
    np.clip(y, 0.0, a + b, out=y)
    np.subtract(b, y, out=work)
    np.maximum(work, 0.0, out=work)
    np.square(work, out=work)
    np.subtract(y, a, out=spare)
    np.maximum(spare, 0.0, out=spare)
    np.square(spare, out=spare)
    work -= spare
    y -= b / 2
    y *= 2 * b
    y += work
    y *= 1.0 / (2 * a * b)
    return y


def _project_rows(grid: PhaseSpaceGrid, thetas, s_axis: Axis) -> np.ndarray:
    """Exact bin integrals of the cell footprints, one row per angle, on the
    ``half_axis`` ``s_axis`` of n_s samples on [-s_max, s_max] with step ds.

    Sample v[i, j] is a dx x dp box of mass v dx dp. At angle theta it
    projects to the trapezoid box(a) * box(b) centred on
    x_i cos(theta) + p_j sin(theta), where a and b are the larger and the
    smaller of |cos| dx and |sin| dp. All lengths are in bins of width ds:
    the footprint's left end lies
    L = (x_i cos(theta) + p_j sin(theta) + s_max)/ds + 1/2 - (a + b)/2
    bins right of the axis's left edge, and ``_share`` at the bin edges past
    L gives the footprint's running share up to each of its bins. Bin
    k + m of a footprint starting in bin k takes the difference of two
    running shares, so each footprint bin m costs one ``bincount``, added at
    offset m and taken off at m + 1. The nx * n_p work arrays are allocated
    once per call and every angle writes into them in place. Raises
    ``MassOutsideAxis`` when a row misses part of ``grid.mass()`` because
    s_max is too small.
    """
    s_max, ds, n_s = s_axis.hi, s_axis.step, s_axis.samples.size
    mass = (grid.values * (grid.dx * grid.dp)).ravel()
    total = grid.mass()
    xb, pb = grid.x / ds, grid.p / ds
    # work arrays: left end, then its fraction; its floor, then scratch;
    # the first bin's index; the running share; scratch
    left2d = np.empty(grid.values.shape)
    left = left2d.reshape(-1)
    low, share, work = np.empty(mass.size), np.empty(mass.size), np.empty(mass.size)
    idx = np.empty(mass.size, dtype=np.intp)
    out = np.empty((len(thetas), n_s))
    for it, th in enumerate(thetas):
        c, s = np.cos(th), np.sin(th)
        wx, wp = abs(c) * grid.dx / ds, abs(s) * grid.dp / ds
        a, b = max(wx, wp), max(min(wx, wp), FOOTPRINT_FLOOR)
        n_bins = int(np.ceil(a + b)) + 1
        np.add.outer(xb * c + (s_max / ds + 0.5 - (a + b) / 2), pb * s, out=left2d)
        # the centres reach farthest at the grid's corners; only a footprint
        # past an outer edge (n_s/2 bins from the centre) can lose mass, so
        # check before the deposit loop
        reach = max(abs(x * c + p * s) for x in (grid.x_min, grid.x_max)
                    for p in (grid.p_min, grid.p_max)) / ds + (a + b) / 2
        if reach > n_s / 2:
            # share before the axis's left edge, and past its right edge
            np.negative(left, out=share)
            lost = mass @ _share(share, a, b, work, low)
            np.subtract(left, n_s - (a + b), out=share)
            lost = abs(float(lost + mass @ _share(share, a, b, work, low)))
            if lost > MASS_TOL * max(1.0, abs(total)):
                raise MassOutsideAxis(
                    f"projection rows miss {lost:.3g} of the grid mass {total:.6g} outside "
                    f"|s| <= {s_max:.6g}; the default s_max {_circumscribing_radius(grid):.6g} "
                    "encloses the grid"
                )
        np.floor(left, out=low)
        left -= low
        # footprints that start far off the axis still land off it
        np.clip(low, -n_bins, n_s, out=low)
        np.add(low, n_bins, out=idx, casting="unsafe")
        size = n_s + n_bins + 1  # idx runs over [0, n_s + n_bins]
        row = np.zeros(n_s + 2 * n_bins)
        for m in range(n_bins - 1):
            np.subtract(m + 1, left, out=share)
            _share(share, a, b, work, low)
            share *= mass
            upto = np.bincount(idx, weights=share, minlength=size)
            row[m : m + size] += upto
            row[m + 1 : m + 1 + size] -= upto
        row[n_bins - 1 : n_bins - 1 + size] += np.bincount(idx, weights=mass, minlength=size)
        out[it] = row[n_bins : n_bins + n_s]
    return out / ds


def project_at_angle(grid: PhaseSpaceGrid, theta: float, n_s: int, s_max: float | None = None):
    """Single projection row at an unrestricted angle.

    Unlike ``radon_forward`` this accepts any theta (e.g. theta + pi for
    the reflection identity) that is finite. The row is built by the same
    box-footprint projector and carries ``grid.mass()``. Returns
    ``(s_axis, row)``.
    """
    theta = real("projection angle theta", theta)
    if not np.isfinite(theta):
        raise InvariantViolation(f"projection angle must be finite, got theta = {theta}")
    s = half_axis("projection s", n_s, _circumscribing_radius(grid) if s_max is None else s_max)
    return s.samples, _project_rows(grid, [theta], s)[0]


def radon_forward(grid: PhaseSpaceGrid, thetas, n_s: int,
                  s_max: float | None = None) -> Sinogram:
    """Forward Radon transform of a phase-space grid.

    Each sample is a dx x dp box (the rectangle rule of ``grid.mass()``),
    and its trapezoidal footprint is integrated exactly over every s bin,
    so every row carries ``grid.mass()`` to rounding. The footprints are
    placed in bin units and their bin shares come from one closed form
    (``_share``); the pixel-sized work arrays are allocated once per call
    and reused at every angle, and nothing is kept between calls.

    Parameters
    ----------
    grid : PhaseSpaceGrid
        Input density (or any real function; linearity holds exactly).
    thetas : array_like
        Projection angles, each in [0, pi); ``project_at_angle`` takes
        any finite angle, the reflected half plane included.
    n_s : int
        Samples per projection row, uniform on [-s_max, s_max].
    s_max : float, optional
        Row half-extent. Defaults to the circumscribing radius of the
        outermost cell corners so no mass is dropped at any angle; a
        smaller value that drops mass raises ``MassOutsideAxis``.
    """
    thetas = angle_set("radon_forward", thetas)
    s = half_axis("projection s", n_s, _circumscribing_radius(grid) if s_max is None else s_max)
    return Sinogram(values=_project_rows(grid, thetas, s), thetas=thetas, s_min=s.lo, s_max=s.hi)


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
    n, ds = sinogram.n_s, sinogram.ds
    r = 2 * np.pi * np.fft.fftfreq(n, d=ds)
    # s_k = s_min + k ds and r ds = 2 pi q / n, so the sum is n ifft
    values = np.fft.ifft(sinogram.values[theta_index]) * (n * ds * np.exp(1j * r * sinogram.s_min))
    return np.fft.fftshift(r), np.fft.fftshift(values)


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


def _es_kernel(z: np.ndarray, beta: float) -> np.ndarray:
    """"Exponential of semicircle" exp(beta (sqrt(1 - z^2) - 1)) on |z| <= 1."""
    return np.exp(beta * (np.sqrt(1.0 - z * z) - 1.0))


def _es_transform(m: np.ndarray, size: int, beta: float) -> np.ndarray:
    """Transform of the spreading kernel at integer output offsets m.

    On a grid of ``size`` steps h = 2 pi / size, a kernel phi((l h - k) / (w h / 2))
    spread about k sums, by Poisson summation, to e^{i m k} times
    (w/2) integral_{-1}^{1} phi(z) cos(m h w z / 2) dz, evaluated here by
    Gauss-Legendre quadrature. Its nodes and weights come from the Jacobi
    matrix of the Legendre recurrence (Golub-Welsch), which needs only
    ``np.linalg``.
    """
    k = np.arange(1, 4 * _ES_WIDTH)
    off = k / np.sqrt(4.0 * k * k - 1)
    z, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    v = 2 * vectors[0] ** 2 * _es_kernel(z, beta)
    return (_ES_WIDTH / 2) * (np.cos(np.outer(m, z * (np.pi * _ES_WIDTH / size))) @ v)


def _spread(shape, gx: np.ndarray, gp: np.ndarray, coef: np.ndarray, beta: float):
    """Sum coef times the kernel about (gx, gp), in grid steps, onto a
    periodic complex grid of ``shape``; the points must be sorted by gx,
    with gx in [0, n_rows].

    Each chunk of points starts within a band of rows. A point's w x w
    kernel block sits at one fixed table of offsets from its first cell
    in a band w - 1 columns wider than the grid, so one ``bincount`` per
    part (real, imaginary) sums the chunk over the band. The overflow
    columns fold back at once; the rows land unwrapped on w/2 margin rows
    above and below the grid, which fold back after the last chunk. The
    interior rows are returned (a C-contiguous view).
    """
    n_rows, n_cols = shape
    half = _ES_WIDTH // 2
    grid = np.zeros((n_rows + 2 * half, n_cols), dtype=complex)
    width = n_cols + _ES_WIDTH - 1
    offs = np.arange(_ES_WIDTH)
    table = (offs[:, np.newaxis] * width + offs).ravel()
    for lo in range(0, gx.size, _SPREAD_CHUNK):
        x, p, c = (a[lo : lo + _SPREAD_CHUNK, np.newaxis] for a in (gx, gp, coef))
        x0, p0 = np.ceil(x - half), np.ceil(p - half)
        kx = _es_kernel((x0 + offs - x) / half, beta)
        kp = _es_kernel((p0 + offs - p) / half, beta)
        first = int(x0[0, 0])
        band = int(x0[-1, 0]) - first + _ES_WIDTH
        flat = ((x0.astype(np.intp) - first) * width + p0.astype(np.intp) % n_cols + table).ravel()
        for part, weight in ((grid.real, c.real), (grid.imag, c.imag)):
            block = np.einsum("ni,nj->nij", kx * weight, kp).ravel()
            spread = np.bincount(flat, block, minlength=band * width).reshape(band, width)
            spread[:, : _ES_WIDTH - 1] += spread[:, n_cols:]
            part[first + half : first + half + band] += spread[:, :n_cols]
    grid[half : 2 * half] += grid[-half:]
    grid[-2 * half : -half] += grid[:half]
    return grid[half:-half]


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
    the projection disk, |x|, |p| <= reach / sqrt(2), and raise
    ``OutsideProjectionDisk`` when the s axis does not straddle 0; pass
    the original grid extents to compare round trips. Sizes below 2 raise
    ``EmptyGrid``; a non-finite extent raises ``InvariantViolation``
    naming it, as do unordered extents. ``window`` ("hann") apodizes the ramp for noisy
    rows; the default is the plain band-limited ramp.

    Each row is zero-padded to n_pad >= 2 n_s samples and ramp-filtered,
    and the back-projection reads the trigonometric interpolant of the
    padded filtered row at x cos(theta) + p sin(theta); at the row's own
    samples that is the filtered sample itself. By the Fourier-slice
    theorem the sum over angles is one type-1 non-uniform FFT of the
    rows' half spectra, ``rfft`` of the padded rows (gridding): the
    filtered spectra at frequencies (r cos(theta) dx, r sin(theta) dp),
    wrapped modulo 2 pi, are spread with an "exponential of semicircle"
    kernel onto a 1.5x oversampled grid, inverse-FFT'd, cropped and
    divided by the kernel's transform; only the real part is kept.
    The kernel error is about 2e-8 of the maximum on resolved data at
    180 angles and stays below 1e-5 of it down to two angles.

    The rows cover only the disk x^2 + p^2 <= ``sinogram.reach``^2.
    Outside it a point reads the ramp-filter tails of the padded row,
    not zero, and its value is biased; no error is raised. The
    interpolant is periodic in s with period n_pad * ds, at least twice
    the s axis's length, so a point whose x cos(theta) + p sin(theta)
    lies a whole period off the axis reads the row again.

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

    n_s = sinogram.n_s
    nx = n_s if nx is None else nx
    n_p = n_s if n_p is None else n_p
    if None in (x_min, x_max, p_min, p_max):
        half = sinogram.disk_radius("inverse_radon") / np.sqrt(2.0)
        x_min, p_min = (-half if lo is None else lo for lo in (x_min, p_min))
        x_max, p_max = (half if hi is None else hi for hi in (x_max, p_max))
    x, p = axis("inverse_radon x", nx, x_min, x_max), axis("inverse_radon p", n_p, p_min, p_max)

    ds = sinogram.ds
    n_pad = 1 << int(np.ceil(np.log2(2 * n_s)))
    r = 2 * np.pi * np.fft.rfftfreq(n_pad, d=ds)
    # the real rows' half spectra j = 0 .. n_pad/2 carry weights 1, 2, ..., 2, 1
    weights = np.full(r.size, 2 * delta * ds / n_pad)
    weights[[0, -1]] /= 2
    weights *= _ramp_kernel_response(n_pad, ds, window)[: r.size]
    # the filtered row's interpolant is (ds/n_pad) sum_j H_j F_j e^{i r_j (s - s_min)}
    # with F = rfft(row); fold in its phase at the output sample nearest the grid's centre
    cos, sin = np.cos(sinogram.thetas), np.sin(sinogram.thetas)
    centre = (x.lo + (nx // 2) * x.step) * cos + (p.lo + (n_p // 2) * p.step) * sin
    coef = np.fft.rfft(sinogram.values, n=n_pad)
    phase = np.multiply.outer(centre - sinogram.s_min, 1j * r)
    coef *= np.exp(phase, out=phase)
    del phase
    coef *= weights

    # the sample m steps from the centre sees e^{i m r cos(theta) dx}: a 2 pi
    # periodic phase, so the frequencies wrap onto the oversampled grids
    mx, mp = (max(2 * int(np.ceil(_ES_OVERSAMPLING * n / 2)), 2 * _ES_WIDTH) for n in (nx, n_p))
    gx = np.outer(cos, r * (x.step * mx / (2 * np.pi))).ravel()
    gx %= mx
    order = np.argsort(gx)
    gx = gx[order]
    gp = np.outer(sin, r * (p.step * mp / (2 * np.pi))).ravel()
    gp %= mp
    gp = gp[order]
    coef = coef.ravel()[order]
    del order
    beta = 0.97 * np.pi * (1 - 1 / (2 * _ES_OVERSAMPLING)) * _ES_WIDTH
    grid = _spread((mx, mp), gx, gp, coef, beta)
    del gx, gp, coef  # these dels keep the traced peak at 256^2 near 5.4 MB
    # per-axis transforms in place; ifft2 with out= returns wrong values on numpy 2.4
    np.fft.ifft(grid, axis=0, out=grid)
    np.fft.ifft(grid, axis=1, out=grid)
    m = np.arange(-(nx // 2), nx - nx // 2)
    q = np.arange(-(n_p // 2), n_p - n_p // 2)
    acc = grid.real[np.ix_(m % mx, q % mp)]
    acc *= (mx / _es_transform(m, mx, beta))[:, np.newaxis]
    acc *= mp / _es_transform(q, mp, beta)
    return PhaseSpaceGrid(values=acc, x_min=x.lo, x_max=x.hi, p_min=p.lo, p_max=p.hi)
