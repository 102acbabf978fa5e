"""Continuous-variable layer: Wigner functions and quadrature tomography.

Units and conventions: hbar = 1, Fourier factors (2 pi)^-1 as in

    W(x, p) = (1/2pi) Integral dy e^{i p y} <x - y/2| rho |x + y/2>,

so a unit-trace state has Integral W dx dp = 1 and every rotated marginal
of W is the measurable quadrature distribution <s,theta| rho |s,theta>.

The rotated bases are realized purely through the closed-form kernel

    <x'| x; theta> = (2 pi |sin|)^{-1/2}
                     exp(-i [ (x^2 + x'^2) cos - 2 x x' ] / (2 sin)),

symmetric in x <-> x', with modulus (2 pi |sin|)^{-1/2} independent of the
labels: bases at different angles are mutually unbiased. No operator
exponentials are ever formed. The kernel matches the oscillator rotation
matrix element only up to the constant propagator phase
exp(-i (pi/4 - theta/2)); every sandwiched (measurable) quantity is
insensitive to that phase.

A quadrature distribution is the kernel sandwich dx^2 k^dagger rho k, but
the kernel is never built for it. In the sandwich the s^2 chirp cancels;
what is left are the sums a_m along the m-th subdiagonal of the density
chirped by c_j = exp(i cos x_j^2 / (2 sin)), weighted by
exp(-i s m dx / sin). On a uniform s axis that weighted sum is a chirp-z
transform, which Bluestein's identity turns into one FFT convolution: a
row costs O(n^2) for the diagonal sums plus O(L log L) with
L >= n + n_s - 1, against O(n^3) for the dense sandwich.

Near sin(theta) = 0 the kernel is too oscillatory to sample on the
position grid, so distributions there are evaluated in the momentum
representation instead, where the same formula applies with the angle
shifted by pi/2. The effective |sin| never drops below sqrt(2)/2. The
momentum representation is sampled on the mirrored grid p_k = x_k;
momentum mass beyond it raises MomentumOutsideGrid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._frozen import angle_set, axis_step, freeze_fields, half_axis_step
from .classical_radon import PhaseSpaceGrid, Sinogram, inverse_radon
from .errors import (
    CV_HERMITIAN_TOL,
    CV_TRACE_TOL,
    IMAG_RESIDUE_TOL,
    MASS_TOL,
    ROUNDING_TOL,
    SIN_EPS,
    SPACING_TOL,
    AliasedGrid,
    DegenerateAngle,
    InvariantViolation,
    MassOutsideAxis,
    MomentumOutsideGrid,
    NonHermitianInput,
    OutsideProjectionDisk,
)

# Angles per batched chirp-z: small enough that the per-chunk buffers stay
# far below the density matrix itself.
_CHIRP_Z_CHUNK = 16
# kernel_overlap grid: half width L, whose cut Fresnel tails keep the modulus
# of angle pairs 0.3 to pi/2 apart within 3e-3 (the checks allow 1%), and
# points per pi of the fastest chirp phase, which resolve it out to |g| = L.
_OVERLAP_HALF_WIDTH = 300.0
_OVERLAP_OVERSAMPLE = 3


@dataclass(frozen=True, eq=False)
class PositionDensityMatrix:
    """Samples <x_i| rho |x_j> on a uniform x grid, endpoints included; the
    step ``dx`` is stored, as ``axis_step`` gives it."""

    values: np.ndarray
    x_min: float
    x_max: float

    def __post_init__(self):
        freeze_fields(self, complex, values=self.values)
        if self.values.ndim != 2 or self.n != self.values.shape[1]:
            raise InvariantViolation(f"expected a square sample matrix, got {self.values.shape}")
        dx = axis_step("PositionDensityMatrix.x", self.n, self.x_min, self.x_max)
        object.__setattr__(self, "dx", dx)
        if np.max(np.abs(self.values - self.values.conj().T)) > CV_HERMITIAN_TOL:
            raise NonHermitianInput(
                f"<x|rho|x'> must be Hermitian under conjugate transposition "
                f"within {CV_HERMITIAN_TOL}"
            )
        if abs(self.trace - 1.0) > CV_TRACE_TOL:
            raise InvariantViolation(f"trace integral is {self.trace:.8f}, expected 1")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def trace(self) -> float:
        """Rectangle-rule trace integral of the diagonal."""
        return float(np.sum(np.real(np.diagonal(self.values))) * self.dx)


def ground_state(x: np.ndarray) -> np.ndarray:
    """Oscillator ground state pi^{-1/4} exp(-x^2/2)."""
    x = np.asarray(x, dtype=float)
    return np.pi**-0.25 * np.exp(-x * x / 2)


def first_excited_state(x: np.ndarray) -> np.ndarray:
    """First excited oscillator state sqrt(2) pi^{-1/4} x exp(-x^2/2)."""
    x = np.asarray(x, dtype=float)
    return np.pi**-0.25 * np.sqrt(2.0) * x * np.exp(-x * x / 2)


def density_from_wavefunction(
    psi: np.ndarray, x_min: float, x_max: float
) -> PositionDensityMatrix:
    """Pure-state density <x|psi><psi|x'>, renormalized on the grid."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise InvariantViolation(f"wavefunction must be a 1D array, got shape {psi.shape}")
    dx = axis_step("density_from_wavefunction x", psi.size, x_min, x_max)
    norm = np.sum(np.abs(psi) ** 2) * dx
    if norm <= 0:
        raise InvariantViolation("wavefunction has zero norm")
    rho = np.outer(psi, psi.conj()) / norm
    return PositionDensityMatrix(values=rho, x_min=x_min, x_max=x_max)


def wigner_from_density(
    rho: PositionDensityMatrix,
    n_p: int | None = None,
    p_max: float | None = None,
) -> PhaseSpaceGrid:
    """Wigner function of rho on (rho's x grid) x (symmetric p grid).

    Substituting u = x - y/2 turns the defining integral into

        W(x_m, p) = (dx/pi) Re[ e^{2ipx_m} sum_u e^{-2ipu} rho(u, 2x_m - u) ],

    where for x_m on the grid the anti-diagonal samples rho(u, 2x_m - u)
    are exact lattice points, so the quadrature is a plain rectangle rule
    at the full x resolution (spectrally accurate for decaying states).
    The p axis must stay below the Nyquist bound pi/(2 dx), or the
    transform variable 2p aliases (AliasedGrid). Fewer than 2 momentum
    samples raise EmptyGrid, and a p_max that is not finite and positive
    raises InvariantViolation naming it.
    """
    x = rho.x
    n = rho.n
    dx = rho.dx
    if n_p is None:
        n_p = n
    if p_max is None:
        p_max = max(abs(rho.x_min), abs(rho.x_max))
    half_axis_step("wigner_from_density p", n_p, p_max)
    nyquist = np.pi / (2 * dx)
    if p_max > nyquist * (1 + ROUNDING_TOL):
        raise AliasedGrid(
            f"|p| up to {p_max:.4g} exceeds the Nyquist bound {nyquist:.4g} "
            f"for dx = {dx:.4g}"
        )
    p_axis = np.linspace(-p_max, p_max, n_p)

    idx = np.arange(n)
    anti = 2 * idx[:, None] - idx[None, :]  # column index of rho(u_i, 2 x_m - u_i)
    valid = (anti >= 0) & (anti < n)
    H = np.where(valid, rho.values[idx[None, :], np.clip(anti, 0, n - 1)], 0.0)
    E = np.exp(-2j * np.outer(x, p_axis))
    W = (dx / np.pi) * E.conj() * (H @ E)

    residue = float(np.max(np.abs(W.imag)))
    if residue > IMAG_RESIDUE_TOL:
        raise InvariantViolation(
            f"Wigner transform left imaginary residue {residue:.3g}"
        )
    return PhaseSpaceGrid(
        values=W.real, x_min=rho.x_min, x_max=rho.x_max, p_min=-p_max, p_max=p_max
    )


def quadrature_kernel(x_prime, x, theta: float) -> np.ndarray:
    """Closed-form overlap <x'| x; theta>, broadcasting over the arguments.

    Raises DegenerateAngle at sin(theta) = 0 (the limit is a delta at
    theta = 0 and a reflected delta at theta = pi; callers use the exact
    diagonal there instead).
    """
    C = np.cos(theta)
    S = np.sin(theta)
    if abs(S) < SIN_EPS:
        raise DegenerateAngle(f"kernel undefined at theta = {theta} (sin ~ 0)")
    x_prime = np.asarray(x_prime, dtype=float)
    x = np.asarray(x, dtype=float)
    phase = -((x * x + x_prime * x_prime) * C - 2 * x * x_prime) / (2 * S)
    return np.exp(1j * phase) / np.sqrt(2 * np.pi * abs(S))


def kernel_overlap(theta: float, theta_prime: float, x: float, x_prime: float) -> complex:
    """Overlap <x'; theta' | x; theta> by numerical kernel composition.

    Integrates conj(<g|x';theta'>) <g|x;theta> dg on an internally sized
    grid: the sampling follows the worst-case phase rate of the two
    chirps and the half width L controls the slow Fresnel-tail truncation
    (relative error ~ 1/(2 L sqrt(pi |a|)) with a the residual chirp
    rate). The modulus tends to (2 pi |sin(theta - theta')|)^{-1/2}
    independent of the labels x, x'.
    """
    L = _OVERLAP_HALF_WIDTH
    rate = 0.0
    for ang, lab in ((theta, x), (theta_prime, x_prime)):
        S = np.sin(ang)
        if abs(S) < SIN_EPS:
            raise DegenerateAngle(f"kernel undefined at theta = {ang}")
        rate += (abs(lab) + L * abs(np.cos(ang))) / abs(S)
    dg = np.pi / (_OVERLAP_OVERSAMPLE * rate)
    n = max(int(np.ceil(2 * L / dg)), 4096) | 1
    g = np.linspace(-L, L, n)
    k_in = quadrature_kernel(g, x, theta)
    k_out = quadrature_kernel(g, x_prime, theta_prime)
    return complex(np.sum(np.conj(k_out) * k_in) * half_axis_step("kernel_overlap g", n, L))


def _momentum_representation(rho: PositionDensityMatrix) -> np.ndarray:
    """<p|rho|p'> sampled on the mirrored grid p_k = x_k.

    Valid while the state's momentum support fits inside the position
    extents. Mass beyond them is missing from the diagonal of the result;
    a shortfall against the position trace above MASS_TOL
    raises MomentumOutsideGrid, naming the |x| extent that would hold it.
    """
    x = rho.x
    F = np.exp(-1j * np.outer(x, x)) * rho.dx / np.sqrt(2 * np.pi)
    rho_p = F @ rho.values @ F.conj().T
    lost = float(rho.trace - np.sum(np.real(np.diagonal(rho_p))) * rho.dx)
    if lost > MASS_TOL:
        raise MomentumOutsideGrid(
            f"momentum mass {lost:.3g} lies outside the mirrored grid "
            f"p in [{rho.x_min:.4g}, {rho.x_max:.4g}]; the x grid must reach "
            f"|x| >= {_momentum_reach(rho):.3g} to hold it"
        )
    return rho_p


def _momentum_reach(rho: PositionDensityMatrix) -> float:
    """Smallest P leaving at most MASS_TOL of momentum mass at |p| > P.

    The theta = pi/2 row of the position representation is the momentum
    density; over one period [-pi/dx, pi/dx] it holds all of it.
    """
    p = np.linspace(-np.pi / rho.dx, np.pi / rho.dx, 2 * rho.n + 1)
    dp = half_axis_step("momentum reach p", p.size, np.pi / rho.dx)
    density = _chirp_z_rows(_skew(rho.values), rho.x, rho.dx, np.array([np.pi / 2]), p, dp)[0]
    order = np.argsort(-np.abs(p), kind="stable")
    beyond = np.cumsum(density[order]) * dp  # mass at |p| >= |p[order[i]]|
    return float(np.abs(p[order[np.count_nonzero(beyond <= MASS_TOL)]]))


def _skew(values: np.ndarray) -> np.ndarray:
    """R[m, j] = values[j + m, j]: row m holds the m-th subdiagonal, zero-padded,
    read at the flat index (j + m) n + j, clipped and zeroed past the last row."""
    n = values.shape[0]
    m, j = np.ogrid[:n, :n]
    return np.where(j + m < n, values.take(m * n + j * (n + 1), mode="clip"), 0.0)


def _chirp_z_rows(R: np.ndarray, x: np.ndarray, dx: float, thetas: np.ndarray, s: np.ndarray,
                  ds: float) -> np.ndarray:
    """Quadrature rows from the skewed density R on the x axis of step dx, at sin != 0.

    In the kernel sandwich the s^2 chirp cancels. With S = sin, C = cos and
    c_j = exp(i C x_j^2 / (2S)), the wrapped-diagonal sums
    a_m = sum_j R[m, j] c_{j+m} conj(c_j) of the chirped density give

        p(s) = dx^2 / (2 pi |S|) [a_0 + 2 Re sum_{m>=1} a_m exp(-i s m dx / S)],

    since a_{-m} = conj(a_m) by Hermiticity. On the uniform axis
    s_k = s_0 + k ds the sum is a chirp-z transform; Bluestein's identity
    m k = (m^2 + k^2 - (k - m)^2) / 2 turns it into one FFT convolution.
    Angles run in chunks of _CHIRP_Z_CHUNK.
    """
    n, n_s = x.size, s.size
    m = np.arange(n)
    k = np.arange(n_s)
    back = m[:0:-1]  # lags -(n-1) .. -1 wrap to the end of the FFT buffer
    fft_len = 1 << (n + n_s - 2).bit_length()  # >= n + n_s - 1: no wrap-around
    half_a0 = np.where(m == 0, 0.5, 1.0)
    rows = np.empty((thetas.size, n_s))
    for lo in range(0, thetas.size, _CHIRP_Z_CHUNK):
        th = thetas[lo:lo + _CHIRP_Z_CHUNK, None]
        S, C = np.sin(th), np.cos(th)
        c = np.exp(1j * (C / (2 * S)) * x * x)
        c_shifted = sliding_window_view(np.pad(c, ((0, 0), (0, n - 1))), n, axis=1)
        a = np.einsum("mj,bj,bmj->bm", R, c.conj(), c_shifted)  # c_shifted[b, m, j] = c[b, j + m]
        beta = ds * dx / S
        y = half_a0 * a * np.exp(-1j * (m * dx / S) * (s[0] + m * ds / 2))
        h = np.zeros((th.shape[0], fft_len), dtype=complex)
        h[:, :n_s] = np.exp(0.5j * beta * k * k)
        h[:, fft_len - n + 1:] = np.exp(0.5j * beta * back * back)
        conv = np.fft.ifft(np.fft.fft(y, fft_len) * np.fft.fft(h), axis=1)[:, :n_s]
        X = h[:, :n_s].conj() * conv
        rows[lo:lo + _CHIRP_Z_CHUNK] = dx**2 / (2 * np.pi * np.abs(S)) * 2 * np.real(X)
    return rows


def _quadrature_rows(
    rho: PositionDensityMatrix, thetas: np.ndarray, s: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows <s,theta| rho |s,theta> at ``angle_set`` angles, and the checked s axis."""
    x, dx = rho.x, rho.dx
    try:
        s = x if s is None else np.asarray(s, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvariantViolation("quadrature s entries do not stack into one numeric "
                                 "array") from exc
    if s.ndim != 1 or not np.isfinite(s).all():
        raise InvariantViolation("quadrature s must be 1D, finite and uniformly increasing")
    # an empty s has no ends; the axis rule names it by its size
    ds = axis_step("quadrature s", s.size, *(s[[0, -1]] if s.size else (0.0, 0.0)))
    if np.max(np.abs(np.diff(s) - ds)) > SPACING_TOL * ds:
        raise InvariantViolation("quadrature s axis must be uniformly increasing")

    # Each angle is evaluated in whichever of the position / momentum
    # representations keeps |sin| of the effective angle >= sqrt(2)/2.
    # theta = 0 is the position diagonal itself while s runs over x lattice
    # points, zero past the grid as in the chirp-z rows; off the lattice
    # the momentum representation (|sin| = 1) gives it.
    axis_max = max(abs(rho.x_min), abs(rho.x_max))
    cells = (s - rho.x_min) / dx
    exact = (thetas < SIN_EPS) & (np.max(np.abs(cells - np.rint(cells))) <= SPACING_TOL)
    sin, cos = np.abs(np.sin(thetas)), np.abs(np.cos(thetas))
    position = sin >= cos
    momentum = ~exact & ~position
    # the kernel phase needs dx <= pi |sin| / x_max at every effective angle
    least = np.min(np.where(position, sin, cos), where=~exact, initial=np.inf)
    limit = np.pi * least / axis_max
    if dx > limit * (1 + ROUNDING_TOL):
        raise AliasedGrid(f"dx = {dx:.4g} exceeds pi |sin| / x_max = {limit:.4g} at the "
                          f"least effective |sin| = {least:.4g}; refine the x grid")

    rows = np.empty((thetas.size, s.size))
    rows[exact] = np.interp(s, x, np.real(np.diagonal(rho.values)), left=0.0, right=0.0)
    if np.any(position):
        rows[position] = _chirp_z_rows(_skew(rho.values), x, dx, thetas[position], s, ds)
    if np.any(momentum):
        rho_p = _momentum_representation(rho)
        rows[momentum] = _chirp_z_rows(_skew(rho_p), x, dx, thetas[momentum] - np.pi / 2, s, ds)
    lost = rho.trace - rows.sum(axis=1) * ds
    worst = int(np.argmax(lost))
    if lost[worst] > MASS_TOL:
        raise MassOutsideAxis(f"the theta = {thetas[worst]:.6g} row misses {lost[worst]:.3g} of "
                              f"the trace {rho.trace:.6g} outside s in [{s[0]:.4g}, {s[-1]:.4g}]")
    return rows, s


def quadrature_distribution(
    rho: PositionDensityMatrix, theta: float, s: np.ndarray | None = None
) -> np.ndarray:
    """Measurable distribution <s,theta| rho |s,theta> on the s axis: the
    one-angle case of ``quadrature_sinogram``, under the same rules."""
    rows, _ = _quadrature_rows(rho, angle_set("quadrature_distribution", [theta]), s)
    return rows[0]


def quadrature_sinogram(
    rho: PositionDensityMatrix, thetas, s: np.ndarray | None = None
) -> Sinogram:
    """Stack quadrature distributions for many angles into a Sinogram.

    The s axis defaults to rho's x axis; it follows the axis rule
    (``axis_step``, as ``quadrature s``) and must be 1-D, finite and evenly
    spaced within SPACING_TOL of its step (InvariantViolation otherwise).
    theta = 0 gives the position diagonal, zero past the x grid, where s
    runs over x lattice points. Every other row is a chirp-z transform of
    the wrapped-diagonal sums of the chirped density, O(n^2) per angle
    where the kernel sandwich costs O(n^3). Angles with |sin| < |cos|, and
    theta = 0 off the lattice, use the momentum representation, formed
    once, at theta - pi/2. A row that misses more than 1e-6 of the trace
    off the s axis raises MassOutsideAxis.
    """
    thetas = angle_set("quadrature_sinogram", thetas)
    rows, s = _quadrature_rows(rho, thetas, s)
    return Sinogram(values=rows, thetas=thetas, s_min=float(s[0]), s_max=float(s[-1]))


# The quadrature set of a state is the Radon transform of its Wigner
# function, so the Wigner function is its filtered back-projection.
reconstruct_wigner = inverse_radon


def reconstruct_density_continuous(
    quads: Sinogram,
    n_x: int | None = None,
    x_max: float | None = None,
):
    """Position density matrix from quadrature distributions.

    Composes ``reconstruct_wigner``, with p over the s reach at n_s
    samples, with the inverse of the Wigner definition,
    rho(u, v) = Integral dp e^{-i p (v - u)} W((u+v)/2, p):
    the reconstructed W is evaluated on the half-step x grid so every
    midpoint (u+v)/2 is a lattice point, then the p integral is one
    matrix product. The direct principal-value double integral is
    mathematically equivalent but numerically hostile, so it is never
    evaluated pointwise. The p integral runs over the disk
    x^2 + p^2 <= reach^2 that the rows cover (``Sinogram.reach``), with W
    zero outside it. An s axis that does not straddle 0 covers no disk,
    and an ``x_max`` at or beyond reach leaves rows with no point in the
    disk; both raise OutsideProjectionDisk. An ``x_max`` that is not
    finite and positive raises InvariantViolation naming it, and n_x below
    2 raises EmptyGrid.

    Returns ``(rho, raw_trace)`` where raw_trace is the trace integral
    before the final renormalization; it should sit near 1 for
    well-resolved data and is a useful discretization-error report. A
    trace integral that is not positive (all-zero rows, say) raises
    InvariantViolation.
    """
    reach = quads.disk_radius("reconstruct_density_continuous")
    x_max = reach / np.sqrt(2.0) if x_max is None else float(x_max)
    n_x = (quads.n_s + 1) // 2 if n_x is None else int(n_x)
    du = half_axis_step("reconstruct_density_continuous x", n_x, x_max)
    if x_max >= reach:
        raise OutsideProjectionDisk(f"x_max = {x_max:.6g} is not inside the projection disk of "
                                    f"radius {reach:.6g}; rows at |x| >= {reach:.6g} hold no "
                                    "valid p")

    # called as inverse_radon, the name perfbench's tracer rebinds
    W = inverse_radon(quads, 2 * n_x - 1, x_min=-x_max, x_max=x_max, p_min=-reach, p_max=reach)
    offsets = np.arange(-(n_x - 1), n_x) * du  # v - u on the coarse grid
    E = np.exp(-1j * np.outer(W.p, offsets)) * W.dp
    inside = W.x[:, np.newaxis] ** 2 + W.p[np.newaxis, :] ** 2 <= reach**2
    G = np.where(inside, W.values, 0.0) @ E  # G[m, q] = Integral dp e^{-i p y_q} W(fine_m, p)
    ii, jj = np.ogrid[:n_x, :n_x]
    rho = G[ii + jj, (jj - ii) + (n_x - 1)]
    rho = 0.5 * (rho + rho.conj().T)
    raw_trace = float(np.sum(np.real(np.diagonal(rho))) * du)
    if not raw_trace > 0:
        raise InvariantViolation(f"the reconstructed density has trace integral {raw_trace!r}, "
                                 "not positive; there is no state to normalize")
    rho = rho / raw_trace
    return (
        PositionDensityMatrix(values=rho, x_min=-x_max, x_max=x_max),
        raw_trace,
    )
