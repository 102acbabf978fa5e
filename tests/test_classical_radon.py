import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ASYMMETRIC,
    ISOTROPIC,
    TWO_GAUSSIAN,
    gaussian_mixture_grid,
    gaussian_mixture_projection,
    rel_l2,
)
from mubtomo.classical_radon import (
    PhaseSpaceGrid,
    Sinogram,
    fourier_slice,
    inverse_radon,
    project_at_angle,
    radon_forward,
)
from mubtomo.errors import (
    EmptyGrid,
    IndexOutOfRange,
    InsufficientAngles,
    InvariantViolation,
    MassOutsideAxis,
)

_ASYMMETRIC_96 = gaussian_mixture_grid(96, 6.0, ASYMMETRIC)


def _angles(n):
    return np.arange(n) * np.pi / n


# ----------------------------------------------------------------- forward


def test_gaussian_rows_match_analytic_projection():
    grid = gaussian_mixture_grid(256, 6.0, ISOTROPIC)
    sino = radon_forward(grid, _angles(24), n_s=256)
    peak = 1.0 / np.sqrt(np.pi)
    for row, theta in zip(sino.values, sino.thetas):
        exact = gaussian_mixture_projection(sino.s, theta, ISOTROPIC)
        assert np.max(np.abs(row - exact)) <= 0.01 * peak


def test_theta_zero_row_is_x_marginal():
    grid = gaussian_mixture_grid(256, 6.0, ASYMMETRIC)
    sino = radon_forward(grid, [0.0], n_s=256)
    exact = gaussian_mixture_projection(sino.s, 0.0, ASYMMETRIC)
    assert np.max(np.abs(sino.values[0] - exact)) <= 0.01 * np.max(exact)


def test_offset_gaussian_peak_position():
    comp = [(1.0, (1.0, 2.0), np.sqrt(0.5))]
    grid = gaussian_mixture_grid(256, 6.0, comp)
    theta = 0.7
    sino = radon_forward(grid, [theta], n_s=256)
    peak_s = sino.s[np.argmax(sino.values[0])]
    expected = 1.0 * np.cos(theta) + 2.0 * np.sin(theta)
    assert abs(peak_s - expected) <= sino.ds


def test_mass_conserved_per_row():
    # the uniform grid has its mass up to the edge: rows must carry the
    # rectangle-rule mass 4.128, not the 4.0 of the bilinear interpolant
    ones = PhaseSpaceGrid(values=np.ones((64, 64)), x_min=-1, x_max=1, p_min=-1, p_max=1)
    cases = [(gaussian_mixture_grid(128, 6.0, ASYMMETRIC), 160), (ones, 32), (ones, 128)]
    for grid, n_s in cases:
        sino = radon_forward(grid, _angles(16), n_s=n_s)
        masses = sino.values.sum(axis=1) * sino.ds
        assert np.max(np.abs(masses - grid.mass())) <= 1e-6 * grid.mass()


def test_axis_rows_are_cell_sums_when_bins_match_cells():
    """With s_max = x_max and n_s = nx every bin is one cell wide and
    centred on it, so the theta = 0 and pi/2 rows are exact marginals."""
    values = np.random.default_rng(3).uniform(0.5, 1.5, size=(48, 48))
    grid = PhaseSpaceGrid(values=values, x_min=-3, x_max=3, p_min=-3, p_max=3)
    sino = radon_forward(grid, [0.0, np.pi / 2], n_s=48, s_max=3.0)
    assert np.max(np.abs(sino.values[0] - values.sum(axis=1) * grid.dp)) <= 1e-12
    assert np.max(np.abs(sino.values[1] - values.sum(axis=0) * grid.dx)) <= 1e-12


def test_linearity():
    g1 = gaussian_mixture_grid(96, 6.0, ISOTROPIC)
    g2 = gaussian_mixture_grid(96, 6.0, TWO_GAUSSIAN)
    a, b = 0.7, -0.3
    combo = PhaseSpaceGrid(
        values=a * g1.values + b * g2.values,
        x_min=-6.0, x_max=6.0, p_min=-6.0, p_max=6.0,
    )
    thetas = _angles(8)
    s1 = radon_forward(g1, thetas, n_s=128)
    s2 = radon_forward(g2, thetas, n_s=128)
    sc = radon_forward(combo, thetas, n_s=128)
    assert np.max(np.abs(sc.values - (a * s1.values + b * s2.values))) <= 1e-10


def test_reflection_symmetry():
    """Rows at theta and theta + pi are mirror images in s."""
    grid = gaussian_mixture_grid(256, 6.0, ASYMMETRIC)
    for theta in (0.3, 0.7, 2.1):
        s_axis, fwd = project_at_angle(grid, theta, n_s=256)
        _, rev = project_at_angle(grid, theta + np.pi, n_s=256)
        assert np.max(np.abs(rev - fwd[::-1])) <= 1e-6


def test_rotation_equivariance():
    """Rotating the phantom shifts the sinogram angle axis."""
    n_theta = 36
    shift = 5
    phi = shift * np.pi / n_theta
    rot = [(w, (cx * np.cos(phi) - cp * np.sin(phi),
                cx * np.sin(phi) + cp * np.cos(phi)), s)
           for w, (cx, cp), s in ASYMMETRIC]
    sino_a = radon_forward(gaussian_mixture_grid(192, 6.0, ASYMMETRIC),
                           _angles(n_theta), n_s=192)
    sino_b = radon_forward(gaussian_mixture_grid(192, 6.0, rot),
                           _angles(n_theta), n_s=192)
    for it in range(n_theta):
        src = it - shift
        row_a = sino_a.values[src] if src >= 0 else sino_a.values[src + n_theta][::-1]
        assert rel_l2(sino_b.values[it], row_a) <= 0.02


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(0.0, np.pi, exclude_max=True) | st.sampled_from([0.0, np.pi / 2]))
def test_reflected_rows_mirror_and_carry_grid_mass(theta):
    grid = _ASYMMETRIC_96
    s_axis, fwd = project_at_angle(grid, theta, n_s=96)
    _, rev = project_at_angle(grid, theta + np.pi, n_s=96)
    ds = s_axis[1] - s_axis[0]
    assert np.max(np.abs(rev - fwd[::-1])) <= 1e-12
    assert abs(fwd.sum() * ds - grid.mass()) <= 1e-12
    assert abs(rev.sum() * ds - grid.mass()) <= 1e-12


def test_mass_off_the_axis_is_named():
    """A centred phantom loses the same mass at every angle, which the
    row-consistency check alone cannot see."""
    grid = gaussian_mixture_grid(128, 6.0, ISOTROPIC)
    for s_max in (3.0, 2.5):
        with pytest.raises(MassOutsideAxis, match="default s_max 8.5"):
            radon_forward(grid, _angles(8), n_s=128, s_max=s_max)
    with pytest.raises(MassOutsideAxis):
        project_at_angle(grid, 0.4, n_s=128, s_max=3.0)


def test_forward_validations():
    grid = gaussian_mixture_grid(64, 6.0, ISOTROPIC)
    with pytest.raises(ValueError):
        radon_forward(grid, [0.1, np.pi], n_s=64)  # angle beyond [0, pi)
    with pytest.raises(InvariantViolation):
        radon_forward(grid, [], n_s=64)
    for n_s, s_max in ((64, -1.0), (64, 0.0), (1, None)):
        with pytest.raises(InvariantViolation):
            radon_forward(grid, [0.1], n_s=n_s, s_max=s_max)
        with pytest.raises(InvariantViolation):
            project_at_angle(grid, 0.1, n_s=n_s, s_max=s_max)
    with pytest.raises(EmptyGrid):
        PhaseSpaceGrid(values=np.ones((1, 4)), x_min=0, x_max=1, p_min=0, p_max=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_forward_rejects_non_finite_angles_and_extents(bad):
    grid = gaussian_mixture_grid(16, 4.0, ISOTROPIC)
    with pytest.raises(InvariantViolation):
        radon_forward(grid, [0.1, bad], n_s=16)
    with pytest.raises(InvariantViolation):
        project_at_angle(grid, bad, n_s=16)
    with pytest.raises(InvariantViolation):
        radon_forward(grid, [0.1], n_s=16, s_max=bad)
    with pytest.raises(InvariantViolation):
        project_at_angle(grid, 0.1, n_s=16, s_max=bad)


# ------------------------------------------------------------ fourier slice


def test_slice_zero_frequency_is_total_mass():
    grid = gaussian_mixture_grid(256, 6.0, ISOTROPIC)
    sino = radon_forward(grid, _angles(4), n_s=256)
    r, values = fourier_slice(sino, 1)
    at_zero = values[np.argmin(np.abs(r))]
    assert abs(at_zero - 1.0) <= 1e-6


def test_slice_is_gaussian_and_isotropic():
    grid = gaussian_mixture_grid(256, 6.0, ISOTROPIC)
    sino = radon_forward(grid, _angles(6), n_s=256)
    for it in range(6):
        r, values = fourier_slice(sino, it)
        keep = np.abs(r) <= 6.0
        exact = np.exp(-r[keep] ** 2 / 4)  # transform of exp(-s^2)/sqrt(pi)
        assert np.max(np.abs(values[keep] - exact)) <= 0.01
        assert np.max(np.abs(values[keep].imag)) <= 0.01


def test_slice_matches_2d_fft_central_slice():
    """Independent oracle: pad the grid, FFT2, interpolate along the ray."""
    n, extent = 256, 6.0
    grid = gaussian_mixture_grid(n, extent, ISOTROPIC)
    thetas = [0.0, 0.4, 1.1, np.pi / 2, 2.6]
    sino = radon_forward(grid, thetas, n_s=256)

    pad = 4
    npad = n * pad
    buf = np.zeros((npad, npad))
    buf[:n, :n] = grid.values
    dx = grid.dx
    a_axis = 2 * np.pi * np.fft.fftfreq(npad, d=dx)
    shift = np.exp(1j * a_axis * grid.x_min)
    F2 = np.conj(np.fft.fft2(buf)) * shift[:, None] * shift[None, :] * dx * dx
    a_s = np.fft.fftshift(a_axis)
    F2_s = np.fft.fftshift(F2)

    def bilinear(aa, bb):
        step = a_s[1] - a_s[0]
        ia = (aa - a_s[0]) / step
        ib = (bb - a_s[0]) / step
        i0 = np.clip(np.floor(ia).astype(int), 0, len(a_s) - 2)
        j0 = np.clip(np.floor(ib).astype(int), 0, len(a_s) - 2)
        fa, fb = ia - i0, ib - j0
        return (F2_s[i0, j0] * (1 - fa) * (1 - fb)
                + F2_s[i0 + 1, j0] * fa * (1 - fb)
                + F2_s[i0, j0 + 1] * (1 - fa) * fb
                + F2_s[i0 + 1, j0 + 1] * fa * fb)

    for it, theta in enumerate(thetas):
        r, values = fourier_slice(sino, it)
        ref = bilinear(r * np.cos(theta), r * np.sin(theta))
        assert rel_l2(np.abs(values), np.abs(ref)) <= 0.02
        assert np.linalg.norm(values - ref) / np.linalg.norm(ref) <= 0.02


@pytest.mark.parametrize("n_s", [64, 65, 256, 257])
def test_slice_matches_dense_dft(n_s):
    grid = gaussian_mixture_grid(128, 6.0, ASYMMETRIC)
    sino = radon_forward(grid, _angles(3), n_s=n_s)
    for it in range(3):
        r, values = fourier_slice(sino, it)
        dense = np.exp(1j * np.outer(r, sino.s)) @ (sino.values[it] * sino.ds)
        assert np.max(np.abs(values - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_slice_index_range():
    grid = gaussian_mixture_grid(64, 6.0, ISOTROPIC)
    sino = radon_forward(grid, _angles(4), n_s=64)
    with pytest.raises(IndexOutOfRange):
        fourier_slice(sino, 4)


# ----------------------------------------------------------------- inverse


def test_zero_sinogram_gives_zero_grid():
    sino = Sinogram(values=np.zeros((8, 64)), thetas=_angles(8), s_min=-6, s_max=6)
    rec = inverse_radon(sino, 32, 32)
    assert np.max(np.abs(rec.values)) == 0.0


def test_insufficient_angles():
    sino = Sinogram(values=np.zeros((1, 64)), thetas=np.array([0.0]), s_min=-6, s_max=6)
    with pytest.raises(InsufficientAngles):
        inverse_radon(sino, 32, 32)


def test_gaussian_round_trip():
    grid = gaussian_mixture_grid(192, 6.0, ISOTROPIC)
    sino = radon_forward(grid, _angles(120), n_s=192)
    rec = inverse_radon(sino, 192, 192, x_min=-6, x_max=6, p_min=-6, p_max=6)
    assert rel_l2(rec.values, grid.values) <= 0.02


def test_two_gaussian_round_trip_resolves_peaks():
    grid = gaussian_mixture_grid(192, 6.0, TWO_GAUSSIAN)
    sino = radon_forward(grid, _angles(120), n_s=192)
    rec = inverse_radon(sino, 192, 192, x_min=-6, x_max=6, p_min=-6, p_max=6)
    assert rel_l2(rec.values, grid.values) <= 0.05
    x = rec.x
    half = rec.nx // 2
    left = np.unravel_index(np.argmax(rec.values[:half]), rec.values[:half].shape)
    right_block = rec.values[half:]
    right = np.unravel_index(np.argmax(right_block), right_block.shape)
    assert abs(x[left[0]] + 1.5) <= rec.dx + 1e-12
    assert abs(x[half + right[0]] - 1.5) <= rec.dx + 1e-12
    assert abs(rec.p[left[1]]) <= rec.dp + 1e-12
    assert abs(rec.p[right[1]]) <= rec.dp + 1e-12


def test_hann_window_accepted():
    grid = gaussian_mixture_grid(96, 6.0, ISOTROPIC)
    sino = radon_forward(grid, _angles(48), n_s=96)
    rec = inverse_radon(sino, 96, 96, x_min=-6, x_max=6, p_min=-6, p_max=6,
                        window="hann")
    # apodization trades resolution for noise damping; stays a fair copy
    assert rel_l2(rec.values, grid.values) <= 0.08


def test_nonuniform_angles_rejected():
    sino = Sinogram(values=np.zeros((3, 32)),
                    thetas=np.array([0.0, 0.3, 1.2]), s_min=-4, s_max=4)
    with pytest.raises(ValueError):
        inverse_radon(sino, 16, 16)


def test_partial_angle_coverage_rejected():
    grid = gaussian_mixture_grid(64, 6.0, ISOTROPIC)
    sino = radon_forward(grid, np.arange(45) * (np.pi / 2) / 45, n_s=64)
    with pytest.raises(InsufficientAngles, match="half turn"):
        inverse_radon(sino, 32, 32)
    uneven = Sinogram(values=np.zeros((3, 32)),
                      thetas=np.array([0.0, 0.3, 1.2]), s_min=-4, s_max=4)
    with pytest.raises(InsufficientAngles):
        inverse_radon(uneven, 16, 16)


# -------------------------------------------------------------- type checks


def test_sinogram_rejects_inconsistent_row_mass():
    rows = np.ones((3, 32))
    rows[1] *= 1.5
    with pytest.raises(InvariantViolation):
        Sinogram(values=rows, thetas=_angles(3), s_min=-4, s_max=4)


def test_sinogram_rejects_angles_outside_range():
    with pytest.raises(InvariantViolation):
        Sinogram(values=np.ones((2, 32)), thetas=np.array([0.0, np.pi]),
                 s_min=-4, s_max=4)


def test_sinogram_rejects_empty_rows():
    with pytest.raises(InvariantViolation, match="at least one angle"):
        Sinogram(values=np.zeros((0, 4)), thetas=[], s_min=-1.0, s_max=1.0)


def test_grid_properties():
    grid = gaussian_mixture_grid(64, 6.0, ISOTROPIC)
    assert grid.nx == grid.n_p == 64
    assert abs(grid.mass() - 1.0) <= 1e-6
    assert grid.values.flags.writeable is False
