import time
import warnings

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
    _circumscribing_radius,
    _ramp_kernel_response,
    fourier_slice,
    inverse_radon,
    project_at_angle,
    radon_forward,
)
from mubtomo.errors import (
    FOOTPRINT_FLOOR,
    MASS_TOL,
    EmptyGrid,
    IndexOutOfRange,
    InsufficientAngles,
    InvariantViolation,
    MassOutsideAxis,
    OutsideProjectionDisk,
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


def test_tiny_s_max_fails_fast():
    """The footprints span thousands of bins at this s_max; the lost mass is
    found before any of them is deposited."""
    grid = gaussian_mixture_grid(16, 3.0, ISOTROPIC)
    start = time.perf_counter()
    with pytest.raises(MassOutsideAxis, match="default s_max"):
        radon_forward(grid, _angles(4), n_s=16, s_max=1e-4)
    assert time.perf_counter() - start < 2.0


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


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_non_finite_angle_is_named(theta):
    """The default s_max is valid, so the message names the angle alone;
    an angle that is not a real number, a numeric string included, is named
    as not a number."""
    grid = gaussian_mixture_grid(16, 3.0, ISOTROPIC)
    with pytest.raises(InvariantViolation,
                       match=rf"^projection angle must be finite, got theta = {theta}$"):
        project_at_angle(grid, theta, n_s=16)
    for bad in ("a", None, "3", b"3", 1j):
        with pytest.raises(InvariantViolation,
                           match=rf"^projection angle theta = {bad!r} is not a number$"):
            project_at_angle(grid, bad, n_s=16)


def _footprint_cdf(d, a, b):
    """CDF at offset d of the unit-mass trapezoid box(a) * box(b), a >= b > 0."""

    def ramp(u):  # antiderivative of the CDF of box(b)
        return np.clip(u + b / 2, 0.0, b) ** 2 / (2 * b) + np.maximum(u - b / 2, 0.0)

    return (ramp(d + a / 2) - ramp(d - a / 2)) / a


def _reference_rows(grid, thetas, n_s, s_max):
    """The footprint projector as first written, in s units, with fresh
    arrays per angle and the CDF as a difference of two ramps; the oracle
    of ``classical_radon._project_rows``."""
    ds = 2.0 * s_max / (n_s - 1)
    edge = s_max + ds / 2
    mass = (grid.values * (grid.dx * grid.dp)).ravel()
    total = grid.mass()
    out = np.empty((len(thetas), n_s))
    for it, th in enumerate(thetas):
        c, s = np.cos(th), np.sin(th)
        wx, wp = abs(c) * grid.dx, abs(s) * grid.dp
        a, b = max(wx, wp), max(min(wx, wp), FOOTPRINT_FLOOR * ds)
        half = (a + b) / 2
        n_bins = int(np.ceil((a + b) / ds)) + 1
        centre = np.add.outer(grid.x * c, grid.p * s).ravel()
        reach = max(abs(x * c + p * s) for x in (grid.x_min, grid.x_max)
                    for p in (grid.p_min, grid.p_max)) + half
        if reach > edge:
            off = _footprint_cdf(-edge - centre, a, b) + 1.0 - _footprint_cdf(edge - centre, a, b)
            lost = abs(float(mass @ off))
            if lost > MASS_TOL * max(1.0, abs(total)):
                raise MassOutsideAxis(
                    f"projection rows miss {lost:.3g} of the grid mass {total:.6g} outside "
                    f"|s| <= {s_max:.6g}; the default s_max {_circumscribing_radius(grid):.6g} "
                    "encloses the grid"
                )
        left = (centre + (s_max - half)) / ds + 0.5
        k = np.floor(left)
        frac = left - k
        idx = np.clip(k, -n_bins, n_s).astype(np.intp) + n_bins
        row = np.zeros(n_s + 2 * n_bins)
        below = 0.0
        for m in range(n_bins):
            upto = 1.0 if m == n_bins - 1 else _footprint_cdf((m + 1 - frac) * ds - half, a, b)
            row += np.bincount(idx + m, weights=mass * (upto - below), minlength=row.size)
            below = upto
        out[it] = row[n_bins : n_bins + n_s]
    return out / ds


def _agrees_with_reference(project, grid, thetas, n_s, s_max):
    """``project()`` gives the reference rows to 1e-12 of their largest
    entry, or raises ``MassOutsideAxis`` with the reference's message."""
    try:
        ref = _reference_rows(grid, thetas, n_s, s_max)
    except MassOutsideAxis as exc:
        with pytest.raises(MassOutsideAxis) as got:
            project()
        assert str(got.value) == str(exc)
        return
    rows = project()
    assert np.max(np.abs(rows - ref)) <= 1e-12 * np.max(np.abs(ref))


@st.composite
def _footprint_cases(draw):
    """A signed phantom on an nx x n_p grid (nx != n_p) with asymmetric
    extents, and an s axis on which footprints span about 1 to 5 bins; s_max
    runs from well inside the grid to the default."""
    n_s = draw(st.integers(4, 300))
    nx = max(2, round((n_s - 1) / draw(st.floats(1.0, 5.0))) + 1)
    n_p = max(2, nx + draw(st.sampled_from([-3, -1, 1, 2, 5])))
    if n_p == nx:
        n_p += 1
    x_min, x_max = -draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
    p_min, p_max = -draw(st.floats(0.5, 6.0)), draw(st.floats(0.5, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, P = np.meshgrid(np.linspace(x_min, x_max, nx), np.linspace(p_min, p_max, n_p),
                       indexing="ij")
    width = draw(st.floats(0.3, 3.0))
    values = rng.uniform(-0.3, 1.0, (nx, n_p)) * np.exp(-(X * X + P * P) / (2 * width**2))
    grid = PhaseSpaceGrid(values=values, x_min=x_min, x_max=x_max, p_min=p_min, p_max=p_max)
    s_max = draw(st.floats(0.2, 1.0)) * _circumscribing_radius(grid)
    return grid, n_s, s_max


@settings(max_examples=60, deadline=None)
@given(case=_footprint_cases(),
       thetas=st.lists(st.floats(0.0, np.pi, exclude_max=True)
                       | st.sampled_from([0.0, np.pi / 2]), min_size=1, max_size=4))
def test_rows_match_the_two_ramp_reference(case, thetas):
    grid, n_s, s_max = case
    _agrees_with_reference(lambda: radon_forward(grid, thetas, n_s, s_max=s_max).values,
                           grid, thetas, n_s, s_max)


@settings(max_examples=30, deadline=None)
@given(case=_footprint_cases(),
       theta=st.floats(np.pi, 2 * np.pi, exclude_max=True)
       | st.sampled_from([np.pi, 3 * np.pi / 2]))
def test_reflected_rows_match_the_two_ramp_reference(case, theta):
    grid, n_s, s_max = case
    _agrees_with_reference(lambda: project_at_angle(grid, theta, n_s, s_max=s_max)[1],
                           grid, [theta], n_s, s_max)


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
    with pytest.raises(InvariantViolation, match="unknown filter window 'bogus'"):
        inverse_radon(sino, 96, 96, window="bogus")


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


@pytest.mark.parametrize("field", ["x_min", "x_max", "p_min", "p_max"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_inverse_radon_names_a_non_finite_extent(field, bad):
    sino = Sinogram(values=np.ones((4, 16)), thetas=_angles(4), s_min=-3, s_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=rf"^inverse_radon {field} must be finite"):
            inverse_radon(sino, 8, 8, **{field: bad})


@pytest.mark.parametrize("extents", [dict(x_min=1.0, x_max=-1.0), dict(x_min=1.0, x_max=1.0),
                                     dict(p_min=0.5, p_max=-0.5)])
def test_inverse_radon_rejects_unordered_extents(extents):
    sino = Sinogram(values=np.ones((4, 16)), thetas=_angles(4), s_min=-3, s_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match="grid extents must be ordered"):
            inverse_radon(sino, 8, 8, **extents)


@pytest.mark.parametrize("sizes", [(1, 8), (8, 1), (0, 8), (8, 0), (-3, 8)])
def test_inverse_radon_rejects_grids_below_two_samples(sizes):
    sino = Sinogram(values=np.ones((4, 16)), thetas=_angles(4), s_min=-3, s_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyGrid):
            inverse_radon(sino, *sizes)


def _filtered_half_spectra(sino, window):
    """Half spectra F_j H_j of the zero-padded rows, j = 0 .. n_pad/2, with
    the real-row weights 1, 2, ..., 2, 1 folded in, and their frequencies."""
    n_pad = 1 << int(np.ceil(np.log2(2 * sino.n_s)))
    n_half = n_pad // 2 + 1
    weights = np.full(n_half, 2.0)
    weights[[0, -1]] = 1.0
    H = _ramp_kernel_response(n_pad, sino.ds, window)[:n_half]
    spectra = np.fft.fft(sino.values, n=n_pad, axis=1)[:, :n_half] * (weights * H)
    return spectra * (sino.ds / n_pad), 2 * np.pi * np.arange(n_half) / (n_pad * sino.ds)


def _row_interpolants(sino, t, window, order=0):
    """Dense oracle: at t[theta, ...], the order-th s derivative of each
    filtered row's trigonometric interpolant,
    Re sum_j F_j H_j (i omega_j)^order e^{i omega_j (t - s_min)}."""
    spectra, omega = _filtered_half_spectra(sino, window)
    return np.array([(np.exp(1j * np.multiply.outer(tt - sino.s_min, omega)) @ row).real
                     for row, tt in zip(spectra * (1j * omega) ** order, t)])


def _interp_back_projection(sino, t, window):
    """The former route: filtered samples linearly interpolated, zero past the s axis."""
    n_pad = 1 << int(np.ceil(np.log2(2 * sino.n_s)))
    H = _ramp_kernel_response(n_pad, sino.ds, window)
    rows = np.fft.ifft(np.fft.fft(sino.values, n=n_pad, axis=1) * H, axis=1).real * sino.ds
    return sum(np.interp(tt, sino.s, row[: sino.n_s], left=0.0, right=0.0)
               for row, tt in zip(rows, t)) * (np.pi / sino.n_theta)


@st.composite
def _back_projection_cases(draw):
    """Gaussian-mixture rows on an asymmetric s axis of 8 to 64 samples at 2
    to 40 angles, and an nx x n_p grid (nx != n_p) with asymmetric extents
    that reach outside the projection disk and, at small nx or n_p, steps
    dx or dp wider than ds."""
    n_s, n_theta = draw(st.integers(8, 64)), draw(st.integers(2, 40))
    nx = draw(st.integers(5, 31))
    n_p = draw(st.integers(5, 31).filter(lambda n: n != nx))
    s_min = -draw(st.floats(0.6, 1.0))
    weight = draw(st.floats(0.2, 0.8))
    mixture = [(w, (draw(st.floats(-0.25, 0.25)), draw(st.floats(-0.25, 0.25))),
                draw(st.floats(0.1, 0.3))) for w in (weight, 1 - weight)]
    thetas = _angles(n_theta)
    s = np.linspace(s_min, 1.0, n_s)
    rows = np.array([gaussian_mixture_projection(s, th, mixture) for th in thetas])
    rows /= rows.sum(axis=1, keepdims=True) * (s[1] - s[0])
    sino = Sinogram(values=rows, thetas=thetas, s_min=s_min, s_max=1.0)
    x_min, x_max, p_min, p_max = (sign * draw(st.floats(0.3, 1.5)) for sign in (-1, 1, -1, 1))
    X, P = np.meshgrid(np.linspace(x_min, x_max, nx), np.linspace(p_min, p_max, n_p),
                       indexing="ij")
    t = np.multiply.outer(np.cos(thetas), X) + np.multiply.outer(np.sin(thetas), P)
    window = draw(st.sampled_from([None, "hann"]))
    rec = inverse_radon(sino, nx, n_p, x_min, x_max, p_min, p_max, window=window)
    return sino, t, window, rec.values, X * X + P * P <= s_min**2


@settings(max_examples=40, deadline=None)
@given(case=_back_projection_cases())
def test_gridding_matches_the_dense_trigonometric_back_projection(case):
    sino, t, window, got, _ = case
    oracle = _row_interpolants(sino, t, window).sum(axis=0) * (np.pi / sino.n_theta)
    assert np.max(np.abs(got - oracle)) <= 1e-5 * np.max(np.abs(oracle))


@settings(max_examples=40, deadline=None)
@given(case=_back_projection_cases())
def test_gridding_stays_within_linear_interpolation_error_inside_the_disk(case):
    """Inside the disk every x cos + p sin lies on the s axis, where the
    former route interpolates the samples of each row's trigonometric
    interpolant f linearly: per row it is off by at most ds^2/8 sup|f''|
    (sup taken over a ds/8 lattice, with 10% slack)."""
    sino, t, window, got, disk = case
    fine = np.broadcast_to(np.linspace(sino.s_min, sino.s_max, 8 * sino.n_s),
                           (sino.n_theta, 8 * sino.n_s))
    curvature = np.abs(_row_interpolants(sino, fine, window, order=2)).max(axis=1)
    bound = 1.1 * sino.ds**2 / 8 * curvature.sum() * (np.pi / sino.n_theta)
    former = _interp_back_projection(sino, t, window)
    assert np.max(np.abs(got - former)[disk], initial=0.0) <= bound + 1e-5 * np.max(np.abs(got))


@pytest.mark.parametrize("phantom", [ISOTROPIC, TWO_GAUSSIAN])
def test_gridding_and_interpolation_agree_on_resolved_round_trips(phantom):
    """The C06 phantoms at 256^2 and 180 angles: the former route differs
    from gridding by its linear interpolation error only."""
    sino = radon_forward(gaussian_mixture_grid(256, 6.0, phantom), _angles(180), n_s=256)
    rec = inverse_radon(sino, 256, 256, x_min=-6, x_max=6, p_min=-6, p_max=6)
    X, P = np.meshgrid(rec.x, rec.p, indexing="ij")
    t = np.multiply.outer(np.cos(sino.thetas), X) + np.multiply.outer(np.sin(sino.thetas), P)
    former = _interp_back_projection(sino, t, None)
    assert np.max(np.abs(rec.values - former)) <= 5e-3 * np.max(np.abs(rec.values))


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
    with pytest.raises(InvariantViolation, match="for angles of shape"):
        Sinogram(values=np.ones((3, 4)), thetas=_angles(2), s_min=-1.0, s_max=1.0)


@pytest.mark.parametrize("s_min, s_max, reach", [(-3.0, 3.0, 3.0), (-1.0, 3.0, 1.0),
                                                  (-3.0, -0.5, 0.0), (0.5, 3.0, 0.0),
                                                  (0.0, 3.0, 0.0)])
def test_reach_is_the_disk_every_row_covers(s_min, s_max, reach):
    """An s axis that does not straddle 0 covers no disk about the origin:
    with a defaulted extent ``inverse_radon`` names its ends, where it once
    laid out a grid that read only ramp-filter tails. Explicit extents are
    evaluated as documented, biased outside the disk."""
    sino = Sinogram(np.ones((8, 16)), _angles(8), s_min, s_max)
    assert sino.reach == reach
    if reach:
        assert inverse_radon(sino).x_max == reach / np.sqrt(2.0)
        return
    with pytest.raises(OutsideProjectionDisk, match=rf"^inverse_radon: s_min = {s_min:g} and "
                                                    rf"s_max = {s_max:g} do not straddle 0"):
        inverse_radon(sino, x_min=-1.0, x_max=1.0, p_min=-1.0)
    rec = inverse_radon(sino, x_min=-1.0, x_max=1.0, p_min=-1.0, p_max=1.0)
    assert rec.values.shape == (16, 16) and np.isfinite(rec.values).all()


def test_grid_rejects_values_that_are_not_2d():
    with pytest.raises(InvariantViolation, match="grid values must be 2D"):
        PhaseSpaceGrid(np.ones(4), -1, 1, -1, 1)


def test_grid_properties():
    grid = gaussian_mixture_grid(64, 6.0, ISOTROPIC)
    assert grid.nx == grid.n_p == 64
    assert abs(grid.mass() - 1.0) <= 1e-6
    assert grid.values.flags.writeable is False
