import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rel_l2
from mubtomo.classical_radon import Sinogram, project_at_angle
from mubtomo.cv_wigner import (
    PositionDensityMatrix,
    _skew,
    density_from_wavefunction,
    first_excited_state,
    ground_state,
    kernel_overlap,
    quadrature_distribution,
    quadrature_kernel,
    quadrature_sinogram,
    reconstruct_density_continuous,
    reconstruct_wigner,
    wigner_from_density,
)
from mubtomo.errors import (
    AliasedGrid,
    DegenerateAngle,
    EmptyGrid,
    InsufficientAngles,
    InvariantViolation,
    MassOutsideAxis,
    MomentumOutsideGrid,
    NonHermitianInput,
    OutsideProjectionDisk,
)

X8 = np.linspace(-8.0, 8.0, 256)


def dense_quadrature_row(rho, theta, s):
    """Oracle: the kernel sandwich dx^2 k^dagger rho k with the n x n kernel,
    in the representation the library picks for theta."""
    x = rho.x
    if theta < 1e-9:
        return np.interp(s, x, np.real(np.diagonal(rho.values)), left=0.0, right=0.0)
    values = rho.values
    if abs(np.sin(theta)) < abs(np.cos(theta)):
        F = np.exp(-1j * np.outer(x, x)) * rho.dx / np.sqrt(2 * np.pi)
        values = F @ values @ F.conj().T
        theta = theta - np.pi / 2
    K = quadrature_kernel(x[:, None], s[None, :], theta)
    return rho.dx**2 * np.real(np.sum(np.conj(K) * (values @ K), axis=0))


@pytest.fixture(scope="module")
def rho0():
    return density_from_wavefunction(ground_state(X8), -8.0, 8.0)


@pytest.fixture(scope="module")
def rho1():
    return density_from_wavefunction(first_excited_state(X8), -8.0, 8.0)


# ------------------------------------------------------------------ wigner


def test_ground_state_wigner_analytic(rho0):
    W = wigner_from_density(rho0)
    Xg, Pg = np.meshgrid(W.x, W.p, indexing="ij")
    exact = np.exp(-(Xg**2 + Pg**2)) / np.pi
    assert np.max(np.abs(W.values - exact)) <= 1e-4
    assert abs(W.mass() - 1.0) <= 1e-4


def test_first_excited_negative_at_origin():
    x = np.linspace(-8.0, 8.0, 257)  # odd count so (0, 0) is a lattice point
    rho = density_from_wavefunction(first_excited_state(x), -8.0, 8.0)
    W = wigner_from_density(rho)
    assert abs(W.values[128, 128] - (-1.0 / np.pi)) <= 1e-3
    assert abs(W.mass() - 1.0) <= 1e-4


def test_purity_from_wigner(rho0, rho1):
    # 2 pi Integral W^2 equals Tr rho^2: 1 for pure, 1/2 for the even mix
    W0 = wigner_from_density(rho0)
    pure = 2 * np.pi * np.sum(W0.values**2) * W0.dx * W0.dp
    assert abs(pure - 1.0) <= 1e-3
    mix = PositionDensityMatrix(
        values=0.5 * rho0.values + 0.5 * rho1.values, x_min=-8.0, x_max=8.0
    )
    Wm = wigner_from_density(mix)
    mixed = 2 * np.pi * np.sum(Wm.values**2) * Wm.dx * Wm.dp
    assert abs(mixed - 0.5) <= 1e-3


def test_wigner_nyquist_gate(rho0):
    with pytest.raises(AliasedGrid):
        wigner_from_density(rho0, p_max=30.0)  # beyond pi / (2 dx) ~ 25


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -5.0])
def test_wigner_names_a_bad_p_max(rho0, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation, match=r"^wigner_from_density p_max must be finite"):
            wigner_from_density(rho0, p_max=bad)


@pytest.mark.parametrize("n_p", [0, 1, -1])
def test_wigner_needs_two_momentum_samples(rho0, n_p):
    with pytest.raises(EmptyGrid):
        wigner_from_density(rho0, n_p=n_p)


# ------------------------------------------------------------------ kernel


def test_kernel_modulus_is_label_independent():
    for theta in (0.3, 1.0, np.pi / 2, 2.7):
        vals = quadrature_kernel(np.array([-3.0, 0.2, 5.0]), 1.3, theta)
        want = 1.0 / np.sqrt(2 * np.pi * abs(np.sin(theta)))
        assert np.max(np.abs(np.abs(vals) - want)) <= 1e-12


def test_kernel_at_half_pi_is_plane_wave():
    xp, xv = 0.7, -1.9
    got = quadrature_kernel(xp, xv, np.pi / 2)
    assert abs(got - np.exp(1j * xp * xv) / np.sqrt(2 * np.pi)) <= 1e-12


def test_kernel_symmetric_in_arguments():
    assert abs(quadrature_kernel(0.4, -1.1, 0.9) - quadrature_kernel(-1.1, 0.4, 0.9)) == 0.0


def test_kernel_degenerate_angle():
    with pytest.raises(DegenerateAngle):
        quadrature_kernel(0.0, 0.0, 0.0)
    with pytest.raises(DegenerateAngle):
        quadrature_kernel(0.0, 0.0, np.pi)
    with pytest.raises(DegenerateAngle):
        kernel_overlap(0.5, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("dtheta", [0.7, np.pi / 2])
def test_composed_overlap_modulus(dtheta):
    t1 = np.pi / 2 - dtheta / 2
    t2 = np.pi / 2 + dtheta / 2
    target = 1.0 / np.sqrt(2 * np.pi * abs(np.sin(dtheta)))
    got = abs(kernel_overlap(t1, t2, 0.35, -0.6))
    assert abs(got - target) <= 0.01 * target


def test_kernel_identity_limit_monotone():
    """Action on a smooth vector converges to that vector as theta -> 0.

    The kernel carries the constant propagator phase exp(-i(pi/4 - theta/2))
    relative to the identity; the comparison compensates for it.
    """
    L = 10.0
    xq = np.linspace(-2.0, 2.0, 41)
    f = lambda g: np.exp(-g * g) * (1 + 0.3 * g)
    errs = []
    for theta in (0.1, 0.05, 0.025):
        dg_max = np.pi * abs(np.sin(theta)) / (L + 2.0) / 3
        n = int(np.ceil(2 * L / dg_max)) | 1
        g = np.linspace(-L, L, n)
        K = quadrature_kernel(xq[:, None], g[None, :], theta)
        acted = (K @ f(g)) * (g[1] - g[0]) * np.exp(1j * (np.pi / 4 - theta / 2))
        errs.append(np.max(np.abs(acted - f(xq))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.02


# ------------------------------------------------------------- quadratures


def test_ground_state_quadratures_are_isotropic(rho0):
    exact = np.exp(-(X8**2)) / np.sqrt(np.pi)
    for theta in (0.0, 0.2, np.pi / 4, 1.0, np.pi / 2, 2.5):
        row = quadrature_distribution(rho0, theta)
        assert np.max(np.abs(row - exact)) <= 0.01 * exact.max()
        assert abs(np.sum(row) * rho0.dx - 1.0) <= 1e-4


def test_quadrature_matches_radon_of_wigner(rho1):
    """Two independent routes to the marginal: kernel sandwich vs line
    integral of the Wigner function."""
    W = wigner_from_density(rho1)
    for theta in (0.3, 0.7, 1.0, 2.5):
        row = quadrature_distribution(rho1, theta)
        _, radon_row = project_at_angle(W, theta, n_s=256, s_max=8.0)
        assert rel_l2(row, radon_row) <= 0.02


def test_momentum_route_agrees_with_position_route():
    """At angles where both representations satisfy the sampling rule the
    two kernel sandwiches must agree; the library picks the momentum side
    for theta = 0.7 so evaluate the position side by hand."""
    psi = (ground_state(X8) + 1j * first_excited_state(X8)) / np.sqrt(2)
    rho = density_from_wavefunction(psi, -8.0, 8.0)
    theta = 0.7
    row_lib = quadrature_distribution(rho, theta)
    K = quadrature_kernel(X8[:, None], X8[None, :], theta)
    row_manual = rho.dx**2 * np.real(np.sum(np.conj(K) * (rho.values @ K), axis=0))
    assert np.max(np.abs(row_lib - row_manual)) <= 1e-10


def test_quadrature_theta_zero_is_diagonal(rho1):
    row = quadrature_distribution(rho1, 0.0)
    assert np.max(np.abs(row - np.real(np.diag(rho1.values)))) == 0.0


def test_quadrature_rejects_out_of_range_angle(rho0):
    with pytest.raises(ValueError):
        quadrature_distribution(rho0, np.pi)
    with pytest.raises(ValueError):
        quadrature_distribution(rho0, -0.1)
    with pytest.raises(InvariantViolation, match="nan outside"):
        quadrature_distribution(rho0, np.nan)


def test_quadrature_aliased_grid():
    x = np.linspace(-8.0, 8.0, 32)  # dx ~ 0.52, far beyond pi |sin| / 8
    rho = density_from_wavefunction(ground_state(x), -8.0, 8.0)
    with pytest.raises(AliasedGrid):
        quadrature_distribution(rho, 0.8)


def test_alias_check_binds_at_the_least_effective_sin():
    """A call aliases exactly when one of its angles would alone: |sin| on
    the position branch, |cos| on the momentum branch, against
    dx x_max / pi = 0.867 on this grid. The error names the binding |sin|."""
    x = np.linspace(-8.0, 8.0, 48)
    rho = density_from_wavefunction(ground_state(x), -8.0, 8.0)
    alone = {}
    for theta in (0.6, 0.9, 1.2, np.pi / 2, 2.5, 2.9):
        try:
            quadrature_distribution(rho, theta)
            alone[theta] = False
        except AliasedGrid:
            alone[theta] = True
    assert alone == {0.6: True, 0.9: True, 1.2: False, np.pi / 2: False, 2.5: True, 2.9: False}
    quadrature_sinogram(rho, [1.2, np.pi / 2, 2.9])
    # effective |sin|: 0.825 (|cos 0.6|), 0.783 (|sin 0.9|), 0.801 (|cos 2.5|)
    with pytest.raises(AliasedGrid, match=r"least effective \|sin\| = 0\.7833"):
        quadrature_sinogram(rho, [0.6, 0.9, 1.2, np.pi / 2, 2.5, 2.9])


def test_skew_holds_each_subdiagonal_zero_padded():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    R = _skew(values)
    for m in range(7):
        assert np.array_equal(R[m, :7 - m], np.diagonal(values, offset=-m))
        assert not np.any(R[m, 7 - m:])


def test_quadrature_sinogram_rows(rho1):
    thetas = np.arange(12) * np.pi / 12
    sino = quadrature_sinogram(rho1, thetas)
    assert sino.n_theta == 12
    assert np.min(sino.values) >= -1e-8
    integrals = sino.values.sum(axis=1) * sino.ds
    assert np.max(np.abs(integrals - 1.0)) <= 1e-4


@st.composite
def mixed_states(draw):
    """Mixtures of up to three distorted coherent states, centres within 0.8
    of the origin, on n in [33, 129] over [-L, L]; L = min(8, sqrt(n - 1))
    keeps dx under the alias bound at |sin| = sqrt(2)/2 and holds the
    momentum support."""
    n = draw(st.integers(33, 129))
    L = min(8.0, np.sqrt(n - 1.0))
    x = np.linspace(-L, L, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.zeros((n, n), dtype=complex)
    for _ in range(draw(st.integers(1, 3))):
        x0, p0 = rng.uniform(-0.8, 0.8, size=2)
        bend = complex(*rng.uniform(-0.3, 0.3, size=2))
        psi = np.exp(-((x - x0) ** 2) / 2 + 1j * p0 * x) * (1 + bend * (x - x0))
        values += rng.uniform(0.1, 1.0) * np.outer(psi, psi.conj())
    values /= np.sum(np.real(np.diagonal(values))) * (x[1] - x[0])
    return PositionDensityMatrix(values=values, x_min=-L, x_max=L)


@settings(max_examples=30, deadline=None)
@given(
    rho=mixed_states(),
    extra=st.lists(st.floats(0.0, np.pi, exclude_max=True), max_size=6),
    stride=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_sinogram_matches_dense_sandwich(rho, extra, stride, data):
    """Chirp-z rows equal the dense kernel sandwich on an s axis that differs
    from x in length and range; 0, pi/4, pi/2 and 3 pi/4 are always in, and
    pi/4 and 3 pi/4 sit on either side of the position / momentum switch.

    s runs over every first or second x lattice point, from up to n/16
    cells before or after x_min to up to n/16 cells either side of x_max:
    the theta = 0 row is then an exact diagonal, so every row carries the
    same mass, which Sinogram checks."""
    n = rho.n
    reach = n // 16
    first = data.draw(st.integers(-reach, reach).filter(bool))
    last = n - 1 + data.draw(st.integers(-reach, reach))
    n_s = (last - first) // stride + 1
    assume(n_s != n)
    s = rho.x_min + rho.dx * (first + stride * np.arange(n_s))
    thetas = np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4] + extra)
    sino = quadrature_sinogram(rho, thetas, s)
    for row, theta in zip(sino.values, thetas):
        want = dense_quadrature_row(rho, theta, s)
        assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))


def test_quadrature_rejects_bad_axes(rho0):
    s = np.concatenate([np.linspace(-8.0, 0.0, 100), np.linspace(0.1, 8.0, 50)])
    for theta in (0.0, 0.8, np.pi / 2):
        with pytest.raises(InvariantViolation, match="uniformly increasing"):
            quadrature_distribution(rho0, theta, s)
    with pytest.raises(InvariantViolation, match="uniformly increasing"):
        quadrature_sinogram(rho0, [0.0, np.pi / 2], s)
    for bad in ([0.0, np.inf], [0.0, np.nan, 2.0], np.linspace(-8.0, 8.0, 150).reshape(2, 75)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="uniformly increasing"):
                quadrature_distribution(rho0, 0.7, bad)
    with pytest.raises(InvariantViolation, match="nonempty"):
        quadrature_sinogram(rho0, [])
    for bad, error, match in (
            ([], EmptyGrid, r"^quadrature s axis needs at least 2 samples, got 0"),
            ([5.0], EmptyGrid, r"^quadrature s axis needs at least 2 samples, got 1"),
            (["a", "b"], InvariantViolation, r"^quadrature s entries do not stack"),
            ([-1.7e308, 1.7e308], InvariantViolation,
             r"^quadrature s span quadrature s_max - quadrature s_min must be finite")):
        for quadrature in (lambda s: quadrature_distribution(rho0, 0.7, s),
                           lambda s: quadrature_sinogram(rho0, [0.0, 0.7], s)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=match):
                    quadrature(bad)


@pytest.mark.parametrize("p0", [5.0, 6.0])
def test_momentum_outside_grid_is_named(p0):
    """A boost e^{i p0 x} pushes momentum mass past |p| = 8, the mirrored
    grid edge; the error names the lost mass and an |x| extent that holds
    all but 1e-6 of it, resolved to the reach estimate's 0.2 step. The
    rectangle rule gives the edge sample p = 8 a cell reaching 8 + dx/2."""
    rho = density_from_wavefunction(ground_state(X8) * np.exp(1j * p0 * X8), -8.0, 8.0)
    with pytest.raises(MomentumOutsideGrid) as info:
        quadrature_sinogram(rho, np.arange(12) * np.pi / 12)
    assert isinstance(info.value, AliasedGrid)
    edge = 8.0 + (X8[1] - X8[0]) / 2
    lost = 0.5 * math.erfc(edge - p0)  # |psi(p)|^2 = exp(-(p - p0)^2) / sqrt(pi)
    got_lost, reach = (float(v) for v in re.search(
        r"momentum mass (\S+) .* \|x\| >= (\S+) ", str(info.value)).groups())
    assert abs(got_lost - lost) <= 0.03 * lost
    assert 0.5 * math.erfc(reach - p0) <= 1e-6 < 0.5 * math.erfc(reach - p0 - 0.25)


def test_momentum_just_inside_grid_passes():
    rho = density_from_wavefunction(ground_state(X8) * np.exp(4.5j * X8), -8.0, 8.0)
    sino = quadrature_sinogram(rho, np.arange(12) * np.pi / 12)
    assert np.max(np.abs(sino.values.sum(axis=1) * sino.ds - 1.0)) <= 1e-6


def test_theta_zero_off_the_x_lattice():
    """Off the x lattice the theta = 0 row comes from the momentum side and
    carries the same unit mass as the pi/2 row, where interpolating the
    diagonal lost 1.7e-4."""
    x = np.linspace(-5.6, 5.6, 33)
    rho = density_from_wavefunction(ground_state(x), -5.6, 5.6)
    s = np.linspace(-5.0, 5.0, 48)
    sino = quadrature_sinogram(rho, [0.0, np.pi / 2], s)
    assert np.max(np.abs(sino.values.sum(axis=1) * sino.ds - 1.0)) <= 1e-6
    assert np.max(np.abs(sino.values - np.exp(-s * s) / np.sqrt(np.pi))) <= 1e-7


def test_theta_zero_is_zero_past_the_x_grid():
    """On the x lattice but past its ends the theta = 0 row is zero, as the
    chirp-z rows treat the density off the grid; repeating the edge sample
    there added a plateau of 7e-5 per cell and a mass of 1.000104."""
    x = np.linspace(-3.0, 3.0, 65)
    rho = density_from_wavefunction(ground_state(x), -3.0, 3.0)
    s = -3.0 + rho.dx * np.arange(-8, 73)
    row = quadrature_distribution(rho, 0.0, s)
    assert np.all(row[:8] == 0.0) and np.all(row[-8:] == 0.0)
    trace = np.sum(np.real(np.diagonal(rho.values))) * rho.dx
    assert abs(row.sum() * rho.dx - trace) <= 1e-12


@pytest.mark.parametrize("thetas", [[np.pi / 2], [np.pi / 3, np.pi / 2, 2 * np.pi / 3]])
def test_momentum_off_the_s_axis_is_named(thetas):
    """Position-branch rows of a state boosted by e^{6ix} lose the momentum
    mass past the s axis edge 8 + ds/2; the error names it and the axis."""
    rho = density_from_wavefunction(ground_state(X8) * np.exp(6j * X8), -8.0, 8.0)
    with pytest.raises(MassOutsideAxis) as info:
        quadrature_sinogram(rho, thetas)
    lost = 0.5 * math.erfc(8.0 + (X8[1] - X8[0]) / 2 - 6.0)
    got = float(re.search(r"misses (\S+) of the trace", str(info.value)).group(1))
    assert abs(got - lost) <= 0.03 * lost
    assert "s in [-8, 8]" in str(info.value)
    with pytest.raises(MassOutsideAxis):
        quadrature_distribution(rho, np.pi / 2)


# ---------------------------------------------------------- reconstruction


def test_reconstruct_wigner_zero_input():
    sino = Sinogram(values=np.zeros((8, 64)),
                    thetas=np.arange(8) * np.pi / 8, s_min=-8, s_max=8)
    W = reconstruct_wigner(sino, nx=32, n_p=32)
    assert np.max(np.abs(W.values)) == 0.0


def test_reconstruct_wigner_needs_angles():
    sino = Sinogram(values=np.zeros((1, 64)), thetas=np.array([0.0]),
                    s_min=-8, s_max=8)
    with pytest.raises(InsufficientAngles):
        reconstruct_wigner(sino)


def test_reconstructed_negativity_survives(rho1):
    thetas = np.arange(90) * np.pi / 90
    quads = quadrature_sinogram(rho1, thetas)
    W = reconstruct_wigner(quads, nx=129, n_p=129,
                           x_min=-8, x_max=8, p_min=-8, p_max=8)
    assert W.values[64, 64] <= -0.25  # true value is -1/pi ~ -0.318


def test_reconstruct_density_continuous_ground_state(rho0):
    thetas = np.arange(90) * np.pi / 90
    quads = quadrature_sinogram(rho0, thetas)
    rec, raw_trace = reconstruct_density_continuous(quads)
    assert 0.97 <= raw_trace <= 1.03
    assert np.max(np.abs(rec.values - rec.values.conj().T)) <= 1e-8
    diag = np.real(np.diag(rec.values))
    exact = np.exp(-rec.x**2) / np.sqrt(np.pi)
    assert np.max(np.abs(diag - exact)) <= 0.03 * exact.max()


def test_reconstruct_density_continuous_stays_inside_the_disk():
    """A resolved cat state: W is integrated only where x^2 + p^2 <= reach^2,
    so the raw trace is 1 to 1e-4 and the relative HS error near 1e-7.
    Integrating the corners of the p range outside the disk gave a raw
    trace of 1.0087 and an error of 1.1e-2."""
    def psi(x):
        return (np.exp(-(x - 1) ** 2 / 2 + 1j * x)
                + np.exp(-(x + 1) ** 2 / 2 - 1j * x))
    rho = density_from_wavefunction(psi(X8), -8.0, 8.0)
    quads = quadrature_sinogram(rho, np.arange(180) * np.pi / 180)
    rec, raw_trace = reconstruct_density_continuous(quads)
    assert abs(raw_trace - 1.0) <= 1e-4
    truth = density_from_wavefunction(psi(rec.x), rec.x_min, rec.x_max).values
    assert np.linalg.norm(rec.values - truth) / np.linalg.norm(truth) <= 4e-3


@pytest.mark.parametrize("factor", [1.0, 1.25])
def test_x_max_outside_the_disk_is_named(rho0, factor):
    quads = quadrature_sinogram(rho0, np.arange(16) * np.pi / 16)
    with pytest.raises(OutsideProjectionDisk, match="projection disk of radius 8"):
        reconstruct_density_continuous(quads, x_max=8.0 * factor)


@pytest.mark.parametrize("s_min, s_max", [(0.5, 3.0), (-3.0, -0.5)])
@pytest.mark.parametrize("x_max", [None, 0.25])
def test_s_axis_off_zero_covers_no_disk(s_min, s_max, x_max):
    sino = Sinogram(np.ones((8, 16)), np.arange(8) * np.pi / 8, s_min, s_max)
    with pytest.raises(OutsideProjectionDisk, match=rf"s_min = {s_min:g} and s_max = {s_max:g} "
                                                    "do not straddle 0"):
        reconstruct_density_continuous(sino, x_max=x_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_reconstruct_density_continuous_names_a_bad_x_max(rho0, bad):
    quads = quadrature_sinogram(rho0, np.arange(16) * np.pi / 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantViolation,
                           match=r"^reconstruct_density_continuous x_max must be finite"):
            reconstruct_density_continuous(quads, x_max=bad)


def test_reconstruct_density_continuous_rejects_zero_trace():
    sino = Sinogram(values=np.zeros((8, 64)),
                    thetas=np.arange(8) * np.pi / 8, s_min=-8, s_max=8)
    with pytest.raises(InvariantViolation, match="trace integral 0.0"):
        reconstruct_density_continuous(sino)


@pytest.mark.parametrize("state", [ground_state, first_excited_state])
def test_reconstructed_wigner_matches_the_direct_transform_inside_the_disk(state):
    """n = 256 on [-8, 8] at 180 angles: the back-projection reads each
    filtered row's trigonometric interpolant, so inside the projection disk
    W matches the direct transform to 1e-4 (linear interpolation of the
    rows left 1.2e-2 over the whole grid)."""
    rho = density_from_wavefunction(state(X8), -8.0, 8.0)
    quads = quadrature_sinogram(rho, np.arange(180) * np.pi / 180)
    W_rec = reconstruct_wigner(quads, x_min=-8, x_max=8, p_min=-8, p_max=8)
    W_dir = wigner_from_density(rho)
    inside = W_dir.x[:, None] ** 2 + W_dir.p[None, :] ** 2 <= min(-quads.s_min, quads.s_max) ** 2
    assert rel_l2(W_rec.values[inside], W_dir.values[inside]) <= 1e-4


def test_reconstructed_cat_density_is_accurate_to_1e_4():
    """Two coherent states at +-(1.2, 0.8) with a relative phase, as in the
    cv-quads-cli benchmark: relative HS error at most 1e-4 (2.6e-3 when the
    back-projection interpolated the rows linearly)."""
    def psi(x):
        def coherent(x0, p0):
            return np.pi**-0.25 * np.exp(-((x - x0) ** 2) / 2 + 1j * p0 * x)
        return coherent(1.2, 0.8) + np.exp(0.7j) * coherent(-1.2, -0.8)

    rho = density_from_wavefunction(psi(X8), -8.0, 8.0)
    rec, _ = reconstruct_density_continuous(quadrature_sinogram(rho, np.arange(180) * np.pi / 180))
    truth = density_from_wavefunction(psi(rec.x), rec.x_min, rec.x_max).values
    assert np.linalg.norm(rec.values - truth) / np.linalg.norm(truth) <= 1e-4


def test_route_equivalence_compact(rho0):
    """Direct transform vs measure-and-invert on a reduced angle budget."""
    thetas = np.arange(60) * np.pi / 60
    quads = quadrature_sinogram(rho0, thetas)
    W_direct = wigner_from_density(rho0)
    W_rec = reconstruct_wigner(quads, x_min=-8, x_max=8, p_min=-8, p_max=8)
    assert rel_l2(W_rec.values, W_direct.values) <= 0.02


# -------------------------------------------------------------- type checks


def test_position_density_validation():
    n = 64
    x = np.linspace(-6, 6, n)
    psi = ground_state(x)
    rho = np.outer(psi, psi) / (np.sum(psi**2) * (x[1] - x[0]))
    bad = rho.astype(complex).copy()
    bad[3, 5] += 0.1
    with pytest.raises(NonHermitianInput):
        PositionDensityMatrix(values=bad, x_min=-6, x_max=6)
    with pytest.raises(InvariantViolation):
        PositionDensityMatrix(values=rho * 2.0, x_min=-6, x_max=6)
    with pytest.raises(InvariantViolation, match="square sample matrix"):
        PositionDensityMatrix(values=rho[:, :-1], x_min=-6, x_max=6)


def test_density_from_wavefunction_normalizes():
    x = np.linspace(-6, 6, 128)
    rho = density_from_wavefunction(3.7 * ground_state(x), -6, 6)
    trace = np.sum(np.real(np.diag(rho.values))) * rho.dx
    assert abs(trace - 1.0) <= 1e-12
    with pytest.raises(InvariantViolation, match="1D array"):
        density_from_wavefunction(np.ones((2, 64)), -6, 6)
    with pytest.raises(InvariantViolation, match="zero norm"):
        density_from_wavefunction(np.zeros(128), -6, 6)
