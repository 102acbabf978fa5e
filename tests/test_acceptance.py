"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import time

import numpy as np

from conftest import (
    ASYMMETRIC,
    ISOTROPIC,
    TWO_GAUSSIAN,
    gaussian_mixture_grid,
    rel_l2,
)
from mubtomo.classical_radon import inverse_radon, project_at_angle, radon_forward
from mubtomo.cv_wigner import (
    density_from_wavefunction,
    first_excited_state,
    ground_state,
    kernel_overlap,
    quadrature_distribution,
    quadrature_sinogram,
    reconstruct_wigner,
    wigner_from_density,
)
from mubtomo.finite_field import PrimeModulus, WeylIndex, weyl_decompose
from mubtomo.qudit_mub import build_mub_set, mub_deviation, weyl_operator
from mubtomo.qudit_tomography import (
    frequencies,
    measure_probabilities,
    project_to_physical,
    qudit_wigner,
    random_density_matrix,
    reconstruct_density,
    sample_counts,
)


def _gate(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} ({detail})"


def test_c01_mub_exactness():
    t0 = time.perf_counter()
    worst = max(mub_deviation(build_mub_set(PrimeModulus(d))) for d in (3, 5, 7, 11, 13))
    elapsed = time.perf_counter() - t0
    _gate(1, "MUB modulus 1/sqrt(d) for d in {3,5,7,11,13}",
          worst <= 1e-12 and elapsed < 1.0,
          f"deviation {worst:.2e}, {elapsed:.3f}s")


def test_c02_eigen_relation():
    worst = 0.0
    for d in (3, 5, 7):
        p = PrimeModulus(d)
        ms = build_mub_set(p)
        for b in range(d):
            XZb = weyl_operator(p, 1, b)
            for c in range(d):
                v = ms.bases[1 + b][:, c]
                worst = max(worst, float(np.max(np.abs(XZb @ v - p.root_power(c) * v))))
    _gate(2, "(XZ^b)|b;c> = omega^c |b;c>", worst <= 1e-12, f"worst {worst:.2e}")


def test_c03_weyl_grouping():
    worst = 0.0
    for d in (3, 5, 7):
        p = PrimeModulus(d)
        for m in range(1, d):
            for l in range(d):
                dec = weyl_decompose(WeylIndex(m, l), p)
                lhs = weyl_operator(p, m, l)
                rhs = p.root_power(dec.nu) * np.linalg.matrix_power(
                    weyl_operator(p, 1, dec.b), m
                )
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _gate(3, "X^m Z^l = omega^nu (X Z^b)^m", worst <= 1e-12, f"worst {worst:.2e}")


def test_c04_informational_completeness():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (3, 5, 7):
        ms = build_mub_set(PrimeModulus(d))
        for trial in range(100):
            rho = random_density_matrix(d, seed=1000 * d + trial)
            rec = reconstruct_density(measure_probabilities(rho, ms), ms)
            worst = max(worst, float(np.max(np.abs(rec - rho))))
    elapsed = time.perf_counter() - t0
    _gate(4, "100 exact round trips per d in {3,5,7}",
          worst <= 1e-10 and elapsed < 5.0,
          f"worst {worst:.2e}, {elapsed:.2f}s")


def test_c05_shot_noise_scaling():
    d = 5
    ms = build_mub_set(PrimeModulus(d))
    errs = {10_000: [], 1_000_000: []}
    for trial in range(50):
        rho = random_density_matrix(d, seed=5000 + trial)
        table = measure_probabilities(rho, ms)
        for shots in errs:
            est = project_to_physical(
                reconstruct_density(
                    frequencies(sample_counts(table, shots, seed=trial * 2 + (shots == 10_000))),
                    ms,
                )
            )
            errs[shots].append(float(np.sum(np.abs(np.linalg.eigvalsh(est - rho)))))
    med4 = float(np.median(errs[10_000]))
    med6 = float(np.median(errs[1_000_000]))
    _gate(5, "trace-norm error scales with shots (d=5, 50 trials)",
          med6 <= 5 * med4 and med6 <= 0.02,
          f"median 1e4 shots {med4:.4f}, 1e6 shots {med6:.4f}")


def test_c06_classical_round_trip():
    t0 = time.perf_counter()
    thetas = np.arange(180) * np.pi / 180
    grid1 = gaussian_mixture_grid(256, 6.0, ISOTROPIC)
    rec1 = inverse_radon(radon_forward(grid1, thetas, n_s=256),
                         256, 256, x_min=-6, x_max=6, p_min=-6, p_max=6)
    err1 = rel_l2(rec1.values, grid1.values)

    grid2 = gaussian_mixture_grid(256, 6.0, TWO_GAUSSIAN)
    rec2 = inverse_radon(radon_forward(grid2, thetas, n_s=256),
                         256, 256, x_min=-6, x_max=6, p_min=-6, p_max=6)
    err2 = rel_l2(rec2.values, grid2.values)
    elapsed = time.perf_counter() - t0
    _gate(6, "FBP round trips (Gaussian <= 2%, two-Gaussian <= 5%)",
          err1 <= 0.02 and err2 <= 0.05 and elapsed < 10.0,
          f"{err1:.4f}, {err2:.4f}, {elapsed:.1f}s")


def test_c07_radon_symmetry():
    grid = gaussian_mixture_grid(256, 6.0, ASYMMETRIC)
    worst = 0.0
    for theta in (0.35, 1.1, 2.4):
        _, fwd = project_at_angle(grid, theta, n_s=256)
        _, rev = project_at_angle(grid, theta + np.pi, n_s=256)
        worst = max(worst, float(np.max(np.abs(rev - fwd[::-1]))))
    _gate(7, "marginal(-s, theta) = marginal(s, theta + pi)",
          worst <= 1e-6, f"sup {worst:.2e}")


def test_c08_wigner_ground_truth():
    x = np.linspace(-8.0, 8.0, 256)
    rho0 = density_from_wavefunction(ground_state(x), -8.0, 8.0)
    W0 = wigner_from_density(rho0)
    Xg, Pg = np.meshgrid(W0.x, W0.p, indexing="ij")
    sup = float(np.max(np.abs(W0.values - np.exp(-(Xg**2 + Pg**2)) / np.pi)))
    mass = W0.mass()

    x_odd = np.linspace(-8.0, 8.0, 257)
    rho1 = density_from_wavefunction(first_excited_state(x_odd), -8.0, 8.0)
    W1 = wigner_from_density(rho1)
    origin_err = abs(W1.values[128, 128] + 1.0 / np.pi)
    _gate(8, "ground W analytic, excited W(0,0) = -1/pi, unit mass",
          sup <= 1e-4 and origin_err <= 1e-3 and abs(mass - 1.0) <= 1e-4,
          f"sup {sup:.1e}, origin err {origin_err:.1e}, mass err {abs(mass-1):.1e}")


def test_c09_route_equivalence():
    t0 = time.perf_counter()
    x = np.linspace(-8.0, 8.0, 256)
    thetas = np.arange(180) * np.pi / 180
    errs = []
    for state in (ground_state, first_excited_state):
        rho = density_from_wavefunction(state(x), -8.0, 8.0)
        quads = quadrature_sinogram(rho, thetas)  # 256 samples per angle
        W_rec = reconstruct_wigner(quads, x_min=-8, x_max=8, p_min=-8, p_max=8)
        W_dir = wigner_from_density(rho)
        errs.append(rel_l2(W_rec.values, W_dir.values))
    elapsed = time.perf_counter() - t0
    _gate(9, "reconstructed Wigner matches direct transform (<= 2%)",
          max(errs) <= 0.02 and elapsed < 30.0,
          f"ground {errs[0]:.4f}, excited {errs[1]:.4f}, {elapsed:.1f}s")


def test_c10_continuous_mub_modulus():
    worst_rel = 0.0
    for dtheta in (0.3, 0.7, 1.2, np.pi / 2):
        t1 = np.pi / 2 - dtheta / 2
        t2 = np.pi / 2 + dtheta / 2
        target = 1.0 / np.sqrt(2 * np.pi * abs(np.sin(dtheta)))
        for xv, xp in ((0.35, -0.6), (-1.2, 0.8)):
            got = abs(kernel_overlap(t1, t2, xv, xp))
            worst_rel = max(worst_rel, abs(got - target) / target)
    _gate(10, "composed-kernel overlap modulus 1/sqrt(2 pi |sin dtheta|)",
          worst_rel <= 0.01, f"worst relative error {worst_rel:.4f}")


def test_c11_position_and_momentum_do_not_determine_the_state():
    """Two distinct states with identical position and momentum statistics
    that an intermediate quadrature tells apart: psi and its conjugate."""
    x = np.linspace(-8.0, 8.0, 256)
    h2 = (2 * x**2 - 1) * np.exp(-x * x / 2) * np.pi**-0.25 / np.sqrt(2.0)
    psi = (ground_state(x) + 1j * h2) / np.sqrt(2.0)
    rho_a = density_from_wavefunction(psi, -8.0, 8.0)
    rho_b = density_from_wavefunction(psi.conj(), -8.0, 8.0)

    distinct = float(np.max(np.abs(rho_a.values - rho_b.values)))
    d0 = float(np.max(np.abs(quadrature_distribution(rho_a, 0.0)
                             - quadrature_distribution(rho_b, 0.0))))
    d90 = float(np.max(np.abs(quadrature_distribution(rho_a, np.pi / 2)
                              - quadrature_distribution(rho_b, np.pi / 2))))
    d45 = float(np.max(np.abs(quadrature_distribution(rho_a, np.pi / 4)
                              - quadrature_distribution(rho_b, np.pi / 4))))
    _gate(11, "states agree at theta = 0 and pi/2 but differ at pi/4",
          distinct > 0.01 and d0 <= 1e-10 and d90 <= 1e-10 and d45 >= 0.05,
          f"theta 0: {d0:.1e}, pi/2: {d90:.1e}, pi/4: {d45:.3f}")


def test_c12_qudit_and_continuous_pipelines_agree():
    """The two pipelines on one cat state psi, sampled at the d points
    x_n = (n - (d-1)/2) delta, delta = sqrt(2 pi / d); rho_c is the density
    of those samples and delta * rho_c the qudit state.

    Wigner: column k 2^-1 mod d of ``qudit_wigner`` times d/pi is
    ``wigner_from_density(rho_c)`` at p_k = k pi/(d delta), k = -(d-1)/2 ..
    (d-1)/2, on the band |x| < d delta/4; outside it sits the odd-d ghost.

    Rows: row 1+b of the canonical set is (dP/r) times the quadrature
    distribution at theta_b = atan2(1, -b), s = P_c/r, with r = sqrt(1+b^2),
    dP = 2 pi/(d delta) and P_c = (pi b (d-2) - 2 pi c)/(d delta) wrapped into
    [-pi/delta, pi/delta). The quadratures sample psi at half the step: on
    the d-point grid the kernel-phase check, which reads the grid's extent
    rather than the state's, refuses |sin theta_b| < (d-1)/d.
    """
    def psi(x):
        return (np.exp(-(x - 1) ** 2 / 2 + 1j * x)
                + np.exp(-(x + 1) ** 2 / 2 - 1j * x))

    wigner_diff, ghost, row_diff = [], [], []
    for d, b_max in ((101, 2), (211, 3)):
        delta = np.sqrt(2 * np.pi / d)
        x = (np.arange(d) - (d - 1) / 2) * delta
        rho_c = density_from_wavefunction(psi(x), x[0], x[-1])
        rho = delta * rho_c.values

        k = np.arange(d) - (d - 1) // 2
        W_q = qudit_wigner(rho)[:, (k * (d + 1) // 2) % d] * d / np.pi
        W_c = wigner_from_density(rho_c, n_p=d, p_max=np.pi * (d - 1) / (2 * d * delta))
        diff = np.abs(W_q - W_c.values)
        band = np.abs(x) < d * delta / 4
        wigner_diff.append(float(diff[band].max()))
        ghost.append(float(diff[~band].max()))

        rows = measure_probabilities(rho, build_mub_set(PrimeModulus(d))).values
        x_fine = np.linspace(x[0], x[-1], 2 * d - 1)
        rho_fine = density_from_wavefunction(psi(x_fine), x[0], x[-1])
        dP = 2 * np.pi / (d * delta)
        worst = 0.0
        for b in range(-b_max, b_max + 1):
            P = (np.pi * b * (d - 2) - 2 * np.pi * np.arange(d)) / (d * delta)
            P = (P + np.pi / delta) % (2 * np.pi / delta) - np.pi / delta
            order = np.argsort(P)
            r = np.sqrt(1 + b * b)
            quad = quadrature_distribution(rho_fine, np.arctan2(1, -b), P[order] / r)
            worst = max(worst, float(np.max(np.abs(rows[1 + b % d][order] - dP / r * quad))))
        row_diff.append(worst)
    _gate(12, "qudit W and MUB rows match continuous W and quadratures, d = 101, 211",
          max(wigner_diff) <= 1e-12 and min(ghost) >= 0.1 and max(row_diff) <= 2e-9,
          f"W {wigner_diff[0]:.1e}, {wigner_diff[1]:.1e}; ghost {min(ghost):.2f}; "
          f"rows {row_diff[0]:.1e}, {row_diff[1]:.1e}")
