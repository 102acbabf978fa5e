import numpy as np
import pytest

from mubtomo.errors import IndexOutOfRange, InvariantViolation
from mubtomo.finite_field import PrimeModulus
from mubtomo.qudit_mub import (
    MubBasisSet,
    basis_matrix,
    build_mub_set,
    clock_operator,
    mub_deviation,
    mub_vector,
    shift_operator,
    weyl_operator,
)

TOL = 1e-12


def test_clock_d3_explicit():
    w = np.exp(2j * np.pi / 3)
    Z = clock_operator(PrimeModulus(3))
    assert np.max(np.abs(Z - np.diag([1, w, w**2]))) <= TOL


@pytest.mark.parametrize("d", [3, 5, 7])
def test_clock_order_and_trace(d):
    Z = clock_operator(PrimeModulus(d))
    assert np.max(np.abs(np.linalg.matrix_power(Z, d) - np.eye(d))) <= TOL
    assert abs(np.trace(Z)) <= TOL  # all d-th roots of unity sum to zero


def test_shift_wraps_cyclically():
    X = shift_operator(PrimeModulus(3))
    e2 = np.array([0, 0, 1], dtype=complex)
    e0 = np.array([1, 0, 0], dtype=complex)
    assert np.max(np.abs(X @ e2 - e0)) <= TOL


@pytest.mark.parametrize("d", [3, 5, 7])
def test_shift_order(d):
    X = shift_operator(PrimeModulus(d))
    assert np.max(np.abs(np.linalg.matrix_power(X, d) - np.eye(d))) <= TOL


@pytest.mark.parametrize("d", [3, 5, 7])
def test_commutation_direction(d):
    """With Z|n> = omega^n |n> and X|n> = |n+1>, the exchange rule is
    ZX = omega XZ (applying X first raises the clock phase by one)."""
    p = PrimeModulus(d)
    X, Z = shift_operator(p), clock_operator(p)
    assert np.max(np.abs(Z @ X - p.omega * (X @ Z))) <= TOL


def test_weyl_operator_matches_products():
    p = PrimeModulus(5)
    X, Z = shift_operator(p), clock_operator(p)
    for m in range(5):
        for l in range(5):
            direct = np.linalg.matrix_power(X, m) @ np.linalg.matrix_power(Z, l)
            assert np.max(np.abs(weyl_operator(p, m, l) - direct)) <= TOL


def test_mub_vector_d3_explicit():
    p = PrimeModulus(3)
    w = np.exp(2j * np.pi / 3)
    s3 = np.sqrt(3)
    assert np.max(np.abs(mub_vector(p, 0, 0) - np.array([1, 1, 1]) / s3)) <= TOL
    assert np.max(np.abs(mub_vector(p, 0, 1) - np.array([1, w**2, w]) / s3)) <= TOL
    v = mub_vector(p, 1, 0)
    assert np.max(np.abs(v - np.array([1, 1, w]) / s3)) <= TOL
    # eigenvector of XZ with eigenvalue omega^0
    assert np.max(np.abs(weyl_operator(p, 1, 1) @ v - v)) <= TOL


def test_mub_vector_canonical_phase():
    # amplitude at n = 0 is the positive real d^{-1/2}
    for d in (3, 5, 7):
        p = PrimeModulus(d)
        for b in range(d):
            for c in range(d):
                a0 = mub_vector(p, b, c)[0]
                assert abs(a0 - 1 / np.sqrt(d)) <= TOL


def test_mub_vector_range_check():
    with pytest.raises(IndexOutOfRange):
        mub_vector(PrimeModulus(3), 3, 0)
    with pytest.raises(IndexOutOfRange):
        mub_vector(PrimeModulus(3), 0, -1)


@pytest.mark.parametrize("d", [3, 7, 31, 101])
def test_basis_matrix_stacks_mub_vectors(d):
    p = PrimeModulus(d)
    for b in range(d):
        columns = np.stack([mub_vector(p, b, c) for c in range(d)], axis=1)
        assert np.array_equal(basis_matrix(p, b).view(float), columns.view(float))
    with pytest.raises(IndexOutOfRange):
        basis_matrix(p, d)


@pytest.mark.parametrize("d", [3, 7, 31, 101])
def test_build_mub_set_is_one_array_of_basis_matrices(d):
    p = PrimeModulus(d)
    bases = build_mub_set(p).bases
    stack = np.stack([np.eye(d, dtype=complex)] + [basis_matrix(p, b) for b in range(d)])
    assert isinstance(bases, np.ndarray) and bases.shape == (d + 1, d, d)
    assert np.array_equal(bases.view(float), stack.view(float))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_build_mub_set_structure(d):
    ms = build_mub_set(PrimeModulus(d))
    assert len(ms.bases) == d + 1
    assert np.max(np.abs(ms.bases[0] - np.eye(d))) == 0.0
    for U in ms.bases:
        assert np.max(np.abs(U.conj().T @ U - np.eye(d))) <= TOL


@pytest.mark.parametrize("d", [3, 5, 7])
def test_eigen_relation(d):
    """(X Z^b)|b;c> = omega^c |b;c> for every basis vector."""
    p = PrimeModulus(d)
    ms = build_mub_set(p)
    for b in range(d):
        XZb = weyl_operator(p, 1, b)
        for c in range(d):
            v = ms.bases[1 + b][:, c]
            assert np.max(np.abs(XZb @ v - p.root_power(c) * v)) <= TOL


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_mub_deviation_exact_construction(d):
    assert mub_deviation(build_mub_set(PrimeModulus(d))) <= TOL


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_unbiased_overlap_squared(d):
    """|<b',c'|b,c>|^2 = 1/d across distinct bases; numerical stand-in for
    the quadratic Gauss sums behind the construction."""
    ms = build_mub_set(PrimeModulus(d))
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            sq = np.abs(ms.bases[a].conj().T @ ms.bases[b]) ** 2
            assert np.max(np.abs(sq - 1.0 / d)) <= 1e-12


def test_mub_deviation_detects_duplicate_basis():
    d = 5
    ms = build_mub_set(PrimeModulus(d))
    bases = list(ms.bases)
    bases[1] = np.eye(d, dtype=complex)  # same kets as the computational basis
    broken = MubBasisSet(dim=d, bases=tuple(bases))
    assert abs(mub_deviation(broken) - (1 - 1 / np.sqrt(d))) <= 1e-12


def test_basis_set_validation():
    d = 3
    ms = build_mub_set(PrimeModulus(d))
    with pytest.raises(InvariantViolation):
        MubBasisSet(dim=d, bases=ms.bases[:-1])
    bad = list(ms.bases)
    bad[2] = bad[2] * 1.01  # not unitary
    with pytest.raises(InvariantViolation):
        MubBasisSet(dim=d, bases=tuple(bad))


def test_basis_set_rejects_ragged_bases():
    bases = (np.eye(3), np.eye(3), np.eye(2), np.eye(3))
    with pytest.raises(InvariantViolation, match="do not stack"):
        MubBasisSet(dim=3, bases=bases)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_operator_orthogonality(d):
    """Tr[X^m Z^l (X^m' Z^l')^dagger] = d delta_mm' delta_ll'."""
    p = PrimeModulus(d)
    ops = {(m, l): weyl_operator(p, m, l) for m in range(d) for l in range(d)}
    for (m, l), A in ops.items():
        for (mp, lp), B in ops.items():
            tr = np.trace(A @ B.conj().T)
            want = d if (m, l) == (mp, lp) else 0.0
            assert abs(tr - want) <= 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_grouped_orthogonality(d):
    """Tr[(XZ^b)^m ((XZ^b')^m')^dagger] = d delta_bb' delta_mm', m, m' != 0."""
    p = PrimeModulus(d)
    gens = [weyl_operator(p, 1, b) for b in range(d)]
    for b in range(d):
        for m in range(1, d):
            A = np.linalg.matrix_power(gens[b], m)
            for bp in range(d):
                for mp in range(1, d):
                    B = np.linalg.matrix_power(gens[bp], mp)
                    tr = np.trace(A @ B.conj().T)
                    want = d if (b, m) == (bp, mp) else 0.0
                    assert abs(tr - want) <= 1e-10


@pytest.mark.parametrize("d", [3, 5, 7])
def test_operator_set_spans_all_matrices(d):
    """{(XZ^b)^m, Z^l} expands an arbitrary matrix from trace coefficients."""
    p = PrimeModulus(d)
    rng = np.random.default_rng(11)
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rec = np.zeros((d, d), dtype=complex)
    for b in range(d):
        gen = weyl_operator(p, 1, b)
        for m in range(1, d):
            A = np.linalg.matrix_power(gen, m)
            rec += np.trace(M @ A) * A.conj().T
    for l in range(d):
        A = weyl_operator(p, 0, l)
        rec += np.trace(M @ A) * A.conj().T
    rec /= d
    assert np.max(np.abs(rec - M)) <= 1e-10
