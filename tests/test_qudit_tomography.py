import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mubtomo.errors import (EIGENVALUE_FLOOR, ROUNDING_TOL, DimensionMismatch, InvariantViolation,
                            NonHermitianInput, NotPrime)
from mubtomo.finite_field import PrimeModulus
from mubtomo.qudit_mub import MubBasisSet, build_mub_set, mub_deviation
from mubtomo.qudit_tomography import (
    CountTable,
    ProbabilityTable,
    frequencies,
    measure_probabilities,
    project_to_physical,
    qudit_wigner,
    random_density_matrix,
    reconstruct_density,
    sample_counts,
    validate_density_matrix,
)


def _set(d):
    return build_mub_set(PrimeModulus(d))


# ------------------------------------------------------------- measurement


def test_maximally_mixed_is_unbiased_everywhere():
    d = 5
    table = measure_probabilities(np.eye(d) / d, _set(d))
    assert np.max(np.abs(table.values - 1.0 / d)) <= 1e-12


def test_computational_pure_state_rows():
    d = 3
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    table = measure_probabilities(rho, _set(d))
    assert np.max(np.abs(table.values[0] - np.array([1.0, 0.0, 0.0]))) <= 1e-12
    assert np.max(np.abs(table.values[1:] - 1.0 / d)) <= 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_rows_sum_to_one(d):
    table = measure_probabilities(random_density_matrix(d, seed=d), _set(d))
    assert np.max(np.abs(table.values.sum(axis=1) - 1.0)) <= 1e-10


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        measure_probabilities(np.eye(3) / 3, _set(5))
    with pytest.raises(DimensionMismatch, match="must be square"):
        validate_density_matrix(np.ones((2, 3)) / 2)
    with pytest.raises(DimensionMismatch, match="must be square"):
        validate_density_matrix(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch, match="square matrix"):
        project_to_physical(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch, match="square matrix"):
        project_to_physical(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch, match="table dimension 3"):
        reconstruct_density(ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3)), _set(5))


def test_state_validation():
    bad = np.eye(3, dtype=complex) / 3
    bad[0, 1] = 0.5  # not Hermitian
    with pytest.raises(NonHermitianInput):
        validate_density_matrix(bad)
    with pytest.raises(InvariantViolation):
        validate_density_matrix(np.eye(3) * 0.5)  # trace 1.5
    neg = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(InvariantViolation):
        validate_density_matrix(neg)


def test_state_validation_rejects_nan_in_the_upper_triangle():
    """The Hermiticity check is false for NaN and eigvalsh reads only the
    lower triangle, so finiteness is checked first."""
    rho = np.eye(3, dtype=complex) / 3
    rho[0, 1] = np.nan
    with pytest.raises(InvariantViolation, match="non-finite"):
        validate_density_matrix(rho)


def _planted(d, lam, seed):
    """A state whose least eigenvalue is lam; the others are at least 1/(2d)."""
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    rest = (1.0 - lam) * (0.5 / (d - 1) + 0.5 * rng.dirichlet(np.ones(d - 1)))
    rho = (V * np.concatenate([[lam], rest])) @ V.conj().T
    return 0.5 * (rho + rho.conj().T)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101]),
       lam=st.floats(-1e-9, 1e-9), seed=st.integers(0, 2**32 - 1))
@example(d=101, lam=EIGENVALUE_FLOOR - 2e-13, seed=1)
@example(d=101, lam=EIGENVALUE_FLOOR + 2e-13, seed=1)
def test_positivity_check_agrees_with_the_spectrum(d, lam, seed):
    """The Cholesky factor exists exactly when the least eigenvalue is at
    least the floor, outside a band of about d * eps around it."""
    assume(abs(lam - EIGENVALUE_FLOOR) > 1e-13)
    rho = _planted(d, lam, seed)
    assert (np.min(np.linalg.eigvalsh(rho)) < EIGENVALUE_FLOOR) == (lam < EIGENVALUE_FLOOR)
    if lam < EIGENVALUE_FLOOR:
        with pytest.raises(InvariantViolation, match="negative eigenvalue"):
            validate_density_matrix(rho)
    else:
        validate_density_matrix(rho)


@pytest.mark.parametrize("d", [101, 1009])
def test_pure_states_pass_the_positivity_check(d):
    """Rank 1: every eigenvalue but one is zero up to rounding."""
    rng = np.random.default_rng(d)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    validate_density_matrix(np.outer(psi, psi.conj()))


@pytest.mark.parametrize("make", [lambda: ProbabilityTable(0, np.zeros((1, 0))),
                                  lambda: CountTable(0, 5, np.zeros((1, 0), dtype=int))],
                         ids=["probabilities", "counts"])
def test_tables_need_a_positive_dimension(make):
    with pytest.raises(InvariantViolation, match="at least 1"):
        make()


@pytest.mark.parametrize("counts, match", [
    ([[2, 0], [3, -1], [1, 1]], "nonnegative integers"),
    ([[2.0, 0.0], [1.0, 1.0], [1.0, 1.0]], "nonnegative integers"),
    ([[2, 0], [1, 1], [1, 2]], "sum to shots_per_basis"),
], ids=["negative", "float", "row_sum"])
def test_count_table_rejects_invalid_counts(counts, match):
    with pytest.raises(InvariantViolation, match=match):
        CountTable(dim=2, shots_per_basis=2, counts=np.array(counts))


# ---------------------------------------------------------------- sampling


def test_sample_counts_zero_shots():
    table = ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3))
    counts = sample_counts(table, 0, 1)
    assert counts.shots_per_basis == 0
    assert np.all(counts.counts == 0)
    with pytest.raises(InvariantViolation, match="shots must be nonnegative"):
        sample_counts(table, -1, 1)
    with pytest.raises(InvariantViolation, match="seed must be nonnegative"):
        sample_counts(table, 10, -1)


def test_sample_counts_degenerate_row():
    vals = np.zeros((4, 3))
    vals[:, 0] = 1.0
    counts = sample_counts(ProbabilityTable(dim=3, values=vals), 1000, 5)
    assert np.all(counts.counts[:, 0] == 1000)
    assert np.all(counts.counts[:, 1:] == 0)


def test_sample_counts_rejects_a_row_with_no_mass():
    """A table with an all-zero row passes with a warning, but there is no
    distribution to draw that row from."""
    vals = np.full((4, 3), 1 / 3)
    vals[2] = 0.0
    with pytest.warns(UserWarning):
        table = ProbabilityTable(dim=3, values=vals)
    with pytest.raises(InvariantViolation, match="row 2"):
        sample_counts(table, 1000, 0)
    assert sample_counts(table, 0, 0).shots_per_basis == 0


def test_inversion_error_matches_the_two_design_prediction():
    """The MUBs form a 2-design, so the linear inversion error of N-shot
    frequencies has mean E||rho_hat - rho||_HS^2 = (d - Tr rho^2)/N. The
    mean over a fixed seed range lies within 4 standard errors of it."""
    d, shots = 7, 2000
    ms = _set(d)
    rho = random_density_matrix(d, seed=11)
    table = measure_probabilities(rho, ms)
    errors = np.array([
        np.sum(np.abs(reconstruct_density(frequencies(sample_counts(table, shots, seed)), ms)
                      - rho) ** 2)
        for seed in range(400)
    ])
    predicted = (d - np.trace(rho @ rho).real) / shots
    z = (errors.mean() - predicted) / (errors.std(ddof=1) / np.sqrt(errors.size))
    assert abs(z) <= 4.0, (errors.mean(), predicted, z)


def test_sample_counts_deterministic_and_frozen():
    table = ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3))
    a = sample_counts(table, 10, 42)
    b = sample_counts(table, 10, 42)
    assert np.array_equal(a.counts, b.counts)
    # regression pin for the documented Philox / inverse-CDF stream
    assert a.counts.tolist() == [[3, 3, 4], [2, 4, 4], [2, 3, 5], [6, 2, 2]]


def test_sample_counts_takes_integers_of_any_type():
    """``shots`` and ``seed`` are whole numbers of any Python or numpy integer
    type, with the counts of the Python int; anything else is named."""
    table = ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3))
    want = sample_counts(table, 10, 42)
    for shots, seed in ((np.int64(10), np.int64(42)), (10, np.uint64(42)), (np.int32(10), 42)):
        got = sample_counts(table, shots, seed)
        assert np.array_equal(got.counts, want.counts)
        assert type(got.shots_per_basis) is int
    for shots, seed, match in ((10.0, 42, r"^shots = 10\.0 is not"),
                               (10, 3.0, r"^seed = 3\.0 is not"),
                               ("10", 42, r"^shots = '10' is not")):
        with pytest.raises(InvariantViolation, match=match + " a whole number$"):
            sample_counts(table, shots, seed)


def test_sample_counts_draws_into_one_buffer():
    """The stream of every row goes through one per-call buffer of ``shots``
    floats, sorted in place: a fresh draw array and a sorted copy per row
    would each add 8 * shots bytes to the peak."""
    d, shots = 5, 100_000
    table = ProbabilityTable(dim=d, values=np.full((d + 1, d), 1 / d))
    sample_counts(table, 1, 3)  # the first Philox seeding imports modules lazily
    tracemalloc.start()
    try:
        sample_counts(table, shots, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * shots, peak


def _philox_uniforms(seed, r, shots):
    key = (seed & ((1 << 64) - 1)) + (r << 64)
    return np.random.Generator(np.random.Philox(key=key)).random(shots)


def per_draw_counts(values, shots, seed):
    """Oracle: the documented contract drawn outcome by outcome,
    bincount(clip(searchsorted(c, u, "right"), 0, d - 1)) for every row."""
    d = values.shape[1]
    counts = np.zeros((d + 1, d), dtype=np.int64)
    if shots > 0:
        for r in range(d + 1):
            cum = np.cumsum(values[r])
            cum /= cum[-1]
            idx = np.searchsorted(cum, _philox_uniforms(seed, r, shots), side="right")
            counts[r] = np.bincount(np.clip(idx, 0, d - 1), minlength=d)
    return counts


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]),
    shots=st.integers(0, 2000),
    seed=st.integers(0, 2**70),
    table_seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
)
def test_sample_counts_match_per_draw_oracle(d, shots, seed, table_seed, zero_share):
    rng = np.random.default_rng(table_seed)
    vals = rng.dirichlet(np.ones(d), size=d + 1)
    vals[rng.random(vals.shape) < zero_share] = 0.0
    vals[np.arange(d + 1), rng.integers(0, d, d + 1)] += 1e-3  # no empty row
    vals /= vals.sum(axis=1, keepdims=True)
    counts = sample_counts(ProbabilityTable(dim=d, values=vals), shots, seed)
    assert np.array_equal(counts.counts, per_draw_counts(vals, shots, seed))


def test_sample_counts_zero_probability_outcomes():
    # zeros repeat cumulative edges, inside the row and at both ends
    vals = np.array([
        [0.0, 0.0, 0.5, 0.0, 0.5],
        [0.2, 0.0, 0.0, 0.8, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [0.1, 0.2, 0.0, 0.3, 0.4],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.5, 0.0, 0.0, 0.0, 0.5],
    ])
    for seed in (0, 7, 2**70 + 3):
        counts = sample_counts(ProbabilityTable(dim=5, values=vals), 5000, seed).counts
        assert np.array_equal(counts, per_draw_counts(vals, 5000, seed))
        assert np.all(counts[vals == 0.0] == 0)


def test_sample_counts_draw_on_an_edge_goes_above_it():
    """A draw equal to the edge c[0] is outcome 1 (right-open intervals)."""
    seed, shots = 11, 50
    u3 = _philox_uniforms(seed, 0, shots)[3]
    vals = np.full((4, 3), 1 / 3)
    vals[0] = [u3, 1.0 - u3, 0.0]
    cum = np.cumsum(vals[0])
    assert (cum / cum[-1])[0] == u3  # the tie really happens
    counts = sample_counts(ProbabilityTable(dim=3, values=vals), shots, seed).counts
    assert np.array_equal(counts, per_draw_counts(vals, shots, seed))


def test_sample_counts_tiny_negative_probability():
    """A probability of -1e-13 dips the cumulative edges; a draw inside the
    dip is counted below it, and no count goes negative."""
    seed, shots = 11, 50
    u = _philox_uniforms(seed, 0, shots)
    eps = 1e-13
    vals = np.full((4, 3), 1 / 3)
    vals[0] = [u[3] + eps / 2, -eps, 1.0 - u[3] + eps / 2]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = ProbabilityTable(dim=3, values=vals)
    counts = sample_counts(table, shots, seed).counts
    cum = np.cumsum(vals[0])
    below = int(np.sum(u < cum[0] / cum[-1]))
    assert counts[0].tolist() == [below, 0, shots - below]


def test_sample_counts_seed_changes_stream():
    table = ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3))
    a = sample_counts(table, 1000, 0)
    b = sample_counts(table, 1000, 1)
    assert not np.array_equal(a.counts, b.counts)


def test_frequencies_round():
    table = ProbabilityTable(dim=3, values=np.full((4, 3), 1 / 3))
    counts = sample_counts(table, 100, 9)
    freq = frequencies(counts)
    assert np.max(np.abs(freq.values.sum(axis=1) - 1.0)) <= 1e-12
    with pytest.raises(ValueError):
        frequencies(CountTable(dim=3, shots_per_basis=0,
                               counts=np.zeros((4, 3), dtype=np.int64)))


def test_probability_table_warns_on_bad_row_sums():
    vals = np.full((4, 3), 1 / 3)
    vals[2] = [0.2, 0.2, 0.2]  # sums to 0.6
    with pytest.warns(UserWarning):
        ProbabilityTable(dim=3, values=vals)
    vals[2] = [1.5, -0.25, -0.25]  # sums to 1
    with pytest.raises(InvariantViolation, match=r"must lie in \[0, 1\]"):
        ProbabilityTable(dim=3, values=vals)


# ----------------------------------------------------------- reconstruction


def test_uniform_table_reconstructs_maximally_mixed():
    d = 5
    table = ProbabilityTable(dim=d, values=np.full((d + 1, d), 1 / d))
    rho = reconstruct_density(table, _set(d))
    assert np.max(np.abs(rho - np.eye(d) / d)) <= 1e-12


def test_pure_state_round_trip():
    d = 3
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    rec = reconstruct_density(measure_probabilities(rho, _set(d)), _set(d))
    assert np.max(np.abs(rec - rho)) <= 1e-12


@pytest.mark.parametrize("d", [3, 5, 7])
def test_random_mixed_round_trip(d):
    ms = _set(d)
    for seed in range(10):
        rho = random_density_matrix(d, seed=seed)
        rec = reconstruct_density(measure_probabilities(rho, ms), ms)
        assert np.max(np.abs(rec - rho)) <= 1e-10


@pytest.mark.parametrize("d", [3, 5])
def test_free_parameters_reach_full_rank(d):
    """The affine map from the (d+1)(d-1) free table entries to the
    reconstruction has full column rank at the maximally mixed point."""
    ms = _set(d)
    base = np.full((d + 1, d), 1.0 / d)
    ref = reconstruct_density(ProbabilityTable(dim=d, values=base), ms)
    cols = []
    step = 1e-3  # map is affine so any step is exact up to rounding
    for r in range(d + 1):
        for c in range(d - 1):
            perturbed = base.copy()
            perturbed[r, c] += step
            perturbed[r, d - 1] -= step
            diff = (
                reconstruct_density(ProbabilityTable(dim=d, values=perturbed), ms) - ref
            ) / step
            cols.append(np.concatenate([diff.real.ravel(), diff.imag.ravel()]))
            assert np.max(np.abs(diff)) > 1e-6  # every parameter moves the output
    J = np.array(cols).T
    assert np.linalg.matrix_rank(J, tol=1e-7) == (d + 1) * (d - 1)


def test_phase_choice_invariance():
    """Re-phasing every basis ket changes nothing measurable."""
    d = 5
    ms = _set(d)
    rng = np.random.default_rng(3)
    twisted = [ms.bases[0]]
    for U in ms.bases[1:]:
        phases = np.exp(2j * np.pi * rng.random(d))
        twisted.append(U * phases[np.newaxis, :])
    ms2 = MubBasisSet(dim=d, bases=tuple(twisted))
    rho = random_density_matrix(d, seed=8)
    t1 = measure_probabilities(rho, ms)
    t2 = measure_probabilities(rho, ms2)
    assert np.max(np.abs(t1.values - t2.values)) <= 1e-12
    r1 = reconstruct_density(t1, ms)
    r2 = reconstruct_density(t2, ms2)
    assert np.max(np.abs(r1 - r2)) <= 1e-12


# ------------------------------------------------------------- physicality


def test_project_identity_on_physical_states():
    rho = random_density_matrix(5, seed=2)
    assert np.max(np.abs(project_to_physical(rho) - rho)) <= 1e-12


def test_project_clips_negative_eigenvalue():
    out = project_to_physical(np.diag([1.2, -0.2]).astype(complex))
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_project_rejects_non_finite_matrix(bad):
    raw = np.eye(3, dtype=complex) / 3
    raw[1, 2] = bad
    with pytest.raises(InvariantViolation, match="non-finite"):
        project_to_physical(raw)


def test_project_output_always_physical():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        out = project_to_physical(raw)
        w = np.linalg.eigvalsh(out)
        assert np.min(w) >= -1e-12
        assert abs(np.sum(w) - 1.0) <= 1e-12


def test_projected_inversion_is_the_least_squares_state():
    """For MUB frequencies the residual sum_kn (f_kn - p_kn(sigma))^2 of a
    unit-trace sigma is ||rho_hat - sigma||_HS^2, so the projection of the
    raw estimate fits the frequencies best among physical states."""
    d = 7
    ms = _set(d)
    f = frequencies(sample_counts(measure_probabilities(_random_state(d, 1, 5), ms), 200, seed=3))
    raw = reconstruct_density(f, ms)
    assert np.min(np.linalg.eigvalsh(raw)) < -0.01
    best = project_to_physical(raw)

    def residual(sigma):
        return float(np.sum((f.values - measure_probabilities(sigma, ms).values) ** 2))

    def hs2(sigma):
        return float(np.sum(np.abs(raw - sigma) ** 2))

    assert abs(residual(best) - hs2(best)) <= 1e-12 * hs2(best)
    for seed in range(20):
        other = _random_state(d, 1 + seed % d, 100 + seed)
        for t in (1.0, 0.1, 1e-3):
            sigma = (1 - t) * best + t * other
            assert abs(residual(sigma) - hs2(sigma)) <= 1e-12 * hs2(sigma)
            assert residual(sigma) >= residual(best) - 1e-15


def test_shot_noise_error_decreases():
    d = 5
    ms = _set(d)
    errs = {100: [], 100_000: []}
    for trial in range(8):
        rho = random_density_matrix(d, seed=100 + trial)
        table = measure_probabilities(rho, ms)
        for shots in errs:
            est = project_to_physical(
                reconstruct_density(
                    frequencies(sample_counts(table, shots, seed=trial)), ms
                )
            )
            errs[shots].append(np.sum(np.abs(np.linalg.eigvalsh(est - rho))))
    assert np.median(errs[100_000]) < np.median(errs[100])


# ------------------------------------------------ finite-Radon route (canonical set)

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
          79, 83, 89, 97, 101]


@functools.lru_cache(maxsize=None)
def _dense(d):
    """The canonical bases as a plain MubBasisSet, which takes the dense route."""
    return MubBasisSet(dim=d, bases=_set(d).bases)


def _random_state(d, rank, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from(PRIMES), rank=st.sampled_from([1, 2, None]),
       seed=st.integers(0, 2**32 - 1))
def test_radon_route_matches_the_dense_route_on_states(d, rank, seed):
    rho = _random_state(d, rank or d, seed)
    fast = measure_probabilities(rho, _set(d))
    dense = measure_probabilities(rho, _dense(d))
    assert np.max(np.abs(fast.values - dense.values)) <= 1e-12
    rec = reconstruct_density(fast, _set(d))
    assert np.max(np.abs(rec - reconstruct_density(fast, _dense(d)))) <= 1e-12
    assert np.max(np.abs(rec - rho)) <= 1e-12
    # 2-design identity: sum_kn p_kn^2 = Tr rho^2 + 1
    assert abs(np.sum(fast.values**2) - np.trace(rho @ rho).real - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from(PRIMES), scale=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_radon_inversion_matches_the_dense_one_on_any_table(d, scale, seed):
    """Nonnegative rows that need not sum to 1: the inversion is still the
    affine formula, computational row and -I included."""
    values = scale * np.random.default_rng(seed).random((d + 1, d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = ProbabilityTable(dim=d, values=values)
    fast = reconstruct_density(table, _set(d))
    assert np.max(np.abs(fast - reconstruct_density(table, _dense(d)))) <= 1e-12
    assert np.array_equal(fast, fast.conj().T)


@pytest.mark.parametrize("d", [3, 5, 31, 101])
def test_radon_route_reads_the_hermitian_part(d):
    """The dense Born map reads the Hermitian part of a state that passes
    validation with an anti-Hermitian error; so must the half-lattice route,
    which sees only the diagonals k <= (d-1)/2 of rho and their transposes."""
    rng = np.random.default_rng(d)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    error = A - A.conj().T
    np.fill_diagonal(error, 0.0)
    rho = random_density_matrix(d, seed=d) + 0.45 * ROUNDING_TOL * error / np.max(np.abs(error))
    fast = measure_probabilities(rho, _set(d))
    assert np.max(np.abs(fast.values - measure_probabilities(rho, _dense(d)).values)) <= 1e-15
    rec = reconstruct_density(fast, _set(d))
    assert np.array_equal(rec, rec.conj().T)


def test_radon_route_at_d_1009_builds_no_basis():
    """A dense set at this size would hold 16 GB."""
    d = 1009
    ms = _set(d)
    rho = _random_state(d, 3, seed=5)
    rec = reconstruct_density(measure_probabilities(rho, ms), ms)
    assert np.max(np.abs(rec - rho)) <= 1e-12
    assert mub_deviation(ms) <= 1e-12
    assert "bases" not in vars(ms)


@pytest.mark.parametrize("d", [3, 5, 7, 31, 101])
def test_wigner_line_sums_are_the_mub_rows(d):
    """W shares no code with the canonical route or the dense one, so its
    line sums check both."""
    rho = random_density_matrix(d, seed=d)
    W = qudit_wigner(rho)
    h = (d + 1) // 2
    q = np.arange(d)
    b, k = np.ogrid[:d, :d]
    lines = W[q, (b[..., np.newaxis] * q + k[..., np.newaxis]) % d].sum(axis=-1)  # p = b q + k
    assert abs(W.sum() - 1.0) <= 1e-12
    for mub_set in (_set(d), _dense(d)):
        rows = measure_probabilities(rho, mub_set).values
        assert np.max(np.abs(W.sum(axis=1) - rows[0])) <= 1e-12
        assert np.max(np.abs(lines - rows[1 + b, -(k + b * h) % d])) <= 1e-12


def test_wigner_of_the_maximally_mixed_state_is_flat():
    d = 7
    assert np.max(np.abs(qudit_wigner(np.eye(d) / d) - 1.0 / d**2)) <= 1e-15


def test_wigner_needs_an_odd_prime():
    with pytest.raises(NotPrime):
        qudit_wigner(np.eye(9) / 9)
