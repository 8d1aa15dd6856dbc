import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fockfield.fock import ModeSpace, Statistics, two_particle_symmetrized
from qinfo_oracles import decohere_dense, two_particle_slot_state
from fockfield.qinfo import (
    BipartiteState,
    DensityMatrix,
    MeasurementModel,
    born_distribution,
    conditional_state,
    decohere,
    decoherence_time,
    entangled_pair,
    entanglement_entropy,
    pointer_outcome_counts,
    premeasure,
    reduced_density,
    sample_outcomes,
    schmidt,
)

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
BELL = BipartiteState(np.eye(2) / np.sqrt(2))


def random_bipartite(rng, d_a, d_b):
    m = rng.normal(size=(d_a, d_b)) + 1j * rng.normal(size=(d_a, d_b))
    return BipartiteState(m / np.linalg.norm(m))


def test_born_distribution_examples():
    assert np.allclose(born_distribution([1.0, 0.0]), [1.0, 0.0])
    assert np.allclose(born_distribution([1 / np.sqrt(2), 1j / np.sqrt(2)]), [0.5, 0.5])
    assert np.allclose(born_distribution([np.sqrt(0.25), np.sqrt(0.75)]), [0.25, 0.75])


def test_born_distribution_rejects_unnormalized():
    with pytest.raises(ValueError):
        born_distribution([1.0, 1.0])


def test_entangled_pair_orthonormal_is_maximal():
    s = entangled_pair(E0, E1, E0, E1)
    coeffs, entropy = schmidt(s)
    assert np.allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12)
    assert entropy == pytest.approx(np.log(2), abs=1e-12)


def test_entangled_pair_duplicate_is_product():
    s = entangled_pair(E0, E0, E1, E1)
    coeffs, entropy = schmidt(s)
    assert coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert entropy == 0.0


def test_entangled_pair_partial_overlap_intermediate_entropy():
    # phi's orthogonal, psi's overlapping: entropy strictly inside (0, ln 2);
    # oracle is the schmidt decomposition of the explicit 2x2 matrix
    psi2 = np.array([0.5, np.sqrt(0.75)])
    s = entangled_pair(E0, E1, E0, psi2)
    amp = np.outer(E0, E0) + np.outer(E1, psi2)
    amp = amp / np.linalg.norm(amp)
    expect = np.linalg.svd(amp, compute_uv=False)
    sq = expect**2
    expect_entropy = -np.sum(sq * np.log(sq))
    coeffs, entropy = schmidt(s)
    assert np.allclose(coeffs, expect, atol=1e-12)
    assert entropy == pytest.approx(expect_entropy, abs=1e-12)
    assert 0.0 < entropy < np.log(2)


def test_entangled_pair_rejects_zero_superposition():
    with pytest.raises(ValueError):
        entangled_pair(E0, -E0, E1, E1)


def test_reduced_density_product_state_is_projector():
    s = BipartiteState(np.outer(E0, E1))
    rho = reduced_density(s, "A")
    assert np.allclose(rho.rho, np.outer(E0, E0), atol=1e-12)
    assert rho.purity == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_bell_is_maximally_mixed():
    for side in ("A", "B"):
        rho = reduced_density(BELL, side)
        assert np.allclose(rho.rho, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_entropies_agree_both_sides():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = random_bipartite(rng, 3, 4)
        ea = entanglement_entropy(reduced_density(s, "A"))
        eb = entanglement_entropy(reduced_density(s, "B"))
        assert ea == pytest.approx(eb, abs=1e-10)


def test_schmidt_coefficients_normalized():
    rng = np.random.default_rng(5)
    s = random_bipartite(rng, 3, 3)
    coeffs, _ = schmidt(s)
    assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(coeffs) <= 1e-15)


def test_conditional_state_bell_outcome():
    b_state, prob = conditional_state(BELL, E0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(b_state, E0, atol=1e-12)


def test_conditional_state_product_state_unchanged():
    psi = np.array([0.6, 0.8])
    s = BipartiteState(np.outer(E0, psi))
    b_state, prob = conditional_state(s, E0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(b_state, psi, atol=1e-12)


def test_conditional_state_zero_probability_rejected():
    s = BipartiteState(np.outer(E0, E0))
    with pytest.raises(ValueError):
        conditional_state(s, E1)


def test_conditional_probabilities_match_reduced_diagonal():
    # non-orthogonal phi's: outcome probabilities over an orthonormal basis
    # agree with the Born rule on the reduced density diagonal
    phi2 = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    s = entangled_pair(E0, phi2, E0, E1)
    rho_a = reduced_density(s, "A")
    total = 0.0
    for k, outcome in enumerate((E0, E1)):
        _, prob = conditional_state(s, outcome)
        assert prob == pytest.approx(rho_a.rho[k, k].real, abs=1e-12)
        total += prob
    assert total == pytest.approx(1.0, abs=1e-12)


def test_premeasure_trivial_and_maximal():
    trivial = premeasure(MeasurementModel((0.0, 1.0), (1.0, 0.0), 1.0))
    assert schmidt(trivial)[1] == 0.0
    c = 1 / np.sqrt(2)
    maximal = premeasure(MeasurementModel((0.0, 1.0), (c, c), 1.0))
    assert schmidt(maximal)[1] == pytest.approx(np.log(2), abs=1e-12)


def test_premeasure_reduced_purity():
    f = np.sqrt(np.array([0.1, 0.3, 0.6]))
    s = premeasure(MeasurementModel((0, 1, 2), tuple(f), 1.0))
    rho = reduced_density(s, "A")
    assert rho.purity == pytest.approx(float(np.sum(f**4)), abs=1e-12)


def test_premeasure_entropy_matches_shannon():
    f = np.sqrt(np.array([0.2, 0.8]))
    s = premeasure(MeasurementModel((0, 1), tuple(f), 1.0))
    expect = -np.sum(f**2 * np.log(f**2))
    assert entanglement_entropy(reduced_density(s, "A")) == pytest.approx(expect, abs=1e-10)
    assert entanglement_entropy(reduced_density(s, "B")) == pytest.approx(expect, abs=1e-10)


def test_decohere_diagonal_weights():
    f = (np.sqrt(0.25), np.sqrt(0.75))
    rho = decohere(premeasure(MeasurementModel((0, 1), f, 1.0)))
    diag = pointer_outcome_counts(rho.diagonal(), (2, 2))
    assert np.allclose(diag, [0.25, 0.75], atol=1e-12)
    assert rho.purity == pytest.approx(0.625, abs=1e-12)


def test_decohere_trivial_superposition_stays_pure():
    rho = decohere(premeasure(MeasurementModel((0, 1), (1.0, 0.0), 1.0)))
    assert rho.purity == pytest.approx(1.0, abs=1e-12)


def test_decohere_diagonal_equals_born_distribution():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = f / np.linalg.norm(f)
        model = MeasurementModel((0, 1, 2), tuple(f), 1.0)
        rho = decohere(premeasure(model))
        diag = pointer_outcome_counts(rho.diagonal(), (3, 3))
        assert np.allclose(diag, born_distribution(f), atol=1e-12)


def test_decohere_never_increases_purity_and_kills_coherences():
    rng = np.random.default_rng(23)
    s = random_bipartite(rng, 3, 3)
    rho = decohere(s)
    assert rho.purity <= 1.0 + 1e-12
    assert np.trace(rho.rho).real == pytest.approx(1.0, abs=1e-12)
    # pointer-diagonal entries survive untouched
    pure = np.outer(s.amplitudes.ravel(), s.amplitudes.ravel().conj())
    assert np.allclose(np.diag(rho.rho), np.diag(pure), atol=1e-12)
    # off-diagonal pointer blocks are exactly zero
    d = 3
    for b in range(d):
        for b2 in range(d):
            if b != b2:
                block = rho.rho[np.ix_(np.arange(d) * d + b, np.arange(d) * d + b2)]
                assert np.all(block == 0)


def test_decohere_rotated_pointer_basis():
    c = 1 / np.sqrt(2)
    hadamard = np.array([[c, c], [c, -c]])
    s = BipartiteState(np.outer(E0, [c, c]))
    rho = decohere(s, pointer_basis=hadamard)
    # in the rotated basis the apparatus state is the first pointer vector
    assert rho.purity == pytest.approx(1.0, abs=1e-12)
    diag = pointer_outcome_counts(rho.diagonal(), (2, 2))
    assert diag[0] == pytest.approx(1.0, abs=1e-12)


def test_decoherence_time():
    assert decoherence_time(1.0) == 1.0
    assert decoherence_time(1e6) == pytest.approx(1e-6)
    assert decoherence_time(2.0) == pytest.approx(decoherence_time(1.0) / 2)
    with pytest.raises(ValueError):
        decoherence_time(0.0)


def test_sample_outcomes_deterministic_per_seed():
    f = (np.sqrt(0.25), np.sqrt(0.75))
    rho = decohere(premeasure(MeasurementModel((0, 1), f, 1.0)))
    a = sample_outcomes(rho, 10, seed=42)
    b = sample_outcomes(rho, 10, seed=42)
    assert np.array_equal(a, b)
    assert a.sum() == 10


def test_sample_outcomes_certain_case():
    rho = decohere(premeasure(MeasurementModel((0, 1), (1.0, 0.0), 1.0)))
    counts = pointer_outcome_counts(sample_outcomes(rho, 50, seed=1), (2, 2))
    assert counts[0] == 50 and counts[1] == 0


def test_sample_outcomes_frequency():
    f = (np.sqrt(0.25), np.sqrt(0.75))
    rho = decohere(premeasure(MeasurementModel((0, 1), f, 1.0)))
    counts = pointer_outcome_counts(sample_outcomes(rho, 100000, seed=7), (2, 2))
    assert counts[0] / 100000 == pytest.approx(0.25, abs=0.01)


def test_sample_outcomes_rejects_coherent_input():
    s = premeasure(MeasurementModel((0, 1), (1 / np.sqrt(2), 1 / np.sqrt(2)), 1.0))
    pure = DensityMatrix(np.outer(s.amplitudes.ravel(), s.amplitudes.ravel().conj()))
    with pytest.raises(ValueError):
        sample_outcomes(pure, 10, seed=0)


def test_sample_outcomes_goodness_of_fit_across_seeds():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    model = MeasurementModel((0, 1, 2, 3), tuple(np.sqrt(probs)), 1.0)
    rho = decohere(premeasure(model))
    n = 100000
    failures = 0
    for seed in range(20):
        counts = pointer_outcome_counts(sample_outcomes(rho, n, seed=seed), (4, 4))
        _, pvalue = stats.chisquare(counts, probs * n)
        if pvalue < 1e-3:
            failures += 1
    assert failures <= 1


def test_slot_state_symmetrized_bose():
    space = ModeSpace(3, Statistics.BOSE, nmax=4)
    rng = np.random.default_rng(31)
    xi = rng.normal(size=3) + 1j * rng.normal(size=3)
    eta = rng.normal(size=3) + 1j * rng.normal(size=3)
    xi, eta = xi / np.linalg.norm(xi), eta / np.linalg.norm(eta)
    v = two_particle_symmetrized(xi, eta, space)
    slot = two_particle_slot_state(v)
    direct = np.outer(xi, eta) + np.outer(eta, xi)
    direct = direct / np.linalg.norm(direct)
    phase = np.vdot(direct.ravel(), slot.amplitudes.ravel())
    assert abs(abs(phase) - 1.0) < 1e-10
    assert np.allclose(slot.amplitudes, phase * direct, atol=1e-10)


def test_slot_state_never_separable_for_distinct_profiles():
    for stats_kind in (Statistics.BOSE, Statistics.FERMI):
        space = ModeSpace(3, stats_kind, nmax=4)
        rng = np.random.default_rng(13)
        for _ in range(10):
            xi = rng.normal(size=3) + 1j * rng.normal(size=3)
            eta = rng.normal(size=3) + 1j * rng.normal(size=3)
            xi, eta = xi / np.linalg.norm(xi), eta / np.linalg.norm(eta)
            if abs(abs(np.vdot(xi, eta)) - 1.0) < 1e-6:
                continue
            v = two_particle_symmetrized(xi, eta, space)
            coeffs, _ = schmidt(two_particle_slot_state(v))
            assert np.sum(coeffs > 1e-10) >= 2


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError, match=r"^rho must have unit trace \(trace = 2\.0\)$"):
        DensityMatrix(np.eye(2))


@pytest.mark.parametrize("call, message", [
    (lambda: BipartiteState([1.0, 0.0]), "amplitudes must have shape (n, m), got (2,)"),
    (lambda: DensityMatrix(np.ones((1, 2))), "rho must be square"),
    (lambda: DensityMatrix(np.ones(1)), "rho must have shape (n, m), got (1,)"),
    (lambda: DensityMatrix(np.diag([1.5, -0.5])), "rho must be positive semidefinite"),
    (lambda: MeasurementModel((0, 1, 2), (0.6, 0.8), 1.0), "eigenvalues and amplitudes must have equal length"),
    (lambda: reduced_density(BELL, "C"), "subsystem must be 'A' or 'B'"),
    (lambda: decohere(BELL, np.eye(3)), "pointer_basis must have shape (2, 2), got (3, 3)"),
], ids=["bipartite-1d", "rho-not-square", "rho-1d", "rho-not-psd", "model-lengths", "subsystem", "pointer-shape"])
def test_shape_and_spectrum_checks_raise_naming_what_failed(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_a_one_row_decohered_state_has_no_coherence_and_samples():
    # one system outcome: each pointer block is 1 x 1, so nothing is off-diagonal
    rho = decohere(BipartiteState([[0.6, 0.8]]))
    assert rho._max_coherence() == 0.0
    assert DensityMatrix(rho.rho)._max_coherence() == 0.0
    counts = sample_outcomes(rho, 1000, 0)
    assert counts.shape == (2,) and counts.sum() == 1000 and counts.min() > 0


def test_validation_messages_print_plain_floats():
    for make in (
        lambda: DensityMatrix(np.eye(2) * 0.500000005),
        lambda: BipartiteState(np.eye(2)),
        lambda: MeasurementModel((0, 1), tuple(np.sqrt([0.5, 0.6])), 1.0),
    ):
        with pytest.raises(ValueError) as exc:
            make()
        assert "np." not in str(exc.value)


# -- pointer columns against the dense oracle, bit for bit


def rotated_basis(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def float_bits(value):
    return np.float64(value).tobytes()


@pytest.mark.parametrize("rotate", [False, True])
def test_decohere_equals_dense_oracle_bitwise(rotate):
    rng = np.random.default_rng(41)
    for d_a, d_b in ((1, 1), (1, 4), (4, 1), (2, 2), (3, 5), (5, 3)):
        state = random_bipartite(rng, d_a, d_b)
        basis = rotated_basis(rng, d_b) if rotate else None
        got, want = decohere(state, basis), decohere_dense(state, basis)
        assert got.dim == want.dim == d_a * d_b
        assert got.diagonal().tobytes() == want.diagonal().tobytes()
        assert float_bits(got.purity) == float_bits(want.purity)
        assert got.rho.tobytes() == want.rho.tobytes()


def test_decohere_of_a_premeasured_state_equals_dense_oracle_bitwise():
    rng = np.random.default_rng(43)
    weights = rng.integers(1, 10, size=30).astype(float)
    model = MeasurementModel(tuple(range(30)), tuple(np.sqrt(weights / weights.sum())), 1e6)
    got, want = decohere(premeasure(model)), decohere_dense(premeasure(model))
    assert got.diagonal().tobytes() == want.diagonal().tobytes()
    for seed in range(5):
        assert np.array_equal(sample_outcomes(got, 10**5, seed), sample_outcomes(want, 10**5, seed))
    assert float_bits(got.purity) == float_bits(want.purity)
    assert got.rho.tobytes() == want.rho.tobytes()


@pytest.mark.parametrize("rotate", [False, True])
def test_sample_outcomes_accepts_and_rejects_like_the_dense_oracle(rotate):
    # a general state keeps coherences inside a pointer block; a product
    # state with the pointer basis has none
    rng = np.random.default_rng(47)
    states = [random_bipartite(rng, 3, 2), BipartiteState(np.outer([1.0, 0.0], [0.6, 0.8]))]
    states.append(BipartiteState(np.outer([0.0, 0.6, 0.8], [1.0, 0.0])))
    states.append(BipartiteState(np.outer([1.0, 1e-13, 0.0], [1.0, 0.0]) / np.hypot(1.0, 1e-13)))
    for state in states:
        basis = rotated_basis(rng, state.dims[1]) if rotate else None
        results = []
        for make in (decohere, decohere_dense):
            try:
                results.append(sample_outcomes(make(state, basis), 1000, seed=3).tolist())
            except ValueError as err:
                results.append(str(err))
        assert results[0] == results[1]


def test_decohere_result_does_not_follow_later_changes_to_the_state():
    state = BipartiteState(np.eye(2) / np.sqrt(2))
    rho = decohere(state)
    before = rho.diagonal()
    state.amplitudes[0, 0] = 1.0
    assert np.array_equal(rho.diagonal(), before)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_conditional_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    s = random_bipartite(rng, 3, 2)
    basis = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    total = sum(conditional_state(s, basis[:, k])[1] for k in range(3))
    assert total == pytest.approx(1.0, abs=1e-12)


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: born_distribution([NAN, 1.0]), "amplitudes must be normalized"),
    (lambda: DensityMatrix([[NAN]]), "rho must be Hermitian"),
    (lambda: DensityMatrix([[complex(1.0, NAN)]]), "rho must be Hermitian"),
    (lambda: BipartiteState([[NAN]]), "state must be normalized (norm = nan)"),
    (lambda: MeasurementModel((0, 1), (NAN, 0.8), 1.0), "amplitudes must be normalized"),
    (lambda: MeasurementModel((0, 1), (0.6, 0.8), NAN), "apparatus_energy must be > 0, got nan"),
    (lambda: decoherence_time(NAN), "apparatus_energy must be > 0, got nan"),
    (lambda: entangled_pair([NAN, 0.0], E1, E0, E1), "phi1 must be normalized"),
    (lambda: conditional_state(BELL, [NAN, 0.0]), "outcome vector must be normalized"),
    (lambda: decohere(BELL, [[NAN, 0.0], [0.0, 1.0]]), "pointer basis must be unitary"),
], ids=["born", "rho", "rho-imag", "bipartite", "model-amplitudes", "model-energy", "decoherence-time",
        "entangled-pair", "conditional", "pointer-basis"])
def test_nan_fails_every_tolerance_and_sign_check(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("call, message", [
    (lambda: entangled_pair([1, 0], [1, 0, 0], [1, 0], [1, 0]), "phi2 must have length 2, as phi1 does, got 3"),
    (lambda: entangled_pair(E0, E1, [1, 0, 0], E1), "psi2 must have length 3, as psi1 does, got 2"),
    (lambda: conditional_state(BELL, [1, 0, 0]),
     "outcome must have shape (2,), got (3,)"),
    (lambda: conditional_state(BELL, [[1, 0]]),
     "outcome must have shape (2,), got (1, 2)"),
], ids=["entangled-phi", "entangled-psi", "conditional-length", "conditional-row"])
def test_vectors_of_the_wrong_length_are_named_with_the_length_they_need(call, message):
    # numpy's broadcast and matmul messages once leaked here
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("n", [10.5, NAN, float("inf"), "10"])
def test_sample_outcomes_rejects_a_non_integral_count_naming_it(n):
    rho = decohere(premeasure(MeasurementModel((0, 1), (0.6, 0.8), 1.0)))
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        sample_outcomes(rho, n, 0)


@pytest.mark.parametrize("n", [0, -1, 2**63])
def test_sample_outcomes_rejects_a_count_out_of_range_naming_it(n):
    # 2**63 does not fit the C long that numpy's multinomial takes
    rho = decohere(premeasure(MeasurementModel((0, 1), (0.6, 0.8), 1.0)))
    with pytest.raises(ValueError, match=re.escape(f"n must be in [1, {2**63 - 1}], got {n}")):
        sample_outcomes(rho, n, 0)


def test_pointer_outcome_counts_of_the_wrong_size_name_counts_and_dims():
    with pytest.raises(ValueError, match=re.escape("counts has 3 entries, but dims (2, 2) need 4")):
        pointer_outcome_counts(np.array([1, 2, 3]), (2, 2))


def test_sample_outcomes_takes_an_integral_float_or_numpy_count_as_the_int():
    rho = decohere(premeasure(MeasurementModel((0, 1), (0.6, 0.8), 1.0)))
    want = sample_outcomes(rho, 10, 3)
    assert np.array_equal(sample_outcomes(rho, 10.0, 3), want)
    assert np.array_equal(sample_outcomes(rho, np.int64(10), 3), want)


@pytest.mark.parametrize("seed, message", [
    (NAN, "seed must be an integer, got nan"),
    (1.5, "seed must be an integer, got 1.5"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be >= 0, got -1"),
])
def test_sample_outcomes_rejects_a_bad_seed_naming_it(seed, message):
    rho = decohere(premeasure(MeasurementModel((0, 1), (0.6, 0.8), 1.0)))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        sample_outcomes(rho, 10, seed)


def test_sample_outcomes_keeps_the_counts_of_integer_seeds():
    rho = decohere(premeasure(MeasurementModel((0, 1), (0.6, 0.8), 1.0)))
    probs = np.clip(rho.diagonal(), 0.0, None)
    probs = probs / probs.sum()
    for seed in (0, 3, 2**40):
        want = np.random.default_rng(seed).multinomial(10, probs)
        for same in (seed, np.int64(seed), float(seed)):
            assert np.array_equal(sample_outcomes(rho, 10, same), want)
    assert sample_outcomes(rho, 10, None).sum() == 10


@pytest.mark.parametrize("call, message", [
    (lambda: entangled_pair([[1, 0], [0, 0]], [1, 0, 0, 0], E0, E1), "phi1 must have shape (n,), got (2, 2)"),
    (lambda: entangled_pair(E0, E1, E0, [[0, 1]]), "psi2 must have shape (n,), got (1, 2)"),
    (lambda: born_distribution([[0.6, 0.8]]), "amplitudes must have shape (n,), got (1, 2)"),
    (lambda: pointer_outcome_counts(np.array([1, 2, 3, 4]), (2,)), "dims must be a pair (d_a, d_b), got (2,)"),
    (lambda: pointer_outcome_counts(np.array([1, 2, 3, 4]), 4), "dims must be a pair (d_a, d_b), got 4"),
], ids=["entangled-matrix", "entangled-row", "born-row", "dims-one", "dims-int"])
def test_arguments_of_the_wrong_shape_are_named_with_the_shape_they_need(call, message):
    # np.outer once flattened a factor of any shape, born_distribution returned a 2-D array, and
    # dims leaked Python's unpacking messages
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: pointer_outcome_counts([1, 2, 3, 4], (2, 2)), "counts must be a numpy array, got list"),
    (lambda: pointer_outcome_counts(np.arange(4), (2.0, 2.0)), "dims must be positive integers, got (2.0, 2.0)"),
    (lambda: pointer_outcome_counts(np.arange(4), ("a", "b")), "dims must be positive integers, got ('a', 'b')"),
    (lambda: pointer_outcome_counts(np.arange(4), (-2, -2)), "dims must be positive integers, got (-2, -2)"),
    (lambda: born_distribution(["a", "b"]), "amplitudes must hold only real or complex numbers"),
    (lambda: born_distribution([None, 1.0]), "amplitudes must hold only real or complex numbers"),
    (lambda: born_distribution([[1.0], [0.0, 1.0]]), "amplitudes must hold only real or complex numbers"),
    (lambda: entangled_pair(["a", "b"], E1, E0, E1), "phi1 must hold only real or complex numbers"),
    (lambda: entangled_pair(E0, E1, E0, [None, 1.0]), "psi2 must hold only real or complex numbers"),
], ids=["counts-list", "dims-float", "dims-text", "dims-negative", "born-text", "born-none", "born-ragged",
        "entangled-text", "entangled-none"])
def test_counts_dims_and_vectors_that_are_not_numbers_raise_naming_them(call, message):
    # a list's missing reshape, Python's int and sequence messages, numpy's reshape and malformed-string
    # messages once leaked here, and None became nan
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda rho: sample_outcomes(rho, True, 0), "n must be an integer, got True"),
    (lambda rho: sample_outcomes(rho, 10, np.True_), "seed must be an integer, got np.True_"),
    (lambda rho: MeasurementModel((0,), ("1",), 1.0), "amplitudes must hold only real or complex numbers"),
    (lambda rho: MeasurementModel((0,), (1.0,), "1"), "apparatus_energy must be a real number, got '1'"),
    (lambda rho: decoherence_time("1"), "apparatus_energy must be a real number, got '1'"),
    (lambda rho: decoherence_time(1j), "apparatus_energy must be a real number, got 1j"),
], ids=["n-bool", "seed-bool", "model-text-amplitude", "model-text-energy", "time-text", "time-complex"])
def test_bools_text_and_complex_scalars_raise_naming_them(call, message):
    # a bool was taken as the count 1, and the comparisons with 0 leaked a TypeError
    rho = decohere(premeasure(MeasurementModel((0, 1), (0.6, 0.8), 1.0)))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(rho)
