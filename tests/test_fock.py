import itertools
import math
import struct
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fock_oracles import dense_operator, to_dense
from fockfield import fock
from fockfield.fock import (
    FockVector,
    ModeSpace,
    Statistics,
    annihilate,
    basis_state,
    create,
    inner,
    number_expectation,
    transformed_create,
    two_particle_symmetrized,
    vacuum,
)

BOSE2 = ModeSpace(2, Statistics.BOSE, nmax=4)
FERMI2 = ModeSpace(2, Statistics.FERMI)


def random_state(space, rng, safe=False):
    """Random normalized vector; safe=True keeps occupations <= nmax-1."""
    cap = space.occupation_cap - (1 if (safe and space.statistics is Statistics.BOSE) else 0)
    states = [occ for occ in space.basis_states() if max(occ) <= cap]
    amps = rng.normal(size=len(states)) + 1j * rng.normal(size=len(states))
    amps /= np.linalg.norm(amps)
    return FockVector(space, {occ: a for occ, a in zip(states, amps)})


def test_vacuum_is_unit_on_all_zero():
    v = vacuum(BOSE2)
    assert v.amplitude((0, 0)) == 1.0
    assert len(v.amplitudes) == 1
    assert v.norm == pytest.approx(1.0, abs=1e-15)
    assert number_expectation(v) == 0.0


def test_create_on_vacuum_gives_single_particle():
    v = create(vacuum(BOSE2), 0)
    assert v.amplitude((1, 0)) == pytest.approx(1.0)
    assert number_expectation(v, mode=0) == pytest.approx(1.0)
    assert number_expectation(v, mode=1) == 0.0


def test_bose_double_creation_sqrt2():
    v = create(create(vacuum(BOSE2), 0), 0)
    assert v.amplitude((2, 0)) == pytest.approx(np.sqrt(2))


def test_fermi_double_creation_is_null():
    v = create(create(vacuum(FERMI2), 0), 0)
    assert v.is_null


def test_fermi_jordan_wigner_sign():
    # creating in mode 1 on |1,0> passes over one occupied slot
    v = create(basis_state(FERMI2, (1, 0)), 1)
    assert v.amplitude((1, 1)) == pytest.approx(-1.0)
    # opposite order: no occupied slot below mode 0
    w = create(basis_state(FERMI2, (0, 1)), 0)
    assert w.amplitude((1, 1)) == pytest.approx(1.0)


def test_annihilate_vacuum_is_null_not_error():
    assert annihilate(vacuum(BOSE2), 0).is_null
    assert annihilate(vacuum(FERMI2), 1).is_null


def test_annihilate_inverts_single_creation():
    v = annihilate(create(vacuum(BOSE2), 1), 1)
    assert v.amplitude((0, 0)) == pytest.approx(1.0)


def test_bose_annihilate_two_quanta():
    two = basis_state(ModeSpace(1, Statistics.BOSE, nmax=4), (2,))
    v = annihilate(two, 0)
    assert v.amplitude((1,)) == pytest.approx(np.sqrt(2))


def test_invalid_mode_raises():
    with pytest.raises(ValueError):
        create(vacuum(BOSE2), 2)
    with pytest.raises(ValueError):
        annihilate(vacuum(BOSE2), -1)


def test_species_out_of_range_raises_naming_it():
    with pytest.raises(ValueError, match=r"^species 1 out of range \[0, 1\)$"):
        create(vacuum(BOSE2), 0, species=1)


def test_normalizing_the_null_element_raises():
    with pytest.raises(ValueError, match="^cannot normalize the null element$"):
        FockVector(BOSE2, {}).normalized()


@pytest.mark.parametrize("scalar", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0.0, math.inf)])
def test_scaling_by_a_non_finite_scalar_raises_naming_it(scalar):
    v = basis_state(BOSE2, (1, 0))
    with pytest.raises(ValueError, match="^scalar must be finite, got "):
        scalar * v


@pytest.mark.parametrize("scalar", ["1", None, True, False, np.True_, [2.0]])
def test_scaling_by_a_scalar_that_is_not_a_number_raises_type_error(scalar):
    # __rmul__ returns NotImplemented, so Python raises TypeError; a bool is not taken as 1 or 0
    v = basis_state(BOSE2, (1, 0))
    with pytest.raises(TypeError):
        scalar * v
    assert FockVector.__rmul__(v, scalar) is NotImplemented


@pytest.mark.parametrize("scalar", [2, 0.5, 1j, Fraction(1, 2), np.float32(0.5), np.int64(2), np.complex64(1j),
                                    np.float64(0.0)])
def test_scaling_by_a_number_scales_every_amplitude(scalar):
    v = basis_state(BOSE2, (1, 0)) + 1j * basis_state(BOSE2, (0, 2))
    want = {k: scalar * a for k, a in v.amplitudes.items() if scalar != 0}
    assert (scalar * v).amplitudes == want
    assert FockVector.__rmul__(v, scalar).amplitudes == want


@pytest.mark.parametrize("occupations, message", [
    ((1,), "occupation tuple has wrong length"),
    ((1, 0, 0), "occupation tuple has wrong length"),
    ((5, 0), r"occupations must lie in \[0, 4\]"),
    ((0, -1), r"occupations must lie in \[0, 4\]"),
])
def test_basis_state_rejects_a_wrong_length_and_occupations_above_the_cap(occupations, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        basis_state(BOSE2, occupations)


def test_null_element_distinct_from_vacuum():
    null = FockVector(BOSE2, {})
    assert null.is_null and len(null) == 0 and not null
    assert not vacuum(BOSE2).is_null and len(vacuum(BOSE2)) == 1 and vacuum(BOSE2)
    assert inner(null, vacuum(BOSE2)) == 0.0


@pytest.mark.parametrize("occupations", [(1.5, 0), (0, 0.5), (math.inf, 0), (0, -math.inf), (math.nan, 0)])
def test_basis_state_rejects_non_integral_occupations(occupations):
    # int() would truncate 1.5 to 1 and raise OverflowError on inf
    with pytest.raises(ValueError, match="occupations"):
        basis_state(BOSE2, occupations)


def test_basis_state_accepts_integral_floats_and_numpy_integers():
    for occupations in [(1.0, 2.0), (np.int64(1), np.int8(2)), np.array([1, 2]), np.array([1.0, 2.0])]:
        v = basis_state(BOSE2, occupations)
        assert exact_items(v) == exact_items(FockVector(BOSE2, {(1, 2): 1 + 0j}))
        assert all(type(n) is int for n in next(iter(v.amplitudes)))


@pytest.mark.parametrize("space", [BOSE2, FERMI2], ids=["bose", "fermi"])
def test_adjointness_random_vectors(space):
    # <u, A+ v> == <A u, v> checked against sparse random vectors
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = random_state(space, rng)
        v = random_state(space, rng)
        for mode in range(space.num_modes):
            lhs = inner(u, create(v, mode))
            rhs = inner(annihilate(u, mode), v)
            assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("space", [BOSE2, FERMI2], ids=["bose", "fermi"])
def test_commutation_relations_on_safe_subspace(space):
    # (A_a A+_b -/+ A+_b A_a) s = delta_ab s on occupations <= nmax-1
    sign = -1.0 if space.statistics is Statistics.BOSE else 1.0
    cap = space.occupation_cap - (1 if space.statistics is Statistics.BOSE else 0)
    for occ in space.basis_states():
        if max(occ) > cap:
            continue
        s = basis_state(space, occ)
        for a in range(space.num_modes):
            for b in range(space.num_modes):
                w = annihilate(create(s, b), a) + sign * create(annihilate(s, a), b)
                expect = s if a == b else FockVector(space, {})
                assert (w - expect).norm < 1e-12


@pytest.mark.parametrize("space", [BOSE2, FERMI2], ids=["bose", "fermi"])
def test_create_create_and_annihilate_annihilate_relations(space):
    # [A+,A+] and [A,A] (anti)commutators vanish on the safe subspace
    sign = -1.0 if space.statistics is Statistics.BOSE else 1.0
    for occ in space.basis_states():
        if space.statistics is Statistics.BOSE and max(occ) > space.nmax - 2:
            continue
        s = basis_state(space, occ)
        for a in range(space.num_modes):
            for b in range(space.num_modes):
                w1 = create(create(s, b), a) + sign * create(create(s, a), b)
                w2 = annihilate(annihilate(s, b), a) + sign * annihilate(annihilate(s, a), b)
                assert w1.norm < 1e-12
                assert w2.norm < 1e-12


def test_boson_number_minus_reversed_is_minus_one():
    # <A+A - AA+> = -1 on any normalized boson state off the truncation edge
    rng = np.random.default_rng(3)
    space = ModeSpace(2, Statistics.BOSE, nmax=5)
    for _ in range(10):
        v = random_state(space, rng, safe=True)
        val = inner(v, create(annihilate(v, 0), 0)) - inner(v, annihilate(create(v, 0), 0))
        assert val.real == pytest.approx(-1.0, abs=1e-12)
        assert abs(val.imag) < 1e-12


def test_sector_preservation():
    space = ModeSpace(3, Statistics.BOSE, nmax=4)
    v = create(create(vacuum(space), 0), 2)
    assert set(v.sector_weights()) == {2}
    assert number_expectation(v.normalized()) == pytest.approx(2.0)
    w = annihilate(v.normalized(), 2)
    assert set(w.sector_weights()) == {1}


def test_number_expectation_mixed_sectors():
    one = basis_state(ModeSpace(1, Statistics.BOSE, nmax=4), (1,))
    two = basis_state(ModeSpace(1, Statistics.BOSE, nmax=4), (2,))
    v = (1 / np.sqrt(2)) * (one + two)
    assert number_expectation(v) == pytest.approx(1.5)


def test_number_expectation_requires_normalized():
    v = 2.0 * vacuum(BOSE2)
    with pytest.raises(ValueError):
        number_expectation(v)


def test_net_number_particle_antiparticle_pair():
    space = ModeSpace(2, Statistics.BOSE, nmax=3, species_count=2)
    pair = create(create(vacuum(space), 0, species=0), 0, species=1)
    assert number_expectation(pair.normalized()) == pytest.approx(0.0)
    assert number_expectation(pair.normalized(), species=0) == pytest.approx(1.0)
    assert number_expectation(pair.normalized(), species=1) == pytest.approx(1.0)


def test_transformed_create_unit_vector_matches_create():
    v = transformed_create(vacuum(BOSE2), [0.0, 1.0])
    w = create(vacuum(BOSE2), 1)
    assert (v - w).norm < 1e-15


def test_transformed_create_superposition():
    c = 1 / np.sqrt(2)
    v = transformed_create(vacuum(BOSE2), [c, c])
    assert v.amplitude((1, 0)) == pytest.approx(c)
    assert v.amplitude((0, 1)) == pytest.approx(c)


def test_transformed_create_all_zero_coeffs_gives_null():
    assert transformed_create(vacuum(BOSE2), [0.0, 0.0]).is_null


def test_transformed_create_rejects_a_wrong_coefficient_count():
    with pytest.raises(ValueError, match=r"^expected 2 coefficients, got \(3,\)$"):
        transformed_create(vacuum(BOSE2), [1.0, 0.0, 0.0])


def test_transformed_create_unitary_preserves_commutator():
    # [B_b, B+_b] = 1 for columns of a random unitary, brute-force matrices
    rng = np.random.default_rng(11)
    space = ModeSpace(4, Statistics.BOSE, nmax=2)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    creates = [dense_operator(space, "create", m) for m in range(4)]
    for beta in range(4):
        bdag = sum(q[alpha, beta] * creates[alpha] for alpha in range(4))
        b = bdag.conj().T
        comm = b @ bdag - bdag @ b
        # compare on the safe subspace: states with all occupations <= nmax-1
        states = list(space.basis_states())
        safe = [i for i, occ in enumerate(states) if max(occ) <= space.nmax - 1]
        sub = comm[np.ix_(safe, safe)]
        assert np.max(np.abs(sub - np.eye(len(safe)))) < 1e-12


def test_two_particle_fermi_antisymmetry():
    e0, e1 = np.eye(2)
    v = two_particle_symmetrized(e0, e1, FERMI2)
    w = two_particle_symmetrized(e1, e0, FERMI2)
    assert v.amplitude((1, 1)) == pytest.approx(1.0)
    assert (v + w).norm < 1e-12


def test_two_particle_fermi_pauli_null():
    e0 = np.array([1.0, 0.0])
    assert two_particle_symmetrized(e0, e0, FERMI2).is_null
    # parallel up to phase is still excluded
    assert two_particle_symmetrized(e0, 1j * e0, FERMI2).is_null


def test_two_particle_requires_normalized_inputs():
    with pytest.raises(ValueError):
        two_particle_symmetrized([2.0, 0.0], [0.0, 1.0], BOSE2)


@pytest.mark.parametrize("xi, eta, name", [([1.0, 0.0, 0.0], [1.0, 0.0], "xi"), ([1.0, 0.0], [[1.0, 0.0]], "eta")])
def test_two_particle_rejects_a_wrong_shape_naming_it(xi, eta, name):
    with pytest.raises(ValueError, match=f"^{name} must have one coefficient per mode$"):
        two_particle_symmetrized(xi, eta, BOSE2)


def test_two_particle_bose_double_occupation():
    e0 = np.array([1.0, 0.0])
    v = two_particle_symmetrized(e0, e0, BOSE2)
    assert v.amplitude((2, 0)) == pytest.approx(1.0)


@pytest.mark.parametrize("space", [BOSE2, FERMI2], ids=["bose", "fermi"])
def test_two_particle_matches_symmetrized_tensor(space):
    # oracle: build xi (x) eta +/- eta (x) xi directly and map to occupations
    rng = np.random.default_rng(5)
    sign = 1.0 if space.statistics is Statistics.BOSE else -1.0
    for _ in range(10):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        eta = rng.normal(size=2) + 1j * rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        eta /= np.linalg.norm(eta)
        tensor = np.outer(xi, eta) + sign * np.outer(eta, xi)
        tnorm = np.linalg.norm(tensor)
        if tnorm < 1e-9:
            continue
        tensor /= tnorm
        v = two_particle_symmetrized(xi, eta, space)
        # occupation amplitudes: (1,1) <-> (e0 (x) e1 +/- e1 (x) e0)/sqrt(2), (2,0) <-> e0 (x) e0
        got_11 = v.amplitude((1, 1))
        want_11 = np.sqrt(2) * tensor[0, 1] if space.statistics is Statistics.BOSE else np.sqrt(2) * tensor[0, 1]
        assert got_11 == pytest.approx(want_11, abs=1e-10)
        if space.statistics is Statistics.BOSE:
            assert v.amplitude((2, 0)) == pytest.approx(tensor[0, 0], abs=1e-10)
            assert v.amplitude((0, 2)) == pytest.approx(tensor[1, 1], abs=1e-10)


def test_inner_orthogonal_basis():
    assert inner(vacuum(BOSE2), vacuum(BOSE2)) == pytest.approx(1.0)
    assert inner(basis_state(BOSE2, (1, 0)), basis_state(BOSE2, (0, 1))) == 0.0


def test_inner_mismatched_spaces():
    with pytest.raises(ValueError):
        inner(vacuum(BOSE2), vacuum(FERMI2))


def test_dense_operator_matches_sparse_application():
    space = ModeSpace(2, Statistics.FERMI)
    rng = np.random.default_rng(2)
    mat = dense_operator(space, "create", 1)
    v = random_state(space, rng)
    assert np.allclose(mat @ to_dense(v), to_dense(create(v, 1)))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=1),
)
def test_property_create_raises_sector_by_one(occ, mode):
    space = ModeSpace(2, Statistics.BOSE, nmax=4)
    s = basis_state(space, occ)
    image = create(s, mode)
    if not image.is_null:
        assert set(image.sector_weights()) == {sum(occ) + 1}


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 6 - 1))
def test_property_fermi_create_annihilate_adjoint(bits):
    space = ModeSpace(3, Statistics.FERMI, species_count=2)
    occ = tuple((bits >> i) & 1 for i in range(6))
    s = basis_state(space, occ)
    for mode in range(3):
        for sp in range(2):
            u = create(s, mode, sp)
            if u.is_null:
                continue
            back = annihilate(u, mode, sp)
            assert (back - s).norm < 1e-12


def test_ladder_factors_are_the_bits_of_np_sqrt():
    space = ModeSpace(1, Statistics.BOSE, nmax=10 ** 6)
    for n in (1, 2, 3, 127, 128, 999_999):
        up = create(basis_state(space, (n - 1,)), 0).amplitude((n,))
        down = annihilate(basis_state(space, (n,)), 0).amplitude((n - 1,))
        assert struct.pack("<d", up.real) == struct.pack("<d", down.real) == struct.pack("<d", np.sqrt(n))


# -- array kernels against the dict loops ------------------------------------


@contextmanager
def dict_path():
    """Run transformed_create and number_expectation on their dict loops."""
    saved = fock.ARRAY_CUTOFF
    fock.ARRAY_CUTOFF = math.inf
    try:
        yield
    finally:
        fock.ARRAY_CUTOFF = saved


def exact_items(v):
    """Keys in order, amplitude types and amplitude bits (signed zeros included)."""
    return [(k, type(a), struct.pack("<dd", a.real, a.imag)) for k, a in v.amplitudes.items()]


def loop_transformed_create(v, coeffs, species=0):
    with dict_path():
        return transformed_create(v, coeffs, species)


def kernel_transformed_create(v, coeffs, species=0):
    coeffs = np.asarray(coeffs, dtype=complex)
    modes = [m for m, c in enumerate(coeffs) if c != 0.0]
    return fock._transformed_create_kernel(v, coeffs, modes, v.mode_space.slot(0, species))


# Few distinct values, so that sums cancel exactly; 1e-200 makes products
# underflow to zero; -0.0 exercises the signed-zero arithmetic.
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e-200, 0.3])
SMALL_COMPLEX = st.builds(complex, PARTS, PARTS)


@st.composite
def kernel_cases(draw):
    stats = draw(st.sampled_from([Statistics.BOSE, Statistics.FERMI]))
    species_count = draw(st.sampled_from([1, 2]))
    num_modes = draw(st.integers(1, 3))
    # keep the dense oracle at most 256-dimensional
    nmax = draw(st.integers(1, max(n for n in (1, 2, 3) if (n + 1) ** (num_modes * species_count) <= 256)))
    space = ModeSpace(num_modes, stats, nmax=nmax, species_count=species_count)
    states = list(space.basis_states())
    keys = draw(st.lists(st.sampled_from(states), min_size=1, max_size=12, unique=True))
    numpy_amplitudes = draw(st.booleans())
    amps = {}
    for key in keys:
        a = draw(SMALL_COMPLEX)
        amps[key] = np.complex128(a) if numpy_amplitudes else a
    coeffs = draw(st.lists(SMALL_COMPLEX, min_size=space.num_modes, max_size=space.num_modes))
    species = draw(st.integers(0, species_count - 1))
    return FockVector(space, amps), coeffs, species


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_property_transformed_create_kernel_equals_dict_loop_bitwise(case):
    v, coeffs, species = case
    got = kernel_transformed_create(v, coeffs, species)
    want = loop_transformed_create(v, coeffs, species)
    if not all(type(a) is complex for a in v.amplitudes.values()):
        assert got is None  # np.complex128 amplitudes stay on the loop
        got = transformed_create(v, coeffs, species)
    assert v._rows is None and v._values is None and v._weights is None
    ops = [dense_operator(v.mode_space, "create", m, species) for m in range(v.mode_space.num_modes)]
    assert exact_items(got) == exact_items(want)
    dense = sum((c * op for c, op in zip(coeffs, ops)), np.zeros_like(ops[0])) @ to_dense(v)
    assert np.allclose(to_dense(got), dense, rtol=0.0, atol=1e-12)


def test_kernel_reinserts_a_key_whose_partial_sum_cancels():
    # (1,1,1) gets +1 from mode 0, -1 from mode 1 (the sum is exactly zero,
    # so the loop drops the key) and +1 from mode 2, which inserts it again
    space = ModeSpace(3, Statistics.BOSE, nmax=3)
    v = FockVector(space, {(0, 1, 1): 1 + 0j, (1, 0, 1): -1 + 0j, (1, 1, 0): 1 + 0j, (2, 0, 0): 0.5 + 0j})
    got = kernel_transformed_create(v, [1, 1, 1])
    assert exact_items(got) == exact_items(loop_transformed_create(v, [1, 1, 1]))
    assert list(got.amplitudes)[-1] == (1, 1, 1)


def test_kernel_leaves_non_finite_amplitudes_to_the_loop():
    space = ModeSpace(2, Statistics.BOSE, nmax=3)
    v = FockVector(space, {(0, 0): complex(math.inf, 0.0), (1, 0): 1 + 0j})
    assert kernel_transformed_create(v, [1, 1]) is None
    assert kernel_transformed_create(FockVector(space, {(0, 0): 1 + 0j, (1, 0): np.complex128(1)}), [1, 1]) is None


@pytest.mark.parametrize("components, nonzero, kernel_runs", [(85, 3, False), (64, 4, True)])
def test_transformed_create_cutoff_edges(monkeypatch, components, nonzero, kernel_runs):
    # work = components x nonzero coefficients: 255 stays on the loop, 256 does not
    assert (components * nonzero >= fock.ARRAY_CUTOFF) is kernel_runs
    space = ModeSpace(4, Statistics.BOSE, nmax=3)
    rng = np.random.default_rng(components)
    keys = list(space.basis_states())[:components]
    v = FockVector(space, {k: complex(a) for k, a in zip(keys, rng.normal(size=components) + 1j * rng.normal(size=components))})
    coeffs = np.zeros(4, dtype=complex)
    coeffs[:nonzero] = rng.normal(size=nonzero) + 1j * rng.normal(size=nonzero)
    calls = []
    kernel = fock._transformed_create_kernel
    monkeypatch.setattr(fock, "_transformed_create_kernel", lambda *a: calls.append(a) or kernel(*a))
    got = transformed_create(v, coeffs)
    assert bool(calls) is kernel_runs
    assert exact_items(got) == exact_items(loop_transformed_create(v, coeffs))


def test_kernel_occupations_above_int8_do_not_wrap():
    # nmax 300: occupations up to 300 need int16 rows; the state sits at the cap
    space = ModeSpace(2, Statistics.BOSE, nmax=300)
    rng = np.random.default_rng(8)
    v = FockVector(space, {(k, 300 - k): complex(rng.normal(), rng.normal()) for k in range(301)})
    coeffs = [0.6 + 0.1j, -0.3 + 0.7j]
    got = transformed_create(v, coeffs)
    assert got._rows is not None and got._rows.dtype == np.int16
    assert exact_items(got) == exact_items(loop_transformed_create(v, coeffs))
    assert max(max(k) for k in got.amplitudes) == 300
    w = array_born(got.normalized())
    for mode in range(2):
        with dict_path():
            want = number_expectation(w, mode)
        assert number_expectation(w, mode) == pytest.approx(want, rel=1e-13)
    assert w._rows.dtype == np.int16 and w._weights is not None  # the kernel ran


# amplitudes near the largest double: products overflow to inf and inf - inf
# gives nan, which the loop's Python complex does silently
OVERFLOW_AMPLITUDES = {
    "uniform": lambda rng, size: np.full((size, 2), [1.7e308, 1.0]),
    "mixed": lambda rng, size: rng.choice([1.7e308, -1.7e308, 1e308, -1e308, 1.0, -0.0, 0.0], size=(size, 2)),
}


@pytest.mark.parametrize("coeffs", [[1.5, 0, 0, 0], [1.5 + 1.5j, 2, 0, 0], [1.5 - 0.5j, -2, 1, 0]],
                         ids=["one-mode", "two-modes", "three-modes"])
@pytest.mark.parametrize("numpy_amplitudes", [False, True], ids=["complex", "complex128"])
@pytest.mark.parametrize("pattern", OVERFLOW_AMPLITUDES)
def test_kernel_overflow_is_silent_and_equals_the_loop(pattern, numpy_amplitudes, coeffs):
    space = ModeSpace(4, Statistics.BOSE, nmax=3)
    keys = list(space.basis_states())
    parts = OVERFLOW_AMPLITUDES[pattern](np.random.default_rng(6), len(keys))
    kind = np.complex128 if numpy_amplitudes else complex
    v = FockVector(space, {k: kind(complex(re, im)) for k, (re, im) in zip(keys, parts.tolist())})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel_transformed_create(v, coeffs)
    with np.errstate(over="ignore", invalid="ignore"):  # np.complex128 products warn
        want = loop_transformed_create(v, coeffs)
        if numpy_amplitudes:
            assert got is None  # np.complex128 amplitudes stay on the loop
            got = transformed_create(v, coeffs)
    assert got is not None
    assert exact_items(got) == exact_items(want)
    assert not all(np.isfinite(a) for a in want.amplitudes.values())


BASIS_OF_256 = list(ModeSpace(4, Statistics.BOSE, nmax=3).basis_states())
HAND_BUILT_KEYS = {  # ARRAY_CUTOFF keys each, none of which a kernel may read as an occupation matrix
    "every-key-long": (4, 3, [k + (0,) for k in BASIS_OF_256]),
    "one-key-short": (4, 3, BASIS_OF_256[:255] + [(0, 0, 0)]),
    "negative": (4, 3, BASIS_OF_256[:255] + [(0, -1, 0, 0)]),
    "above-cap": (4, 3, BASIS_OF_256[:255] + [(0, 4, 0, 0)]),
    "non-integer": (4, 3, BASIS_OF_256[:255] + [(0, 1.5, 0, 0)]),  # a cast to int8 reads 1
    "cap-beyond-int64": (1, 2**63, [(n,) for n in range(256)]),
}


@pytest.mark.parametrize("case", HAND_BUILT_KEYS)
def test_hand_built_keys_run_on_the_dict_loops(case):
    modes, nmax, keys = HAND_BUILT_KEYS[case]
    v = FockVector(ModeSpace(modes, Statistics.BOSE, nmax=nmax), {k: complex(1 / 16) for k in keys})
    assert len(v.amplitudes) == fock.ARRAY_CUTOFF
    coeffs = [0.5, -1j, 0.25, 0.0][:modes]  # no loop reads a slot past the short key
    assert exact_items(transformed_create(v, coeffs)) == exact_items(loop_transformed_create(v, coeffs))
    for mode in range(min(modes, 3)):
        with dict_path():
            want = number_expectation(v, mode)
        assert number_expectation(v, mode) == want
    assert v._rows is None


@pytest.mark.parametrize("statistics", [Statistics.BOSE, Statistics.FERMI], ids=["bose", "fermi"])
def test_large_number_expectation_matches_dict_loop(statistics):
    # particles in both species; every mode, each species and the net total
    space = ModeSpace(8, statistics, nmax=2, species_count=2)
    rng = np.random.default_rng(4)
    v = vacuum(space)
    for species in (0, 1, 0, 1):
        v = transformed_create(v, rng.normal(size=8) + 1j * rng.normal(size=8), species)
    v = array_born(v.normalized())
    assert len(v.amplitudes) >= fock.ARRAY_CUTOFF
    queries = [dict(mode=m, species=s) for m in range(8) for s in (0, 1)]
    queries += [dict(species=0), dict(species=1), {}]
    for query in queries:
        got = number_expectation(v, **query)
        with dict_path():
            want = number_expectation(v, **query)
        assert abs(got - want) <= 1e-13 * abs(want), query
    assert abs(number_expectation(v)) <= 1e-13
    assert v._weights is not None  # the kernel ran


@pytest.mark.parametrize("statistics, modes, nmax, components", [
    (Statistics.FERMI, 24, 1, 10626),
    (Statistics.BOSE, 32, 4, 52360),
], ids=["fermi", "bose"])
def test_benchmark_size_kernel_builds_equal_the_dict_loop(statistics, modes, nmax, components):
    # the four-orbital builds of the fock_states benchmark, step by step
    space = ModeSpace(modes, statistics, nmax=nmax)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(modes, 4)) + 1j * rng.normal(size=(modes, 4)))
    v = vacuum(space)
    for orbital in q.T:
        got = transformed_create(v, orbital)
        assert exact_items(got) == exact_items(loop_transformed_create(v, orbital))
        v = got
    assert len(v.amplitudes) == components


@pytest.mark.parametrize("space, species", [
    (ModeSpace(24, Statistics.BOSE, nmax=7), 0),  # 3 bits per slot, 21 slots per word
    (ModeSpace(33, Statistics.FERMI, species_count=2), 1),  # 1 bit per slot, 64 slots per word
], ids=["bose", "fermi"])
@pytest.mark.parametrize("seed", range(4))
def test_kernel_equals_dict_loop_on_keys_of_several_words(space, species, seed):
    # Each base row gives the keys base + e_x + e_y, x < y in four empty
    # slots of the raised species, so base + e_a + e_b + e_c takes three
    # contributions of size 1 or 2: sums cancel exactly and keys come back.
    assert 64 // space.occupation_cap.bit_length() < space.num_slots
    rng = np.random.default_rng(seed)
    lo = space.slot(0, species)
    amps = {}
    for base in rng.integers(0, 2, size=(40, space.num_slots)):
        base[rng.integers(space.num_slots)] = space.occupation_cap  # a slot the loop cannot raise
        empty = [slot for slot in range(lo, lo + space.num_modes) if base[slot] == 0]
        for x, y in itertools.combinations(rng.choice(empty, 4, replace=False), 2):
            key = base.copy()
            key[[x, y]] += 1
            amps[tuple(key.tolist())] = complex(*rng.choice([-2, -1, 0, 1, 2], 2))
    v = FockVector(space, amps)
    coeffs = rng.choice([-1, 1, 2], space.num_modes).astype(complex)
    got = kernel_transformed_create(v, coeffs, species)
    assert exact_items(got) == exact_items(loop_transformed_create(v, coeffs, species))
    # keys in the order of their first contribution: some cancel and stay
    # out, and some cancel and come back later in the order
    first = {}
    for mode in range(space.num_modes):
        for key in v.amplitudes:
            if key[lo + mode] < space.occupation_cap:
                first.setdefault(key[:lo + mode] + (key[lo + mode] + 1,) + key[lo + mode + 1:])
    kept = [key for key in first if key in got.amplitudes]
    assert len(kept) < len(first)
    assert kept != list(got.amplitudes)


# -- ladder operators on array-born states -------------------------------------


def array_born(v):
    """v's components stored as a kernel stores them: occupation rows and complex values."""
    space = v.mode_space
    rows = np.array(list(v.amplitudes), dtype=fock._occupation_dtype(space.occupation_cap))
    values = np.array(list(v.amplitudes.values()), dtype=complex)
    return fock._array_state(space, rows.reshape(len(values), space.num_slots), values)


def loop_ladder(kind, v, mode, species=0):
    with dict_path(), np.errstate(over="ignore"):  # np.complex128 products warn on overflow
        return getattr(fock, kind)(v, mode, species)


# Every basis state of each space (256 of them), so every slot reaches its cap.
LADDER_SPACES = {
    "bose": ModeSpace(4, Statistics.BOSE, nmax=3),
    "bose-2-species": ModeSpace(2, Statistics.BOSE, nmax=3, species_count=2),
    "fermi": ModeSpace(8, Statistics.FERMI),
    "fermi-2-species": ModeSpace(4, Statistics.FERMI, species_count=2),
}
# Signed zeros, amplitudes of exact zero (dropped), 1e-200 and parts that
# overflow when scaled by sqrt(n + 1).
LADDER_PARTS = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-200, 1.7e308, -1.7e308]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("numpy_amplitudes", [False, True], ids=["complex", "complex128"])
@pytest.mark.parametrize("name", LADDER_SPACES)
def test_array_born_ladder_equals_dict_loop_bitwise(name, numpy_amplitudes, seed):
    space = LADDER_SPACES[name]
    states = list(space.basis_states())
    assert len(states) == fock.ARRAY_CUTOFF
    rng = np.random.default_rng(seed)
    parts = rng.choice(LADDER_PARTS, size=(len(states), 2), p=[0.2, 0.2] + [0.6 / 7] * 7)
    kind = np.complex128 if numpy_amplitudes else complex
    v = FockVector(space, {k: kind(complex(re, im)) for k, (re, im) in zip(states, parts.tolist())})
    # only a dict-born state holds np.complex128 amplitudes, and its ladder steps stay on the loop
    a = v if numpy_amplitudes else array_born(v)
    for species in range(space.species_count):
        for mode in range(space.num_modes):
            for op in ("create", "annihilate"):
                with np.errstate(over="ignore"):  # np.complex128 products warn on overflow
                    got = getattr(fock, op)(a, mode, species)
                if numpy_amplitudes:
                    assert got._rows is None and got._values is None
                else:
                    assert got._values is not None and "amplitudes" not in vars(got)
                assert exact_items(got) == exact_items(loop_ladder(op, v, mode, species))
    if numpy_amplitudes:
        assert a._rows is None and a._values is None
    else:
        assert "amplitudes" not in vars(a)


@pytest.mark.parametrize("part", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("kind", ["create", "annihilate"])
def test_array_born_ladder_leaves_non_finite_amplitudes_to_the_loop(kind, part):
    # complex(inf, 1) * 2.0 has an imaginary part of inf * 0.0 + 2.0 = nan, which
    # scaling each part alone would miss
    space = LADDER_SPACES["bose"]
    v = FockVector(space, {k: complex(1 + i % 3, -1) for i, k in enumerate(space.basis_states())})
    v.amplitudes[(1, 1, 1, 1)] = complex(part, 1.0)
    got = getattr(fock, kind)(array_born(v), 0)
    assert got._values is None
    assert exact_items(got) == exact_items(loop_ladder(kind, v, 0))


def test_array_born_ladder_to_the_null_element():
    # slot 0 is filled in all 256 states, so no fermion can be created there
    space = ModeSpace(9, Statistics.FERMI)
    v = FockVector(space, {k: 1 / 16 + 0j for k in space.basis_states() if k[0] == 1})
    got = create(array_born(v), 0)
    assert got._values is not None and got.is_null and got.norm == 0.0
    assert got == loop_ladder("create", v, 0) == FockVector(space, {})


def test_len_of_an_array_born_state_builds_no_dict():
    space = LADDER_SPACES["bose"]
    a = array_born(FockVector(space, {k: 1.0 + 0j for k in space.basis_states()}))
    assert len(a) == fock.ARRAY_CUTOFF and a and not a.is_null
    assert "amplitudes" not in vars(a)


def test_a_numpy_scalar_times_a_state_hands_rmul_a_python_complex(monkeypatch):
    # np.complex128 * v finds no __getitem__ beside __len__, so numpy treats v as one
    # object, not a sequence, and hands __rmul__ the scalar as a Python complex
    seen = []
    rmul = FockVector.__rmul__
    monkeypatch.setattr(FockVector, "__rmul__", lambda v, scalar: seen.append(type(scalar)) or rmul(v, scalar))
    got = np.complex128(2j) * vacuum(BOSE2)
    assert seen == [complex]
    assert got == FockVector(BOSE2, {(0, 0): 2j})


def ladder_rows_items(kept, rows, values):
    """{input row: (occupations, amplitude bits)} of a _ladder_rows result,
    without the exact zeros that the loop drops."""
    return {i: (tuple(row), struct.pack("<dd", z.real, z.imag))
            for i, row, z in zip(kept.tolist(), rows.tolist(), values.tolist()) if z != 0}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", LADDER_SPACES)
def test_ladder_rows_with_a_slot_per_row_equal_the_dict_loop_bitwise(name, seed):
    # every basis state, so each slot is met at 0 and at its cap, each row
    # stepped in its own slot of either species
    space = LADDER_SPACES[name]
    states = list(space.basis_states())
    rows = np.array(states, dtype=fock._occupation_dtype(space.occupation_cap))
    rng = np.random.default_rng(seed)
    parts = rng.choice(LADDER_PARTS, size=(len(states), 2), p=[0.2, 0.2] + [0.6 / 7] * 7)
    values = np.empty(len(states), complex)
    values.real, values.imag = parts.T  # signed zeros kept
    slots = rng.integers(space.num_slots, size=len(states))
    assert {0, space.occupation_cap} <= set(rows[np.arange(len(rows)), slots].tolist())
    for step, kind in ((1, "create"), (-1, "annihilate")):
        got = ladder_rows_items(*fock._ladder_rows(space, rows, values, slots, step))
        want = {}
        for i, (occ, amp, slot) in enumerate(zip(states, values.tolist(), slots.tolist())):
            species, mode = divmod(slot, space.num_modes)
            for key, a in loop_ladder(kind, FockVector(space, {occ: amp}), mode, species).amplitudes.items():
                want[i] = (key, struct.pack("<dd", a.real, a.imag))
        assert got == want, (kind, seed)
    assert np.array_equal(rows, states)  # the input rows are left as they were


@pytest.mark.parametrize("name", ["bose-2-species", "fermi-2-species"])
def test_ladder_rows_with_one_slot_repeated_equal_the_column_step(name):
    space = LADDER_SPACES[name]
    rows = np.array(list(space.basis_states()), dtype=np.int8)
    rng = np.random.default_rng(5)
    values = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    for slot in range(space.num_slots):
        for step in (1, -1):
            kept, got_rows, got = fock._ladder_rows(space, rows, values, np.full(len(rows), slot), step)
            want_kept, want_rows, want = fock._ladder_rows(space, rows, values, slot, step)
            assert np.array_equal(kept, want_kept)
            assert got_rows.dtype == want_rows.dtype and np.array_equal(got_rows, want_rows)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(0.0, -math.inf)])
def test_transformed_create_rejects_non_finite_coefficients_naming_them(bad):
    # a dict-born input (the loop's size) and an array-born one (the kernel's)
    space = LADDER_SPACES["bose"]
    dict_born = vacuum(space)
    keys = list(space.basis_states())
    arrays = array_born(FockVector(space, {k: complex(1 + i % 3, -1) for i, k in enumerate(keys)}))
    for v in (dict_born, arrays):
        with pytest.raises(ValueError, match=r"^coeffs must be finite, got \["):
            transformed_create(v, [bad, 1, 0, 0])
    with pytest.raises(ValueError, match="^coeffs must be finite"):
        transformed_create(vacuum(ModeSpace(3, Statistics.BOSE)), [math.nan, 1, 0])


@pytest.mark.parametrize("components, kernel_runs", [(255, False), (256, True)])
@pytest.mark.parametrize("kind", ["create", "annihilate"])
def test_array_born_ladder_cutoff_edges(monkeypatch, kind, components, kernel_runs):
    space = LADDER_SPACES["bose"]
    keys = list(space.basis_states())[:components]
    v = FockVector(space, {k: complex(1 + i % 5, i % 3 - 1) for i, k in enumerate(keys)})
    calls = []
    kernel = fock._ladder_kernel
    monkeypatch.setattr(fock, "_ladder_kernel", lambda *a: calls.append(a) or kernel(*a))
    got = getattr(fock, kind)(array_born(v), 1)
    assert bool(calls) is kernel_runs
    assert exact_items(got) == exact_items(loop_ladder(kind, v, 1))
    # a dict-born state of any size stays on the loop
    getattr(fock, kind)(v, 1)
    assert len(calls) == int(kernel_runs)


@pytest.mark.parametrize("statistics, nmax", [(Statistics.BOSE, 3), (Statistics.FERMI, 1)], ids=["bose", "fermi"])
@pytest.mark.parametrize("numpy_amplitudes", [False, True], ids=["complex", "complex128"])
def test_chains_of_array_born_operations_equal_the_dict_loops(statistics, nmax, numpy_amplitudes):
    # two particles per species (784 or 1,296 components); species 1's
    # Jordan-Wigner sign counts species 0's quanta
    space = ModeSpace(8, statistics, nmax=nmax, species_count=2)
    rng = np.random.default_rng(21)
    v = vacuum(space)
    if numpy_amplitudes:
        v = FockVector(space, {k: np.complex128(a) for k, a in v.amplitudes.items()})
    steps = [("transformed_create", rng.normal(size=8) + 1j * rng.normal(size=8), s) for s in (0, 1, 0, 1)]
    steps += [("create", 3, 1), ("annihilate", 3, 1), ("annihilate", 0, 0), ("create", 7, 0),
              ("create", 5, 1), ("annihilate", 2, 0), ("transformed_create", rng.normal(size=8), 1)]
    got = want = v
    on_arrays = 0
    for kind, arg, species in steps:
        stored_as_arrays = got._values is not None
        ladder_kernel_runs = kind != "transformed_create" and stored_as_arrays and len(got) >= fock.ARRAY_CUTOFF
        got = getattr(fock, kind)(got, arg, species)
        with dict_path():
            want = getattr(fock, kind)(want, arg, species)
        if ladder_kernel_runs:
            on_arrays += 1
            assert got._values is not None and "amplitudes" not in vars(got), kind
        if numpy_amplitudes:  # np.complex128 amplitudes never reach a kernel
            assert got._rows is None and got._values is None, kind
        assert struct.pack("<d", got.norm) == struct.pack("<d", want.norm), kind
        assert exact_items(got) == exact_items(want), kind
    assert on_arrays == 0 if numpy_amplitudes else on_arrays >= 3


@pytest.mark.parametrize("statistics, modes, nmax", [(Statistics.BOSE, 32, 4), (Statistics.FERMI, 24, 1)],
                         ids=["bose", "fermi"])
def test_benchmark_chain_never_builds_the_amplitude_dict(statistics, modes, nmax):
    # the fock_states benchmark's timed operations; a dict built here is a
    # dict walk back on the large-state path
    space = ModeSpace(modes, statistics, nmax=nmax)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(modes, 4)) + 1j * rng.normal(size=(modes, 4)))
    psi = vacuum(space)
    built = []
    for orbital in q.T:
        psi = transformed_create(psi, orbital)
        built.append(psi)
    densities = [number_expectation(psi, m) for m in range(modes)]
    built += [f(psi, m) for m in (0, modes - 1) for f in (create, annihilate)]
    assert "amplitudes" in vars(built[0])  # from the vacuum: `modes` units of work, on the loop
    for v in built[1:]:
        assert "amplitudes" not in vars(v)
    assert sum(densities) == pytest.approx(4.0, abs=1e-10)


# -- caches on FockVector ------------------------------------------------------


def cached_state():
    """A normalized kernel-built state with its norm, occupation rows and weights cached."""
    space = ModeSpace(8, Statistics.BOSE, nmax=4)
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4)))
    v = vacuum(space)
    for orbital in q.T:
        v = transformed_create(v, orbital)
    number_expectation(v, 0)
    assert v._norm is not None and v._rows is not None and v._weights is not None
    return v


def test_dict_born_state_carries_no_arrays_after_a_kernel_reads_it():
    # transformed_create's kernel reads the keys into local rows; number_expectation
    # and the ladder steps of a dict-born state run on the dict loops
    space = ModeSpace(4, Statistics.BOSE, nmax=3)
    rng = np.random.default_rng(13)
    keys = list(space.basis_states())
    assert len(keys) >= fock.ARRAY_CUTOFF
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    amps /= np.linalg.norm(amps)
    v = FockVector(space, {k: complex(a) for k, a in zip(keys, amps)})
    plain = FockVector(space, dict(v.amplitudes))
    with dict_path():
        want = number_expectation(plain, 1)
    assert struct.pack("<d", number_expectation(v, 1)) == struct.pack("<d", want)
    coeffs = [0.5, -1j, 0.25, 0.0]
    got = transformed_create(v, coeffs)
    assert got._values is not None
    assert exact_items(got) == exact_items(loop_transformed_create(plain, coeffs))
    assert v._rows is None and v._values is None and v._weights is None
    assert v == plain and plain == v
    assert repr(v) == repr(plain)
    for mode in range(space.num_modes):
        for kind in ("create", "annihilate"):
            got = getattr(fock, kind)(v, mode)
            assert got._values is None
            assert exact_items(got) == exact_items(loop_ladder(kind, plain, mode))
    assert v._rows is None and v._values is None and v._weights is None


@pytest.mark.parametrize("components, kernel_runs", [(255, False), (256, True)])
def test_number_expectation_cutoff_edges(components, kernel_runs):
    # the kernel runs on an array-born state of at least ARRAY_CUTOFF components
    # only; every mode, each species and the net total
    space = LADDER_SPACES["bose-2-species"]
    keys = list(space.basis_states())[:components]
    amps = np.array([complex(1 + i % 5, i % 3 - 1) for i in range(components)])
    v = FockVector(space, dict(zip(keys, (amps / np.linalg.norm(amps)).tolist())))
    a = array_born(v)
    queries = [dict(mode=m, species=s) for m in range(2) for s in (0, 1)] + [dict(species=0), dict(species=1), {}]
    for query in queries:
        with dict_path():
            want = number_expectation(v, **query)
        assert number_expectation(a, **query) == pytest.approx(want, rel=1e-13, abs=1e-13), query
        assert number_expectation(v, **query) == want, query
    assert (a._weights is not None) is kernel_runs
    assert ("amplitudes" in vars(a)) is not kernel_runs
    assert v._rows is None and v._values is None and v._weights is None


def test_equality_and_repr_ignore_the_caches():
    v = cached_state()
    plain = FockVector(v.mode_space, dict(v.amplitudes))
    assert v == plain and plain == v
    assert repr(v) == repr(plain)
    assert v != FockVector(v.mode_space, dict(create(v, 0).amplitudes))


def test_cached_norm_is_bit_equal_to_the_sum():
    v = cached_state()
    want = float(np.sqrt(sum(abs(a) ** 2 for a in v.amplitudes.values())))
    assert struct.pack("<d", v.norm) == struct.pack("<d", want)
    assert struct.pack("<d", v.norm) == struct.pack("<d", FockVector(v.mode_space, dict(v.amplitudes)).norm)


def test_derived_vectors_do_not_inherit_caches():
    v = cached_state()
    derived = [v.normalized(), v + v, 2.0 * v, v - v.normalized(), create(v, 0), annihilate(v, 1)]
    for w in derived:
        assert w._norm is None and w._weights is None
        assert w.norm == float(np.sqrt(sum(abs(a) ** 2 for a in w.amplitudes.values())))
    # the kernel-built create and annihilate store their rows as their form
    assert all(w._rows is None for w in derived[:4])
    u = array_born(derived[0])
    for mode in range(8):
        with dict_path():
            want = number_expectation(u, mode)
        assert number_expectation(u, mode) == pytest.approx(want, rel=1e-13)
    assert u._weights is not None  # the kernel ran


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: number_expectation(FockVector(BOSE2, {(1, 0): complex(NAN)})), "state must be normalized (norm = nan)"),
    (lambda: number_expectation(FockVector(BOSE2, {(1, 0): complex(NAN, 1.0)}), 0), "state must be normalized"),
    (lambda: two_particle_symmetrized([NAN, 0.0], [1.0, 0.0], BOSE2), "xi must be normalized"),
    (lambda: two_particle_symmetrized([1.0, 0.0], [0.0, NAN], FERMI2), "eta must be normalized"),
], ids=["total", "one-mode", "xi", "eta"])
def test_nan_fails_the_normalization_checks(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message)


@pytest.mark.parametrize("kwargs, name", [
    (dict(num_modes=2.5), "num_modes"),
    (dict(num_modes=NAN), "num_modes"),
    (dict(num_modes="2"), "num_modes"),
    (dict(nmax=1.5), "nmax"),
    (dict(nmax=float("inf")), "nmax"),
    (dict(species_count=1.5), "species_count"),
])
def test_mode_space_rejects_non_integral_sizes_naming_them(kwargs, name):
    args = dict(num_modes=2, statistics=Statistics.BOSE) | kwargs
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        ModeSpace(**args)


@pytest.mark.parametrize("kwargs, message", [
    (dict(num_modes=0), "num_modes must be positive"),
    (dict(nmax=0), "nmax must be positive"),
    (dict(species_count=0), "species_count must be 1 or 2"),
    (dict(species_count=3), "species_count must be 1 or 2"),
])
def test_mode_space_rejects_sizes_out_of_range(kwargs, message):
    args = dict(num_modes=2, statistics=Statistics.BOSE) | kwargs
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModeSpace(**args)


def test_mode_space_takes_integral_floats_and_numpy_integers_as_ints():
    space = ModeSpace(2.0, Statistics.BOSE, nmax=np.int64(2), species_count=np.float64(1.0))
    assert space == ModeSpace(2, Statistics.BOSE, nmax=2)
    assert all(type(n) is int for n in (space.num_modes, space.nmax, space.species_count))
    assert vacuum(space).amplitudes == {(0, 0): 1.0}
    assert len(list(space.basis_states())) == 9


SPACE_2_SPECIES = ModeSpace(3, Statistics.BOSE, nmax=3, species_count=2)
ONE_BOSON = basis_state(SPACE_2_SPECIES, (1, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("call, name", [
    (lambda: create(ONE_BOSON, 1.0), "mode"),
    (lambda: annihilate(ONE_BOSON, 0.0), "mode"),
    (lambda: create(ONE_BOSON, 0, species=0.0), "species"),
    (lambda: annihilate(ONE_BOSON, None), "mode"),
    (lambda: create(ONE_BOSON, "1"), "mode"),
    (lambda: transformed_create(ONE_BOSON, [1.0, 0.5, 0.0], species=0.0), "species"),
    (lambda: transformed_create(ONE_BOSON, [0.0, 0.0, 0.0], species=1.0), "species"),
    (lambda: number_expectation(ONE_BOSON, 0.5), "mode"),
    (lambda: number_expectation(ONE_BOSON, species=np.float64(1.0)), "species"),
    (lambda: SPACE_2_SPECIES.slot(np.float64(2.0), 1.5), "mode"),
], ids=["create", "annihilate", "create-species", "none", "string", "transformed-create-species",
        "transformed-create-null", "number-expectation", "number-expectation-species", "slot"])
def test_non_integral_mode_and_species_raise_value_errors_naming_them(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("occupations", [(None, 0, 0, 0, 0, 0), ("1", 0, 0, 0, 0, 0), (0.5, 0, 0, 0, 0, 0)])
def test_basis_state_rejects_non_integral_occupations_naming_them(occupations):
    with pytest.raises(ValueError, match="^occupations must be integers, got "):
        basis_state(SPACE_2_SPECIES, occupations)


def test_numpy_integers_and_bools_index_modes_and_species_as_ints():
    want = create(ONE_BOSON, 1, 1)
    for mode, species in [(np.int64(1), np.int8(1)), (True, True), (np.uint16(1), 1)]:
        assert exact_items(create(ONE_BOSON, mode, species)) == exact_items(want)
        assert SPACE_2_SPECIES.slot(mode, species) == 4
        assert type(SPACE_2_SPECIES.slot(mode, species)) is int
    assert exact_items(annihilate(ONE_BOSON, np.int32(0))) == exact_items(annihilate(ONE_BOSON, 0))
    assert number_expectation(ONE_BOSON, np.int64(0), False) == number_expectation(ONE_BOSON, 0, 0) == 1.0


def test_a_norm_past_the_float_range_is_inf_and_cannot_be_normalized():
    # the sum over Python floats once raised OverflowError (34, 'Numerical result out of range')
    space = ModeSpace(2, Statistics.BOSE, nmax=2)
    for v in (FockVector(space, {(1, 0): 1e200}), transformed_create(vacuum(space), [1e200, 0]),
              FockVector(space, {(0, 1): complex(1e308, 1e308)})):
        assert v.norm == math.inf
        with pytest.raises(ValueError, match=r"^cannot normalize a state of norm inf$"):
            v.normalized()
