import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockfield import field
from fockfield.field import (
    Dispersion,
    GeneralStateSpec,
    LatticeSpec,
    MomentumAmplitude,
    WaveAmplitude,
    coherent_state,
    commutator_sweep,
    default_spacelike_grid,
    field_expectation,
    from_momentum,
    from_momentum_values,
    identity_resolution_residual,
    number_density,
    overlap,
    pauli_jordan,
    prepare_general,
    prepare_one_particle,
    site_mode_space,
    to_momentum,
)
from fockfield.fock import (
    ModeSpace,
    Statistics,
    annihilate,
    create,
    number_expectation,
    vacuum,
)
from fockfield.wick import evaluate, parse, vacuum_expectation

LAT8 = LatticeSpec(8, 1.0, 1.0)


def brute_force_transform(f: WaveAmplitude) -> np.ndarray:
    """Oracle: the O(M^2) sum g(p) = sum_x f(x) <phi_p, phi_x>."""
    M = f.lattice.num_sites
    return np.array([
        sum(f.values[j] * overlap(f.lattice, j, k) for j in range(M))
        for k in range(M)
    ])


def gaussian_profile(lattice, x0, sigma, p0=0.0):
    x = lattice.positions
    f = np.exp(-((x - x0) ** 2) / (4 * sigma**2) + 1j * p0 * x)
    return WaveAmplitude(f / np.linalg.norm(f), lattice)


def test_overlap_at_origin_site():
    lat = LatticeSpec(4, 1.0, 1.0)
    j0 = 2  # x=0 site
    assert lat.positions[j0] == 0.0
    for k in range(4):
        assert overlap(lat, j0, k) == pytest.approx(0.5)


def test_overlap_is_unimodular_kernel():
    for j in range(8):
        for k in range(8):
            assert abs(overlap(LAT8, j, k)) == pytest.approx(1 / np.sqrt(8))


def test_overlap_completeness_sum():
    # sum_p <phi_p,phi_x>* <phi_p,phi_x'> = delta_xx', brute force at M=8
    for j in range(8):
        for j2 in range(8):
            s = sum(
                np.conj(overlap(LAT8, j, k)) * overlap(LAT8, j2, k)
                for k in range(8)
            )
            assert s == pytest.approx(1.0 if j == j2 else 0.0, abs=1e-12)


def test_overlap_index_range():
    with pytest.raises(ValueError):
        overlap(LAT8, 8, 0)
    with pytest.raises(ValueError):
        overlap(LAT8, 0, -1)


def test_to_momentum_matches_brute_force():
    rng = np.random.default_rng(0)
    f = WaveAmplitude(rng.normal(size=8) + 1j * rng.normal(size=8), LAT8)
    g = to_momentum(f)
    assert np.allclose(g.values, brute_force_transform(f), atol=1e-12)


def test_transform_roundtrip_and_parseval():
    rng = np.random.default_rng(1)
    lat = LatticeSpec(64, 0.5, 1.0)
    f = WaveAmplitude(rng.normal(size=64) + 1j * rng.normal(size=64), lat)
    g = to_momentum(f)
    back = from_momentum(g)
    assert np.max(np.abs(back.values - f.values)) < 1e-12
    assert g.norm == pytest.approx(f.norm, abs=1e-12)


def test_from_momentum_values_transforms_each_row_like_from_momentum():
    rng = np.random.default_rng(2)
    lat = LatticeSpec(64, 0.5, 1.0)
    block = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
    rows = from_momentum_values(block, lat)
    assert rows.shape == block.shape
    for row, g in zip(rows, block):
        assert np.array_equal(row, from_momentum(MomentumAmplitude(g, lat)).values)
        assert np.max(np.abs(to_momentum(WaveAmplitude(row, lat)).values - g)) < 1e-12


def test_point_source_is_momentum_flat():
    vals = np.zeros(8)
    vals[3] = 1.0
    g = to_momentum(WaveAmplitude(vals, LAT8))
    assert np.allclose(np.abs(g.values), 1 / np.sqrt(8), atol=1e-12)


def test_plane_wave_is_momentum_delta():
    k = 2
    p = LAT8.momenta[k]
    vals = np.exp(1j * p * LAT8.positions) / np.sqrt(8)
    g = to_momentum(WaveAmplitude(vals, LAT8))
    expected = np.zeros(8)
    expected[k] = 1.0
    assert np.allclose(np.abs(g.values), expected, atol=1e-12)


def test_gaussian_transforms_to_gaussian_with_reciprocal_width():
    lat = LatticeSpec(64, 1.0, 1.0)
    sigma = 4.0
    f = gaussian_profile(lat, 0.0, sigma)
    g = to_momentum(f)
    p = lat.momenta
    dens = g.density()
    mean = np.sum(p * dens)
    width = np.sqrt(np.sum((p - mean) ** 2 * dens))
    assert width == pytest.approx(1 / (2 * sigma), rel=0.02)


def test_prepare_one_particle_point_profile():
    vals = np.zeros(8)
    vals[5] = 1.0
    v = prepare_one_particle(WaveAmplitude(vals, LAT8), site_mode_space(LAT8))
    occ = [0] * 8
    occ[5] = 1
    assert v.amplitude(tuple(occ)) == pytest.approx(1.0)


def test_prepare_one_particle_is_sector_one():
    f = gaussian_profile(LAT8, 0.0, 1.5)
    v = prepare_one_particle(f, site_mode_space(LAT8))
    assert set(v.sector_weights()) == {1}
    assert number_expectation(v) == pytest.approx(1.0, abs=1e-12)


def test_prepare_one_particle_requires_normalized():
    with pytest.raises(ValueError):
        prepare_one_particle(WaveAmplitude(np.ones(8), LAT8), site_mode_space(LAT8))


def test_bimodal_profile_keeps_both_lobes():
    # spatially separated double Gaussian: the superposition stays rigidly
    # one particle while its density shows both lobes
    lat = LatticeSpec(64, 1.0, 1.0)
    x = lat.positions
    f = np.exp(-((x + 16) ** 2) / 16) + np.exp(-((x - 16) ** 2) / 16)
    f = WaveAmplitude(f / np.linalg.norm(f), lat)
    v = prepare_one_particle(f, site_mode_space(lat))
    dens = np.array([number_density(v, j) for j in range(64)])
    assert dens[16] > 1e-3 and dens[48] > 1e-3
    assert np.sum(dens) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(dens, f.density(), atol=1e-12)


def test_number_density_equals_intensity_squared():
    rng = np.random.default_rng(4)
    space = site_mode_space(LAT8)
    for _ in range(25):
        vals = rng.normal(size=8) + 1j * rng.normal(size=8)
        f = WaveAmplitude(vals / np.linalg.norm(vals), LAT8)
        v = prepare_one_particle(f, space)
        for j in range(8):
            assert number_density(v, j) == pytest.approx(abs(f.values[j]) ** 2, abs=1e-12)


def test_number_density_vacuum_zero_everywhere():
    v = vacuum(site_mode_space(LAT8))
    assert all(number_density(v, j) == 0.0 for j in range(8))


def test_number_density_two_particle_state():
    space = site_mode_space(LAT8)
    v = create(create(vacuum(space), 1), 6).normalized()
    dens = [number_density(v, j) for j in range(8)]
    assert dens[1] == pytest.approx(1.0)
    assert dens[6] == pytest.approx(1.0)
    assert sum(dens) == pytest.approx(2.0)


def test_number_density_cross_checked_against_wick_engine():
    # <psi| a+(x) a(x) |psi> = sum_{x',x''} f*(x') f(x'') <a(x')a+(x)a(x)a+(x'')>
    rng = np.random.default_rng(9)
    space = site_mode_space(LAT8)
    dp = vacuum_expectation(parse("bose: a(xp) a+(x) a(x) a+(xpp)"))
    for _ in range(10):
        support = rng.choice(8, size=3, replace=False)
        vals = np.zeros(8, dtype=complex)
        vals[support] = rng.normal(size=3) + 1j * rng.normal(size=3)
        f = WaveAmplitude(vals / np.linalg.norm(vals), LAT8)
        v = prepare_one_particle(f, space)
        for x in range(8):
            symbolic = sum(
                np.conj(f.values[xp]) * f.values[xpp]
                * evaluate(dp, {"x": x, "xp": xp, "xpp": xpp})
                for xp in support
                for xpp in support
            )
            assert number_density(v, x) == pytest.approx(symbolic.real, abs=1e-10)


def test_prepare_general_vacuum_only():
    v = prepare_general(GeneralStateSpec({(): 1.0}), site_mode_space(LAT8))
    assert (v - vacuum(site_mode_space(LAT8))).norm < 1e-12


def test_prepare_general_consistent_with_one_particle():
    f = gaussian_profile(LAT8, 0.0, 1.5)
    spec = GeneralStateSpec({(j,): f.values[j] for j in range(8)})
    v = prepare_general(spec, site_mode_space(LAT8))
    w = prepare_one_particle(f, site_mode_space(LAT8))
    assert (v - w).norm < 1e-12


def test_prepare_general_sector_mixing_gives_field_expectation():
    # (|0> + |1 at x0>)/sqrt(2): <N> = 0.5 and a nonzero field amplitude
    space = site_mode_space(LAT8)
    c = 1 / np.sqrt(2)
    v = prepare_general(GeneralStateSpec({(): c, (3,): c}), space)
    assert number_expectation(v) == pytest.approx(0.5, abs=1e-12)
    assert abs(field_expectation(v, 3)) == pytest.approx(0.5, abs=1e-12)


def test_prepare_general_rejects_oversized_sector():
    spec = GeneralStateSpec({(0, 1, 2): 1.0}, max_sector=2)
    with pytest.raises(ValueError):
        prepare_general(spec, site_mode_space(LAT8))


def test_prepare_general_rejects_unsorted_tuple():
    with pytest.raises(ValueError):
        prepare_general(GeneralStateSpec({(3, 1): 1.0}), site_mode_space(LAT8))


def test_field_expectation_zero_for_fixed_number_states():
    space = site_mode_space(LAT8)
    rng = np.random.default_rng(12)
    vals = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = WaveAmplitude(vals / np.linalg.norm(vals), LAT8)
    one = prepare_one_particle(f, space)
    two = create(create(vacuum(space), 2), 5).normalized()
    for j in range(8):
        assert abs(field_expectation(one, j)) < 1e-14
        assert abs(field_expectation(two, j)) < 1e-14
        assert abs(field_expectation(vacuum(space), j)) < 1e-14


def test_coherent_state_zero_amplitude_is_vacuum():
    space = ModeSpace(2, Statistics.BOSE, nmax=12)
    v = coherent_state([0.0, 0.0], space)
    assert (v - vacuum(space)).norm == 0.0


def test_coherent_state_poisson_mean():
    space = ModeSpace(1, Statistics.BOSE, nmax=12)
    v = coherent_state([1.0], space)
    assert number_expectation(v) == pytest.approx(1.0, abs=1e-8)


def test_coherent_state_eigenvalue_residual():
    space = ModeSpace(1, Statistics.BOSE, nmax=12)
    alpha = 0.8
    v = coherent_state([alpha], space)
    residual = (annihilate(v, 0) - alpha * v).norm
    # exact minimum over the truncated space is sigma_min(A - alpha) ~ 1.77e-6,
    # and the truncated Poisson profile sits within 3% of it
    assert residual < 2e-6
    assert abs(field_expectation(v, 0)) > 0.1


def test_coherent_state_two_modes_residual_per_mode():
    space = ModeSpace(3, Statistics.BOSE, nmax=12)
    alphas = [0.5, 0.0, 0.3j]
    v = coherent_state(alphas, space)
    assert abs(v.norm - 1.0) < 1e-12
    for m, alpha in enumerate(alphas):
        assert (annihilate(v, m) - alpha * v).norm < 1e-6
    total = number_expectation(v)
    assert total == pytest.approx(0.25 + 0.09, abs=1e-8)


def test_coherent_state_rejects_fermi():
    with pytest.raises(ValueError):
        coherent_state([0.5], ModeSpace(1, Statistics.FERMI))


def test_coherent_state_rejects_small_nmax():
    with pytest.raises(ValueError):
        coherent_state([0.8], ModeSpace(1, Statistics.BOSE, nmax=6))


def test_identity_resolution_on_vacuum_and_random_states():
    bose = site_mode_space(LAT8, nmax=4)
    assert identity_resolution_residual(vacuum(bose), 0) < 1e-12
    rng = np.random.default_rng(3)
    # random bose state on the safe subspace
    vals = rng.normal(size=8) + 1j * rng.normal(size=8)
    f = WaveAmplitude(vals / np.linalg.norm(vals), LAT8)
    one = prepare_one_particle(f, bose)
    assert identity_resolution_residual(one, 4) < 1e-12
    # random fermi state
    fermi = site_mode_space(LAT8, statistics=Statistics.FERMI)
    w = create(create(vacuum(fermi), 0), 3) + 0.5 * create(vacuum(fermi), 6)
    w = w.normalized()
    for j in (0, 3, 6, 7):
        assert identity_resolution_residual(w, j) < 1e-12


REL512 = LatticeSpec(512, 0.25, 1.0, Dispersion.RELATIVISTIC)


def test_pauli_jordan_requires_relativistic_dispersion():
    with pytest.raises(ValueError):
        pauli_jordan(LatticeSpec(8, 1.0, 1.0), 0.0, 1.0)


def test_pauli_jordan_equal_time_vanishes_on_grid():
    for j in (1, 3, 12, 40):
        assert abs(pauli_jordan(REL512, 0.0, j * 0.25, True)) < 1e-12


def test_pauli_jordan_coincident_point_zero():
    assert pauli_jordan(REL512, 0.0, 0.0, True) == 0.0


def test_pauli_jordan_spacelike_suppression_spot_check():
    with_anti = abs(pauli_jordan(REL512, 0.5, 3.0, True))
    without = abs(pauli_jordan(REL512, 0.5, 3.0, False))
    assert without > 1e-4
    assert with_anti / without <= 1e-3


def test_pauli_jordan_timelike_not_suppressed():
    inside = abs(pauli_jordan(REL512, 3.0, 0.5, True))
    assert inside > 1e-3


def test_massless_excludes_zero_mode():
    lat = LatticeSpec(64, 0.25, 0.0, Dispersion.RELATIVISTIC)
    val = pauli_jordan(lat, 0.0, 0.5, True)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_spacelike_sweep_bounds():
    grid = default_spacelike_grid(REL512)
    assert all(dx > dt for dt, dx in grid)
    assert all(max(dt, dx) <= REL512.length / 4 + 1e-9 for dt, dx in grid)
    with_vals, without_vals = commutator_sweep(REL512, grid)
    assert max(abs(v) for v in with_vals) <= 1e-6
    assert max(abs(v) for v in without_vals) >= 0.05


@st.composite
def sweep_cases(draw):
    """(lattice, pairs) with even M, spacing > 0, mass possibly 0 or so small
    that its square underflows, and a pair count of 0, 1 or enough to span
    more than one chunk."""
    count = draw(st.sampled_from(["none", "one", "chunks"]))
    M = 2 * draw(st.integers(128 if count == "chunks" else 1, 300))
    spacing = draw(st.floats(0.01, 2.0))
    mass = draw(st.just(0.0) | st.just(1e-200) | st.floats(0.0, 5.0))
    lattice = LatticeSpec(M, spacing, mass, Dispersion.RELATIVISTIC)
    if count == "none":
        return lattice, []
    if count == "one":
        return lattice, [(draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0)))]
    # at least one row more than a chunk holds, whether or not k = 0 is dropped
    n = field._BLOCK_ELEMENTS // (M - 1) + draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return lattice, [(float(dt), float(dx)) for dt, dx in rng.uniform(-50.0, 50.0, size=(n, 2))]


@settings(max_examples=40, deadline=None)
@given(sweep_cases())
def test_commutator_sweep_equals_pauli_jordan_exactly(case):
    # bit patterns, so signed zeros must match as well as ordinary values
    def bits(values):
        return np.asarray(values, dtype=complex).view(np.uint64).tolist()

    lattice, pairs = case
    with_vals, without_vals = commutator_sweep(lattice, pairs)
    assert bits(with_vals) == bits([pauli_jordan(lattice, dt, dx, True) for dt, dx in pairs])
    assert bits(without_vals) == bits([pauli_jordan(lattice, dt, dx, False) for dt, dx in pairs])


def test_commutator_sweep_requires_relativistic_dispersion():
    with pytest.raises(ValueError, match="relativistic"):
        commutator_sweep(LatticeSpec(8, 1.0, 1.0), [(0.0, 1.0)])


def test_commutator_sweep_rejects_pairs_that_are_not_pairs():
    with pytest.raises(ValueError):
        commutator_sweep(REL512, [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)])
