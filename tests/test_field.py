import ast
import inspect
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    number_density,
    overlap,
    pauli_jordan,
    prepare_general,
    prepare_one_particle,
    site_mode_space,
    to_momentum,
    _commutator_modes,
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
from field_oracles import default_spacelike_grid_pairs, pauli_jordan_per_pair, sweep_rounding_bound
from fock_oracles import identity_resolution_residual

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


@pytest.mark.parametrize("space", [
    site_mode_space(LatticeSpec(6, 1.0, 1.0)),
    ModeSpace(8, Statistics.BOSE, species_count=2),
], ids=["sites", "species"])
def test_prepare_one_particle_rejects_a_mode_space_without_one_mode_per_site(space):
    f = gaussian_profile(LAT8, 0.0, 1.5)
    with pytest.raises(ValueError, match="^mode_space must have one single-species mode per site$"):
        prepare_one_particle(f, space)


@pytest.mark.parametrize("amplitude", [WaveAmplitude, MomentumAmplitude])
@pytest.mark.parametrize("values, message", [
    (np.ones(7), "values must have one entry per "),
    (np.ones((8, 1)), "values must have one entry per "),
    (np.full(8, np.nan), "values must be finite"),
    ([1.0] * 7 + [np.inf], "values must be finite"),
    ([1.0] * 7 + [complex(0.0, -np.inf)], "values must be finite"),
], ids=["short", "column", "nan", "inf", "imaginary-inf"])
def test_amplitudes_reject_a_wrong_shape_and_non_finite_values(amplitude, values, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        amplitude(values, LAT8)


def test_wave_amplitude_normalized_has_unit_norm_and_the_same_shape():
    f = WaveAmplitude(np.arange(8) + 1j, LAT8)
    g = f.normalized()
    assert g.lattice == LAT8
    assert g.norm == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(g.values * f.norm, f.values, rtol=1e-15, atol=0)


@pytest.mark.parametrize("values, norm", [
    (np.zeros(8), "0.0"),
    (np.full(8, 5e-324), "0.0"),  # every square underflows to 0
    (np.full(8, 1e308), "inf"),
], ids=["zero", "subnormal", "overflow"])
def test_wave_amplitude_normalized_rejects_a_norm_that_is_zero_or_not_finite(values, norm):
    # each once leaked a numpy divide or overflow warning
    with pytest.raises(ValueError, match=f"^cannot normalize an intensity profile of norm {norm}$"):
        WaveAmplitude(values, LAT8).normalized()


@pytest.mark.parametrize("amplitude", [WaveAmplitude, MomentumAmplitude])
@pytest.mark.parametrize("values", [np.full(8, 1e308), np.full(8, -1e308j)], ids=["real", "imaginary"])
def test_amplitude_norm_is_inf_without_a_warning_where_finite_values_overflow(amplitude, values):
    assert amplitude(values, LAT8).norm == np.inf


def test_prepare_one_particle_names_a_norm_that_overflows():
    with pytest.raises(ValueError, match=r"^intensity profile must be normalized \(norm = inf\)$"):
        prepare_one_particle(WaveAmplitude(np.full(8, 1e308), LAT8), site_mode_space(LAT8))


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


def test_prepare_general_rejects_a_null_result():
    # two fermions in one site: the creations give the null element
    spec = GeneralStateSpec({(2, 2): 1.0})
    with pytest.raises(ValueError, match="^specification produced the null element$"):
        prepare_general(spec, site_mode_space(LAT8, Statistics.FERMI))


@pytest.mark.parametrize("amplitudes, message", [
    ({(): float("nan")}, "^amplitude at sites \\(\\) must be finite, got nan$"),
    ({(): 1.0, (3,): complex(0.5, float("inf"))}, "^amplitude at sites \\(3,\\) must be finite, got \\(0.5\\+infj\\)$"),
    # site 99 is no mode of the space, so building its term first would raise another error
    ({(99,): 1.0, (2, 5): float("-inf")}, "^amplitude at sites \\(2, 5\\) must be finite, got -inf$"),
])
def test_prepare_general_rejects_an_amplitude_that_is_not_finite_naming_its_sites(amplitudes, message):
    with pytest.raises(ValueError, match=message):
        prepare_general(GeneralStateSpec(amplitudes), site_mode_space(LAT8))


@pytest.mark.parametrize("amplitude", ["1", None, True, np.True_, Decimal("0.5"), [1.0]])
def test_prepare_general_rejects_an_amplitude_that_is_not_a_number_naming_its_sites(amplitude):
    # a bool would otherwise be the amplitude 1, and a str or None leaked an AttributeError
    message = "^" + re.escape(f"amplitude at sites (2, 5) must be a real or complex number, got {amplitude!r}") + "$"
    with pytest.raises(ValueError, match=message):
        prepare_general(GeneralStateSpec({(99,): 1.0, (2, 5): amplitude}), site_mode_space(LAT8))


@pytest.mark.parametrize("amplitude", [1, 0.5, 1j, Fraction(1, 2), np.float32(0.5), np.int64(1), np.complex64(1j)])
def test_prepare_general_takes_any_real_or_complex_number(amplitude):
    v = prepare_general(GeneralStateSpec({(): 1.0, (3,): amplitude}), site_mode_space(LAT8))
    assert abs(v.norm - 1.0) < 1e-12 and len(v.amplitudes) == 2


def test_prepare_general_skips_zero_amplitudes_before_building_their_sites():
    # site 99 is no mode of the space; with a zero amplitude it is never created
    v = prepare_general(GeneralStateSpec({(): 1.0, (99,): 0.0}), site_mode_space(LAT8))
    assert v.amplitudes == vacuum(site_mode_space(LAT8)).amplitudes


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


def test_coherent_state_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match="^need one amplitude per mode$"):
        coherent_state([0.5], ModeSpace(2, Statistics.BOSE, nmax=12))


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


@pytest.mark.parametrize("M, spacing, mass", [(512, 1e200, 0.0), (512, 1e200, 5e-324), (64, 1e162, 0.0)])
def test_frequencies_that_underflow_away_from_k0_raise(M, spacing, mass):
    # every p_eff² (or, at M 64 and dx 1e162, 36 of the 63 at k != 0) underflows, so those modes have ω = 0
    lat = LatticeSpec(M, spacing, mass, Dispersion.RELATIVISTIC)
    message = "^" + re.escape(f"a mode frequency other than k = 0 underflows to 0 at mass {mass!r}, dx {spacing!r}") + "$"
    with pytest.raises(ValueError, match=message):
        lat.frequencies
    with pytest.raises(ValueError, match=message):
        pauli_jordan(lat, 0.0, spacing)
    with pytest.raises(ValueError, match=message):
        commutator_sweep(lat, [(0.0, spacing)])


def test_spacelike_sweep_bounds():
    grid = default_spacelike_grid(REL512)
    assert all(dx > dt for dt, dx in grid)
    assert all(max(dt, dx) <= REL512.length / 4 + 1e-9 for dt, dx in grid)
    with_vals, without_vals = commutator_sweep(REL512, grid)
    assert max(abs(v) for v in with_vals) <= 1e-6
    assert max(abs(v) for v in without_vals) >= 0.05


def bits(values):
    """Bit patterns of complex values, so signed zeros must match as well as ordinary values."""
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def assert_sweep_within_rounding_bound(lattice, pairs):
    """commutator_sweep against the per-pair oracle, pair by pair, within sweep_rounding_bound (twice
    that with antiparticles); every value with antiparticles has a real part of exactly +0.0.  Each
    sampled pair evaluated alone by pauli_jordan has the bits it has in the sweep, and pairs that
    compare equal (0.0 equals -0.0) have equal bits."""
    with_vals, without_vals = commutator_sweep(lattice, pairs)
    assert len(with_vals) == len(without_vals) == len(pairs)
    seen = {}
    for (dt, dx), w, wo in zip(pairs, with_vals, without_vals):
        bound = sweep_rounding_bound(lattice, dt, dx)
        assert abs(wo - pauli_jordan_per_pair(lattice, dt, dx, False)) <= bound
        assert abs(w - pauli_jordan_per_pair(lattice, dt, dx, True)) <= 2 * bound
        assert bits([w.real]) == bits([0.0])
        assert seen.setdefault((dt, dx), bits([w, wo])) == bits([w, wo])
    for i in range(0, len(pairs), max(1, len(pairs) // 20)):
        dt, dx = pairs[i]
        alone = [pauli_jordan(lattice, dt, dx, True), pauli_jordan(lattice, dt, dx, False)]
        assert bits(alone) == bits([with_vals[i], without_vals[i]])
    return with_vals, without_vals


@st.composite
def sweep_cases(draw):
    """(lattice, pairs) with even M, spacing > 0, mass possibly 0 or so small that its square
    underflows, and pairs that are none, one, a dts × separations product as causality forms it,
    or pairs drawn from a few values and ±0.0, so that pairs repeat and differ in a zero's sign."""
    kind = draw(st.sampled_from(["none", "one", "product", "repeats"]))
    M = 2 * draw(st.integers(1, 300))
    spacing = draw(st.floats(0.01, 2.0))
    mass = draw(st.just(0.0) | st.just(1e-200) | st.floats(0.0, 5.0))
    lattice = LatticeSpec(M, spacing, mass, Dispersion.RELATIVISTIC)
    value = st.floats(-100.0, 100.0)
    if kind == "none":
        return lattice, []
    if kind == "one":
        return lattice, [(draw(value), draw(value))]
    if kind == "product":
        dts, separations = (draw(st.lists(value, min_size=1, max_size=25)) for _ in range(2))
        return lattice, [(dt, dx) for dt in dts for dx in separations]
    pool = st.sampled_from(draw(st.lists(value, min_size=1, max_size=3)) + [0.0, -0.0])
    return lattice, draw(st.lists(st.tuples(pool, pool), min_size=2, max_size=60))


@settings(max_examples=40, deadline=None)
@given(sweep_cases())
# both zeros in one sweep: a pair's bits must not depend on which of them np.unique keeps
@example((REL512, [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, 1.0), (0.0, 1.0)]))
def test_commutator_sweep_matches_the_per_pair_oracle_within_the_rounding_bound(case):
    assert_sweep_within_rounding_bound(*case)


def test_commutator_sweep_on_the_default_grid_matches_the_per_pair_oracle():
    with_vals, _ = assert_sweep_within_rounding_bound(REL512, default_spacelike_grid(REL512))
    assert len(with_vals) == 6914


def test_commutator_sweep_on_scattered_pairs_matches_the_per_pair_oracle():
    # every pair has its own dt and dx, so each table row serves one pair; at Δx = 0.01 the
    # phases reach about 1.6e4, and m = 0 drops the k = 0 mode
    lattice = LatticeSpec(600, 0.01, 0.0, Dispersion.RELATIVISTIC)
    rng = np.random.default_rng(25)
    assert_sweep_within_rounding_bound(lattice, [tuple(pair) for pair in rng.uniform(-50.0, 50.0, size=(2000, 2)).tolist()])


@pytest.mark.parametrize("M, spacing, margin", [
    (512, 0.25, 3.0), (64, 0.25, 0.0), (64, 0.25, 1.0), (128, 0.3, 2.5), (66, 1.0, 0.5), (4, 1.0, 3.0),
    (2, 1.0, 3.0), (64, 0.25, 1e9),
])
def test_default_spacelike_grid_equals_the_pair_by_pair_oracle(M, spacing, margin):
    # the same points in the same order, bit for bit, as an (n, 2) float array
    lattice = LatticeSpec(M, spacing, 1.0, Dispersion.RELATIVISTIC)
    grid = default_spacelike_grid(lattice, cone_margin=margin)
    pairs = default_spacelike_grid_pairs(lattice, cone_margin=margin)
    assert isinstance(grid, np.ndarray) and grid.dtype == float and grid.shape == (len(pairs), 2)
    assert grid.tobytes() == np.array(pairs, dtype=float).reshape(len(pairs), 2).tobytes()


@pytest.mark.parametrize("margin", [float("nan"), float("inf"), -float("inf")])
def test_default_spacelike_grid_rejects_a_cone_margin_that_is_not_finite(margin):
    # nan and inf once dropped the whole wedge without a word: 4 equal-time points at M = 16
    lattice = LatticeSpec(16, 1.0, 1.0, Dispersion.RELATIVISTIC)
    with pytest.raises(ValueError, match=f"^cone_margin must be finite, got {margin!r}$"):
        default_spacelike_grid(lattice, cone_margin=margin)


@pytest.mark.parametrize("pairs", [
    [], [(0.5, 3.0)], [(0.0, 1.0), (-0.0, 1.0), (2.0, -0.5), (0.0, 1.0)],
    default_spacelike_grid_pairs(LatticeSpec(64, 0.25, 1.0)),
])
def test_commutator_sweep_gives_the_same_arrays_on_pairs_and_on_an_array(pairs):
    lattice = LatticeSpec(64, 0.25, 1.0, Dispersion.RELATIVISTIC)
    from_list = commutator_sweep(lattice, pairs)
    from_array = commutator_sweep(lattice, np.array(pairs, dtype=float).reshape(len(pairs), 2))
    for got, want in zip(from_list, from_array):
        assert isinstance(got, np.ndarray) and got.dtype == complex and got.shape == (len(pairs),)
        assert bits(got) == bits(want)


def test_pauli_jordan_returns_a_python_complex():
    for include in (True, False):
        value = pauli_jordan(REL512, 0.5, 3.0, include)
        assert type(value) is complex  # np.complex128 is a complex subclass; this is the plain type
        assert bits([value]) == bits([commutator_sweep(REL512, [(0.5, 3.0)])[0 if include else 1][0]])


def test_commutator_sweep_calls_no_blas():
    # a BLAS product would tie the bits to the BLAS kernel and thread count, and OpenBLAS workers
    # keep spinning after the call; einsum with its default optimize=False runs numpy's own loop
    tree = ast.parse(inspect.getsource(commutator_sweep))
    nodes = list(ast.walk(tree))
    assert not any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) for node in nodes)
    names = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    assert not names & {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}
    assert "einsum" in names
    assert not [kw for node in nodes if isinstance(node, ast.Call) for kw in node.keywords if kw.arg == "optimize"]


def test_a_phase_difference_that_overflows_keeps_the_product_of_its_finite_factors():
    # p·dx and ω·dt are finite but p·dx − ω·dt overflows at the zone edge; the per-pair phase is
    # not finite there, while the sweep's two factors are, so it returns their product
    dt = dx = 1.25e307
    w, p = _commutator_modes(REL512)
    assert np.isfinite(p * dx).all() and np.isfinite(w * dt).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(p * dx - w * dt).all()
    factors = np.exp(1j * (p * dx)) * np.exp(-1j * (w * dt)) / (2.0 * w)
    value = pauli_jordan(REL512, dt, dx, False)
    eps = np.finfo(float).eps
    M = REL512.num_sites
    assert abs(value - np.sum(factors) / M) <= eps * (len(w) + 8) * np.sum(1.0 / (2.0 * w)) / M
    assert bits([pauli_jordan(REL512, dt, dx, True)]) == bits([complex(0.0, 2.0 * value.imag)])


def test_commutator_sweep_requires_relativistic_dispersion():
    with pytest.raises(ValueError, match="relativistic"):
        commutator_sweep(LatticeSpec(8, 1.0, 1.0), [(0.0, 1.0)])


def test_commutator_sweep_rejects_pairs_that_are_not_pairs():
    with pytest.raises(ValueError):
        commutator_sweep(REL512, [(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)])


@pytest.mark.parametrize("dt, dx", [(float("inf"), 1.0), (0.0, float("nan")), (0.0, 1e308), (-1e308, 0.5)])
@pytest.mark.parametrize("include_antiparticles", [True, False])
def test_pauli_jordan_at_a_non_finite_phase_raises_the_sweep_error(dt, dx, include_antiparticles):
    message = f"the phase p*dx - w*dt is not finite at dts {dt!r}, separations {dx!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        pauli_jordan(REL512, dt, dx, include_antiparticles)


NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: LatticeSpec(8, NAN, 1.0), "spacing must be positive"),
    (lambda: LatticeSpec(8, 1.0, NAN), "mass must be nonnegative"),
    # a nan intensity stops where it enters, before the normalization check
    (lambda: prepare_one_particle(WaveAmplitude([NAN] + [0.0] * 7, LAT8), site_mode_space(LAT8)),
     "values must be finite"),
], ids=["spacing", "mass", "intensity"])
def test_nan_fails_the_lattice_and_normalization_checks(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()


@pytest.mark.parametrize("alpha, message", [
    (float("inf"), "mode_amplitudes must be finite"),
    (NAN, "mode_amplitudes must be finite"),
    (complex(0.5, NAN), "mode_amplitudes must be finite"),
    (1e200, "nmax 12 too small; need >= inf"),
    (1.7e308 + 1.7e308j, "nmax 12 too small; need >= inf"),
    (1e4, "nmax 12 too small; need >= 800000000"),
])
def test_coherent_state_rejects_non_finite_and_huge_amplitudes(alpha, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        coherent_state([alpha, 0.0], ModeSpace(2, Statistics.BOSE, nmax=12))


@pytest.mark.parametrize("x_index, p_index, name", [
    (1.5, 0, "x_index"),
    (1.0, 0, "x_index"),
    (None, 0, "x_index"),
    (0, np.float64(2.0), "p_index"),
    (0, "2", "p_index"),
])
def test_overlap_rejects_non_integral_indices_naming_them(x_index, p_index, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        overlap(LAT8, x_index, p_index)


def test_overlap_takes_numpy_integers_and_bools_as_ints():
    assert overlap(LAT8, np.int64(3), True) == overlap(LAT8, 3, 1)


def test_number_density_rejects_a_non_integral_site_naming_it():
    v = vacuum(site_mode_space(LAT8))
    with pytest.raises(ValueError, match="^mode must be an integer, got 0.5$"):
        number_density(v, 0.5)


@pytest.mark.parametrize("args, message", [
    ((8, float("inf"), 1.0), "spacing must be finite, got inf"),
    ((8, -float("inf"), 1.0), "spacing must be positive"),
    ((8.5, 1.0, 1.0), "num_sites must be an integer, got 8.5"),
    ((NAN, 1.0, 1.0), "num_sites must be an integer, got nan"),
    (("8", 1.0, 1.0), "num_sites must be an integer, got '8'"),
    ((7, 1.0, 1.0), "num_sites must be even and >= 2"),
    ((8, "1", 1.0), "spacing must be a real number, got '1'"),
    ((8, 1.0, "1"), "mass must be a real number, got '1'"),
    ((8, 1.0, None), "mass must be a real number, got None"),
    ((True, 1.0, 1.0), "num_sites must be an integer, got True"),
])
def test_lattice_rejects_an_infinite_spacing_and_a_non_integral_size(args, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        LatticeSpec(*args)


def test_lattice_takes_an_integral_size_as_an_int():
    lattice = LatticeSpec(8.0, 1.0, 1.0)
    assert lattice == LAT8 and type(lattice.num_sites) is int
    assert lattice.wavenumbers.dtype == LAT8.wavenumbers.dtype
    assert np.array_equal(LatticeSpec(np.int64(8), 1.0, 1.0).positions, LAT8.positions)


@st.composite
def sweep_products(draw):
    """(lattice, dts, separations) for a dts × separations product whose values may repeat and
    include both zeros."""
    M = 2 * draw(st.integers(1, 100))
    spacing = draw(st.floats(0.01, 2.0))
    mass = draw(st.just(0.0) | st.floats(0.0, 5.0))
    pool = draw(st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=3)) + [0.0, -0.0]
    value = st.floats(-100.0, 100.0) | st.sampled_from(pool)
    dts, separations = (draw(st.lists(value, min_size=1, max_size=12)) for _ in range(2))
    return LatticeSpec(M, spacing, mass, Dispersion.RELATIVISTIC), dts, separations


@settings(max_examples=40, deadline=None)
@given(sweep_products(), st.randoms(use_true_random=False))
def test_commutator_sweep_gives_each_pair_its_bits_in_any_order(case, random):
    # the sweep takes runs of equal dt in the order given; dx-major, shuffled and duplicated orders
    # cut a dt into many runs, and every pair must keep the bits it has in the dt-major sweep
    lattice, dts, separations = case
    dt_major = [(dt, dx) for dt in dts for dx in separations]
    want = commutator_sweep(lattice, dt_major)
    n, m = len(dt_major), len(separations)
    shuffled = random.sample(range(n), n)
    orders = {
        "dx-major": [i * m + j for j in range(m) for i in range(len(dts))],
        "shuffled": shuffled,
        "duplicated": shuffled + [random.randrange(n) for _ in range(n)],
    }
    for name, order in orders.items():
        got = commutator_sweep(lattice, [dt_major[i] for i in order])
        for g, w in zip(got, want):
            assert bits(g) == bits(w[order]), name
    for i in range(0, n, max(1, n // 5)):
        alone = [pauli_jordan(lattice, *dt_major[i], True), pauli_jordan(lattice, *dt_major[i], False)]
        assert bits(alone) == bits([want[0][i], want[1][i]])


def test_commutator_sweep_holds_at_most_80_bytes_per_pair():
    # at M 8 the tables are negligible, so the peak is per pair: the two results (32 B), the two
    # table indices (16 B) and the run starts' temporaries; numbering the distinct pairs took 106 B
    lattice = LatticeSpec(8, 0.25, 1.0, Dispersion.RELATIVISTIC)
    values = np.arange(256) * 0.25
    pairs = np.column_stack([np.repeat(values, 256), np.tile(values + 0.125, 256)])
    commutator_sweep(lattice, pairs[:4])  # caches outside the measurement
    tracemalloc.start()
    try:
        commutator_sweep(lattice, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * len(pairs)


@pytest.mark.parametrize("pairs, shape", [
    ([[[0.0, 1.0]]], (1, 1, 2)), ([(0.0, 1.0, 2.0)], (1, 3)), (np.array([0.0, 1.0]), (2,)), (np.empty((0, 3)), (0, 3)),
], ids=["3-D", "triple", "flat-array", "empty-triples"])
def test_commutator_sweep_names_pairs_of_the_wrong_shape(pairs, shape):
    # a 3-D input was once read as one pair, and the others leaked numpy's reshape message
    message = f"pairs must be (dt, dx) pairs of real numbers, as an (n, 2) array, got shape {shape}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        commutator_sweep(REL512, pairs)


@pytest.mark.parametrize("pairs", [
    [(0.0, 1.0), (2.0,)], [(1j, 1.0)], np.array([[1j, 1.0]]), [("a", 1.0)], [(None, 1.0)], [(0.5, 10**400)],
], ids=["ragged", "complex", "complex-array", "text", "none", "huge-int"])
def test_commutator_sweep_names_pairs_that_are_not_real_numbers(pairs):
    # numpy's inhomogeneous-shape, float() and int-to-float messages once leaked here, a complex
    # array lost its imaginary parts with a warning, and None became nan
    with pytest.raises(ValueError, match=r"^pairs must be \(dt, dx\) pairs of real numbers$"):
        commutator_sweep(REL512, pairs)


def test_commutator_sweep_takes_values_that_are_real_numbers_as_their_floats():
    values = [(0, Fraction(3)), ("0.5", np.float32(2.5)), (True, Decimal("1.5"))]
    want = commutator_sweep(REL512, [(0.0, 3.0), (0.5, 2.5), (1.0, 1.5)])
    for got, w in zip(commutator_sweep(REL512, values), want):
        assert bits(got) == bits(w)


@pytest.mark.parametrize("dt, dx, name, value", [
    (None, 1.0, "dt", None), (0.5, None, "dx", None), (1j, 1.0, "dt", 1j), (0.5, "a", "dx", "a"),
    ([0.5, 1.0], 3.0, "dt", [0.5, 1.0]),
])
def test_pauli_jordan_names_a_dt_or_dx_that_is_not_a_real_number(dt, dx, name, value):
    # None once became nan and was reported as a phase that is not finite at dts nan
    with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be a real number, got {value!r}") + "$"):
        pauli_jordan(REL512, dt, dx)
