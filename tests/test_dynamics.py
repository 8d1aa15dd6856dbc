import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynamics_oracles import build_observables, trajectory_per_sample
from fockfield import dynamics
from fockfield.dynamics import (
    SeamError,
    ehrenfest_residuals,
    evolve,
    gaussian_packet,
    trajectory,
)
from fockfield.field import Dispersion, LatticeSpec, WaveAmplitude, to_momentum

LAT = LatticeSpec(256, 1.0, 1.0)


def test_observables_hermitian_and_h_positive():
    obs = build_observables(LatticeSpec(64, 0.5, 2.0))
    for mat in (obs.X, obs.P, obs.H, obs.C):
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    eigs = np.linalg.eigvalsh(obs.H)
    assert eigs.min() > -1e-12


def test_observables_eigenvector_relations():
    lat = LatticeSpec(16, 1.0, 1.0)
    obs = build_observables(lat)
    # site basis vectors are X eigenvectors
    for j in (0, 5, 11):
        e = np.zeros(16, dtype=complex)
        e[j] = 1.0
        assert np.vdot(e, obs.X @ e).real == pytest.approx(lat.positions[j], abs=1e-12)
    # plane waves are P eigenvectors
    for k in (2, 9, 15):
        wave = np.exp(1j * lat.momenta[k] * lat.positions) / np.sqrt(16)
        assert np.vdot(wave, obs.P @ wave).real == pytest.approx(lat.momenta[k], abs=1e-12)


def test_observables_require_mass_and_dispersion():
    with pytest.raises(ValueError):
        build_observables(LatticeSpec(16, 1.0, 0.0))
    with pytest.raises(ValueError):
        build_observables(LatticeSpec(16, 1.0, 1.0, Dispersion.RELATIVISTIC))


def test_xc_commutator_identity_on_localized_packet():
    # [X, C] = iX holds to tail accuracy on seam-safe Gaussians
    obs = build_observables(LAT)
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0).values
    lhs = (obs.X @ obs.C - obs.C @ obs.X) @ f
    rhs = 1j * (obs.X @ f)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-6


def test_gaussian_packet_uncorrelated_minimum_uncertainty():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0)
    rec = trajectory(f, [0.0], LAT)[0]
    assert rec.mean_c == pytest.approx(0.0, abs=1e-9)
    assert rec.dx * rec.dp == pytest.approx(0.5, abs=1e-6)
    assert rec.dx == pytest.approx(8.0, abs=1e-6)


def test_gaussian_packet_chirp_sets_correlation():
    # continuum Gaussian integral gives <C> = -chirp/2
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=1.0)
    rec = trajectory(f, [0.0], LAT)[0]
    assert rec.mean_c == pytest.approx(-0.5, abs=1e-4)


def test_gaussian_packet_validation():
    with pytest.raises(ValueError):
        gaussian_packet(LAT, 0.0, 0.0, 1.0)  # too narrow
    with pytest.raises(SeamError):
        gaussian_packet(LAT, 120.0, 0.0, 8.0)  # too close to the seam


def test_evolve_t0_is_identity():
    f = gaussian_packet(LAT, 0.0, 0.5, 8.0)
    g = evolve(f, 0.0, LAT)
    assert np.max(np.abs(g.values - f.values)) < 1e-15


def test_evolve_unitary_and_momentum_invariant():
    f = gaussian_packet(LAT, 0.0, 0.5, 8.0, chirp=-1.0)
    for t in (0.5, 3.0, 17.0):
        ft = evolve(f, t, LAT)
        assert abs(ft.norm - 1.0) < 1e-12
        assert np.allclose(
            to_momentum(ft).density(), to_momentum(f).density(), atol=1e-12
        )


def test_plane_wave_density_is_stationary():
    k = 70
    vals = np.exp(1j * LAT.momenta[k] * LAT.positions) / np.sqrt(256)
    f = WaveAmplitude(vals, LAT)
    ft = evolve(f, 5.0, LAT)
    assert np.allclose(ft.density(), f.density(), atol=1e-12)


def test_free_gaussian_spreading_law():
    # dx(t)^2 = sigma0^2 (1 + (t / 2 m sigma0^2)^2), the analytic oracle
    sigma0, m = 8.0, 1.0
    f = gaussian_packet(LAT, 0.0, 0.0, sigma0)
    horizon = 2 * m * sigma0**2
    times = np.linspace(0.0, horizon, 33)
    for rec in trajectory(f, times, LAT):
        predicted = sigma0**2 * (1 + (rec.t / (2 * m * sigma0**2)) ** 2)
        assert rec.dx**2 == pytest.approx(predicted, rel=1e-6)


def test_trajectory_seam_violation_names_time():
    lat = LatticeSpec(128, 1.0, 1.0)
    f = gaussian_packet(lat, 0.0, 0.0, 4.0)
    with pytest.raises(SeamError, match="t="):
        trajectory(f, [0.0, 2000.0], lat)


def test_chirped_packet_shrinks_then_spreads():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=1.0)
    times = np.arange(0.0, 128.01, 1.0)
    recs = trajectory(f, times, LAT)
    widths = [r.dx for r in recs]
    i_min = int(np.argmin(widths))
    assert 0 < i_min < len(recs) - 1
    assert widths[0] > widths[i_min] < widths[-1]
    # <C> crosses zero at the waist
    assert recs[i_min - 1].mean_c < 0 < recs[i_min + 1].mean_c
    # energy conserved
    h0 = recs[0].mean_h
    assert all(abs(r.mean_h - h0) <= 1e-10 * abs(h0) for r in recs)
    # correlation grows linearly: <C>(t) - <C>(0) = 2 <H> t
    for r in recs[1:]:
        assert r.mean_c - recs[0].mean_c == pytest.approx(2 * h0 * r.t, rel=1e-6)
    # monotone, and Heisenberg holds through the waist
    for a, b in zip(recs, recs[1:]):
        assert b.mean_c >= a.mean_c - 1e-10
    assert all(r.dx * r.dp >= 0.5 * (1 - 1e-9) for r in recs)


def test_integrated_width_law():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=-1.0)
    times = np.arange(0.0, 64.01, 0.5)
    recs = trajectory(f, times, LAT)
    x20, c0, h0 = recs[0].mean_x2, recs[0].mean_c, recs[0].mean_h
    for r in recs:
        predicted = x20 + 2.0 * (c0 * r.t + h0 * r.t**2)  # m = 1
        assert r.mean_x2 == pytest.approx(predicted, rel=1e-6)


def test_ehrenfest_residuals_chirped_gaussian():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=1.0)
    times = np.arange(0.0, 0.1001, 1e-3)
    recs = trajectory(f, times, LAT)
    report = ehrenfest_residuals(recs, mass=1.0)
    assert report.width_residual <= 1e-5
    assert report.correlation_residual <= 1e-5


def test_ehrenfest_residuals_two_momentum_packet():
    # localized packet superposing two momentum groups: the beat pattern
    # makes <X^2>(t) non-quadratic, so this genuinely exercises the
    # finite-difference comparison (pure plane waves would wrap the seam)
    k1, k2 = 130, 140
    envelope = gaussian_packet(LAT, 0.0, 0.0, 8.0).values
    vals = envelope * (
        np.exp(1j * LAT.momenta[k1] * LAT.positions)
        + np.exp(1j * LAT.momenta[k2] * LAT.positions)
    )
    f = WaveAmplitude(vals / np.linalg.norm(vals), LAT)
    times = np.arange(0.0, 0.05001, 1e-3)
    recs = trajectory(f, times, LAT)
    report = ehrenfest_residuals(recs, mass=1.0)
    assert report.width_residual <= 1e-5
    assert report.correlation_residual <= 1e-5


def test_ehrenfest_stationary_packet_width_static():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0)
    recs = trajectory(f, [-1e-3, 0.0, 1e-3], LAT)
    # <C> = 0 at t=0, so the width derivative vanishes there
    dx2 = (recs[2].mean_x2 - recs[0].mean_x2) / (2e-3)
    assert abs(dx2) < 1e-9


def test_ehrenfest_requires_three_uniform_records():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0)
    recs = trajectory(f, [0.0, 1.0], LAT)
    with pytest.raises(ValueError):
        ehrenfest_residuals(recs, mass=1.0)
    recs3 = trajectory(f, [0.0, 1.0, 3.0], LAT)
    with pytest.raises(ValueError):
        ehrenfest_residuals(recs3, mass=1.0)


def test_norm_conserved_along_trajectory():
    f = gaussian_packet(LAT, 10.0, 0.3, 8.0, chirp=0.5)
    for t in (0.0, 7.0, 31.0):
        assert abs(evolve(f, t, LAT).norm - 1.0) <= 1e-12


# -- blocked trajectory against the per-sample oracle, bit for bit


def outcome(fn, packet, times, lattice):
    """Every record field as (type, hex bits), or the SeamError text."""
    try:
        records = fn(packet, times, lattice)
    except SeamError as err:
        return ("SeamError", str(err))
    return [tuple((type(v), float(v).hex()) for v in r.row()) for r in records]


def assert_trajectory_matches_oracle(packet, times, lattice):
    got = outcome(trajectory, packet, times, lattice)
    assert got == outcome(trajectory_per_sample, packet, times, lattice)
    return got


VERIFY_PACKET = (LatticeSpec(64, 1.0, 1.0), dict(x0=0.0, p0=0.0, sigma0=3.0, chirp=1.0))
BENCHMARK_PACKETS = [  # the wavepacket commands of perfbench/cli_scenarios.py
    (LatticeSpec(256, 1.0, 1.0), dict(x0=0.0, p0=0.0, sigma0=8.0, chirp=0.0)),
    (LatticeSpec(256, 1.0, 1.0), dict(x0=0.0, p0=0.0, sigma0=8.0, chirp=1.0)),
    (LatticeSpec(256, 1.0, 1.0), dict(x0=-10.0, p0=0.0, sigma0=8.0, chirp=-0.5)),
    (LatticeSpec(256, 1.0, 1.0), dict(x0=-20.0, p0=0.2, sigma0=8.0, chirp=0.0)),
    (LatticeSpec(256, 1.0, 1.0), dict(x0=0.0, p0=0.0, sigma0=6.0, chirp=0.5)),
]


@pytest.mark.parametrize("index", range(len(BENCHMARK_PACKETS)))
def test_cli_wavepackets_equal_per_sample_bitwise(index):
    lattice, kw = BENCHMARK_PACKETS[index]
    times = [k * 0.5 for k in range(101)]  # the wavepacket scenario's default
    assert_trajectory_matches_oracle(gaussian_packet(lattice, **kw), times, lattice)


def test_large_cli_wavepacket_equals_per_sample_bitwise():
    lattice = LatticeSpec(4096, 1.0, 1.0)
    packet = gaussian_packet(lattice, 0.0, 0.0, 40.0, 1.0)
    assert_trajectory_matches_oracle(packet, [k * 0.1 for k in range(501)], lattice)


@pytest.mark.parametrize("times", [
    [k * 0.25 for k in range(49)],  # verify's coarse run
    [k * 1e-3 for k in range(51)],  # verify's fine run
    [],
    [2.5],
    [3.0, -1.0, 3.0, 0.5, -0.0],
])
def test_verify_packet_equals_per_sample_bitwise(times):
    lattice, kw = VERIFY_PACKET
    assert_trajectory_matches_oracle(gaussian_packet(lattice, **kw), times, lattice)


def test_seam_error_names_the_first_bad_time_in_a_later_block():
    lattice, kw = VERIFY_PACKET
    rows = dynamics._BLOCK_ELEMENTS // lattice.num_sites
    times = [0.0] * (rows + 3) + [4000.0, 3000.0]
    got = assert_trajectory_matches_oracle(gaussian_packet(lattice, **kw), times, lattice)
    assert got == ("SeamError", "packet within 8 widths of the seam at t=4000")


@st.composite
def trajectory_cases(draw):
    at_block_edge = draw(st.booleans())
    # a block edge needs rows + 1 samples, so keep those cases at M >= 256
    M = 2 * draw(st.integers(128 if at_block_edge else 1, 2048))
    lattice = LatticeSpec(M, draw(st.sampled_from((0.5, 1.0, 1.5))), draw(st.floats(0.25, 4.0)))
    length = lattice.length
    x0 = draw(st.floats(-0.3, 0.3)) * length
    sigma = draw(st.floats(0.01, 0.1)) * length
    chirp = draw(st.floats(-2.0, 2.0))
    p0 = draw(st.floats(-1.0, 1.0))
    x = lattice.positions
    values = np.exp(-(1 + 1j * chirp) * (x - x0) ** 2 / (4 * sigma**2) + 1j * p0 * x)
    packet = WaveAmplitude(values / np.linalg.norm(values), lattice)
    if at_block_edge:
        n = dynamics._BLOCK_ELEMENTS // M + draw(st.sampled_from((-1, 0, 1)))
    else:
        n = draw(st.sampled_from((0, 1, 2, 7)))
    # sampled values repeat; free floats are unsorted and of either sign
    time = st.one_of(st.sampled_from((0.0, -0.0, 1.5, -3.0)), st.floats(-40.0, 40.0))
    times = draw(st.lists(time, min_size=n, max_size=n))
    return packet, times, lattice


@settings(max_examples=60, deadline=None)
@given(trajectory_cases())
def test_property_blocked_trajectory_equals_per_sample_bitwise(case):
    assert_trajectory_matches_oracle(*case)


@pytest.mark.parametrize("M", [64, 256, 4096])
def test_numpy_row_blocks_equal_per_row_calls(M):
    # The blocked trajectory is bit-identical to the per-sample one only
    # because numpy computes these row by row in the same order; a numpy
    # upgrade that changes that fails here.
    rng = np.random.default_rng(M)
    block = rng.normal(size=(37, M)) + 1j * rng.normal(size=(37, M))
    phases = -1j * rng.normal(size=M) ** 2 * rng.normal(size=(37, 1)) / 3.0
    dens = np.abs(block) ** 2
    for batched, per_row in (
        (np.exp(phases), [np.exp(row) for row in phases]),
        (np.fft.ifft(block, axis=1), [np.fft.ifft(row) for row in block]),
        (np.sum(dens, axis=1), [np.sum(row) for row in dens]),
        (np.sum(block, axis=1), [np.sum(row) for row in block]),
    ):
        assert np.asarray(batched).tobytes() == np.asarray(per_row).tobytes()
