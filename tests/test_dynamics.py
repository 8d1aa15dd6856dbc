import inspect
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynamics_oracles import (
    EPS,
    build_observables,
    fft_input_per_roundtrip,
    records_per_sample,
    seam_margin,
    trajectory_per_sample,
    trajectory_rounding_bound,
)
import fockfield
from fockfield import dynamics
from fockfield.cli import _parse_times
from fockfield.dynamics import (
    SeamError,
    TrajectoryRecord,
    ehrenfest_residuals,
    evolve,
    gaussian_packet,
    trajectory,
)
from fockfield.field import Dispersion, LatticeSpec, MomentumAmplitude, WaveAmplitude, from_momentum, to_momentum

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
    rec = trajectory(f, [0.0])[0]
    assert rec.mean_c == pytest.approx(0.0, abs=1e-9)
    assert rec.dx * rec.dp == pytest.approx(0.5, abs=1e-6)
    assert rec.dx == pytest.approx(8.0, abs=1e-6)


def test_gaussian_packet_chirp_sets_correlation():
    # continuum Gaussian integral gives <C> = -chirp/2
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=1.0)
    rec = trajectory(f, [0.0])[0]
    assert rec.mean_c == pytest.approx(-0.5, abs=1e-4)


def test_gaussian_packet_validation():
    with pytest.raises(ValueError):
        gaussian_packet(LAT, 0.0, 0.0, 1.0)  # too narrow
    with pytest.raises(SeamError):
        gaussian_packet(LAT, 120.0, 0.0, 8.0)  # too close to the seam


@pytest.mark.parametrize("lattice, sigma0, names", [
    (LatticeSpec(8, 1.0, 1.0), 8.0, ["x0 0.0", "sigma0 8.0", "M 8", "dx 1.0"]),
    (LatticeSpec(256, 1e-300, 1.0), 8.0, ["x0 0.0", "sigma0 8.0", "M 256", "dx 1e-300"]),
    (LAT, 1e308, ["x0 0.0", "sigma0 1e+308", "M 256", "dx 1.0"]),
])
def test_seam_error_of_the_packet_names_x0_sigma0_and_the_lattice(lattice, sigma0, names):
    with pytest.raises(SeamError) as err:
        gaussian_packet(lattice, 0.0, 0.0, sigma0)
    assert all(name in str(err.value) for name in names), err.value
    assert "inf" not in str(err.value)  # 8 sigma0 overflows at sigma0 1e308


def test_evolve_t0_is_identity():
    f = gaussian_packet(LAT, 0.0, 0.5, 8.0)
    g = evolve(f, 0.0)
    assert np.max(np.abs(g.values - f.values)) < 1e-15


def test_evolve_unitary_and_momentum_invariant():
    f = gaussian_packet(LAT, 0.0, 0.5, 8.0, chirp=-1.0)
    for t in (0.5, 3.0, 17.0):
        ft = evolve(f, t)
        assert abs(ft.norm - 1.0) < 1e-12
        assert np.allclose(
            to_momentum(ft).density(), to_momentum(f).density(), atol=1e-12
        )


def test_plane_wave_density_is_stationary():
    k = 70
    vals = np.exp(1j * LAT.momenta[k] * LAT.positions) / np.sqrt(256)
    f = WaveAmplitude(vals, LAT)
    ft = evolve(f, 5.0)
    assert np.allclose(ft.density(), f.density(), atol=1e-12)


def test_free_gaussian_spreading_law():
    # dx(t)^2 = sigma0^2 (1 + (t / 2 m sigma0^2)^2), the analytic oracle
    sigma0, m = 8.0, 1.0
    f = gaussian_packet(LAT, 0.0, 0.0, sigma0)
    horizon = 2 * m * sigma0**2
    times = np.linspace(0.0, horizon, 33)
    for rec in trajectory(f, times):
        predicted = sigma0**2 * (1 + (rec.t / (2 * m * sigma0**2)) ** 2)
        assert rec.dx**2 == pytest.approx(predicted, rel=1e-6)


def test_trajectory_seam_violation_names_time():
    lat = LatticeSpec(128, 1.0, 1.0)
    f = gaussian_packet(lat, 0.0, 0.0, 4.0)
    with pytest.raises(SeamError, match="t="):
        trajectory(f, [0.0, 2000.0])


def test_chirped_packet_shrinks_then_spreads():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=1.0)
    times = np.arange(0.0, 128.01, 1.0)
    recs = trajectory(f, times)
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
    recs = trajectory(f, times)
    x20, c0, h0 = recs[0].mean_x2, recs[0].mean_c, recs[0].mean_h
    for r in recs:
        predicted = x20 + 2.0 * (c0 * r.t + h0 * r.t**2)  # m = 1
        assert r.mean_x2 == pytest.approx(predicted, rel=1e-6)


def test_ehrenfest_residuals_chirped_gaussian():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0, chirp=1.0)
    report = ehrenfest_residuals(f, np.arange(0.0, 0.1001, 1e-3))
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
    report = ehrenfest_residuals(f, np.arange(0.0, 0.05001, 1e-3))
    assert report.width_residual <= 1e-5
    assert report.correlation_residual <= 1e-5


def test_ehrenfest_stationary_packet_width_static():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0)
    recs = trajectory(f, [-1e-3, 0.0, 1e-3])
    # <C> = 0 at t=0, so the width derivative vanishes there
    dx2 = (recs[2].mean_x2 - recs[0].mean_x2) / (2e-3)
    assert abs(dx2) < 1e-9


def test_ehrenfest_requires_three_uniform_records():
    f = gaussian_packet(LAT, 0.0, 0.0, 8.0)
    with pytest.raises(ValueError):
        ehrenfest_residuals(f, [0.0, 1.0])
    with pytest.raises(ValueError):
        ehrenfest_residuals(f, [0.0, 1.0, 3.0])


@pytest.mark.parametrize("times", [
    [0.0, float("nan"), 2.0],
    [float("nan")] * 3,
    [0.0, float("inf"), 2.0],
    [2.0, 1.0, 0.0],
])
def test_ehrenfest_rejects_times_that_are_not_finite_increasing_and_uniform(times, monkeypatch):
    # every comparison with nan is false, so a nan time once slipped through as a nan report
    monkeypatch.setattr(dynamics, "trajectory", None)  # the check runs before any evolution
    with pytest.raises(ValueError, match="^times must be finite, increasing and uniformly spaced$"):
        ehrenfest_residuals(gaussian_packet(LAT, 0.0, 0.0, 8.0), times)


def test_ehrenfest_takes_steps_as_uniform_relative_to_the_step():
    # an absolute 1e-9 once passed the steps 1e-12 and 4.99e-10 as uniform, and the central
    # differences then divided by the wrong spacing (residuals of 249 on this packet)
    lattice, kw = VERIFY_PACKET
    packet = gaussian_packet(lattice, **kw)
    report = ehrenfest_residuals(packet, [0.0, 1e-3, 2e-3])
    assert report.width_residual < 1e-9 and report.correlation_residual < 1e-9
    tiny = ehrenfest_residuals(packet, np.arange(3) * 1e-12)  # uniform at any scale; rounding limits it
    assert np.isfinite([tiny.width_residual, tiny.correlation_residual]).all()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "trajectory", None)  # the check runs before any evolution
        for times in ([0.0, 1e-12, 5e-10], [0.0, 1e-12, 2e-12 + 1e-20], [0.0, 1.0, 2.0 + 3e-9]):
            with pytest.raises(ValueError, match="^times must be finite, increasing and uniformly spaced$"):
                ehrenfest_residuals(packet, times)


def test_ehrenfest_rejects_a_mass_without_a_finite_positive_inverse():
    # 0 divides by zero and 2/1e-320 overflows; the lattice itself rejects -1 and nan
    for mass in (0.0, 1e-320, float("inf")):
        packet = gaussian_packet(LatticeSpec(256, 1.0, mass), 0.0, 0.0, 8.0)
        with pytest.raises(ValueError, match="^mass must be positive and finite with a finite 2/mass, got "):
            ehrenfest_residuals(packet, [0.0, 1e-3, 2e-3])
    for mass in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^mass must be nonnegative$"):
            LatticeSpec(256, 1.0, mass)


def test_norm_conserved_along_trajectory():
    f = gaussian_packet(LAT, 10.0, 0.3, 8.0, chirp=0.5)
    for t in (0.0, 7.0, 31.0):
        assert abs(evolve(f, t).norm - 1.0) <= 1e-12


# -- blocked trajectory against the per-sample oracle, within its rounding bound


def outcome(fn, *args):
    """Every record field as (type, hex bits), or the SeamError text."""
    try:
        records = fn(*args)
    except SeamError as err:
        return ("SeamError", str(err))
    return [tuple((type(v), float(v).hex()) for v in r.row()) for r in records]


def assert_trajectory_matches_oracle(packet, times):
    """trajectory against the per-sample oracle: each t bit for bit, every other field within
    trajectory_rounding_bound.  The seam check is held to the oracle's margin: a sample whose margin
    is clear of the margin's bound must pass or fail it as in the oracle, and one within the bound
    may do either.  Returns the outcome of trajectory."""
    lattice = packet.lattice
    got = outcome(trajectory, packet, times)
    want = records_per_sample(packet, times, lattice)
    bounds = trajectory_rounding_bound(packet, times, want)
    clear = []  # per sample: +1 clearly inside the seam check, -1 clearly outside, 0 within the bound
    for rec, bound in zip(want, bounds):
        margin, slack = seam_margin(rec, lattice), bound.mean_x + 8 * bound.dx + EPS * lattice.length
        clear.append(1 if margin > slack else -1 if margin < -slack else 0)
    if got and got[0] == "SeamError":
        first_out = clear.index(-1) if -1 in clear else len(clear)
        assert any(got[1] == f"packet within 8 widths of the seam at t={t:g}" and clear[k] < 1
                   for k, t in enumerate(times[:first_out + 1])), (got, clear)
        return got
    assert -1 not in clear and len(got) == len(want)
    for row, rec, bound in zip(got, want, bounds):
        assert row[0] == (float, float(rec.t).hex())
        for (kind, bits), name in zip(row[1:], TrajectoryRecord.CSV_HEADER[1:]):
            assert kind is float
            assert abs(float.fromhex(bits) - getattr(rec, name)) <= getattr(bound, name), (name, rec.t)
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
    assert_trajectory_matches_oracle(gaussian_packet(lattice, **kw), times)


def test_large_cli_wavepacket_equals_per_sample_bitwise():
    lattice = LatticeSpec(4096, 1.0, 1.0)
    packet = gaussian_packet(lattice, 0.0, 0.0, 40.0, 1.0)
    assert_trajectory_matches_oracle(packet, [k * 0.1 for k in range(501)])


@pytest.mark.parametrize("times", [
    [k * 0.25 for k in range(49)],  # verify's coarse run
    [k * 1e-3 for k in range(51)],  # verify's fine run
    [],
    [2.5],
    [3.0, -1.0, 3.0, 0.5, -0.0],
])
def test_verify_packet_equals_per_sample_bitwise(times):
    lattice, kw = VERIFY_PACKET
    assert_trajectory_matches_oracle(gaussian_packet(lattice, **kw), times)


def test_seam_error_names_the_first_bad_time_in_a_later_block():
    lattice, kw = VERIFY_PACKET
    rows = dynamics._BLOCK_ELEMENTS // lattice.num_sites
    times = [0.0] * (rows + 3) + [4000.0, 3000.0]
    got = assert_trajectory_matches_oracle(gaussian_packet(lattice, **kw), times)
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
        n = draw(st.sampled_from((0, 1, 2, 3, 7)))
    if draw(st.booleans()):  # a uniform grid t0 + k h, of either direction, which takes the phase tables
        t0, h = draw(st.floats(-40.0, 40.0)), draw(st.floats(-2.0, 2.0))
        return packet, [t0 + k * h for k in range(n)]
    # sampled values repeat; free floats are unsorted and of either sign
    time = st.one_of(st.sampled_from((0.0, -0.0, 1.5, -3.0)), st.floats(-40.0, 40.0))
    times = draw(st.lists(time, min_size=n, max_size=n))
    return packet, times


@settings(max_examples=60, deadline=None)
@given(trajectory_cases())
def test_property_blocked_trajectory_equals_per_sample_bitwise(case):
    assert_trajectory_matches_oracle(*case)


def paths_taken(monkeypatch):
    """Record, per trajectory call, whether it took the phase tables: the fine rows of _fine_rows
    and a block's coarse rows, or one phase per sample."""
    taken = []
    fine_rows = dynamics._fine_rows

    def spy(*args):
        result = fine_rows(*args)
        taken.append("tables" if result is not None else "per-sample")
        return result

    monkeypatch.setattr(dynamics, "_fine_rows", spy)
    return taken


UNIFORM_GRIDS = [  # packet index in BENCHMARK_PACKETS or "verify" or "large", times
    (0, [k * 0.5 for k in range(101)]),  # the wavepacket scenario's default
    ("verify", [k * 0.25 for k in range(49)]),
    ("verify", [k * 1e-3 for k in range(51)]),
    ("large", [k * 0.1 for k in range(501)]),  # the benchmark's heavy wavepacket
    (2, _parse_times("-3.7:21.3:0.3")),
    (4, [-0.0, 0.5, 1.0, 1.5]),
    (3, [6.0 - 0.75 * k for k in range(40)]),
]


def uniform_grid_packet(which):
    if which == "large":
        return gaussian_packet(LatticeSpec(4096, 1.0, 1.0), 0.0, 0.0, 40.0, 1.0)
    lattice, kw = VERIFY_PACKET if which == "verify" else BENCHMARK_PACKETS[which]
    return gaussian_packet(lattice, **kw)


F_COLUMNS = ("t", "mean_x", "mean_x2", "mean_c", "dx")  # the fields that f and P f alone decide


@pytest.mark.parametrize("which, times", UNIFORM_GRIDS)
def test_phase_tables_match_the_per_sample_fallback_within_the_rounding_bound(which, times, monkeypatch):
    packet = uniform_grid_packet(which)
    taken = paths_taken(monkeypatch)
    fast = trajectory(packet, times)
    monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", packet.lattice.num_sites)  # B = 1: the fallback
    slow = trajectory(packet, times)
    assert taken == ["tables", "per-sample"]
    want = records_per_sample(packet, times, packet.lattice)
    for a, b, rec, bound in zip(fast, slow, want, trajectory_rounding_bound(packet, times, want), strict=True):
        for name in TrajectoryRecord.CSV_HEADER:
            assert abs(getattr(a, name) - getattr(b, name)) <= getattr(bound, name), (name, rec.t)
        # the fallback keeps the per-sample f and P f
        assert [getattr(b, name).hex() for name in F_COLUMNS] == [getattr(rec, name).hex() for name in F_COLUMNS]


def test_a_wide_lattice_takes_the_fine_rows_in_blocks_of_two_and_matches_the_oracle(monkeypatch):
    # wavepacket --M 65536 --times 0:50:0.5: B = min(11, _BLOCK_ELEMENTS // M) = 2, so the fine rows
    # hold one block, where ⌈101/11⌉ + 11 coarse and fine rows would hold ten
    packet = gaussian_packet(LatticeSpec(1 << 16, 1.0, 1.0), 0.0, 0.0, 8.0)
    taken = paths_taken(monkeypatch)
    assert_trajectory_matches_oracle(packet, _parse_times("0:50:0.5"))
    assert taken == ["tables"]


NUDGE = [k / 10 for k in range(11)]  # max|t| = 1, so the rule allows 4 eps


@pytest.mark.parametrize("times, path", [
    ([], "per-sample"),
    ([2.5], "per-sample"),
    ([0.0, 1.0], "per-sample"),  # n <= 2
    ([0.0, 0.5, 1.0], "tables"),
    (NUDGE[:5] + [NUDGE[5] + 16 * EPS] + NUDGE[6:], "per-sample"),
    (NUDGE[:5] + [NUDGE[5] + EPS] + NUDGE[6:], "tables"),
    (_parse_times("0.3:5.3:0.1"), "tables"),
    ([-0.0, 0.5, 1.0], "tables"),
    ([1.0, 0.5, -0.0], "tables"),
    ([2.0, 2.0, 2.0], "tables"),  # h = 0
    ([3.0, -1.0, 3.0, 0.5, -0.0], "per-sample"),
])
def test_uniform_grid_rule_at_its_edges(times, path, monkeypatch):
    lattice, kw = VERIFY_PACKET
    packet = gaussian_packet(lattice, **kw)
    assert (dynamics._uniform_step(np.asarray(times, dtype=float)) is not None) == (path == "tables")
    taken = paths_taken(monkeypatch)
    assert_trajectory_matches_oracle(packet, times)
    assert taken == [path]


@pytest.mark.parametrize("times, message", [
    ([0.0, float("nan"), 2.0], "times up to nan at mass 1.0"),
    ([0.0, 1.0, float("inf")], "times up to inf at mass 1.0"),
    ([float("nan")] * 3, "times up to nan at mass 1.0"),
    ([0.0, 5e307, 1e308], "times up to 1e+308 at mass 1.0"),  # uniform and finite; the tables are not
    # p^2 t overflows at the last time only, which is in neither table
    ([0.0, 6.2e306, 1.24e307, 1.86e307], "times up to 1.86e+307 at mass 1.0"),
])
def test_times_whose_phase_is_not_finite_keep_the_per_sample_error(times, message, monkeypatch):
    lattice, kw = VERIFY_PACKET
    taken = paths_taken(monkeypatch)
    with pytest.raises(ValueError, match=f"^the phase p\\^2 t / 2m is not finite for {re.escape(message)}$") as exc:
        trajectory(gaussian_packet(lattice, **kw), times)
    assert exc.traceback[-1].name == "_evolved_momenta"
    assert taken == ["per-sample"]


@pytest.mark.parametrize("times", [
    [k * 0.25 for k in range(49)],  # the phase tables
    [3.0, -1.0, 3.0, 0.5, -0.0],  # per sample
    [k * 1e-3 for k in range(2 * dynamics._BLOCK_ELEMENTS // 64 + 5)],  # tables, three blocks
    [(-1) ** k * k * 1e-3 for k in range(dynamics._BLOCK_ELEMENTS // 64 + 5)],  # per sample, two blocks
])
def test_momentum_columns_are_exactly_constant_along_a_trajectory(times):
    # |phase| = 1 leaves |g|^2 unchanged, so mean_p, mean_h and dp come once from |g0|^2
    lattice, kw = VERIFY_PACKET
    records = trajectory(gaussian_packet(lattice, **kw), times)
    assert len({(r.mean_p.hex(), r.mean_h.hex(), r.dp.hex()) for r in records}) == 1


@pytest.mark.parametrize("M, n, step, sigma0, seam", [
    (1 << 16, 2000, 1e4, 2.0, "t=20000"),  # B = 2 by the block cap; the seam stops it at the third sample
    (1 << 16, 3, 1e4, 2.0, "t=20000"),  # B = 2, at the block cap
    (4096, 501, 0.1, 40.0, None),  # the benchmark's heavy wavepacket, through the tables
    (1 << 16, 101, 0.5, 8.0, None),  # wavepacket --M 65536: blocks of B = 2 rows
])
def test_trajectory_memory_stays_within_the_tables_and_four_block_arrays(M, n, step, sigma0, seam, monkeypatch):
    # within the budget trajectory's docstring states: the fine rows (at most one block), three
    # arrays of a block's rows x M complex values, the coarse rows and their phases (at most 1.5
    # more) and four arrays of M.  The fine rows are built before the first block, so stopping at
    # the seam still measures them.
    packet = gaussian_packet(LatticeSpec(M, 1.0, 1.0), 0.0, 0.0, sigma0)
    times = np.arange(n) * step
    taken = paths_taken(monkeypatch)
    tracemalloc.start()
    try:
        if seam:
            with pytest.raises(SeamError, match=f"at {seam}$"):
                trajectory(packet, times)
        else:
            assert len(trajectory(packet, times)) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert taken == ["tables"]
    rows = dynamics._block_rows(n, M, len(dynamics._fine_rows(times, packet.lattice)))
    assert peak <= 16 * (2 * dynamics._BLOCK_ELEMENTS + (4 * rows + 4) * M)


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


@pytest.mark.parametrize("mass, message", [
    (0.0, "^mass must be positive$"),
    (5e-324, "^the phase p\\^2 t / 2m is not finite for times up to 1.0 at mass 5e-324$"),
])
def test_evolve_and_trajectory_check_the_mass_and_the_phase_in_one_step(mass, message):
    lat = LatticeSpec(64, 1.0, mass)
    f = WaveAmplitude(np.full(64, 0.125), lat)
    for run in (lambda: evolve(f, 1.0), lambda: trajectory(f, [0.0, 1.0])):
        with pytest.raises(ValueError, match=message) as exc:
            run()
        assert exc.traceback[-1].name == "_evolved_momenta"


@pytest.mark.parametrize("run, message", [
    (lambda f: trajectory(f, [[0.0, 1.0]]), "times must be a 1-D sequence of real numbers"),
    (lambda f: trajectory(f, [1j, 2j, 3j]), "times must be a 1-D sequence of real numbers"),
    # numpy's cast of a complex array drops the imaginary part with only a warning
    (lambda f: trajectory(f, np.array([0.0, 1j, 2j])), "times must be a 1-D sequence of real numbers"),
    (lambda f: trajectory(f, 2.0), "times must be a 1-D sequence of real numbers"),
    (lambda f: trajectory(f, ["0", "one"]), "times must be a 1-D sequence of real numbers"),
    (lambda f: ehrenfest_residuals(f, [0, 1j, 2j]), "times must be a 1-D sequence of real numbers"),
    (lambda f: evolve(f, 1j), "t must be a real number"),
    (lambda f: evolve(f, [1.0]), "t must be a real number"),
], ids=["nested", "complex", "complex-array", "scalar", "text", "ehrenfest", "evolve", "evolve-list"])
def test_times_that_are_not_real_numbers_raise_naming_them(run, message):
    # numpy's broadcast message and float()'s TypeError once leaked here
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(gaussian_packet(LAT, 0.0, 0.0, 8.0))


@pytest.mark.parametrize("run, message", [
    (lambda f: trajectory(f, [0.0, None, 2.0]), "times must be a 1-D sequence of real numbers"),
    (lambda f: evolve(f, None), "t must be a real number"),
], ids=["trajectory", "evolve"])
def test_a_time_of_none_raises_naming_the_times(run, message):
    # numpy's cast once made None a nan, reported as a phase that is not finite
    with pytest.raises(ValueError, match=f"^{message}$"):
        run(gaussian_packet(LAT, 0.0, 0.0, 8.0))


def test_evolve_equals_the_phase_product_through_from_momentum_bitwise():
    # the density-out profile: evolve keeps the bits of multiplying g(p) by
    # exp(-i p^2 t / 2m) for one scalar t and inverting one amplitude
    rng = np.random.default_rng(12)
    for lat in (LAT, LatticeSpec(64, 0.3, 2.5)):
        f = WaveAmplitude(rng.normal(size=lat.num_sites) + 1j * rng.normal(size=lat.num_sites), lat)
        for t in (0.0, -2.5, 17, 1e3):
            phases = np.exp(-1j * lat.momenta**2 * t / (2 * lat.mass))
            want = from_momentum(MomentumAmplitude(to_momentum(f).values * phases, lat)).values
            assert evolve(f, t).values.tobytes() == want.tobytes()


@st.composite
def fft_input_cases(draw):
    M = 2 * draw(st.integers(1, 64))
    lattice = LatticeSpec(M, draw(st.sampled_from((1.0, 0.3))), 1.0)
    part = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -0.5)), st.floats(-10.0, 10.0))
    re_part = draw(arrays(float, M, elements=part))
    im_part = draw(arrays(float, M, elements=part))
    kind = draw(st.sampled_from(("complex", "real-symmetric", "half-zero")))
    if kind == "real-symmetric":  # f(x) = f(-x): x_j = -x_(M-j), so the transform is real
        return WaveAmplitude(re_part + re_part[-np.arange(M)], lattice)
    values = re_part + 1j * im_part
    if kind == "half-zero":
        values[np.roll(np.arange(M) < M // 2, draw(st.integers(0, M - 1)))] = 0.0
    return WaveAmplitude(values, lattice)


@settings(max_examples=300, deadline=None)
@given(fft_input_cases())
def test_fft_input_equals_the_roundtrip_through_to_momentum(f):
    # the round trip multiplies by the origin signs exp(i pi k) twice; a factor of +-1 rounds
    # nothing, but numpy's complex product adds 0 * the other part, which can turn a zero's sign
    g, p = dynamics._fft_input(f)
    want_g, want_p = fft_input_per_roundtrip(f)
    assert p.tobytes() == want_p.tobytes()
    assert np.array_equal(g, want_g)
    parts, want_parts = g.view(float), want_g.view(float)
    moved = parts.view(np.int64) != want_parts.view(np.int64)
    assert np.all(parts[moved] == 0.0)


def test_no_public_callable_takes_a_lattice_beside_an_amplitude():
    # an amplitude carries its lattice; a second copy could disagree with it unchecked.
    # Annotations are strings under `from __future__ import annotations`; str() reads a class too.
    takes_both = []
    for name, obj in vars(fockfield).items():
        if name.startswith("_") or not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters.values()
        amplitude = any(re.search(r"\b(WaveAmplitude|MomentumAmplitude)\b", str(p.annotation)) for p in params)
        if amplitude and "lattice" in {p.name for p in params}:
            takes_both.append(name)
    assert takes_both == []
