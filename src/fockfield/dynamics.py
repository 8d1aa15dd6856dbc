"""Free single-particle dynamics: X, P, H, C observables and exact evolution.

The correlation observable C = (XP + PX)/2 controls how a free wavepacket
breathes: d⟨X²⟩/dt = (2/m)⟨C⟩ and d⟨C⟩/dt = 2⟨H⟩ ≥ 0, so a state with
negative correlation shrinks, passes through a minimum-width waist, and
then spreads forever.  Evolution is exact spectral phase multiplication
exp(−i p² t / 2m) in momentum space, which removes any integrator error
from tests of those identities.

Momentum amplitudes stay in np.fft order: a packet's is its FFT over √M,
so field's reorder and origin signs exp(iπk), which commute with a phase,
are never applied and undone.  `trajectory` evolves blocks of sample
times as one (times × sites) array: one inverse FFT along the rows for f
and one for P f, and the expectations as row sums.  The FFT inputs of a
uniform time grid are row products of a block's coarse rows and one fine
table of at most a block; other times take one half-spectrum phase
exponential per sample, bit-identical to evolving the samples one at a
time.  The row products round differently, by a bound that
tests/dynamics_oracles.py derives.  One budget, fock._BLOCK_ELEMENTS,
sizes the blocks and the fine table, and one set of buffers serves every
block of a call.

The canonical commutator [X, P] = i cannot hold globally on a periodic
lattice, so every continuum identity here is asserted on localized
packets kept at least 8σ away from the wrap-around seam, where the
corrections are at Gaussian-tail level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import LatticeSpec, WaveAmplitude
from .fock import _BLOCK_ELEMENTS, _real_array

_GRID_TOL = 4 * np.finfo(float).eps  # of max|t|: how far a uniform grid's times may sit from t₀ + k·h


class SeamError(ValueError):
    """A packet drifted or spread too close to the periodic boundary."""


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    mean_x: float
    mean_p: float
    mean_x2: float
    mean_c: float
    mean_h: float
    dx: float
    dp: float

    CSV_HEADER = ("t", "mean_x", "mean_p", "mean_x2", "mean_c", "mean_h", "dx", "dp")

    def row(self):
        return (self.t, self.mean_x, self.mean_p, self.mean_x2,
                self.mean_c, self.mean_h, self.dx, self.dp)


@dataclass(frozen=True)
class EhrenfestReport:
    """Max relative residuals of the finite-difference checks, normalized
    by the largest magnitude of the corresponding target series."""

    width_residual: float
    correlation_residual: float


def gaussian_packet(lattice: LatticeSpec, x0: float, p0: float, sigma0: float,
                    chirp: float = 0.0) -> WaveAmplitude:
    """Normalized Gaussian f(x) ∝ exp(−(1 + i·chirp)(x−x0)²/4σ₀² + i p₀ x).

    The chirp tilts the position-momentum correlation: ⟨C⟩ = −chirp/2, so
    a positive chirp prepares a shrinking packet.  Requires σ₀ ≥ 2Δx (to
    resolve the profile), x0 at least 8σ₀ from the periodic seam, a
    finite (x−x0)²/4σ₀² and a phase that is finite at every site.
    """
    if sigma0 < 2 * lattice.spacing:
        raise ValueError(f"sigma0 {sigma0} too narrow; need >= 2 spacing = {2 * lattice.spacing}")
    half = lattice.length / 2
    seam_distance = half - abs(x0)
    if seam_distance < 8 * sigma0:
        raise SeamError(f"packet at x0 {x0!r} is within 8 sigma0 of the seam at sigma0 {sigma0!r}, "
                        f"M {lattice.num_sites!r}, dx {lattice.spacing!r}")
    x = lattice.positions
    with np.errstate(all="ignore"):  # a term that is not finite is reported below
        d2 = (x - x0) ** 2
        width = 4 * np.float64(sigma0) ** 2  # the float's own ** raises OverflowError
        # overflow or 0/0 at extreme lattice scales; numpy divides the complex term below by
        # scaling with 1/width, so that must be finite as well
        if not (np.isfinite([width, 1 / width]).all() and np.isfinite(d2 / width).all()):
            raise ValueError(f"(x - x0)^2 / 4 sigma0^2 is not finite at sigma0 {sigma0!r}, dx {lattice.spacing!r}")
        f = np.exp(-(1 + 1j * chirp) * d2 / width + 1j * p0 * x)
    if not np.isfinite(f).all():
        raise ValueError(f"the packet phase is not finite at p0 {p0!r}, chirp {chirp!r}")
    return WaveAmplitude(f / np.linalg.norm(f), lattice)


def _phases(times: np.ndarray, lattice: LatticeSpec, out=None) -> np.ndarray:
    """exp(−i p² t / 2m) in np.fft order, one row per entry of the 1-D float
    array times, into out when given; nan or inf where it is not finite.

    The momenta are exactly sign-symmetric, so p and −p have bit-equal p²:
    one complex exp per time and |k| = 0 .. M/2, spread over the M slots,
    where np.fft slot i holds |k| = min(i, M − i).
    """
    M = lattice.num_sites
    q = lattice.momenta[M // 2::-1] ** 2  # k = 0, −1, .., −M/2
    with np.errstate(all="ignore"):  # a phase that is not finite makes its exponential nan, reported by callers
        half = -1j * q * times[:, None]
        half /= 2 * lattice.mass
        np.exp(half, out=half)
    u = np.empty((len(times), M), dtype=complex) if out is None else out
    u[:, :M // 2 + 1] = half
    u[:, M // 2 + 1:] = half[:, M // 2 - 1:0:-1]
    return u


def _evolved_momenta(g: np.ndarray, times: np.ndarray, lattice: LatticeSpec, out=None) -> np.ndarray:
    """FFT inputs g·exp(−i p² t / 2m), one row per entry of the 1-D float
    array times, into out when given, with g a momentum amplitude in np.fft
    order (_fft_input).

    Raises ValueError for a mass that is not positive, or when p² t / 2m
    is not finite for some mode and time, so no evolved value is nan.
    """
    if lattice.mass <= 0:
        raise ValueError("mass must be positive")
    u = _phases(times, lattice, out)
    if not np.isfinite(u).all():
        raise ValueError(
            f"the phase p^2 t / 2m is not finite for times up to {float(np.max(np.abs(times)))!r} "
            f"at mass {lattice.mass!r}"
        )
    return np.multiply(g, u, out=u)  # g · phase, in place


def _fft_input(f: WaveAmplitude):
    """f's momentum amplitude in np.fft order and the momenta in that order: to_momentum without
    its reorder and signs exp(iπk), which commute with a phase, so ifft · √M undoes the rest."""
    lattice = f.lattice
    return np.fft.fft(f.values) / np.sqrt(lattice.num_sites), np.fft.ifftshift(lattice.momenta)


def _real_times(times, error: str = "times must be a 1-D sequence of real numbers") -> np.ndarray:
    """times as a 1-D float array.  Raises ValueError(error) where it is not a sequence, an entry is
    a sequence itself, or an entry is not a real number (fock._real_array)."""
    try:
        times = list(times)
    except TypeError:
        raise ValueError(error) from None
    ts = _real_array(times, error)
    if ts.ndim != 1:
        raise ValueError(error)
    return ts


def evolve(f: WaveAmplitude, t: float) -> WaveAmplitude:
    """Exact free evolution on f's own lattice, by phase multiplication in momentum space.

    Unitary for every real t; the momentum distribution is invariant.
    """
    u = _evolved_momenta(_fft_input(f)[0], _real_times([t], "t must be a real number"), f.lattice)[0]
    return WaveAmplitude(np.fft.ifft(u) * np.sqrt(f.lattice.num_sites), f.lattice)


def _uniform_step(ts: np.ndarray):
    """The step h of a uniform grid t_k = t₀ + k·h, or None.

    The rule: at least three times, all finite, and every
    |t_k − (t₀ + k·h)| ≤ 4ε·max|t| with h = (t_{n−1} − t₀)/(n − 1).  Grids
    built as start + k·step (the CLI's start:stop:step, np.arange) or by
    np.linspace deviate by a few ulp of max|t| and pass.
    """
    n = len(ts)
    if n < 3 or not np.isfinite(ts).all():
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # a span that overflows makes h inf, which fails below
        h = (ts[-1] - ts[0]) / (n - 1)
        deviation = np.max(np.abs(ts - (ts[0] + np.arange(n) * h)))
    return h if deviation <= _GRID_TOL * np.max(np.abs(ts)) else None  # written so that nan fails


def _fine_rows(ts: np.ndarray, lattice: LatticeSpec):
    """The fine rows exp(−i q b h), b < B = min(⌈√n⌉, _BLOCK_ELEMENTS // M) and q = p²/2m in np.fft
    order, of a uniform grid t_k = t₀ + k·h (_uniform_step).  None, for one phase per sample, when
    the grid is not uniform, when B < 2, or when a fine row or the phase at the largest |t|, and so
    every phase, is not finite (as at a zero mass): the per-sample step then raises its error."""
    h = _uniform_step(ts)
    if h is None:
        return None
    B = min(math.isqrt(len(ts) - 1) + 1, _BLOCK_ELEMENTS // lattice.num_sites)
    if B < 2 or not np.isfinite(_phases(ts[[np.argmax(np.abs(ts))]], lattice)).all():
        return None
    fine = _phases(np.arange(B) * h, lattice)
    return fine if np.isfinite(fine).all() else None


def _block_rows(n: int, num_sites: int, group: int = 1) -> int:
    """Sample times per trajectory block: about _BLOCK_ELEMENTS // num_sites, in whole groups of
    group rows, at least one group and no more groups than n times fill."""
    return max(1, min((_BLOCK_ELEMENTS // num_sites) // group, -(-n // group))) * group


def _block_moments(u: np.ndarray, p: np.ndarray, x: np.ndarray, x2: np.ndarray, scale: float,
                   ft: np.ndarray, pf: np.ndarray):
    """⟨X⟩, ⟨X²⟩ and ⟨C⟩ = Re⟨X f, P f⟩ as lists, one entry per row of the (rows × M) FFT inputs
    u, which this overwrites: f and P f are scale · ifft(u) and scale · ifft(p · u), written into
    the first rows of the buffers ft and pf.  Once f is out, u holds p · u in place; then, as two
    real arrays, |f|² and x·|f|² or x²·|f|²; then x·f.  ⟨C⟩ takes one np.vdot per row, because a
    row sum would add the products in another order."""
    ft = np.fft.ifft(u, axis=1, out=ft[:len(u)])
    ft *= scale
    pf = np.fft.ifft(np.multiply(p, u, out=u), axis=1, out=pf[:len(u)])
    pf *= scale
    fdens, weighted = u.reshape(-1).view(float).reshape(2, *u.shape)
    np.square(np.abs(ft, out=fdens), out=fdens)
    mean_x = np.sum(np.multiply(x, fdens, out=weighted), axis=1).tolist()
    mean_x2 = np.sum(np.multiply(x2, fdens, out=weighted), axis=1).tolist()
    xf = np.multiply(x, ft, out=u)
    return mean_x, mean_x2, [float(np.real(np.vdot(a, b))) for a, b in zip(xf, pf)]


def trajectory(f0: WaveAmplitude, times):
    """Observable records along the exact evolution on f0's own lattice, one per sample time.

    Blocks of rows = max(1, (_BLOCK_ELEMENTS // M) // B)·B sample times go
    through one inverse FFT for f and one for P f, with the expectations as
    row sums.  Where _fine_rows gives B ≥ 2 rows, sample k = a·B + b has the
    FFT input coarse[a]·fine[b], and each block builds its coarse rows
    exp(−i q t_{aB})·g.  Other times take B = 1 and one half-spectrum exp
    per sample, whose f and P f are bit-identical to evolving each sample
    alone.  The row products differ from those by a few ε·|p² t / 2m| per
    mode; tests/dynamics_oracles.py derives the bound this puts on every
    record field.  |phase| = 1 leaves |g|² unchanged, so ⟨P⟩, ⟨H⟩ and ΔP come
    once from |g₀|² and are the same in every record.

    Memory: the fine rows (at most _BLOCK_ELEMENTS complex values), three
    arrays of a block's rows × M complex values, the coarse rows (a 1/B
    share of a block), half-spectrum phases of half that share and four
    arrays of M.  The three are a block's FFT input, which _block_moments
    reuses for every intermediate, and its two FFT outputs; they and the
    coarse rows are buffers that serve every block of the call.

    Raises SeamError naming the first sample time at which the packet
    center comes within 8 measured widths of the periodic boundary.
    """
    lattice = f0.lattice
    M = lattice.num_sites
    g, p = _fft_input(f0)
    x = lattice.positions
    x2 = x**2
    half = lattice.length / 2
    w = np.abs(g) ** 2
    mean_p = float(np.sum(p * w))
    mean_p2 = float(np.sum(p**2 * w))
    del w
    dp = float(np.sqrt(max(mean_p2 - mean_p**2, 0.0)))
    ts = _real_times(times)
    fine = _fine_rows(ts, lattice)
    B = 1 if fine is None else len(fine)
    rows = _block_rows(len(ts), M, B)
    inputs, ft, pf = np.empty((3, rows, M), dtype=complex)  # a block's FFT input and outputs
    if fine is not None:
        coarse = np.empty((rows // B, M), dtype=complex)
    records = []
    for lo in range(0, len(ts), rows):
        block = ts[lo:lo + rows]
        # numpy's complex product is not bitwise commutative, so each path keeps its operand
        # order: g · phase per sample, which evolve shares, and phase · g for the coarse rows
        if fine is None:
            u = _evolved_momenta(g, block, lattice, inputs[:len(block)])
        else:
            a = _phases(block[::B], lattice, coarse[:-(-len(block) // B)])
            a *= g
            filled = inputs.reshape(-1, B, M)[:len(a)]
            np.multiply(a[:, None, :], fine[None, :, :], out=filled)
            u = filled.reshape(-1, M)[:len(block)]
        moments = _block_moments(u, p, x, x2, np.sqrt(M), ft, pf)
        for t, mean_x, mean_x2, mean_c in zip(block.tolist(), *moments):
            rec = TrajectoryRecord(
                t=t,
                mean_x=mean_x,
                mean_p=mean_p,
                mean_x2=mean_x2,
                mean_c=mean_c,
                mean_h=mean_p2 / (2 * lattice.mass),
                dx=float(np.sqrt(max(mean_x2 - mean_x**2, 0.0))),
                dp=dp,
            )
            if half - abs(rec.mean_x) < 8 * rec.dx:
                raise SeamError(f"packet within 8 widths of the seam at t={t:g}")
            records.append(rec)
    return records


def ehrenfest_residuals(f0: WaveAmplitude, times) -> EhrenfestReport:
    """Central-difference check of d⟨X²⟩/dt = (2/m)⟨C⟩ and d⟨C⟩/dt = 2⟨H⟩
    along the trajectory of f0, with m its lattice's mass.

    Needs at least three uniformly spaced times: every step within
    1e-9·h of the first step h.  Residuals are maxima
    over interior points, relative to the peak magnitude of the target
    side, so a zero crossing of ⟨C⟩ does not blow up the report.  Raises
    ValueError, before any evolution, for a mass that is not positive and
    finite, or whose 2/m overflows, and for times that are fewer than
    three, not finite or not uniformly spaced.
    """
    mass = f0.lattice.mass
    # written so that nan fails; float() keeps a numpy mass from warning where 2/m overflows
    if not (0 < mass < math.inf and math.isfinite(2.0 / float(mass))):
        raise ValueError(f"mass must be positive and finite with a finite 2/mass, got {float(mass)!r}")
    ts = _real_times(times)
    if len(ts) < 3:
        raise ValueError(f"need at least 3 times for central differences, got {len(ts)}")
    with np.errstate(invalid="ignore"):  # a time that is not finite makes a nan step, which fails below
        steps = np.diff(ts)
        h = steps[0]
        uniform = h > 0 and np.max(np.abs(steps - h)) <= 1e-9 * h  # relative, so tiny steps are checked too
    if not uniform:  # written so that nan fails
        raise ValueError("times must be finite, increasing and uniformly spaced")
    records = trajectory(f0, ts)
    x2 = np.array([r.mean_x2 for r in records])
    c = np.array([r.mean_c for r in records])
    hh = np.array([r.mean_h for r in records])
    dx2 = (x2[2:] - x2[:-2]) / (2 * h)
    dc = (c[2:] - c[:-2]) / (2 * h)
    width_target = (2.0 / mass) * c[1:-1]
    corr_target = 2.0 * hh[1:-1]
    width_scale = max(np.max(np.abs(width_target)), 1e-300)
    corr_scale = max(np.max(np.abs(corr_target)), 1e-300)
    return EhrenfestReport(
        width_residual=float(np.max(np.abs(dx2 - width_target)) / width_scale),
        correlation_residual=float(np.max(np.abs(dc - corr_target)) / corr_scale),
    )
