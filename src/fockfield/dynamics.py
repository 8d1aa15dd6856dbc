"""Free single-particle dynamics: X, P, H, C observables and exact evolution.

The correlation observable C = (XP + PX)/2 controls how a free wavepacket
breathes: d⟨X²⟩/dt = (2/m)⟨C⟩ and d⟨C⟩/dt = 2⟨H⟩ ≥ 0, so a state with
negative correlation shrinks, passes through a minimum-width waist, and
then spreads forever.  Evolution is exact spectral phase multiplication
exp(−i p² t / 2m) in momentum space, which removes any integrator error
from tests of those identities.

`trajectory` evolves blocks of sample times as one (times × sites)
array: one phase exponential, one inverse FFT along the rows for f and
one for P f, and the expectations as row sums.  Each value is
bit-identical to evolving the samples one at a time.

The canonical commutator [X, P] = i cannot hold globally on a periodic
lattice, so every continuum identity here is asserted on localized
packets kept at least 8σ away from the wrap-around seam, where the
corrections are at Gaussian-tail level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import (
    _BLOCK_ELEMENTS,
    LatticeSpec,
    MomentumAmplitude,
    WaveAmplitude,
    from_momentum,
    from_momentum_values,
    to_momentum,
)


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
    resolve the profile) and x0 at least 8σ₀ from the periodic seam.
    """
    if sigma0 < 2 * lattice.spacing:
        raise ValueError(f"sigma0 {sigma0} too narrow; need >= 2 spacing = {2 * lattice.spacing}")
    half = lattice.length / 2
    seam_distance = half - abs(x0)
    if seam_distance < 8 * sigma0:
        raise SeamError(
            f"packet at x0={x0} is {seam_distance:g} from the seam; need >= {8 * sigma0:g}"
        )
    x = lattice.positions
    f = np.exp(-(1 + 1j * chirp) * (x - x0) ** 2 / (4 * sigma0**2) + 1j * p0 * x)
    return WaveAmplitude(f / np.linalg.norm(f), lattice)


def evolve(f: WaveAmplitude, t: float, lattice: LatticeSpec) -> WaveAmplitude:
    """Exact free evolution by phase multiplication in momentum space.

    Unitary for every t; the momentum distribution is invariant.
    """
    if lattice.mass <= 0:
        raise ValueError("mass must be positive")
    g = to_momentum(f)
    phases = np.exp(-1j * lattice.momenta**2 * t / (2 * lattice.mass))
    return from_momentum(MomentumAmplitude(g.values * phases, lattice))


def trajectory(f0: WaveAmplitude, times, lattice: LatticeSpec):
    """Observable records along the exact evolution, one per sample time.

    Raises SeamError naming the first sample time at which the packet
    center comes within 8 measured widths of the periodic boundary.
    ⟨C⟩ = Re⟨X f, P f⟩ takes one np.vdot per sample, because a row sum
    would add the products in another order.
    """
    if lattice.mass <= 0:
        raise ValueError("mass must be positive")
    g0 = to_momentum(f0).values
    x = lattice.positions
    p = lattice.momenta
    half = lattice.length / 2
    ts = np.asarray(list(times), dtype=float)
    rows = max(1, _BLOCK_ELEMENTS // lattice.num_sites)
    records = []
    for lo in range(0, len(ts), rows):
        block = ts[lo:lo + rows]
        gt = g0 * np.exp(-1j * p**2 * block[:, None] / (2 * lattice.mass))
        ft = from_momentum_values(gt, lattice)
        pf = from_momentum_values(p * gt, lattice)
        fdens = np.abs(ft) ** 2
        gdens = np.abs(gt) ** 2
        mean_x = np.sum(x * fdens, axis=1).tolist()
        mean_x2 = np.sum(x**2 * fdens, axis=1).tolist()
        mean_p = np.sum(p * gdens, axis=1).tolist()
        mean_p2 = np.sum(p**2 * gdens, axis=1).tolist()
        xf = x * ft
        for i, t in enumerate(block.tolist()):
            rec = TrajectoryRecord(
                t=t,
                mean_x=mean_x[i],
                mean_p=mean_p[i],
                mean_x2=mean_x2[i],
                mean_c=float(np.real(np.vdot(xf[i], pf[i]))),
                mean_h=mean_p2[i] / (2 * lattice.mass),
                dx=float(np.sqrt(max(mean_x2[i] - mean_x[i] ** 2, 0.0))),
                dp=float(np.sqrt(max(mean_p2[i] - mean_p[i] ** 2, 0.0))),
            )
            if half - abs(rec.mean_x) < 8 * rec.dx:
                raise SeamError(f"packet within 8 widths of the seam at t={t:g}")
            records.append(rec)
    return records


def ehrenfest_residuals(records, mass: float) -> EhrenfestReport:
    """Central-difference check of d⟨X²⟩/dt = (2/m)⟨C⟩ and d⟨C⟩/dt = 2⟨H⟩.

    Needs at least three uniformly spaced records.  Residuals are maxima
    over interior points, relative to the peak magnitude of the target
    side, so a zero crossing of ⟨C⟩ does not blow up the report.
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records for central differences")
    ts = np.array([r.t for r in records])
    steps = np.diff(ts)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * max(abs(h), 1.0):
        raise ValueError("records must be uniformly spaced in time")
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
