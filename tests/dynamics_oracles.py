"""Reference implementations for the dynamics layer (test use only).

``trajectory_per_sample`` evolves one sample time at a time, each through
its own 1-D inverse FFT; ``fockfield.dynamics.trajectory`` must equal it bit
for bit.  ``build_observables`` assembles dense X, P, H, C matrices, which
grow as M² and serve the operator identities in the tests.
"""

from dataclasses import dataclass

import numpy as np

from fockfield.dynamics import SeamError, TrajectoryRecord
from fockfield.field import Dispersion, LatticeSpec, to_momentum


@dataclass(frozen=True)
class ObservableSet:
    """Dense matrices in the site basis: X diagonal, P spectral, H = P²/2m,
    C the symmetrized product (XP + PX)/2."""

    X: np.ndarray
    P: np.ndarray
    H: np.ndarray
    C: np.ndarray


def build_observables(lattice: LatticeSpec) -> ObservableSet:
    """Assemble X, P, H, C for a massive nonrelativistic particle."""
    if lattice.dispersion is not Dispersion.NONRELATIVISTIC:
        raise ValueError("observables are defined for the nonrelativistic dispersion")
    if lattice.mass <= 0:
        raise ValueError("mass must be positive")
    M = lattice.num_sites
    x = lattice.positions
    p = lattice.momenta
    U = np.exp(-1j * np.outer(p, x)) / np.sqrt(M)  # momentum-from-position map
    X = np.diag(x.astype(complex))
    P = U.conj().T @ (p[:, None] * U)
    H = U.conj().T @ ((p**2 / (2 * lattice.mass))[:, None] * U)
    P = (P + P.conj().T) / 2
    H = (H + H.conj().T) / 2
    C = (X @ P + P @ X) / 2
    return ObservableSet(X=X, P=P, H=H, C=C)


def _position_values(gt, lattice):
    """f(x) of one momentum amplitude: shift signs, ifftshift, 1-D inverse FFT."""
    signs = np.where(lattice.wavenumbers % 2 == 0, 1.0, -1.0)
    return np.fft.ifft(np.fft.ifftshift(signs * gt)) * np.sqrt(lattice.num_sites)


def _expectations(ft, gt, lattice, t):
    x = lattice.positions
    p = lattice.momenta
    fdens = np.abs(ft) ** 2
    gdens = np.abs(gt) ** 2
    mean_x = float(np.sum(x * fdens))
    mean_x2 = float(np.sum(x**2 * fdens))
    mean_p = float(np.sum(p * gdens))
    mean_p2 = float(np.sum(p**2 * gdens))
    mean_h = mean_p2 / (2 * lattice.mass)
    # <C> = Re <X f, P f>, with P applied spectrally
    pf = _position_values(p * gt, lattice)
    mean_c = float(np.real(np.vdot(x * ft, pf)))
    return TrajectoryRecord(
        t=float(t),
        mean_x=mean_x,
        mean_p=mean_p,
        mean_x2=mean_x2,
        mean_c=mean_c,
        mean_h=mean_h,
        dx=float(np.sqrt(max(mean_x2 - mean_x**2, 0.0))),
        dp=float(np.sqrt(max(mean_p2 - mean_p**2, 0.0))),
    )


def trajectory_per_sample(f0, times, lattice):
    """The trajectory evolved one sample time at a time."""
    if lattice.mass <= 0:
        raise ValueError("mass must be positive")
    g0 = to_momentum(f0).values
    p = lattice.momenta
    half = lattice.length / 2
    records = []
    for t in times:
        gt = g0 * np.exp(-1j * p**2 * t / (2 * lattice.mass))
        ft = _position_values(gt, lattice)
        rec = _expectations(ft, gt, lattice, t)
        if half - abs(rec.mean_x) < 8 * rec.dx:
            raise SeamError(f"packet within 8 widths of the seam at t={t:g}")
        records.append(rec)
    return records
