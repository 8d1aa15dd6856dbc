"""Reference implementations for the dynamics layer (test use only).

``trajectory_per_sample`` evolves one sample time at a time, each through
its own full-spectrum phase exponential and 1-D inverse FFT.
``fockfield.dynamics.trajectory`` takes the phases of a uniform time grid
as row products of coarse and fine phase rows and ⟨P⟩, ⟨H⟩ and ΔP from
|g₀|² once, so it rounds differently; every record field must equal the
oracle's within ``trajectory_rounding_bound``, and t bit for bit.  On any
other times its per-sample path keeps the oracle's f and P f at M up to
4096, so there mean_x, mean_x2, mean_c and dx equal the oracle's bit for
bit; from M 16,384 up, mean_c and mean_x2 can differ in the last bit.
``fft_input_per_roundtrip`` is a packet's FFT input the long way, through
``fockfield.field.to_momentum`` and back into np.fft order.
``build_observables`` assembles dense X, P, H, C matrices, which grow as
M² and serve the operator identities in the tests.
"""

import math
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


def fft_input_per_roundtrip(f0):
    """The momentum amplitude of f0 and the momenta in np.fft order, by field's transform: to_momentum's
    values and lattice.momenta with their halves swapped back, the values times exp(iπk) again."""
    lattice = f0.lattice
    M = lattice.num_sites
    order = np.roll(np.arange(M), -(M // 2))  # swaps the halves, so it is its own inverse
    signs = np.where(np.arange(M) % 2 == 0, 1.0, -1.0)
    return to_momentum(f0).values.take(order) * signs, lattice.momenta.take(order)


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


def records_per_sample(f0, times, lattice):
    """The records evolved one sample time at a time, without the seam check."""
    if lattice.mass <= 0:
        raise ValueError("mass must be positive")
    g0 = to_momentum(f0).values
    p = lattice.momenta
    records = []
    for t in times:
        gt = g0 * np.exp(-1j * p**2 * t / (2 * lattice.mass))
        ft = _position_values(gt, lattice)
        records.append(_expectations(ft, gt, lattice, t))
    return records


def seam_margin(rec, lattice):
    """How far the packet of rec sits inside trajectory's seam check: it raises where this is < 0."""
    return lattice.length / 2 - abs(rec.mean_x) - 8 * rec.dx


def trajectory_per_sample(f0, times, lattice):
    """The trajectory evolved one sample time at a time."""
    records = records_per_sample(f0, times, lattice)
    for rec in records:
        if seam_margin(rec, lattice) < 0:
            raise SeamError(f"packet within 8 widths of the seam at t={rec.t:g}")
    return records


EPS = float(np.finfo(float).eps)


def _sqrt_bound(d_square, root):
    """A bound on |√a − √b| from |a − b| ≤ d_square and √b = root: |a − b| / (√a + √b), or √|a − b|."""
    return min(math.sqrt(d_square), d_square / root) if root > 0 else math.sqrt(d_square)


def trajectory_rounding_bound(f0, times, records) -> list:
    """Bounds on |trajectory − trajectory_per_sample| for each field of the
    oracle's records of f0 along times, one TrajectoryRecord per record; t
    is 0, because both copy the time.  The seam margin's bound is
    mean_x + 8·dx of it plus ε·L.

    Notation: u = ε/2, g the momentum amplitude, N = ‖g‖, w_k = |g_k|²,
    q_k = p_k²/2m, T = max|t|, X = L/2 = max|x|, P2 = Σ p²w; the record's
    own ⟨X²⟩ and the Cauchy–Schwarz bounds Σ|x||f|² ≤ √⟨X²⟩·N and
    Σ|x f||P f| ≤ √(⟨X²⟩·P2).  To first order in u:

    - FFT input of a mode, per |g_k|.  The oracle rounds p², ×t and /2m
      (3u·|q t|), exp (2u) and g·phase (√5·u).  The tables round the coarse
      row the same way at t_{aB}; the fine row's h = (t_{n−1} − t₀)/(n − 1)
      and b·h (≤ T, since (B − 1)/(n − 1) ≤ 1/2) add u·|q|T, its phase 3u·|q|T
      and exp 2u; the row product √5·u.  The grid rule admits a computed
      |t_j − (t₀ + j·h)| ≤ 8u·T, at most 11u·T exactly, at both t_{aB} and
      t_k, so the fine row stands for a time off by 22u·T.  Together
      u·(32|q_k|T + 13) ≤ ε·(16|q_k|T + 7) = e_k.
    - f = ifft·√M is unitary: ‖Δf‖ ≤ D_f = √(Σ w e²) + φ·N, where φ =
      ε·(4 log2 M + 9) holds both transforms' rounding, allowed 4u·(log2 M + 2)
      each of ‖input‖ (numpy's pocketfft measured at most 0.8u·log2 M on
      random inputs, 2·prime sizes included), and both √M scalings.  P f
      likewise: D_pf = √(Σ p²w e²) + (φ + ε)·√P2, ε for p·u in both.
    - A pairwise row sum of M terms, with the abs, square and weight before
      it, rounds by at most (log2 M + 23)u of the sum of magnitudes, so both
      paths together by ε·S with S = log2 M + 23.
    - mean_x: Σ|x||Δ|f|²| ≤ 2√⟨X²⟩·D_f + X·D_f², plus ε·S·√⟨X²⟩·N;
      mean_x2 the same with one more factor X, and ε·S·⟨X²⟩.
    - mean_c = Re vdot(x f, P f): X·D_f·√P2 + √⟨X²⟩·D_pf + X·D_f·D_pf,
      plus ε·(M + 3)·√(⟨X²⟩·P2) for x·f, the products and vdot's sum in any
      order, in both paths.
    - mean_p: the oracle's |g·phase|² is w·(1 ± 10u); with both sums,
      ε·(S + 5)·√P2·N.  ⟨P²⟩ the same with P2, mean_h that over 2m plus
      ε·mean_h for the division.
    - dx = √(mean_x2 − mean_x²): the difference of the squares is at most
      Δmean_x2 + Δmean_x·(2|mean_x| + Δmean_x) + ε·(mean_x² + dx²) with
      its rounding, and |√a − √b| ≤ |a − b|/√b or √|a − b|; plus ε·dx for
      the square roots.  dp the same with the momentum moments.
    """
    lattice = f0.lattice
    M = lattice.num_sites
    w = np.abs(to_momentum(f0).values) ** 2
    p = lattice.momenta
    T = max((abs(t) for t in times), default=0.0)
    e = EPS * (16 * p**2 / (2 * lattice.mass) * T + 7)
    N = math.sqrt(np.sum(w))
    P2 = float(np.sum(p**2 * w))
    S = math.log2(M) + 23
    fft = EPS * (4 * math.log2(M) + 9)
    d_f = math.sqrt(np.sum(w * e**2)) + fft * N
    d_pf = math.sqrt(np.sum(p**2 * w * e**2)) + (fft + EPS) * math.sqrt(P2)
    return [_record_bound(rec, lattice, d_f, d_pf, N, P2, S) for rec in records]


def _record_bound(rec, lattice, d_f, d_pf, N, P2, S):
    X = lattice.length / 2
    rx2 = math.sqrt(max(rec.mean_x2, 0.0))
    b_x = 2 * rx2 * d_f + X * d_f**2 + EPS * S * rx2 * N
    b_x2 = X * (2 * rx2 * d_f + X * d_f**2) + EPS * S * rec.mean_x2
    b_c = X * d_f * math.sqrt(P2) + rx2 * d_pf + X * d_f * d_pf + EPS * (lattice.num_sites + 3) * rx2 * math.sqrt(P2)
    b_p = EPS * (S + 5) * math.sqrt(P2) * N
    b_p2 = EPS * (S + 5) * P2
    d_x2 = b_x2 + b_x * (2 * abs(rec.mean_x) + b_x) + EPS * (rec.mean_x**2 + rec.dx**2)
    d_p2 = b_p2 + b_p * (2 * abs(rec.mean_p) + b_p) + EPS * (rec.mean_p**2 + rec.dp**2)
    return TrajectoryRecord(
        t=0.0,
        mean_x=b_x,
        mean_p=b_p,
        mean_x2=b_x2,
        mean_c=b_c,
        mean_h=b_p2 / (2 * lattice.mass) + EPS * rec.mean_h,
        dx=_sqrt_bound(d_x2, rec.dx) + EPS * rec.dx,
        dp=_sqrt_bound(d_p2, rec.dp) + EPS * rec.dp,
    )
