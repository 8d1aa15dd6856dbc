"""Discretized 1-D field: lattice duality, state preparation, microcausality.

Units are ħ = c = 1; the lattice spacing Δx carries the length scale.
Sites sit at x_j = (j − M/2)Δx with periodic boundaries, and the dual
momenta are p_k = 2πk/(MΔx) for k = −M/2 .. M/2−1, which makes the
position↔momentum map exactly unitary.

A one-particle state is assembled by smearing the creation operator with
a complex intensity profile f(x); the occupation-number density then
reproduces |f(x)|² exactly.  The free complex scalar's c-number
commutator is evaluated as a relativistic mode sum, with and without the
antiparticle contribution, to exhibit its cancellation at spacelike
separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import (
    NORM_TOL,
    FockVector,
    ModeSpace,
    Statistics,
    annihilate,
    create,
    inner,
    number_expectation,
    vacuum,
)

# Elements per block of a (rows × modes) pass: 2**17 complex128 values is
# 2 MiB.  commutator_sweep and dynamics.trajectory both block by it.
_BLOCK_ELEMENTS = 1 << 17


class Dispersion(Enum):
    NONRELATIVISTIC = "nonrelativistic"  # E = p^2 / 2m
    RELATIVISTIC = "relativistic"        # w = sqrt(m^2 + p^2)


@dataclass(frozen=True)
class LatticeSpec:
    num_sites: int
    spacing: float
    mass: float
    dispersion: Dispersion = Dispersion.NONRELATIVISTIC

    def __post_init__(self):
        if self.num_sites < 2 or self.num_sites % 2:
            raise ValueError("num_sites must be even and >= 2")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")

    @property
    def length(self) -> float:
        return self.num_sites * self.spacing

    @property
    def positions(self) -> np.ndarray:
        return (np.arange(self.num_sites) - self.num_sites // 2) * self.spacing

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.num_sites // 2, self.num_sites // 2)

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * self.wavenumbers / self.length

    @property
    def frequencies(self) -> np.ndarray:
        """Relativistic mode frequencies on the lattice.

        Discretizes ω = √(m² + p²) through p → (2/Δx)·sin(pΔx/2), the
        momentum carried by the periodic difference operator.  The two
        agree as Δx → 0, but the discrete form is smooth across the zone
        boundary and keeps the group velocity below 1, which is what lets
        the spacelike commutator cancel to spectral accuracy instead of
        O(Δx²).  The k = 0 entry is 0 for m = 0 and for any mass whose
        square underflows to 0 (m below about 1.6e-162); such entries must
        be excluded from measure-weighted sums (infrared cutoff).
        """
        p_eff = (2.0 / self.spacing) * np.sin(self.momenta * self.spacing / 2.0)
        return np.sqrt(self.mass**2 + p_eff**2)


@dataclass
class WaveAmplitude:
    """Complex intensity profile f(x), one value per lattice site."""

    values: np.ndarray
    lattice: LatticeSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.lattice.num_sites,):
            raise ValueError("values must have one entry per site")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def normalized(self) -> "WaveAmplitude":
        return WaveAmplitude(self.values / self.norm, self.lattice)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass
class MomentumAmplitude:
    """Momentum-side intensity g(p), indexed like lattice.momenta."""

    values: np.ndarray
    lattice: LatticeSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.lattice.num_sites,):
            raise ValueError("values must have one entry per momentum")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


@dataclass(frozen=True)
class GeneralStateSpec:
    """Sector amplitudes F_n keyed by sorted site tuples, n = len(tuple)."""

    amplitudes: dict
    max_sector: int = 4


def overlap(lattice: LatticeSpec, x_index: int, p_index: int) -> complex:
    """⟨φ_p, φ_x⟩ = exp(−i p x)/√M, the unitary plane-wave kernel."""
    M = lattice.num_sites
    if not 0 <= x_index < M:
        raise ValueError(f"x_index {x_index} out of range [0, {M})")
    if not 0 <= p_index < M:
        raise ValueError(f"p_index {p_index} out of range [0, {M})")
    x = lattice.positions[x_index]
    p = lattice.momenta[p_index]
    return complex(np.exp(-1j * p * x) / np.sqrt(M))


def _shift_signs(lattice: LatticeSpec) -> np.ndarray:
    # exp(i pi k) factors from the half-lattice origin offset
    return np.where(lattice.wavenumbers % 2 == 0, 1.0, -1.0)


def to_momentum(f: WaveAmplitude) -> MomentumAmplitude:
    """g(p) = Σ_x f(x) ⟨φ_p, φ_x⟩, evaluated by FFT."""
    lat = f.lattice
    M = lat.num_sites
    g = _shift_signs(lat) * np.fft.fftshift(np.fft.fft(f.values)) / np.sqrt(M)
    return MomentumAmplitude(g, lat)


def from_momentum(g: MomentumAmplitude) -> WaveAmplitude:
    """Inverse of to_momentum; the pair round-trips to 1e-12."""
    return WaveAmplitude(from_momentum_values(g.values, g.lattice), g.lattice)


def from_momentum_values(values: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """The inverse transform of from_momentum along the last axis, so a
    (rows × M) array is transformed row by row, each row in the same float
    operations as a single amplitude."""
    shifted = np.fft.ifftshift(_shift_signs(lattice) * values, axes=-1)
    return np.fft.ifft(shifted, axis=-1) * np.sqrt(lattice.num_sites)


def site_mode_space(lattice: LatticeSpec, statistics=Statistics.BOSE, nmax: int = 8) -> ModeSpace:
    """One ladder mode per lattice site."""
    return ModeSpace(lattice.num_sites, statistics, nmax=nmax)


def prepare_one_particle(f: WaveAmplitude, mode_space: ModeSpace) -> FockVector:
    """Σ_x f(x) Ψ†(x) |0⟩: the one-particle state with intensity f."""
    if mode_space.num_modes != f.lattice.num_sites or mode_space.species_count != 1:
        raise ValueError("mode_space must have one single-species mode per site")
    if abs(f.norm - 1.0) > NORM_TOL:
        raise ValueError(f"intensity profile must be normalized (norm = {f.norm!r})")
    zero = (0,) * mode_space.num_slots
    amps = {}
    for j, a in enumerate(f.values):
        if a != 0.0:
            amps[zero[:j] + (1,) + zero[j + 1:]] = complex(a)
    return FockVector(mode_space, amps)


def prepare_general(spec: GeneralStateSpec, mode_space: ModeSpace) -> FockVector:
    """Σ_n Σ_{x₁..x_n} F_n Ψ†(x₁)…Ψ†(x_n) |0⟩, normalized.

    Mixes particle-number sectors whenever F_n is supported on several n.
    Site tuples must be sorted (the canonical representative of each
    unordered configuration).
    """
    out = FockVector(mode_space, {})
    for sites, amp in spec.amplitudes.items():
        sites = tuple(sites)
        if len(sites) > spec.max_sector:
            raise ValueError(f"sector {len(sites)} exceeds max_sector {spec.max_sector}")
        if list(sites) != sorted(sites):
            raise ValueError(f"site tuple {sites} not in canonical sorted order")
        if amp == 0.0:
            continue
        v = vacuum(mode_space)
        for site in reversed(sites):
            v = create(v, site)
        out = out + amp * v
    if out.is_null:
        raise ValueError("specification produced the null element")
    return out.normalized()


def number_density(v: FockVector, x: int) -> float:
    """⟨Ψ†(x)Ψ(x)⟩; equals |f(x)|² for a one-particle state built from f."""
    return number_expectation(v, mode=x)


def field_expectation(v: FockVector, x: int) -> complex:
    """⟨Ψ(x)⟩: identically zero for any fixed-particle-number state.

    Only sector-mixing states (coherent states, vacuum+one-particle
    superpositions, ...) can sustain a nonzero field amplitude.
    """
    return inner(v, annihilate(v, x))


def coherent_state(mode_amplitudes, mode_space: ModeSpace) -> FockVector:
    """Approximate eigenvector of the annihilation operators: A_α v ≈ α_α v.

    Built from truncated Poisson amplitudes α^n/√(n!) per mode and then
    normalized, so ⟨N⟩ matches Σ|α|² up to the (tiny) discarded tail.
    Requires nmax ≥ max(12, ⌈8|α|²⌉) per mode to keep the eigen-residual
    at the 1e-6 scale.  Undefined for fermions.
    """
    if mode_space.statistics is not Statistics.BOSE:
        raise ValueError("coherent states are defined for Bose statistics only")
    alphas = np.asarray(mode_amplitudes, dtype=complex)
    if alphas.shape != (mode_space.num_modes,):
        raise ValueError("need one amplitude per mode")
    needed = max(12, math.ceil(8 * np.max(np.abs(alphas) ** 2))) if np.any(alphas != 0) else 1
    if np.any(alphas != 0) and mode_space.nmax < needed:
        raise ValueError(f"nmax {mode_space.nmax} too small; need >= {needed}")
    active = [m for m in range(mode_space.num_modes) if alphas[m] != 0.0]
    zero = (0,) * mode_space.num_slots
    if not active:
        return vacuum(mode_space)
    per_mode = []
    for m in active:
        ns = np.arange(mode_space.nmax + 1)
        log_fact = np.cumsum(np.concatenate(([0.0], np.log(ns[1:]))))
        per_mode.append(alphas[m] ** ns * np.exp(-0.5 * log_fact))
    amps = {}
    idx = np.ndindex(*([mode_space.nmax + 1] * len(active)))
    for occ_active in idx:
        a = 1.0 + 0.0j
        occ = list(zero)
        for pos, m in enumerate(active):
            a *= per_mode[pos][occ_active[pos]]
            occ[m] = occ_active[pos]
        amps[tuple(occ)] = a
    return FockVector(mode_space, amps).normalized()


def identity_resolution_residual(v: FockVector, x: int) -> float:
    """‖(Ψ(x)Ψ†(x) ∓ Ψ†(x)Ψ(x)) v − v‖, the resolution-of-identity defect.

    Zero (to rounding) whenever v keeps the site occupation below nmax,
    for bosons; always zero for fermions.
    """
    if v.mode_space.statistics is Statistics.BOSE:
        w = annihilate(create(v, x), x) - create(annihilate(v, x), x)
    else:
        w = annihilate(create(v, x), x) + create(annihilate(v, x), x)
    return (w - v).norm


def _commutator_modes(lattice: LatticeSpec):
    """(ω, p) of the modes in the commutator sum: those with ω > 0."""
    if lattice.dispersion is not Dispersion.RELATIVISTIC:
        raise ValueError("commutator mode sum requires the relativistic dispersion")
    w = lattice.frequencies
    keep = w > 0
    return w[keep], lattice.momenta[keep]


def pauli_jordan(lattice: LatticeSpec, dt: float, dx: float, include_antiparticles: bool = True) -> complex:
    """c-number commutator [Φ(t,x), Φ†(t′,y)] of the free charged scalar.

    Mode sum (1/M) Σ_k (1/2ω_k) (e^{i(p_k dx − ω_k dt)} − e^{−i(p_k dx − ω_k dt)})
    where the subtracted term is the antiparticle contribution, included
    only when the flag is set.  With antiparticles the magnitude at
    spacelike separation is bounded by lattice artifacts (exactly zero at
    equal times on the site grid); without them it is set by the particle
    propagator and stays finite.

    Every mode with ω = 0 is excluded (infrared cutoff): the k = 0 mode
    when m = 0 or when m² underflows to 0.  Callers that record artifacts
    should flag this in their metadata.
    """
    w, p = _commutator_modes(lattice)
    theta = p * dx - w * dt
    summand = np.exp(1j * theta)
    if include_antiparticles:
        summand = summand - np.exp(-1j * theta)
    return complex(np.sum(summand / (2.0 * w)) / lattice.num_sites)


def default_spacelike_grid(lattice: LatticeSpec, cone_margin: float = 3.0):
    """Sample points (dt, dx) with |dx| > |dt|, on multiples of Δx up to MΔx/4.

    Two families: the equal-time axis dt = 0 (where the cancellation is
    an exact lattice symmetry) and the wedge dx ≥ dt + cone_margin.  The
    margin keeps samples clear of the lattice-smeared light cone, whose
    crossover region is a few Compton wavelengths wide.  Points within
    1e-12 of the cone itself are left out at any margin: the two arange
    grids can differ by an ulp where dt == dx.
    """
    extent = lattice.length / 4.0
    step = lattice.spacing
    dts = np.arange(0.0, extent + step / 2, step)
    dxs = np.arange(step, extent + step / 2, step)
    pairs = [(0.0, float(dx)) for dx in dxs]
    pairs += [
        (float(dt), float(dx))
        for dt in dts[1:]
        for dx in dxs
        if dx >= dt + cone_margin - 1e-12 and dx - dt > 1e-12
    ]
    return pairs


def commutator_sweep(lattice: LatticeSpec, pairs):
    """pauli_jordan over (dt, dx) pairs, with and without antiparticles.

    Returns two lists of complex, ``(with_antiparticles, without)``, each
    with one value per pair in input order.  Both come from one chunked
    numpy pass: each block of pairs builds e = exp(i(p·dx − ω·dt)) once
    over (rows × modes), and the antiparticle term reuses it as conj(e).
    Blocks hold at most about 2**17 complex values (2 MiB) at any M.
    Every value is exactly equal (==) to the matching pauli_jordan call,
    so artifacts built from either are byte-identical.
    """
    w, p = _commutator_modes(lattice)
    M = lattice.num_sites
    two_w = 2.0 * w
    grid = np.asarray(pairs, dtype=float).reshape(len(pairs), 2)
    with_anti = np.empty(len(grid), dtype=complex)
    without = np.empty(len(grid), dtype=complex)
    rows = max(1, _BLOCK_ELEMENTS // len(w))
    for lo in range(0, len(grid), rows):
        dt = grid[lo:lo + rows, 0:1]
        dx = grid[lo:lo + rows, 1:2]
        e = np.exp(1j * (p * dx - w * dt))
        without[lo:lo + rows] = np.sum(e / two_w, axis=1) / M
        with_anti[lo:lo + rows] = np.sum((e - e.conj()) / two_w, axis=1) / M
    return with_anti.tolist(), without.tolist()
