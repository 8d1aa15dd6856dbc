"""Discretized 1-D field: lattice duality, state preparation, microcausality.

Units are ħ = c = 1; the lattice spacing Δx carries the length scale.
Sites sit at x_j = (j − M/2)Δx with periodic boundaries, and the dual
momenta are p_k = 2πk/(MΔx) for k = −M/2 .. M/2−1, which makes the
position↔momentum map exactly unitary.  to_momentum and from_momentum
evaluate it by FFT: np.fft.fftshift and ifftshift move amplitudes between
np.fft order (k = 0 .. M/2−1, then −M/2 .. −1) and the order of
lattice.momenta, and the factors exp(iπk) carry the half-lattice origin.

A one-particle state is assembled by smearing the creation operator with
a complex intensity profile f(x); the occupation-number density then
reproduces |f(x)|² exactly.  The free complex scalar's c-number
commutator is evaluated as a relativistic mode sum, with and without the
antiparticle contribution, to exhibit its cancellation at spacelike
separation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise

import numpy as np

from .fock import (
    NORM_TOL,
    FockVector,
    ModeSpace,
    Statistics,
    _index_arg,
    _integer,
    _real,
    _real_array,
    annihilate,
    create,
    inner,
    number_expectation,
    vacuum,
)


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
        object.__setattr__(self, "num_sites", _integer("num_sites", self.num_sites))
        if self.num_sites < 2 or self.num_sites % 2:
            raise ValueError("num_sites must be even and >= 2")
        if not _real("spacing", self.spacing) > 0:  # written so that nan fails, as below
            raise ValueError("spacing must be positive")
        if not math.isfinite(self.spacing):
            raise ValueError(f"spacing must be finite, got {self.spacing!r}")
        if not _real("mass", self.mass) >= 0:
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
        be excluded from measure-weighted sums (infrared cutoff).  Raises
        ValueError when some ω is not finite: m² overflows, or Δx is so
        small that the momenta do; and when some ω other than k = 0 is 0:
        m² and p_eff² both underflow, as at m = 0, Δx = 1e200, so a sum
        without the ω = 0 modes would silently drop them.
        """
        with np.errstate(all="ignore"):  # an overflow is reported below, not as a numpy warning
            p_eff = (2.0 / self.spacing) * np.sin(self.momenta * self.spacing / 2.0)
            w = np.sqrt(np.float64(self.mass) ** 2 + p_eff**2)  # the float's own ** raises OverflowError
        if not np.isfinite(w).all():
            raise ValueError(f"the mode frequencies are not finite at mass {self.mass!r}, dx {self.spacing!r}")
        if np.any(np.delete(w, self.num_sites // 2) == 0):  # k = 0 sits at index M/2
            raise ValueError(f"a mode frequency other than k = 0 underflows to 0 at mass {self.mass!r}, "
                             f"dx {self.spacing!r}")
        return w


def _norm(values: np.ndarray) -> float:
    """‖values‖, inf where the values are finite but their norm overflows."""
    with np.errstate(over="ignore"):  # the overflow is the inf itself, not a numpy warning
        return float(np.linalg.norm(values))


@dataclass
class WaveAmplitude:
    """Complex intensity profile f(x), one value per lattice site."""

    values: np.ndarray
    lattice: LatticeSpec

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.lattice.num_sites,):
            raise ValueError("values must have one entry per site")
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    @property
    def norm(self) -> float:
        return _norm(self.values)

    def normalized(self) -> "WaveAmplitude":
        n = self.norm
        if not 0 < n < math.inf:
            raise ValueError(f"cannot normalize an intensity profile of norm {n!r}")
        return WaveAmplitude(self.values / n, self.lattice)

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
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    @property
    def norm(self) -> float:
        return _norm(self.values)

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
    x_index, p_index = _index_arg("x_index", x_index), _index_arg("p_index", p_index)
    if not 0 <= x_index < M:
        raise ValueError(f"x_index {x_index} out of range [0, {M})")
    if not 0 <= p_index < M:
        raise ValueError(f"p_index {p_index} out of range [0, {M})")
    x = lattice.positions[x_index]
    p = lattice.momenta[p_index]
    return complex(np.exp(-1j * p * x) / np.sqrt(M))


def to_momentum(f: WaveAmplitude) -> MomentumAmplitude:
    """g(p) = Σ_x f(x) ⟨φ_p, φ_x⟩, evaluated by FFT."""
    M = f.lattice.num_sites
    return MomentumAmplitude(np.fft.fftshift(_origin_signs(M) * np.fft.fft(f.values)) / np.sqrt(M), f.lattice)


def from_momentum(g: MomentumAmplitude) -> WaveAmplitude:
    """Inverse of to_momentum; the pair round-trips to 1e-12."""
    M = g.lattice.num_sites
    return WaveAmplitude(np.fft.ifft(np.fft.ifftshift(g.values) * _origin_signs(M)) * np.sqrt(M), g.lattice)


def _origin_signs(num_sites: int) -> np.ndarray:
    """exp(iπk) in np.fft order, +1 and −1 in turn: the phase of the half-lattice origin offset
    x_0 = −(M/2)Δx.  A factor of ±1 commutes with rounding, so where it is applied moves no bit."""
    return np.where(np.arange(num_sites) % 2 == 0, 1.0, -1.0)


def site_mode_space(lattice: LatticeSpec, statistics=Statistics.BOSE, nmax: int = 8) -> ModeSpace:
    """One ladder mode per lattice site."""
    return ModeSpace(lattice.num_sites, statistics, nmax=nmax)


def prepare_one_particle(f: WaveAmplitude, mode_space: ModeSpace) -> FockVector:
    """Σ_x f(x) Ψ†(x) |0⟩: the one-particle state with intensity f."""
    if mode_space.num_modes != f.lattice.num_sites or mode_space.species_count != 1:
        raise ValueError("mode_space must have one single-species mode per site")
    if not abs(f.norm - 1.0) <= NORM_TOL:
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
    unordered configuration), and every amplitude a finite real or complex
    number other than a bool; the whole spec is checked before any state is built.
    """
    terms = [(tuple(sites), amp) for sites, amp in spec.amplitudes.items()]
    for sites, amp in terms:
        if len(sites) > spec.max_sector:
            raise ValueError(f"sector {len(sites)} exceeds max_sector {spec.max_sector}")
        if list(sites) != sorted(sites):
            raise ValueError(f"site tuple {sites} not in canonical sorted order")
        if isinstance(amp, bool) or not isinstance(amp, numbers.Complex):  # Decimal is a Number, not Complex
            raise ValueError(f"amplitude at sites {sites} must be a real or complex number, got {amp!r}")
        if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
            raise ValueError(f"amplitude at sites {sites} must be finite, got {amp}")
    out = FockVector(mode_space, {})
    for sites, amp in terms:
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
    Requires nmax ≥ max(12, ⌈8|α|²⌉) per mode.  The truncation leaves the
    eigen-residual ‖(A_α − α_α)v‖ = |α_α|·|c_nmax|, with c_nmax the mode's
    normalized amplitude at n = nmax: 1.824e-6 at α 0.8 and nmax 12.
    Undefined for fermions.
    """
    if mode_space.statistics is not Statistics.BOSE:
        raise ValueError("coherent states are defined for Bose statistics only")
    alphas = np.asarray(mode_amplitudes, dtype=complex)
    if alphas.shape != (mode_space.num_modes,):
        raise ValueError("need one amplitude per mode")
    if not np.isfinite(alphas).all():
        raise ValueError("mode_amplitudes must be finite")
    active = [m for m in range(mode_space.num_modes) if alphas[m] != 0.0]
    if not active:
        return vacuum(mode_space)
    with np.errstate(over="ignore"):  # past |α| ≈ 1e154 the bound is inf, which no nmax meets
        bound = 8 * np.max(np.abs(alphas) ** 2)
    needed = max(12, math.ceil(bound)) if np.isfinite(bound) else bound
    if mode_space.nmax < needed:
        raise ValueError(f"nmax {mode_space.nmax} too small; need >= {needed}")
    zero = (0,) * mode_space.num_slots
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
    should flag this in their metadata.  This is the one-pair case of
    commutator_sweep, so it raises ValueError where the phase is not finite.
    """
    for name, value in (("dt", dt), ("dx", dx)):
        error = f"{name} must be a real number, got {value!r}"
        if _real_array(value, error).ndim != 0:
            raise ValueError(error)
    with_anti, without = commutator_sweep(lattice, [(dt, dx)])
    return complex((with_anti if include_antiparticles else without)[0])


def default_spacelike_grid(lattice: LatticeSpec, cone_margin: float = 3.0) -> np.ndarray:
    """Sample points (dt, dx) with |dx| > |dt|, on multiples of Δx up to MΔx/4,
    as an (n, 2) float array with one (dt, dx) row per point.

    Two families: the equal-time axis dt = 0 (where the cancellation is
    an exact lattice symmetry) and the wedge dx ≥ dt + cone_margin, in
    order of dt and then dx.  The margin keeps samples clear of the
    lattice-smeared light cone, whose crossover region is a few Compton
    wavelengths wide.  Points within 1e-12 of the cone itself are left
    out at any margin: the two arange grids can differ by an ulp where
    dt == dx.
    """
    if not math.isfinite(cone_margin):  # nan or inf would drop the whole wedge without a word
        raise ValueError(f"cone_margin must be finite, got {cone_margin!r}")
    extent = lattice.length / 4.0
    step = lattice.spacing
    dts = np.arange(0.0, extent + step / 2, step)
    dxs = np.arange(step, extent + step / 2, step)
    dt, dx = np.meshgrid(dts[1:], dxs, indexing="ij")
    wedge = (dx >= dt + cone_margin - 1e-12) & (dx - dt > 1e-12)
    return np.concatenate([np.column_stack([np.zeros_like(dxs), dxs]), np.column_stack([dt[wedge], dx[wedge]])])


def commutator_sweep(lattice: LatticeSpec, pairs):
    """The pauli_jordan mode sums over (dt, dx) pairs, with and without antiparticles.

    pairs is a sequence of (dt, dx) pairs of real numbers or an (n, 2) float
    array; anything else raises ValueError naming pairs.  Returns two 1-D
    complex arrays, ``(with_antiparticles, without)``, each with one value
    per pair in input order.  The mode sum factors as
    S = (1/M) Σ_k e^{ip_k·dx} · e^{−iω_k·dt}/2ω_k, so one table A holds
    e^{ip·dx} for each distinct dx and one table B holds e^{−iω·dt}/2ω for
    each distinct dt: one complex exp per distinct value and mode.  The
    pairs are taken in the order given, in runs of equal dt: for each run,
    the A rows of its pairs times its B row are summed over the modes by one
    call of einsum's own loop (no BLAS, so the bits depend on no BLAS kernel
    or thread count).  Pairs grouped by dt, as the dts × separations product
    and default_spacelike_grid give them, cost one call per distinct dt;
    any other order costs one call per run.  The sum without antiparticles
    is S; the one with them is 2i·Im S, whose real part is exactly +0.0.  A
    pair takes its bits from its own two table rows, so its value does not
    depend on the other pairs or their order: pauli_jordan of one pair
    equals that pair inside any sweep.  Memory: (distinct dt + distinct dx)
    × modes complex values, one run's gathered rows of A (run length ×
    modes), and per pair only its two table indices and the two results.

    A pair whose A or B row is not finite (p·dx or ω·dt overflows, or an
    input is nan or inf) raises ValueError naming the first such pair.
    When p·dx and ω·dt are both finite but their difference overflows,
    the value is finite: the product of the two rounded factors.
    """
    w, p = _commutator_modes(lattice)
    grid = _real_array(pairs, "pairs must be (dt, dx) pairs of real numbers")
    if grid.shape == (0,):  # an empty sequence: no pairs
        grid = grid.reshape(0, 2)
    if grid.ndim != 2 or grid.shape[1] != 2:
        raise ValueError(f"pairs must be (dt, dx) pairs of real numbers, as an (n, 2) array, got shape {grid.shape}")
    # + 0.0 turns -0.0 into +0.0 (their B rows differ in the sign of zero imaginary parts), so the
    # rows a pair reads do not depend on which of the two zeros np.unique kept from the other pairs
    dts, ti = np.unique(grid[:, 0] + 0.0, return_inverse=True)
    dxs, xi = np.unique(grid[:, 1] + 0.0, return_inverse=True)
    with np.errstate(all="ignore"):  # a phase that is not finite makes its row nan, reported below
        a = np.exp(1j * np.multiply.outer(dxs, p))
        b = np.exp(-1j * np.multiply.outer(dts, w)) / (2.0 * w)
    finite = np.isfinite(a).all(axis=1)[xi] & np.isfinite(b).all(axis=1)[ti]
    if not finite.all():
        bad = finite.argmin()
        raise ValueError(f"the phase p*dx - w*dt is not finite at dts {float(grid[bad, 0])!r}, "
                         f"separations {float(grid[bad, 1])!r}")
    without = np.empty(len(grid), dtype=complex)
    starts = np.flatnonzero(np.diff(ti, prepend=-1))  # where each run of equal dt begins
    for lo, hi in pairwise([*starts, len(ti)]):
        without[lo:hi] = np.einsum("ik,k->i", a[xi[lo:hi]], b[ti[lo]])
    without /= lattice.num_sites
    with_anti = np.zeros(len(without), dtype=complex)  # 1j * x would give -0.0 real parts where x < 0
    with_anti.imag = 2.0 * without.imag
    return with_anti, without
