"""Compound systems: entanglement, Born statistics, and decoherence.

A bipartite pure state is stored as its amplitude matrix Ψ[a, b] on
ℋ_A ⊗ ℋ_B; Schmidt structure, reduced states, and conditional states all
come from that matrix.  The measurement chain is modelled in three steps:
premeasurement entangles the system with an apparatus pointer basis,
decoherence projects the pure density matrix onto its pointer-diagonal
blocks (the ħ/E_A timescale is reported, not simulated), and outcome
sampling draws classical frequencies from the surviving diagonal with a
seeded PCG64 generator.  A decohered state keeps its pointer columns; the
dense matrix over the product space is built only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import NORM_TOL, FockVector, Statistics

GENERATOR_NAME = "numpy.random.PCG64"
SCHMIDT_CUTOFF = 1e-12


@dataclass
class BipartiteState:
    """Pure state of A ⊗ B; amplitudes[a, b] with unit Frobenius norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 2:
            raise ValueError("amplitudes must be a 2-D matrix")
        n = np.linalg.norm(self.amplitudes)
        if abs(n - 1.0) > NORM_TOL:
            raise ValueError(f"state must be normalized (norm = {float(n)!r})")

    @property
    def dims(self):
        return self.amplitudes.shape


TRACE_TOL = 1e-10


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix.

    ``DensityMatrix(rho)`` checks a dense matrix.  ``decohere`` instead
    keeps the pointer columns c (d_A × d_B): ρ = Σ_b |c_b⟩⟨c_b|, where
    column b fills the rows a·d_B + b of the flattened product space.  A
    sum of rank-1 projector blocks is Hermitian and positive semidefinite
    by construction, so of the three checks only the unit trace Σ|c|²
    runs on that form.  ``rho`` is built from the columns on first access
    and cached.
    """

    def __init__(self, rho):
        rho = np.asarray(rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be square")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("rho must be Hermitian")
        _check_unit_trace(np.trace(rho).real)
        if np.linalg.eigvalsh(rho).min() < -1e-10:
            raise ValueError("rho must be positive semidefinite")
        self._rho = rho
        self._columns = None

    @classmethod
    def _from_pointer_columns(cls, columns: np.ndarray) -> "DensityMatrix":
        state = cls.__new__(cls)
        state._rho = None
        state._columns = columns
        _check_unit_trace(np.sum(state.diagonal()))
        return state

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            c = self._columns
            d_a, d_b = c.shape
            rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
            for b in range(d_b):
                col = c[:, b]
                idx = np.arange(d_a) * d_b + b
                rho[np.ix_(idx, idx)] = np.outer(col, col.conj())
            self._rho = rho
        return self._rho

    @property
    def dim(self) -> int:
        return self._rho.shape[0] if self._columns is None else self._columns.size

    @property
    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def diagonal(self) -> np.ndarray:
        if self._columns is not None:
            c = self._columns
            return (c * c.conj()).real.ravel()
        return np.real(np.diag(self._rho)).copy()

    def _max_coherence(self) -> float:
        """Largest |ρ_ij|, i ≠ j.  In the column form only a pointer block
        holds coherences, and its largest is the product of the column's
        two largest |c|."""
        if self._columns is None:
            off = self._rho - np.diag(np.diag(self._rho))
            return float(np.max(np.abs(off)))
        if self._columns.shape[0] < 2:
            return 0.0
        top = np.sort(np.abs(self._columns), axis=0)[-2:]
        return float(np.max(top[0] * top[1]))


def _check_unit_trace(trace) -> None:
    if abs(trace - 1.0) > TRACE_TOL:
        raise ValueError(f"rho must have unit trace (trace = {float(trace)!r})")


@dataclass(frozen=True)
class MeasurementModel:
    """Observable eigenvalues λ, state amplitudes f(λ), apparatus energy."""

    eigenvalues: tuple
    amplitudes: tuple
    apparatus_energy: float

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.amplitudes):
            raise ValueError("eigenvalues and amplitudes must have equal length")
        if self.apparatus_energy <= 0:
            raise ValueError("apparatus energy must be positive")
        total = sum(abs(a) ** 2 for a in self.amplitudes)
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes must be normalized (Σ|f|² = {float(total)!r})")


def born_distribution(amplitudes) -> np.ndarray:
    """ρ(λ) = |⟨φ_λ, ψ⟩|², the empirically testable weight of each outcome."""
    f = np.asarray(amplitudes, dtype=complex)
    total = float(np.sum(np.abs(f) ** 2))
    if abs(total - 1.0) > NORM_TOL:
        raise ValueError(f"amplitudes must be normalized (Σ|f|² = {total!r})")
    return np.abs(f) ** 2


def entangled_pair(phi1, phi2, psi1, psi2) -> BipartiteState:
    """Normalized φ₁⊗ψ₁ + φ₂⊗ψ₂.

    The factors need not be orthogonal; the normalization absorbs their
    overlaps.  An anti-parallel duplicate pair (zero superposition) is
    rejected.
    """
    phi1, phi2 = np.asarray(phi1, dtype=complex), np.asarray(phi2, dtype=complex)
    psi1, psi2 = np.asarray(psi1, dtype=complex), np.asarray(psi2, dtype=complex)
    for name, v in (("phi1", phi1), ("phi2", phi2), ("psi1", psi1), ("psi2", psi2)):
        if abs(np.linalg.norm(v) - 1.0) > NORM_TOL:
            raise ValueError(f"{name} must be normalized")
    amp = np.outer(phi1, psi1) + np.outer(phi2, psi2)
    n = np.linalg.norm(amp)
    if n < 1e-12:
        raise ValueError("superposition has zero norm (anti-parallel duplicate pair)")
    return BipartiteState(amp / n)


def reduced_density(state: BipartiteState, subsystem: str) -> DensityMatrix:
    """Partial trace over the complementary factor."""
    m = state.amplitudes
    if subsystem == "A":
        return DensityMatrix(m @ m.conj().T)
    if subsystem == "B":
        return DensityMatrix(m.T @ m.conj())
    raise ValueError("subsystem must be 'A' or 'B'")


def schmidt(state: BipartiteState):
    """Schmidt coefficients (nonincreasing) and the entanglement entropy.

    The coefficients are the singular values of the amplitude matrix;
    entropy is −Σ c² ln c² over coefficients above the numerical cutoff.
    """
    coeffs = np.linalg.svd(state.amplitudes, compute_uv=False)
    squares = coeffs[coeffs > SCHMIDT_CUTOFF] ** 2
    entropy = float(-np.sum(squares * np.log(squares))) if squares.size else 0.0
    return coeffs, entropy


def entanglement_entropy(rho: DensityMatrix) -> float:
    """von Neumann entropy −Tr ρ ln ρ of a reduced state."""
    eigs = np.linalg.eigvalsh(rho.rho)
    eigs = eigs[eigs > SCHMIDT_CUTOFF**2]
    return float(-np.sum(eigs * np.log(eigs)))


def conditional_state(state: BipartiteState, outcome):
    """B-side state after observing `outcome` on subsystem A.

    Returns (state, probability).  Observing one property forces its
    partner: for φ₁⊗ψ₁ + φ₂⊗ψ₂ with orthogonal φ's, outcome φ₁ leaves B
    exactly in ψ₁.
    """
    outcome = np.asarray(outcome, dtype=complex)
    if abs(np.linalg.norm(outcome) - 1.0) > NORM_TOL:
        raise ValueError("outcome vector must be normalized")
    chi = outcome.conj() @ state.amplitudes
    prob = float(np.linalg.norm(chi) ** 2)
    if prob <= 1e-14:
        raise ValueError("outcome has zero probability on this state")
    return chi / np.sqrt(prob), prob


def premeasure(model: MeasurementModel) -> BipartiteState:
    """Entangle system and apparatus: Σ_λ f(λ) φ_λ ⊗ pointer_λ."""
    return BipartiteState(np.diag(np.asarray(model.amplitudes, dtype=complex)))


def decohere(state: BipartiteState, pointer_basis=None) -> DensityMatrix:
    """Pointer-basis dephasing of the pure density matrix.

    Off-diagonal blocks between distinct pointer states are zeroed
    exactly, leaving Σ_λ |f(λ)|² P_λ for a premeasured state, with P_λ the
    projector on φ_λ ⊗ pointer_λ.  The result lives on the full product
    space, flattened row-major (a·d_B + b), and is held as its pointer
    columns: the amplitudes in the pointer basis, column b for pointer b.
    """
    amp = state.amplitudes
    d_b = amp.shape[1]
    if pointer_basis is not None:
        pointer_basis = np.asarray(pointer_basis, dtype=complex)
        if pointer_basis.shape != (d_b, d_b):
            raise ValueError("pointer basis must be a d_B x d_B unitary")
        if np.max(np.abs(pointer_basis.conj().T @ pointer_basis - np.eye(d_b))) > 1e-10:
            raise ValueError("pointer basis must be unitary")
        amp = amp @ pointer_basis.conj()
    return DensityMatrix._from_pointer_columns(amp.copy())


def decoherence_time(apparatus_energy: float) -> float:
    """ħ/E_A in natural units: macroscopic apparatus energies make this
    extremely short."""
    if apparatus_energy <= 0:
        raise ValueError("apparatus energy must be positive")
    return 1.0 / apparatus_energy


def sample_outcomes(rho: DensityMatrix, n: int, seed: int) -> np.ndarray:
    """n independent draws from the diagonal of a decohered density matrix.

    The input must already be diagonal (decohere first); a fixed seed
    gives bit-identical counts.  Parallel sampling should derive
    sub-streams via numpy SeedSequence.spawn rather than reusing the seed.
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if rho._max_coherence() > 1e-12:
        raise ValueError("density matrix has coherences; decohere before sampling")
    probs = np.clip(rho.diagonal(), 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(n, probs)


def pointer_outcome_counts(counts: np.ndarray, dims) -> np.ndarray:
    """Fold flat product-space counts onto the pointer diagonal (λ, λ)."""
    d_a, d_b = dims
    return counts.reshape(d_a, d_b).diagonal().copy()


def two_particle_slot_state(v: FockVector) -> BipartiteState:
    """Reshape a two-particle Fock state as a bipartite state over slots.

    The two tensor slots of ξ⊗η ± η⊗ξ are artificial labels (the
    particles themselves are countable but not numerable), yet the state
    over them has Schmidt rank ≥ 2 whenever ξ ∦ η: the slots are never
    separable.
    """
    space = v.mode_space
    if space.species_count != 1:
        raise ValueError("slot bridge expects a single-species mode space")
    if set(v.sector_weights()) != {2}:
        raise ValueError("state must lie purely in the two-particle sector")
    M = space.num_modes
    sign = 1.0 if space.statistics is Statistics.BOSE else -1.0
    T = np.zeros((M, M), dtype=complex)
    for occ, amp in v.amplitudes.items():
        occupied = [i for i, n in enumerate(occ) if n]
        if len(occupied) == 1:
            T[occupied[0], occupied[0]] = amp
        else:
            i, j = occupied  # i < j by construction
            T[i, j] = amp / np.sqrt(2)
            T[j, i] = sign * amp / np.sqrt(2)
    return BipartiteState(T)
