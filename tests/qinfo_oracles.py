"""Reference implementations for the qinfo layer (test use only).

``decohere_dense`` builds the dephased density matrix over the whole
product space, (d_A·d_B)² entries, and passes it through the checked
dense ``DensityMatrix`` constructor.  ``fockfield.qinfo.decohere`` keeps
the pointer columns instead and must agree with it bit for bit.
``two_particle_slot_state`` views a two-particle Fock state as a
bipartite state over its two tensor slots.
"""

import numpy as np

from fockfield.fock import FockVector, Statistics
from fockfield.qinfo import BipartiteState, DensityMatrix


def decohere_dense(state: BipartiteState, pointer_basis=None) -> DensityMatrix:
    """Zero the off-diagonal pointer blocks of |Ψ⟩⟨Ψ| in the dense matrix."""
    amp = state.amplitudes
    d_a, d_b = amp.shape
    if pointer_basis is not None:
        pointer_basis = np.asarray(pointer_basis, dtype=complex)
        if pointer_basis.shape != (d_b, d_b):
            raise ValueError("pointer basis must be a d_B x d_B unitary")
        if np.max(np.abs(pointer_basis.conj().T @ pointer_basis - np.eye(d_b))) > 1e-10:
            raise ValueError("pointer basis must be unitary")
        amp = amp @ pointer_basis.conj()
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for b in range(d_b):
        col = amp[:, b]
        block = np.outer(col, col.conj())
        idx = np.arange(d_a) * d_b + b
        rho[np.ix_(idx, idx)] = block
    return DensityMatrix(rho)


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
