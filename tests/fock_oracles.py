"""Dense brute-force oracles for the sparse Fock layer (test use only).

The dimension grows as (cap+1)^slots, so these are for small spaces.
"""

import numpy as np

from fockfield.fock import FockVector, ModeSpace, annihilate, create


def dense_operator(mode_space: ModeSpace, kind: str, mode: int, species: int = 0) -> np.ndarray:
    """Dense matrix of a ladder operator in the basis_states() ordering."""
    if kind not in ("create", "annihilate"):
        raise ValueError("kind must be 'create' or 'annihilate'")
    op = create if kind == "create" else annihilate
    states = list(mode_space.basis_states())
    index = {occ: i for i, occ in enumerate(states)}
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for j, occ in enumerate(states):
        image = op(FockVector(mode_space, {occ: 1.0 + 0.0j}), mode, species)
        for out_occ, amp in image.amplitudes.items():
            mat[index[out_occ], j] = amp
    return mat


def to_dense(v: FockVector) -> np.ndarray:
    """Amplitude vector in the basis_states() ordering."""
    states = {occ: i for i, occ in enumerate(v.mode_space.basis_states())}
    vec = np.zeros(len(states), dtype=complex)
    for occ, amp in v.amplitudes.items():
        vec[states[occ]] = amp
    return vec
