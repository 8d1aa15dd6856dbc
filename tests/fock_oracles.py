"""Brute-force oracles for the sparse Fock layer (test use only).

The dense ones grow as (cap+1)^slots, so they are for small spaces.
"""

import numpy as np

from fockfield.fock import FockVector, ModeSpace, Statistics, annihilate, basis_state, create


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


def ladder_relation_residuals_per_pair(space: ModeSpace, rng, n_pairs: int) -> dict:
    """The ladder-relation sweep one sampled pair at a time: the oracle for
    ``cli._ladder_relation_residuals``, with the same draws in the same order."""
    sign = -1.0 if space.statistics is Statistics.BOSE else 1.0
    cap = space.occupation_cap - (1 if space.statistics is Statistics.BOSE else 0)
    radix, modes = cap + 1, space.num_modes
    worst = {"exchange": 0.0, "create-create": 0.0, "annihilate-annihilate": 0.0}
    for _ in range(n_pairs):
        occ = occupations_at(int(rng.integers(radix ** modes)), radix, modes)
        a = int(rng.integers(modes))
        b = int(rng.integers(modes))
        s = basis_state(space, occ)
        w = annihilate(create(s, b), a) + sign * create(annihilate(s, a), b)
        worst["exchange"] = max(worst["exchange"], (w - s).norm if a == b else w.norm)
        if space.statistics is Statistics.BOSE and max(occ) > space.nmax - 2:
            continue
        w2 = create(create(s, b), a) + sign * create(create(s, a), b)
        w3 = annihilate(annihilate(s, b), a) + sign * annihilate(annihilate(s, a), b)
        worst["create-create"] = max(worst["create-create"], w2.norm)
        worst["annihilate-annihilate"] = max(worst["annihilate-annihilate"], w3.norm)
    return worst


def occupations_at(index: int, radix: int, modes: int) -> tuple:
    """Entry ``index`` of itertools.product(range(radix), repeat=modes): its
    base-``radix`` digits, most significant first."""
    return tuple(index // radix ** (modes - 1 - j) % radix for j in range(modes))
