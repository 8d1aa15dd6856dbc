"""Reference implementation for the field layer (test use only).

``pauli_jordan_per_pair`` evaluates the commutator mode sum of one
(dt, dx) pair on its own, one 1-D pass over the modes;
``fockfield.field.commutator_sweep``, which evaluates blocks of pairs as
(rows × modes) arrays, must equal it bit for bit.
"""

import numpy as np

from fockfield.field import LatticeSpec, _commutator_modes


def pauli_jordan_per_pair(lattice: LatticeSpec, dt: float, dx: float, include_antiparticles: bool = True) -> complex:
    """(1/M) Σ_k (1/2ω_k) (e^{i(p_k dx − ω_k dt)} − e^{−i(p_k dx − ω_k dt)}), the
    subtracted antiparticle term only when the flag is set; modes with ω = 0
    are excluded."""
    w, p = _commutator_modes(lattice)
    theta = p * dx - w * dt
    summand = np.exp(1j * theta)
    if include_antiparticles:
        summand = summand - np.exp(-1j * theta)
    return complex(np.sum(summand / (2.0 * w)) / lattice.num_sites)
