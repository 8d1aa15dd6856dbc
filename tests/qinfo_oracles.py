"""Reference implementation for the decoherence map (test use only).

``decohere_dense`` builds the dephased density matrix over the whole
product space, (d_A·d_B)² entries, and passes it through the checked
dense ``DensityMatrix`` constructor.  ``fockfield.qinfo.decohere`` keeps
the pointer columns instead and must agree with it bit for bit.
"""

import numpy as np

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
