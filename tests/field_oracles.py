"""Reference implementation for the field layer (test use only).

``pauli_jordan_per_pair`` evaluates the commutator mode sum of one
(dt, dx) pair on its own, one 1-D pass over the modes of
e^{i(p·dx − ω·dt)}.  ``fockfield.field.commutator_sweep`` evaluates the
same sum as a product of two phase tables, e^{ip·dx} · e^{−iω·dt}, so the
two round differently; the sweep must equal the oracle within
``sweep_rounding_bound``.  ``default_spacelike_grid_pairs`` is the
default grid as a list of (dt, dx) tuples, built one pair at a time; the
library builds the same points as an (n, 2) array.
"""

import functools

import numpy as np

from fockfield.field import LatticeSpec, _commutator_modes


@functools.lru_cache(maxsize=8)
def _modes(lattice: LatticeSpec):
    """_commutator_modes, read once per lattice: a sweep's oracle calls evaluate thousands of pairs."""
    return _commutator_modes(lattice)


def pauli_jordan_per_pair(lattice: LatticeSpec, dt: float, dx: float, include_antiparticles: bool = True) -> complex:
    """(1/M) Σ_k (1/2ω_k) (e^{i(p_k dx − ω_k dt)} − e^{−i(p_k dx − ω_k dt)}), the
    subtracted antiparticle term only when the flag is set; modes with ω = 0
    are excluded."""
    w, p = _modes(lattice)
    theta = p * dx - w * dt
    summand = np.exp(1j * theta)
    if include_antiparticles:
        summand = summand - np.exp(-1j * theta)
    return complex(np.sum(summand / (2.0 * w)) / lattice.num_sites)


def sweep_rounding_bound(lattice: LatticeSpec, dt: float, dx: float) -> float:
    """A bound on |commutator_sweep − pauli_jordan_per_pair| for the sum without
    antiparticles: ε·(1/M) Σ_k (2E_k + n + 16)/2ω_k, where E_k = |p_k·dx| + |ω_k·dt|
    and n is the number of modes.  The sum with antiparticles is 2i·Im of it, so
    its bound is twice this.

    Derivation, to first order in u = ε/2, per term in units of 1/2ω_k:
    - the oracle rounds p·dx, ω·dt and their difference, a phase error of at
      most 2u·E_k; exp adds 2u and the division u; np.sum's pairwise sum adds
      at most (log2 n + 8)u of Σ_k 1/2ω_k, and the division by M u;
    - the sweep rounds p·dx and ω·dt once each, u·E_k; its two exps add 4u,
      the division u and the complex product 3u (√5·u); einsum's running sum
      adds at most (n − 1)u of Σ_k 1/2ω_k, and the division by M u.
    Together u·(1/M) Σ_k (3E_k + n + log2 n + 20)/2ω_k; the bound's
    ε·(2E_k + n + 16) = u·(4E_k + 2n + 32) exceeds it for every n ≥ 1.
    """
    w, p = _modes(lattice)
    phase = np.abs(p * dx) + np.abs(w * dt)
    return float(np.finfo(float).eps * np.sum((2.0 * phase + len(w) + 16) / (2.0 * w)) / lattice.num_sites)


def default_spacelike_grid_pairs(lattice: LatticeSpec, cone_margin: float = 3.0):
    """The equal-time axis (0, dx), then the wedge dx >= dt + cone_margin off the cone, as tuples."""
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
