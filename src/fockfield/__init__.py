"""fockfield: a desk-scale second-quantization toolkit.

Numerically exact occupation-number Fock spaces with bosonic and
fermionic ladder operators, a symbolic normal-ordering engine, a
discretized 1-D field with microcausality checks, free wavepacket
correlation dynamics, and the entanglement/decoherence measurement chain.
"""

__version__ = "0.1.0"

from .fock import (
    FockVector,
    ModeSpace,
    Statistics,
    annihilate,
    basis_state,
    create,
    inner,
    ladder_relation_residuals,
    number_expectation,
    transformed_create,
    two_particle_symmetrized,
    vacuum,
)
from .wick import NormalForm, OperatorString, ParseError, evaluate, normal_order, parse, vacuum_expectation
from .field import (
    Dispersion,
    GeneralStateSpec,
    LatticeSpec,
    MomentumAmplitude,
    WaveAmplitude,
    coherent_state,
    commutator_sweep,
    default_spacelike_grid,
    field_expectation,
    from_momentum,
    number_density,
    overlap,
    pauli_jordan,
    prepare_general,
    prepare_one_particle,
    site_mode_space,
    to_momentum,
)
from .dynamics import (
    EhrenfestReport,
    SeamError,
    TrajectoryRecord,
    ehrenfest_residuals,
    evolve,
    gaussian_packet,
    trajectory,
)
from .qinfo import (
    BipartiteState,
    DensityMatrix,
    MeasurementModel,
    born_distribution,
    conditional_state,
    decohere,
    decoherence_time,
    entangled_pair,
    entanglement_entropy,
    pointer_outcome_counts,
    premeasure,
    reduced_density,
    sample_outcomes,
    schmidt,
)
