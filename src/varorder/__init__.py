"""Variance order on finite-dimensional quantum observables.

One Hermitian observable sits below another when no state assigns it a
larger variance; equivalently it is a 1-Lipschitz function of the other.
The package decides the order with certificates and counterexample
witnesses, computes the associated state and measure quantities, and
exposes the structure of the order: joint upper bounds, two-point lower
sets, spectrum reconstruction from expectation gaps, and verification of
order automorphisms.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    EigensolverError,
    InternalConsistencyError,
    NotHermitianError,
    PreconditionError,
    ReconstructionError,
    ValidationError,
    VarOrderError,
)
from .functions import FunctionTable, LipschitzExtension
from .linalg import (
    HermitianObservable,
    SpectralDecomposition,
    UnitaryMap,
    apply_function,
    commutator_norm,
    eigendecompose,
    loewner_leq,
)
from .order import (
    FAIL_MARGIN_TOL,
    OrderVerdict,
    canonical_representative,
    class_equal,
    decide_order,
    extract_function,
    state_order_violation,
    witness_search,
)
from .states import (
    BornMeasure,
    DensityState,
    PureState,
    approx_eigen_sandwich,
    born_measure,
    expectation,
    maximal_deviation,
    measure_variance,
    pushforward,
    superposition_variance,
    variance,
)
from .structure import (
    AutomorphismReport,
    AutomorphismSpec,
    QMatrix,
    TwoPointFamily,
    block_shift_upper_bound,
    joint_upper_bound,
    q_matrix,
    reconstruct_metric,
    three_point_class_candidates,
    two_point_lower_set,
    two_spectrum_detector,
    verify_automorphism,
)

# the submodules are bound here by the imports above; they are not public names
__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
