"""slowvary: slow-variable reduction of linear lattice and PDE systems.

Given a family of constant matrices ``L_k`` defining a spatially discrete
or continuum system ``du/dt = sum_k L_k d^k u`` with a spectral gap, this
package constructs the coefficients ``A_n`` of the emergent macroscale
equation ``dU/dt = sum_n A_n d^n U`` to any requested order, together
with the generating polynomials of the slow subspace, its invariance and
symbol-order checks (the block Taylor system is the test reference of the
first), and simulation utilities that verify the reduction against the
full dynamics.
"""

import os as _os

# SLOWVARY_THREADS caps the BLAS/FFT worker pools; it must be applied
# before numpy loads, hence before any submodule import.
_threads = _os.environ.get("SLOWVARY_THREADS")
if _threads:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .crosssection import (
    DEFAULT_TOL,
    OperatorFamily,
    SpectralSplit,
    ValidationReport,
    spectral_split,
    validate_family,
)
from .errors import (
    DefectiveNormalisation,
    FamilyValidationError,
    GapViolation,
    GridTooCoarse,
    InsufficientDecay,
    MissingBaseOperator,
    NoCentreMode,
    NonPositiveDiffusivity,
    NumericalCheckError,
    SlowVaryError,
    StabilityViolation,
    SylvesterInconsistent,
    UnstableMode,
    UnsupportedSplit,
)
from .models import (
    CellProblem,
    cell_gap_ratio,
    cell_spectral_split,
    homogenisation_cell,
    modal_transform,
    modal_transform_check,
    random_walker_modal,
    random_walker_physical,
)
from .multiindex import (
    enumerate_indices,
    format_index,
    index_count,
    order,
    parse_index,
)
from .simulate import (
    ClosureResult,
    DecayFit,
    EmergenceResult,
    MacroField,
    MicroField,
    OrderStudy,
    Trajectory,
    closure_order_study,
    closure_residual,
    decay_rate_fit,
    emergence_error,
    mode_evolution_oracle,
    plane_wave,
    read_frames,
    simulate_macro,
    simulate_micro,
    symbol_matrix,
    write_frames,
)
from .slowreduce import (
    GeneratingBasis,
    ReducedModel,
    check_invariance,
    construct_reduction,
    solve_constrained_sylvester,
)
from .taylorsystem import (
    BlockOperator,
    SymbolOrder,
    block_spectrum_check,
    build_block_A,
    build_block_operator,
    slow_subspace_matrix,
    symbol_order_check,
    verify_slow_subspace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # operator families and spectral splits
    "OperatorFamily",
    "SpectralSplit",
    "spectral_split",
    "validate_family",
    "ValidationReport",
    "DEFAULT_TOL",
    # reduction
    "ReducedModel",
    "GeneratingBasis",
    "construct_reduction",
    "check_invariance",
    "solve_constrained_sylvester",
    # the block Taylor system (check_invariance's test reference), symbol order
    "BlockOperator",
    "build_block_operator",
    "build_block_A",
    "block_spectrum_check",
    "slow_subspace_matrix",
    "verify_slow_subspace",
    "symbol_order_check",
    "SymbolOrder",
    # multi-indices
    "enumerate_indices",
    "index_count",
    "order",
    "parse_index",
    "format_index",
    # built-in models
    "random_walker_physical",
    "random_walker_modal",
    "modal_transform",
    "modal_transform_check",
    "CellProblem",
    "homogenisation_cell",
    "cell_spectral_split",
    "cell_gap_ratio",
    # simulation and diagnostics
    "MicroField",
    "MacroField",
    "Trajectory",
    "plane_wave",
    "simulate_micro",
    "simulate_macro",
    "emergence_error",
    "EmergenceResult",
    "closure_residual",
    "ClosureResult",
    "decay_rate_fit",
    "DecayFit",
    "symbol_matrix",
    "mode_evolution_oracle",
    "closure_order_study",
    "OrderStudy",
    "write_frames",
    "read_frames",
    # errors
    "SlowVaryError",
    "FamilyValidationError",
    "NumericalCheckError",
    "MissingBaseOperator",
    "NoCentreMode",
    "UnstableMode",
    "GapViolation",
    "DefectiveNormalisation",
    "NonPositiveDiffusivity",
    "GridTooCoarse",
    "UnsupportedSplit",
    "SylvesterInconsistent",
    "StabilityViolation",
    "InsufficientDecay",
]
