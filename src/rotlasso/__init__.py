"""Semirandom sparse-regression toolkit: design generators, restricted-eigenvalue
certificates, Maurey sparsification, a constrained Lasso solver, and a seeded
experiment harness."""

from .core import (
    DegenerateColumnError,
    DegenerateInputError,
    DesignMatrix,
    EnumerationTooLargeError,
    InvalidSupportError,
    SeedSpec,
    SparseVector,
    SupportSet,
    normalize_columns,
    orthonormal_basis,
    read_design,
    read_support,
    restrict_columns,
    seeded_stream,
    write_design,
    write_support,
)
from .designs import (
    BlockSpec,
    CorrelatedGroup,
    RotationKind,
    correlated_block_design,
    counterexample_design,
    partially_rotate,
    rotated_adversary_design,
    sample_rotation,
    semirandom_gaussian_design,
)
from .certificates import (
    Certificate,
    ConeSpec,
    SolverReport,
    cone_membership,
    lambda_min_restricted,
    partial_rotation_failure_rate,
    re_constant,
    re_objective_value,
    rip_constant,
    rip_to_rno_bound,
    rno_constant,
    rno_fixed_supports,
    rno_to_re_lower_bound,
)
from .sparsify import SparsifyFailureError, SparsifyResult, maurey_sparsify, sparsification_error
from .lasso import (
    LassoSolution,
    RegressionInstance,
    lasso_constrained,
    parameter_errors,
    prediction_error,
    project_l1_ball,
    synth_response,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
