"""Curvature calculus and certification checks for matrix-valued log-concave weights."""

from .curvature import (
    BlockSplit,
    CurvatureMatrix,
    block_split,
    curvature_matrix,
    generalized_spectrum,
    griffiths_min_gap,
    mixed_block_action,
    nakano_verdict,
    schur_gap,
    theta_block,
)
from .errors import (
    BudgetError,
    InputError,
    NotPositiveError,
    NotPsdError,
    QuadratureError,
    SymmetryError,
)
from .fields import (
    Jet2,
    MatrixField,
    builtin_field,
    conjugate_field,
    polynomial_field,
    polynomial_field_from_json,
    restrict_field,
)
from .inequalities import (
    CheckReport,
    bl_gap,
    bochner_residual,
    griffiths_check,
    ipp_residual,
    marginal_theta_fd,
    nakano_check,
    prekopa_check,
    schur_check,
    theta_alpha_decomposed,
    weighted_laplacian,
)
from .metric import (
    ColumnBlockMatrix,
    ExtendedReal,
    QuadraticFormSpec,
    SpdMatrix,
    g_adjoint,
    g_inner,
    polar_value,
    tensor_inner,
)
from .quadrature import (
    DirichletEvaluator,
    QuadratureRule,
    VectorFieldFn,
    build_rule,
    dirichlet_energy,
    integrate_field,
    pairwise_sum,
    variance_functional,
    weighted_mean,
)

__version__ = "0.1.0"
