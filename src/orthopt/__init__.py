"""Optimization over generalized orthogonality constraints X^T phi(X) = I.

The package pairs a uniform manifold geometry (projections, retractions,
Riemannian gradients) with an exact penalty built from a constraint
dissolving operator, so that plain Euclidean solvers minimize constrained
objectives without retractions or transports.
"""

from .linalg import lyapunov_solve
from .manifolds import (
    EvalCache,
    FeasibilityError,
    FeasiblePoint,
    PostprocessDivergence,
    RetractError,
    ThetaDegenerateError,
    constraint,
    generalized_stiefel,
    hyperbolic,
    indefinite_stiefel,
    project_tangent,
    random_tangent,
    retract,
    riemannian_gradient,
    riemannian_hessvec,
    stiefel,
    symplectic_stiefel,
    tangent_test,
    tensor_stiefel,
    theta_lstsq,
    vector_transport,
)
from .penalty import (
    PenaltyFunction,
    UnsupportedOperation,
    dA,
    dA_adjoint,
    dC,
    dC_adjoint,
    dCA,
    dissolve,
    penalty_gradient,
    penalty_hessvec,
    penalty_value,
    postprocess,
    stationarity_report,
)
from .problems import Problem, build_extrinsic_mean, build_lsm, build_tensor_jfd, toy_problem
from .solvers import (
    SOLVERS,
    FunctionOracle,
    PenaltyOracle,
    SolveReport,
    SolverConfig,
    minimize,
    run_solver,
)
from .tensor import dct_matrix, mode3_product

__version__ = "0.1.0"
