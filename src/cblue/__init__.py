"""Best linear unbiased estimation under linear equality constraints.

Estimate a deterministic parameter vector from linear measurements in
colored noise when the parameters are known to satisfy ``A @ x = b``.  The
package provides the constrained minimum-variance unbiased estimator in two
equivalent forms (one of which handles fewer measurements than parameters),
the classic unconstrained baselines, exact error covariances, a Monte Carlo
comparison harness, and a command line interface.
"""

from .errors import (
    DimensionMismatch,
    EmptyNullspace,
    EstimationError,
    NotPositiveDefinite,
    RankDeficient,
    RankDeficientConstraints,
    RankDeficientReducedModel,
    SingularKktSystem,
)
from .estimators import (
    AffineEstimator,
    CovarianceResult,
    analytic_cblue_covariance,
    blue,
    cblue,
    cblue_direct,
    cblue_nullspace,
    cls,
    covariance,
    kkt_oracle,
    ls,
    mean_subtracted,
    project_onto_constraints,
)
from .model import (
    CompatibilityReport,
    ConstraintSet,
    LinearModel,
    NullspaceParam,
    parameterize,
    validate,
)
from .montecarlo import (
    ESTIMATOR_KINDS,
    ExperimentSpec,
    MseReport,
    convolution_matrix,
    run_experiment,
    run_reference_trial,
    sample_proper_gaussian,
)
from .numerics import (
    HpdFactor,
    hpd_factor,
    hpd_solve,
    least_norm_solution,
    nullspace_basis,
    numerical_rank,
)

__version__ = "0.1.0"

__all__ = [
    "AffineEstimator",
    "CompatibilityReport",
    "ConstraintSet",
    "CovarianceResult",
    "DimensionMismatch",
    "ESTIMATOR_KINDS",
    "EmptyNullspace",
    "EstimationError",
    "ExperimentSpec",
    "HpdFactor",
    "LinearModel",
    "MseReport",
    "NotPositiveDefinite",
    "NullspaceParam",
    "RankDeficient",
    "RankDeficientConstraints",
    "RankDeficientReducedModel",
    "SingularKktSystem",
    "analytic_cblue_covariance",
    "blue",
    "cblue",
    "cblue_direct",
    "cblue_nullspace",
    "cls",
    "convolution_matrix",
    "covariance",
    "hpd_factor",
    "hpd_solve",
    "kkt_oracle",
    "least_norm_solution",
    "ls",
    "mean_subtracted",
    "nullspace_basis",
    "numerical_rank",
    "parameterize",
    "project_onto_constraints",
    "run_experiment",
    "run_reference_trial",
    "sample_proper_gaussian",
    "validate",
]
