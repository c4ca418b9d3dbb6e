"""Profit-aligned CATE estimation with a stochastic treatment-cost threshold."""

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    NonFiniteLossError,
    OverlapError,
    PolicyCateError,
    SearchError,
    SingularDesignError,
    SingularHessianError,
    ValidationError,
)
from .dgp import (
    ComplexDgp,
    LabeledSample,
    SimpleDgp,
    gen_complex,
    gen_simple,
    oracle_policy_value,
)
from .evaluation import (
    EvalReport,
    cate_mse,
    evaluate_model,
    ipw_policy_value,
    qini_coefficient,
)
from .linear import (
    Dataset,
    LinearFitConfig,
    LinearFitResult,
    SandwichCovariance,
    TransformedDataset,
    build_design,
    fit_linear,
    ols_solution,
    policy_from_cate,
    predict_cate,
    predict_rows,
    sandwich_covariance,
    surrogate_gradient,
    surrogate_objective,
    transform_outcomes,
)
from .mlp import (
    DirectPolicyConfig,
    MlpConfig,
    MlpModel,
    predict_mlp,
    train_direct_policy,
    train_surrogate_mlp,
)
from .selection import (
    DEFAULT_SIGMA_GRID,
    CvResult,
    FrontierPoint,
    SigmaGrid,
    frontier_sweep,
    kfold_cv,
    linear_fit_function,
    mlp_fit_function,
    spec_for_sigma,
)
from .surrogate import (
    Family,
    ScalarSurrogateProblem,
    SurrogateSpec,
    cdf,
    d2loss_dtau2,
    dloss_dtau,
    kappa,
    loss_q,
    objective_curve,
    partial_mean,
    scalar_argmax,
    scalar_surrogate_value,
)

__version__ = "0.1.0"
