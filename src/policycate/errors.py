"""Semantic exceptions shared across the package."""


class PolicyCateError(Exception):
    """Base class for all errors raised by this package.  Each family sets the
    CLI's ``exit_code`` and stderr ``label``; a subclass reports as its family."""

    exit_code: int
    label: str


class ValidationError(PolicyCateError, ValueError):
    """Arguments or configuration objects violate their contract."""

    exit_code, label = 2, "config error"


class OverlapError(ValidationError):
    """A propensity score falls outside the admissible (eps, 1-eps) band."""

    exit_code, label = 3, "data error"


class DimensionError(ValidationError):
    """Array shapes are inconsistent with the fitted model or each other."""


class NumericalError(PolicyCateError):
    """A computation has no defined or finite result for its inputs."""

    exit_code, label = 4, "numerical failure"


class DomainError(NumericalError):
    """A quantity is requested where it is undefined (e.g. a truncated
    mean conditioned on an event of probability zero)."""


class SearchError(NumericalError):
    """A bracketed search did not contain an interior maximum."""


class SingularDesignError(NumericalError):
    """The design matrix is rank deficient where a closed-form least
    squares solve is required."""


class SingularHessianError(NumericalError):
    """The curvature matrix is numerically singular; no covariance can
    be reported."""


class NonFiniteLossError(NumericalError, FloatingPointError):
    """A training loss or parameter became NaN/Inf."""


class ConfigError(PolicyCateError):
    """An experiment configuration document is malformed."""

    exit_code, label = 2, "config error"


class DataError(PolicyCateError):
    """A data file is missing, malformed, or fails validation."""

    exit_code, label = 3, "data error"
