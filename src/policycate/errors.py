"""Semantic exceptions shared across the package."""


class PolicyCateError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PolicyCateError, ValueError):
    """Arguments or configuration objects violate their contract."""


class OverlapError(ValidationError):
    """A propensity score falls outside the admissible (eps, 1-eps) band."""


class DimensionError(ValidationError):
    """Array shapes are inconsistent with the fitted model or each other."""


class DomainError(PolicyCateError):
    """A quantity is requested where it is undefined (e.g. a truncated
    mean conditioned on an event of probability zero)."""


class SearchError(PolicyCateError):
    """A bracketed search did not contain an interior maximum."""


class SingularDesignError(PolicyCateError):
    """The design matrix is rank deficient where a closed-form least
    squares solve is required."""


class SingularHessianError(PolicyCateError):
    """The curvature matrix is numerically singular; no covariance can
    be reported."""


class NonFiniteLossError(PolicyCateError, FloatingPointError):
    """A training loss or parameter became NaN/Inf."""


class ConfigError(PolicyCateError):
    """An experiment configuration document is malformed."""


class DataError(PolicyCateError):
    """A data file is missing, malformed, or fails validation."""
