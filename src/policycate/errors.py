"""Semantic exceptions shared across the package, and the one table of
value rules that the config schema and the classes it configures apply."""

import math
import numbers
import sys


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


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_num(v):  # a finite number that a float can hold; a bool is not a number here
    if isinstance(v, numbers.Integral):
        return _is_int(v) and abs(v) <= sys.float_info.max
    return isinstance(v, numbers.Real) and math.isfinite(v)


# kind -> (test, what a value of that kind is); numpy numbers pass as Python's do
RULES = {
    "seed": (_is_int, "an integer"),  # rng.streams owns a seed's range
    "pos_int": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "folds": (lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    "num": (_is_num, "a number"),
    "nonneg_num": (lambda v: _is_num(v) and v >= 0, "a nonnegative number"),
    "pos_num": (lambda v: _is_num(v) and v > 0, "a positive number"),
    "opt_pos_num": (lambda v: v is None or (_is_num(v) and v > 0), "null or a positive number"),
    "dropout": (lambda v: _is_num(v) and 0 <= v < 1, "a number in [0, 1)"),
    "holdout": (lambda v: _is_num(v) and 0 < v <= 0.5, "a number in (0, 0.5]"),
    "sigma": (lambda v: v == "inf" or (_is_num(v) and v > 0), 'a positive number or "inf"'),
    "sizes": (lambda v: isinstance(v, (list, tuple)) and all(_is_int(h) and h > 0 for h in v),
              "a list of positive integers"),
    "list": (lambda v: isinstance(v, list) and len(v) > 0, "a nonempty list"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def require(value, kind, name, error=ValidationError):
    """Raise ``error("<name>: expected ...")`` unless ``value`` meets a RULES kind or choices."""
    choices = isinstance(kind, tuple)
    test, what = (kind.__contains__, f"one of {list(kind)}") if choices else RULES[kind]
    if not test(value):
        raise error(f"{name}: expected {what}")
