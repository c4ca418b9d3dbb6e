"""Linear CATE models fitted by maximizing the smoothed targeting objective.

The model is ``tau(x) = x' theta`` on the internal scale of the chosen
threshold family (see ``policycate.surrogate``): for normal/logistic
families the fitted score is standardized and maps to money units via
``sigma * x' theta + cost``; for the uniform family the score is already in
money units and the fit coincides with least squares on the transformed
outcome.

The optimizer is deterministic full-batch gradient ascent with a
backtracking Armijo line search (shrink 0.5, slope factor 1e-4) and a
proximal soft-threshold step when an l1 penalty is active.  The accepted
objective sequence is nondecreasing by construction and checked every
iteration.  Each Armijo trial costs one loss evaluation; the accepted
trial's scores and loss are reused, so an iteration adds only the gradient
pass on top of its trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import surrogate as sg
from .errors import (
    DimensionError,
    OverlapError,
    SingularDesignError,
    SingularHessianError,
    ValidationError,
)

OVERLAP_EPS = 1e-6
ARMIJO_SLOPE = 1e-4
ARMIJO_SHRINK = 0.5


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """One experiment: covariate rows, binary treatment, outcome, propensity.

    ``x`` may be raw covariates or an already-built design matrix (by
    convention the first design column is an intercept).  Propensities must
    respect the overlap band (eps, 1 - eps) with eps = 1e-6.
    """

    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        w = np.asarray(self.w, dtype=float).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        e = np.asarray(self.e, dtype=float).ravel()
        n = x.shape[0]
        if n < 1:
            raise ValidationError("need at least one observation")
        if not (w.shape[0] == y.shape[0] == e.shape[0] == n):
            raise DimensionError("x, w, y, e must share their first dimension")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValidationError("non-finite covariates or outcomes")
        if not np.all((w == 0.0) | (w == 1.0)):
            raise ValidationError("treatment indicator must be binary")
        if np.any(e <= OVERLAP_EPS) or np.any(e >= 1.0 - OVERLAP_EPS):
            raise OverlapError(
                f"propensities must lie in ({OVERLAP_EPS:g}, {1 - OVERLAP_EPS:g})"
            )
        for name, arr in (("x", x), ("w", w), ("y", y), ("e", e)):
            object.__setattr__(self, name, _frozen(arr))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.x.shape[1]


@dataclass(frozen=True)
class TransformedDataset:
    """Design rows plus the propensity-weighted transformed outcome."""

    x: np.ndarray
    y_star: np.ndarray

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        ys = np.asarray(self.y_star, dtype=float).ravel()
        if x.shape[0] != ys.shape[0]:
            raise DimensionError("x and y_star must share their first dimension")
        if not np.all(np.isfinite(ys)):
            raise ValidationError("non-finite transformed outcomes")
        object.__setattr__(self, "x", _frozen(x))
        object.__setattr__(self, "y_star", _frozen(ys))

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def k(self):
        return self.x.shape[1]

    def subset(self, idx):
        return TransformedDataset(self.x[idx], self.y_star[idx])

    def with_design(self, x_design):
        return TransformedDataset(x_design, self.y_star)


def transform_outcomes(data: Dataset) -> TransformedDataset:
    """IPW outcome transform: y* = y * (w/e - (1-w)/(1-e)).

    The result is conditionally unbiased for the CATE under random
    assignment with known propensities.
    """
    e = data.e
    if np.any(e <= OVERLAP_EPS) or np.any(e >= 1.0 - OVERLAP_EPS):
        raise OverlapError("propensities outside the overlap band")
    y_star = data.y * (data.w / e - (1.0 - data.w) / (1.0 - e))
    return TransformedDataset(data.x, y_star)


def build_design(x_raw, terms):
    """Assemble a design matrix from term strings.

    Terms: ``"1"`` (intercept), ``"xJ"`` (column J, 1-based), ``"xJ^P"``
    (integer power of column J).  Example: ``["1", "x1", "x1^2"]``.
    """
    x_raw = np.atleast_2d(np.asarray(x_raw, dtype=float))
    cols = []
    for term in terms:
        t = term.strip()
        if t == "1":
            cols.append(np.ones(x_raw.shape[0]))
            continue
        base, _, power = t.partition("^")
        if not (base.startswith("x") and base[1:].isdigit()):
            raise ValidationError(f"unrecognized design term {term!r}")
        j = int(base[1:])
        if not 1 <= j <= x_raw.shape[1]:
            raise ValidationError(f"design term {term!r} exceeds {x_raw.shape[1]} columns")
        col = x_raw[:, j - 1]
        if power:
            if not power.isdigit() or int(power) < 1:
                raise ValidationError(f"bad power in design term {term!r}")
            col = col ** int(power)
        cols.append(col)
    if not cols:
        raise ValidationError("design needs at least one term")
    return np.column_stack(cols)


def ols_solution(x, y):
    """Closed-form least squares of y on x; errors on rank-deficient designs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise SingularDesignError("design matrix is rank deficient")
    theta, *_ = np.linalg.lstsq(x, y, rcond=None)
    return theta


@dataclass(frozen=True)
class LinearFitConfig:
    spec: sg.SurrogateSpec
    l1_penalty: float = 0.0
    max_iters: int = 10_000
    grad_tol: float = 1e-8
    init: str = "ols"  # "ols" | "zeros"

    def __post_init__(self):
        if self.l1_penalty < 0:
            raise ValidationError("l1_penalty must be nonnegative")
        if self.max_iters < 1:
            raise ValidationError("max_iters must be positive")
        if not self.grad_tol > 0:
            raise ValidationError("grad_tol must be positive")
        if self.init not in ("ols", "zeros"):
            raise ValidationError("init must be 'ols' or 'zeros'")


@dataclass(frozen=True)
class SandwichCovariance:
    """Plug-in pieces of the asymptotic covariance B^-1 M B^-1 / n."""

    b_hat: np.ndarray
    m_hat: np.ndarray
    sandwich: np.ndarray
    std_errors: np.ndarray


@dataclass(frozen=True)
class LinearFitResult:
    theta: np.ndarray
    theta_external: np.ndarray
    spec: sg.SurrogateSpec
    converged: bool
    iters: int
    final_gradient_norm: float
    objective: float
    covariance: Optional[np.ndarray] = None
    std_errors: Optional[np.ndarray] = None


def surrogate_objective(theta, td: TransformedDataset, spec: sg.SurrogateSpec):
    """Sample objective Q_n(theta): mean per-observation term at x' theta."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != td.k:
        raise DimensionError("theta length does not match design width")
    return float(np.mean(sg.loss_q(spec, td.x @ theta, td.y_star)))


def surrogate_gradient(theta, td: TransformedDataset, spec: sg.SurrogateSpec):
    """Gradient of :func:`surrogate_objective` in theta (internal scale)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != td.k:
        raise DimensionError("theta length does not match design width")
    scores = td.x @ theta
    return td.x.T @ np.asarray(sg.dloss_dtau(spec, scores, td.y_star)) / td.n


def _soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _subgradient_norm(grad, theta, lam):
    if lam == 0.0:
        return float(np.max(np.abs(grad))) if grad.size else 0.0
    # minimal-norm subgradient of Q - lam * |theta|_1
    active = grad - lam * np.sign(theta)
    inactive = _soft_threshold(grad, lam)
    sub = np.where(theta != 0.0, active, inactive)
    return float(np.max(np.abs(sub)))


def _external_map(theta, spec):
    if spec.family is sg.Family.UNIFORM:
        return theta.copy()
    ext = spec.scale * theta
    ext[0] = ext[0] + spec.cost  # first column is the intercept by convention
    return ext


def fit_linear(td: TransformedDataset, cfg: LinearFitConfig) -> LinearFitResult:
    """Maximize Q_n(theta) - l1_penalty * |theta|_1 over linear scores.

    Deterministic given inputs.  ``converged`` reports whether the sup-norm
    of the (sub)gradient reached ``grad_tol`` within ``max_iters``.  For the
    uniform family with no penalty the maximizer is the closed-form least
    squares fit, which the OLS warm start hits immediately.  The sandwich
    covariance is attached when the fit is unpenalized and converged.
    """
    x, y_star = td.x, td.y_star
    n, k = x.shape
    if k > n:
        raise DimensionError(f"need at least as many rows as columns (n={n}, k={k})")
    spec = cfg.spec
    lam = float(cfg.l1_penalty)

    if cfg.init == "ols":
        target = y_star if spec.family is sg.Family.UNIFORM else (y_star - spec.cost) / spec.scale
        theta = ols_solution(x, target)
    else:
        theta = np.zeros(k)

    def penalized(th, raw_obj):
        return raw_obj - lam * float(np.sum(np.abs(th)))

    scores = x @ theta
    obj = float(np.mean(sg.loss_q(spec, scores, y_star)))
    grad = x.T @ np.asarray(sg.dloss_dtau(spec, scores, y_star)) / n
    f_cur = penalized(theta, obj)
    gnorm = _subgradient_norm(grad, theta, lam)
    step = 1.0
    iters = 0
    stalled = 0
    converged = gnorm <= cfg.grad_tol

    while not converged and iters < cfg.max_iters:
        iters += 1
        step = min(step * 2.0, 1e12)  # optimistic restart, then backtrack
        accepted = False
        while step > 1e-20:
            if lam > 0.0:
                cand = _soft_threshold(theta + step * grad, step * lam)
            else:
                cand = theta + step * grad
            delta = cand - theta
            cand_scores = x @ cand
            obj_new = float(np.mean(sg.loss_q(spec, cand_scores, y_star)))
            f_new = penalized(cand, obj_new)
            if f_new >= f_cur + ARMIJO_SLOPE * float(delta @ delta) / step:
                accepted = True
                break
            step *= ARMIJO_SHRINK
        if not accepted:
            break  # flat to machine precision; no ascent step exists
        if f_new < f_cur:
            raise AssertionError("line search produced a decreasing objective")
        # near the optimum the per-step gain drops below float resolution of
        # the objective; stop once steps carry no representable progress
        stalled = stalled + 1 if f_new == f_cur else 0
        # the accepted trial's scores and loss are the new point's; only the
        # gradient needs another pass over the rows
        theta, f_cur, obj, scores = cand, f_new, obj_new, cand_scores
        grad = x.T @ np.asarray(sg.dloss_dtau(spec, scores, y_star)) / n
        gnorm = _subgradient_norm(grad, theta, lam)
        converged = gnorm <= cfg.grad_tol
        if stalled >= 5 or not np.any(delta):
            break

    covariance = std_errors = None
    if lam == 0.0 and converged:
        try:
            cov = sandwich_covariance(theta, td, spec)
            covariance, std_errors = cov.sandwich, cov.std_errors
        except SingularHessianError:
            pass  # report the fit without inference
    return LinearFitResult(
        theta=_frozen(theta),
        theta_external=_frozen(_external_map(theta, spec)),
        spec=spec,
        converged=bool(converged),
        iters=iters,
        final_gradient_norm=gnorm,
        objective=obj,
        covariance=covariance,
        std_errors=std_errors,
    )


def sandwich_covariance(theta_hat, td: TransformedDataset, spec: sg.SurrogateSpec):
    """Asymptotic covariance of the money-scale coefficients.

    Builds B-hat from per-observation curvatures and M-hat from squared
    per-observation gradients, both on the money scale (internal-scale
    derivatives divided by sigma and sigma^2; identity for uniform), so the
    standard errors apply to ``theta_external``.  For the uniform family
    this reduces exactly to the heteroskedasticity-robust least-squares
    covariance.
    """
    theta_hat = np.asarray(theta_hat, dtype=float)
    x, y_star = td.x, td.y_star
    n = x.shape[0]
    if theta_hat.shape[0] != x.shape[1]:
        raise DimensionError("theta length does not match design width")
    scores = x @ theta_hat
    g_i = np.asarray(sg.dloss_dtau(spec, scores, y_star))
    s_i = np.asarray(sg.d2loss_dtau2(spec, scores, y_star))
    if spec.family is not sg.Family.UNIFORM:
        g_i = g_i / spec.scale
        s_i = s_i / spec.scale**2
    b_hat = x.T @ (s_i[:, None] * x) / n
    m_hat = x.T @ (np.square(g_i)[:, None] * x) / n
    if not np.all(np.isfinite(b_hat)) or np.linalg.cond(b_hat) > 1e12:
        raise SingularHessianError("curvature matrix is numerically singular")
    b_inv_m = np.linalg.solve(b_hat, m_hat)
    sandwich = np.linalg.solve(b_hat, b_inv_m.T).T / n
    sandwich = 0.5 * (sandwich + sandwich.T)
    std_errors = np.sqrt(np.maximum(np.diag(sandwich), 0.0))
    return SandwichCovariance(
        b_hat=_frozen(b_hat),
        m_hat=_frozen(m_hat),
        sandwich=_frozen(sandwich),
        std_errors=_frozen(std_errors),
    )


def predict_cate(result: LinearFitResult, x_new):
    """Money-scale CATE predictions for new design rows."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x_new.shape[1] != result.theta.shape[0]:
        raise DimensionError(
            f"x_new has {x_new.shape[1]} columns, model expects {result.theta.shape[0]}"
        )
    scores = x_new @ result.theta
    spec = result.spec
    if spec.family is sg.Family.UNIFORM:
        return scores
    return spec.scale * scores + spec.cost


def policy_from_cate(tau_hat, c):
    """Treat exactly the units with predicted effect at or above the cost."""
    return (np.asarray(tau_hat, dtype=float) >= c).astype(np.int64)
