"""Cross-validated choice of the threshold spread and frontier sweeps.

The spread ``sigma`` of the stochastic threshold controls how much the
objective cares about global CATE accuracy versus decisions near the cost.
It is tuned by k-fold cross-validation under two criteria scored on the
held-out fold: a truth-free MSE proxy, mean ``(y* - tau_hat)^2``, and the
experimental policy value of ``1{tau_hat >= cost}``.  The grid may contain
``inf``, a sentinel for the uniform family (the plain least-squares limit).

``frontier_sweep`` instead fits on the full training data at every grid
value and scores against an oracle-labeled evaluation sample, tracing the
attainable (MSE, profit) pairs of the model class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .dgp import LabeledSample, oracle_policy_value
from .errors import ValidationError
from .evaluation import cate_mse, ipw_policy_value
from .linear import LinearFitConfig, TransformedDataset, policy_from_cate
from .surrogate import Family, SurrogateSpec

DEFAULT_SIGMA_GRID = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, math.inf)

# Iteration cap of the linear fits behind CV, frontier sweeps and table2's
# final fits.  It is low on purpose: at very small sigma the objective
# approaches the stepwise payoff and identifies only the decision boundary,
# which stabilizes within a few hundred iterations while the score's scale
# keeps drifting.
SIGMA_FIT_MAX_ITERS = 1_500

# fit callback contract: fit(td_train, spec) -> predict, where predict maps
# design rows with td_train's columns to money-scale scores
FitFunction = Callable[[TransformedDataset, SurrogateSpec], Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SigmaGrid:
    """Strictly ascending positive spread values; ``inf`` selects the uniform family."""

    values: tuple = DEFAULT_SIGMA_GRID

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValidationError("sigma grid must be nonempty")
        if any(not v > 0 for v in vals):
            raise ValidationError("sigma values must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("sigma grid must be strictly ascending")
        object.__setattr__(self, "values", vals)


def spec_for_sigma(family, cost: float, sigma: float) -> SurrogateSpec:
    """Spec at one grid point; ``inf`` maps to the uniform family.

    The uniform support is centered on the cost; fitted models do not
    depend on it.
    """
    if math.isinf(sigma):
        return SurrogateSpec.uniform(cost - 1.0, cost + 1.0, cost=cost)
    return SurrogateSpec(Family(family), cost, sigma)


@dataclass(frozen=True)
class FoldScore:
    sigma: float
    fold: int
    mse_proxy: float
    profit: float


@dataclass(frozen=True)
class CvResult:
    fold_scores: tuple  # FoldScore per (sigma, fold)
    frontier: tuple  # (sigma, mean mse proxy, mean profit) per sigma
    sigma_mse: float
    sigma_profit: float
    k: int
    seed: int


@dataclass(frozen=True)
class FrontierPoint:
    sigma: float
    mse: float
    profit: float


def _fold_indices(n, k, seed):
    if k < 2:
        raise ValidationError("need at least 2 folds")
    if n < 2 * k:
        raise ValidationError("need n >= 2k observations")
    perm = rng.streams(seed, 1)[0].permutation(n)
    return np.array_split(perm, k)


def kfold_cv(
    td: TransformedDataset,
    grid: SigmaGrid,
    k: int,
    family,
    fit: FitFunction,
    seed: int,
    cost: float = 1.0,
) -> CvResult:
    """Score every grid sigma on held-out folds and select under both criteria.

    ``sigma_mse`` minimizes the fold-mean MSE proxy; ``sigma_profit``
    maximizes the fold-mean policy value.  Ties break toward the larger
    sigma (the smoother, more MSE-like objective).
    """
    folds = _fold_indices(td.n, k, seed)
    all_idx = np.arange(td.n)
    scores = []
    for sigma in grid.values:
        spec = spec_for_sigma(family, cost, sigma)
        for j, fold in enumerate(folds):
            train_idx = np.setdiff1d(all_idx, fold)
            predictor = fit(td.subset(train_idx), spec)
            preds = np.asarray(predictor(td.x[fold]), dtype=float).ravel()
            mse_proxy = float(np.mean(np.square(td.y_star[fold] - preds)))
            profit = ipw_policy_value(td.subset(fold), policy_from_cate(preds, cost), cost)
            scores.append(FoldScore(sigma=sigma, fold=j, mse_proxy=mse_proxy, profit=profit))

    frontier = []
    for sigma in grid.values:
        rows = [s for s in scores if s.sigma == sigma]
        frontier.append(
            (
                sigma,
                float(np.mean([r.mse_proxy for r in rows])),
                float(np.mean([r.profit for r in rows])),
            )
        )
    sigma_mse = sigma_profit = grid.values[0]
    best_mse, best_profit = math.inf, -math.inf
    for sigma, mse, profit in frontier:
        if mse <= best_mse:  # later (larger) sigma wins ties
            best_mse, sigma_mse = mse, sigma
        if profit >= best_profit:
            best_profit, sigma_profit = profit, sigma
    return CvResult(
        fold_scores=tuple(scores),
        frontier=tuple(frontier),
        sigma_mse=sigma_mse,
        sigma_profit=sigma_profit,
        k=k,
        seed=seed,
    )


def frontier_sweep(
    td: TransformedDataset,
    grid: SigmaGrid,
    eval_sample: LabeledSample,
    fit: FitFunction,
    family,
    cost: float = 1.0,
    eval_design: Optional[np.ndarray] = None,
):
    """Fit on the full data at every sigma and score against the truth.

    ``eval_design`` must hold the evaluation sample's covariates in the same
    design encoding as ``td.x`` (defaults to the raw covariates).  Returns
    one :class:`FrontierPoint` per grid value, in grid order.
    """
    x_eval = eval_sample.dataset.x if eval_design is None else np.asarray(eval_design, float)
    if x_eval.shape[0] != eval_sample.dataset.n:
        raise ValidationError("eval_design rows must match the evaluation sample")
    points = []
    for sigma in grid.values:
        spec = spec_for_sigma(family, cost, sigma)
        predictor = fit(td, spec)
        preds = np.asarray(predictor(x_eval), dtype=float).ravel()
        mse = cate_mse(preds, eval_sample.tau_true)
        profit = oracle_policy_value(eval_sample, policy_from_cate(preds, cost), cost)
        points.append(FrontierPoint(sigma=sigma, mse=mse, profit=profit))
    return points


def linear_fit_function(
    max_iters: int = SIGMA_FIT_MAX_ITERS, grad_tol: float = LinearFitConfig.grad_tol
) -> FitFunction:
    """Standard linear fit callback for CV and frontier sweeps.

    The default cap is :data:`SIGMA_FIT_MAX_ITERS`, which says why it is low.
    """
    from .linear import fit_linear, predict_cate

    def fit(td_train, spec):
        res = fit_linear(
            td_train, LinearFitConfig(spec=spec, max_iters=max_iters, grad_tol=grad_tol)
        )
        return lambda x_new: predict_cate(res, x_new)

    return fit


def mlp_fit_function(cfg) -> FitFunction:
    """Surrogate-MLP fit callback; one config shared across grid points."""
    from .mlp import predict_mlp, train_surrogate_mlp

    def fit(td_train, spec):
        model = train_surrogate_mlp(td_train, spec, cfg)
        return lambda x_new: predict_mlp(model, x_new)

    return fit
