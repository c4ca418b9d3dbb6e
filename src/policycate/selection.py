"""Cross-validated choice of the threshold spread and frontier sweeps.

The spread ``sigma`` of the stochastic threshold controls how much the
objective cares about global CATE accuracy versus decisions near the cost.
It is tuned by k-fold cross-validation under two criteria scored on the
held-out fold: a truth-free MSE proxy, mean ``(y* - tau_hat)^2``, and the
experimental policy value of ``1{tau_hat >= cost}``.  The grid may contain
``inf``, a sentinel for the uniform family (the plain least-squares limit).

``frontier_sweep`` instead fits on the full training data at every grid
value and scores each fit with ``evaluation.evaluate_model`` on an
oracle-labeled sample, tracing the attainable (MSE, profit) pairs.

Both take a fit callback ``fit(td_train, spec) -> predict``, where
``predict`` maps new rows of the kind ``td_train`` holds to money-scale
scores and pickles.  Both run their fits through ``linear.fork_map``
over ``linear.fit_workers()`` processes, so with more than one a worker
returns each ``predict``; they score every fit in the calling process in
grid order, so their results do not depend on the worker count.
``mlp_fit_function`` and ``linear_fit_function(design)`` take raw
covariate rows; the latter builds its design inside the fit and, block by
block, inside the predictor, so no full-size design of an evaluation
sample is built.  Without a design the linear rows are the design.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import linear, rng
from .dgp import LabeledSample
from .errors import ValidationError, require
from .evaluation import cate_mse, evaluate_model, ipw_policy_value
from .linear import LinearFitConfig, TransformedDataset, fork_map, policy_from_cate, row_vector
from .surrogate import Family, SurrogateSpec

DEFAULT_SIGMA_GRID = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, math.inf)

# Iteration cap of the linear fits behind CV, frontier sweeps and table2's
# final fits.  It is low on purpose: at very small sigma the objective
# approaches the stepwise payoff and identifies only the decision boundary,
# which stabilizes within a few hundred iterations while the score's scale
# keeps drifting.
SIGMA_FIT_MAX_ITERS = 1_500

# fit callback contract: see the module docstring
FitFunction = Callable[[TransformedDataset, SurrogateSpec], Callable[[np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class SigmaGrid:
    """Strictly ascending positive spread values; ``inf`` selects the uniform family."""

    values: tuple = DEFAULT_SIGMA_GRID

    def __post_init__(self):
        try:
            vals = tuple(map(float, self.values))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sigma grid: {exc}") from None
        if len(vals) == 0:
            raise ValidationError("sigma grid must be nonempty")
        if any(not v > 0 for v in vals):
            raise ValidationError("sigma values must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("sigma grid must be strictly ascending")
        object.__setattr__(self, "values", vals)


def spec_for_sigma(family, cost, sigma, uniform_lo=None, uniform_hi=None) -> SurrogateSpec:
    """Spec at one grid point; ``inf`` and the uniform family give the uniform spec.

    The uniform spec ignores sigma.  Its support (``uniform_lo``,
    ``uniform_hi``) defaults to cost -/+ 1; fitted models do not depend on
    it, so only ``curve`` sets it.
    """
    if family == "uniform" or math.isinf(sigma):
        lo = cost - 1.0 if uniform_lo is None else uniform_lo
        hi = cost + 1.0 if uniform_hi is None else uniform_hi
        return SurrogateSpec.uniform(lo, hi, cost=cost)
    return SurrogateSpec(Family(family), cost, sigma)


@dataclass(frozen=True)
class FoldScore:
    sigma: float
    fold: int
    mse_proxy: float
    profit: float


class FrontierPoint(NamedTuple):
    """One grid sigma's (MSE, profit) pair; it unpacks as ``sigma, mse, profit``."""

    sigma: float
    mse: float
    profit: float


@dataclass(frozen=True)
class CvResult:
    fold_scores: tuple  # FoldScore per (sigma, fold), sigma-major
    frontier: tuple  # FrontierPoint per sigma: fold means of the mse proxy and profit
    sigma_mse: float
    sigma_profit: float
    k: int
    seed: int


def _fold_indices(n, k, seed):
    require(k, "int_ge2", "folds")
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
    splits = [(td.subset(np.setdiff1d(np.arange(td.n), f)), td.subset(f)) for f in folds]
    specs = [spec_for_sigma(family, cost, sigma) for sigma in grid.values]
    # one fit per (sigma, fold), sigma-major as the fold scores are
    predictors = fork_map(
        lambda i: fit(splits[i % k][0], specs[i // k]), len(specs) * k, linear.fit_workers()
    )
    scores, frontier = [], []
    for s, sigma in enumerate(grid.values):
        rows = []
        for j, (_, td_held) in enumerate(splits):
            preds = row_vector(
                predictors[s * k + j](td_held.x), td_held.n, "predictions", finite=True
            )
            # the squared difference is the same in either order, bit for bit
            mse_proxy = cate_mse(preds, td_held.y_star)
            profit = ipw_policy_value(td_held, policy_from_cate(preds, cost), cost)
            rows.append(FoldScore(sigma=sigma, fold=j, mse_proxy=mse_proxy, profit=profit))
        scores += rows
        mean_mse = float(np.mean([r.mse_proxy for r in rows]))
        mean_profit = float(np.mean([r.profit for r in rows]))
        frontier.append(FrontierPoint(sigma, mean_mse, mean_profit))
    # the first best of the reversed grid: later (larger) sigma wins ties
    best_mse = min(reversed(frontier), key=lambda p: p.mse)
    best_profit = max(reversed(frontier), key=lambda p: p.profit)
    return CvResult(
        fold_scores=tuple(scores),
        frontier=tuple(frontier),
        sigma_mse=best_mse.sigma,
        sigma_profit=best_profit.sigma,
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
):
    """Fit on the full data at every sigma and score it with ``evaluate_model``.

    ``td`` and ``fit`` take raw covariate rows, as the evaluation sample
    (two rows or more) holds them.  Returns one :class:`FrontierPoint` of
    the report's MSE and profit per grid value, in grid order.
    """
    specs = [spec_for_sigma(family, cost, sigma) for sigma in grid.values]
    predictors = fork_map(lambda i: fit(td, specs[i]), len(specs), linear.fit_workers())
    points = []
    for sigma, predictor in zip(grid.values, predictors):
        report = evaluate_model(predictor, eval_sample, cost, True)
        points.append(FrontierPoint(sigma=sigma, mse=report.mse, profit=report.profit))
    return points


def linear_fit_function(
    design=None,
    max_iters: int = SIGMA_FIT_MAX_ITERS,
    grad_tol: float = LinearFitConfig.grad_tol,
) -> FitFunction:
    """Linear fit callback for CV, frontier sweeps and ``table2``.

    With ``design`` (``build_design`` terms) the callback takes raw
    covariate rows; without one, rows are the design already.  The default
    cap is :data:`SIGMA_FIT_MAX_ITERS`, which says why it is low.
    """
    from .linear import build_design, fit_linear, predict_cate

    def fit(td_train, spec):
        if design is not None:
            td_train = td_train.with_design(build_design(td_train.x, design))
        res = fit_linear(
            td_train, LinearFitConfig(spec=spec, max_iters=max_iters, grad_tol=grad_tol)
        )
        return functools.partial(predict_cate, res, design=design)

    return fit


def mlp_fit_function(cfg) -> FitFunction:
    """Surrogate-MLP fit callback; one config shared across grid points."""
    from .mlp import predict_mlp, train_surrogate_mlp

    def fit(td_train, spec):
        return functools.partial(predict_mlp, train_surrogate_mlp(td_train, spec, cfg))

    return fit
