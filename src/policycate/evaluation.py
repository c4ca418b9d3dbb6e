"""Model scoring: profit, CATE mean squared error, and ranking quality.

Two profit paths are exposed.  ``ipw_policy_value`` scores a policy on
experimental data alone (the transformed outcome makes it unbiased for the
population policy value), which is what tuning must use in practice.
``dgp.oracle_policy_value`` scores against the true effect function and is
available only in simulations; the report assembly here uses the oracle
path because evaluation samples carry oracle labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dgp import LabeledSample, oracle_policy_value
from .errors import ValidationError, require
from .linear import TransformedDataset, policy_from_cate, row_vector


@dataclass(frozen=True)
class EvalReport:
    """One model's metric triple on one evaluation population."""

    profit: float
    mse: Optional[float]
    qini: float
    n_eval: int
    model_tag: str = ""

    def __post_init__(self):
        require(self.n_eval, "pos_int", "n_eval")
        # written so that a NaN mse fails it
        if self.mse is not None and not self.mse >= 0:
            raise ValidationError("mse must be nonnegative")


def ipw_policy_value(td: TransformedDataset, policy, c: float) -> float:
    """Experimental-data policy value: mean of policy * (y* - c)."""
    policy = row_vector(policy, td.n, "policy")
    return float(np.mean(policy * (td.y_star - c)))


def cate_mse(tau_hat, tau_true) -> float:
    """Mean squared error between predicted and true effects."""
    tau_hat = row_vector(tau_hat)
    tau_true = row_vector(tau_true, tau_hat.shape[0], "tau_true")
    if tau_hat.shape[0] < 1:
        raise ValidationError("need at least one observation")
    return float(np.mean(np.square(tau_hat - tau_true)))


def qini_coefficient(scores, tau_true) -> float:
    """Area between the score-ordered cumulative-uplift curve and the diagonal.

    Observations are ranked by score descending (ties keep original order);
    with T_k the cumulative true uplift of the top k divided by n, returns
    mean_k [T_k - (k/n) * mean(tau_true)].  Depends on the scores only
    through their ordering.  Identical scores rank nothing and return 0.0 by
    convention (random ordering has zero area in expectation).
    """
    scores = row_vector(scores)
    n = scores.shape[0]
    tau_true = row_vector(tau_true, n, "tau_true")
    if n < 2:
        raise ValidationError("need at least two observations")
    if np.all(scores == scores[0]):
        return 0.0
    keys = -scores
    # Distinct keys have one ascending order, so numpy's fast default sort
    # gives the stable order unless two keys tie or one is NaN.
    order = np.argsort(keys)
    ranked = keys[order]
    if not np.all(ranked[1:] > ranked[:-1]):
        order = np.argsort(keys, kind="stable")
    del keys, ranked
    # each temporary goes as soon as it is used and the rest is done in
    # place: the same IEEE operations as the whole-array expressions
    # cumsum(g) / n - arange(1, n + 1) * (mean / n), at about half the peak
    cum_gain = np.cumsum(tau_true[order])
    del order
    cum_gain /= n
    diagonal = np.arange(1, n + 1, dtype=float)
    diagonal *= np.mean(tau_true) / n
    cum_gain -= diagonal
    return float(np.mean(cum_gain))


def evaluate_model(
    predict: Callable[[np.ndarray], np.ndarray],
    sample: LabeledSample,
    c: float,
    is_cate: bool,
    model_tag: str = "",
) -> EvalReport:
    """Score one predictor on an oracle-labeled evaluation sample.

    ``predict`` maps the sample's raw covariates to one prediction per row.
    Profit uses the policy ``1{prediction >= c}`` against the true effects;
    MSE is reported only for predictions that are CATEs; the ranking
    coefficient uses the raw predictions as scores.
    """
    preds = row_vector(predict(sample.dataset.x), sample.dataset.n, "predictions", finite=True)
    profit = oracle_policy_value(sample, policy_from_cate(preds, c), c)
    mse = cate_mse(preds, sample.tau_true) if is_cate else None
    qini = qini_coefficient(preds, sample.tau_true)
    return EvalReport(
        profit=profit, mse=mse, qini=qini, n_eval=sample.dataset.n, model_tag=model_tag
    )
