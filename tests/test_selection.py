import math

import numpy as np
import pytest

from policycate.dgp import SimpleDgp, gen_simple
from policycate.errors import ValidationError
from policycate.linear import build_design, ols_solution, transform_outcomes
from policycate.selection import (
    DEFAULT_SIGMA_GRID,
    SigmaGrid,
    frontier_sweep,
    kfold_cv,
    linear_fit_function,
    spec_for_sigma,
)
from policycate.surrogate import Family


@pytest.fixture(scope="module")
def misspecified_problem():
    # quadratic truth, linear design: the classic accuracy/profit trade-off
    sample = gen_simple(SimpleDgp(), 4_000, seed=101)
    td = transform_outcomes(sample.dataset)
    td = td.with_design(build_design(sample.dataset.x, ["1", "x1"]))
    return sample, td


def test_sigma_grid_validation():
    with pytest.raises(ValidationError):
        SigmaGrid(())
    with pytest.raises(ValidationError):
        SigmaGrid((0.0, 1.0))
    with pytest.raises(ValidationError):
        SigmaGrid((2.0, 1.0))
    with pytest.raises(ValidationError, match="strictly ascending"):
        SigmaGrid((0.5, 0.5, math.inf))
    grid = SigmaGrid((0.5, 1.0, math.inf))
    assert grid.values[-1] == math.inf


def test_spec_for_sigma_maps_infinity_to_uniform():
    spec = spec_for_sigma("normal", 1.0, math.inf)
    assert spec.family is Family.UNIFORM
    assert spec.cost == 1.0
    spec = spec_for_sigma("normal", 1.0, 0.5)
    assert spec.family is Family.NORMAL and spec.scale == 0.5


def test_singleton_grid_selects_it(misspecified_problem):
    _, td = misspecified_problem
    grid = SigmaGrid((math.inf,))
    res = kfold_cv(td, grid, 3, "normal", linear_fit_function(), seed=0, cost=1.0)
    assert res.sigma_mse == math.inf
    assert res.sigma_profit == math.inf


def test_fold_determinism(misspecified_problem):
    _, td = misspecified_problem
    grid = SigmaGrid((0.5, math.inf))
    a = kfold_cv(td, grid, 4, "normal", linear_fit_function(), seed=3, cost=1.0)
    b = kfold_cv(td, grid, 4, "normal", linear_fit_function(), seed=3, cost=1.0)
    assert a == b
    c = kfold_cv(td, grid, 4, "normal", linear_fit_function(), seed=4, cost=1.0)
    assert c.fold_scores != a.fold_scores


def test_tied_scores_break_to_larger_sigma(misspecified_problem):
    _, td = misspecified_problem
    ols_fit = linear_fit_function()
    uniform = spec_for_sigma("normal", 1.0, math.inf)

    def fit_ignoring_sigma(td_train, spec):
        return ols_fit(td_train, uniform)

    res = kfold_cv(td, SigmaGrid((0.5, 1.0)), 3, "normal", fit_ignoring_sigma, seed=1, cost=1.0)
    a, b = res.frontier
    assert a[1:] == b[1:]  # identical scores for every sigma
    assert res.sigma_mse == 1.0 and res.sigma_profit == 1.0


def test_misspecified_design_tunes_profit_below_mse(misspecified_problem):
    _, td = misspecified_problem
    res = kfold_cv(
        td, SigmaGrid(DEFAULT_SIGMA_GRID), 3, "normal", linear_fit_function(), seed=7, cost=1.0
    )
    assert res.sigma_profit < res.sigma_mse


def test_cv_requires_enough_rows(misspecified_problem):
    _, td = misspecified_problem
    small = td.subset(np.arange(5))
    with pytest.raises(ValidationError):
        kfold_cv(small, SigmaGrid((1.0,)), 3, "normal", linear_fit_function(), seed=0)


def test_linear_fit_function_rejects_an_empty_design(misspecified_problem):
    sample, _ = misspecified_problem
    raw = transform_outcomes(sample.dataset)
    with pytest.raises(ValidationError, match="at least one term"):
        linear_fit_function([])(raw, spec_for_sigma("normal", 1.0, 1.0))


def test_frontier_covers_grid_once_and_matches_uniform_limit(misspecified_problem):
    sample, td = misspecified_problem
    eval_sample = gen_simple(SimpleDgp(), 50_000, seed=707)
    grid = SigmaGrid((0.25, 1.0, math.inf))
    raw = transform_outcomes(sample.dataset)
    points = frontier_sweep(
        raw, grid, eval_sample, linear_fit_function(["1", "x1"]), "normal", cost=1.0
    )
    assert [p.sigma for p in points] == list(grid.values)
    # the sigma = inf point is the least-squares fit, same code path
    theta_ls = ols_solution(td.x, td.y_star)
    preds = build_design(eval_sample.dataset.x, ["1", "x1"]) @ theta_ls
    from policycate.evaluation import cate_mse

    assert points[-1].mse == pytest.approx(cate_mse(preds, eval_sample.tau_true), abs=1e-9)


def test_frontier_tradeoff_on_misspecified_design(misspecified_problem):
    sample, td = misspecified_problem
    eval_sample = gen_simple(SimpleDgp(), 50_000, seed=909)
    points = frontier_sweep(
        transform_outcomes(sample.dataset),
        SigmaGrid(DEFAULT_SIGMA_GRID),
        eval_sample,
        linear_fit_function(["1", "x1"]),
        "normal",
        cost=1.0,
    )
    by_sigma = {p.sigma: p for p in points}
    inf_point = by_sigma[math.inf]
    better = [p for p in points if p.profit > inf_point.profit and p.mse > inf_point.mse]
    assert better, "no grid point trades MSE for profit"
