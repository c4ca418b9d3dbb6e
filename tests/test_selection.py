import math
import os

import numpy as np
import pytest

from policycate.dgp import SimpleDgp, gen_simple
from policycate.errors import SingularDesignError, ValidationError
from policycate.evaluation import evaluate_model
from policycate.linear import (
    BLAS_THREAD_VARS,
    build_design,
    fit_workers,
    fork_map,
    ols_solution,
    transform_outcomes,
)
from policycate.mlp import MlpConfig
from policycate.selection import (
    DEFAULT_SIGMA_GRID,
    SigmaGrid,
    frontier_sweep,
    kfold_cv,
    linear_fit_function,
    mlp_fit_function,
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


def test_sigma_grid_names_a_value_that_is_not_a_number():
    # float("abc") raised a plain ValueError, outside the package's error families
    with pytest.raises(ValidationError, match="^sigma grid: could not convert .*: 'abc'$"):
        SigmaGrid((0.5, "abc"))
    with pytest.raises(ValidationError, match="^sigma grid: .*'NoneType'$"):
        SigmaGrid((None,))
    grid = SigmaGrid((np.float32(0.5), 1.0, np.float64(2.0), math.inf))
    assert grid.values == (0.5, 1.0, 2.0, math.inf)
    assert all(type(v) is float for v in grid.values)
    assert SigmaGrid((1.0, "inf")).values == (1.0, math.inf)


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


@pytest.mark.parametrize("model", ["linear-design", "mlp"])
def test_frontier_point_is_evaluate_models_report_bit_for_bit(misspecified_problem, model):
    sample, _ = misspecified_problem
    raw = transform_outcomes(sample.dataset)
    eval_sample = gen_simple(SimpleDgp(), 2_000, seed=303)
    if model == "mlp":
        fit = mlp_fit_function(MlpConfig(hidden_sizes=(4,), max_epochs=3, seed=1))
    else:
        fit = linear_fit_function(["1", "x1"])
    grid = SigmaGrid((0.25, 1.0, math.inf))
    points = frontier_sweep(raw, grid, eval_sample, fit, "normal", cost=1.0)
    for point in points:
        predictor = fit(raw, spec_for_sigma("normal", 1.0, point.sigma))
        report = evaluate_model(predictor, eval_sample, 1.0, True)
        assert (point.mse.hex(), point.profit.hex()) == (report.mse.hex(), report.profit.hex())


# ------------------------------------------------------------- forked fits


def test_fork_map_returns_results_in_order_inline_or_forked(pool_sizes):
    assert fork_map(lambda i: (i * i, os.getpid()), 5, 1) == [(i * i, os.getpid()) for i in range(5)]
    forked = fork_map(lambda i: (i * i, os.getpid()), 5, 8)
    assert [r for r, _ in forked] == [i * i for i in range(5)]
    assert os.getpid() not in {pid for _, pid in forked}
    assert pool_sizes == [5]  # no more workers than tasks


def test_a_fork_map_inside_a_worker_runs_inline():
    outer = fork_map(lambda i: (os.getpid(), fork_map(lambda j: os.getpid(), 2, 2)), 2, 2)
    for pid, inner in outer:
        assert pid != os.getpid() and inner == [pid, pid]


def test_a_failure_in_a_worker_keeps_its_type_and_message():
    def fit(i):
        if i == 1:
            raise SingularDesignError("design matrix is rank deficient")
        return i

    with pytest.raises(SingularDesignError, match="^design matrix is rank deficient$"):
        fork_map(fit, 3, 2)


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),  # BLAS takes every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 8),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4),
        ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "3"}, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),  # not a positive integer: BLAS's default
    ],
)
def test_fit_workers_divides_usable_cores_by_blas_threads(monkeypatch, env, workers):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert fit_workers() == workers


@pytest.mark.parametrize("model", ["linear", "mlp"])
def test_forked_cv_and_frontier_equal_the_inline_run_bit_for_bit(
    misspecified_problem, pool_sizes, workers, model
):
    sample, td = misspecified_problem
    raw = transform_outcomes(sample.dataset)
    eval_sample = gen_simple(SimpleDgp(), 2_000, seed=303)
    if model == "mlp":
        fit = mlp_fit_function(MlpConfig(hidden_sizes=(4,), max_epochs=3, seed=1))
    else:
        fit = linear_fit_function(["1", "x1"])
    grid = SigmaGrid((0.25, 1.0, math.inf))
    runs = {}
    for count in (1, 2):
        workers(count)  # inline, then forked
        cv = kfold_cv(raw, grid, 3, "normal", fit, seed=2, cost=1.0)
        points = frontier_sweep(raw, grid, eval_sample, fit, "normal", cost=1.0)
        runs[count] = (
            [(s.sigma, s.fold, s.mse_proxy.hex(), s.profit.hex()) for s in cv.fold_scores],
            [(p.sigma, p.mse.hex(), p.profit.hex()) for p in cv.frontier],
            (cv.sigma_mse, cv.sigma_profit),
            [(p.sigma, p.mse.hex(), p.profit.hex()) for p in points],
        )
    assert pool_sizes == [2, 2]  # the forked run's CV and sweep
    assert runs[2] == runs[1]
