import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policycate import surrogate
from policycate.dgp import ComplexDgp, SimpleDgp, gen_complex, gen_simple
from policycate.errors import (
    DimensionError,
    OverlapError,
    SingularDesignError,
    ValidationError,
)
from policycate.linear import (
    Dataset,
    LinearFitConfig,
    TransformedDataset,
    build_design,
    fit_linear,
    ols_solution,
    policy_from_cate,
    predict_cate,
    sandwich_covariance,
    surrogate_gradient,
    surrogate_objective,
    transform_outcomes,
)
from policycate.surrogate import SurrogateSpec, loss_q

PHI0 = 1.0 / math.sqrt(2.0 * math.pi)


def random_td(rng, n=200, k=4):
    x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    theta = rng.normal(size=k)
    y_star = x @ theta + rng.normal(scale=2.0, size=n)
    return TransformedDataset(x, y_star)


def complex_td(n, seed):
    """A complex-DGP draw on the benchmark table's design: intercept, x1..x10."""
    sample = gen_complex(ComplexDgp(), n, seed)
    td = transform_outcomes(sample.dataset)
    terms = ["1"] + [f"x{j}" for j in range(1, 11)]
    return td.with_design(build_design(sample.dataset.x, terms))


# ------------------------------------------------------------------- datasets


def test_dataset_validation():
    with pytest.raises(OverlapError):
        Dataset(x=[[1.0]], w=[1], y=[1.0], e=[1.0])
    with pytest.raises(ValidationError):
        Dataset(x=[[1.0]], w=[2], y=[1.0], e=[0.5])
    with pytest.raises(DimensionError):
        Dataset(x=[[1.0], [2.0]], w=[1], y=[1.0, 2.0], e=[0.5, 0.5])


def test_transform_outcomes_examples():
    ds = Dataset(
        x=[[1.0], [1.0], [1.0]], w=[1, 0, 1], y=[3.0, 3.0, 2.0], e=[0.5, 0.5, 0.25]
    )
    td = transform_outcomes(ds)
    assert td.y_star == pytest.approx([6.0, -6.0, 8.0])
    assert np.array_equal(td.x, ds.x)


def test_build_design_terms():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = build_design(x, ["1", "x2", "x1^2"])
    assert d == pytest.approx(np.array([[1.0, 2.0, 1.0], [1.0, 4.0, 9.0]]))
    with pytest.raises(ValidationError):
        build_design(x, ["x3"])
    with pytest.raises(ValidationError):
        build_design(x, ["z1"])


# ------------------------------------------------------------------ objective


def test_objective_at_zero_theta_reduces_to_mean():
    rng = np.random.default_rng(0)
    td = random_td(rng)
    spec = SurrogateSpec.normal(0.7, 1.3)
    expected = 0.5 * (np.mean(td.y_star) - 0.7) + 1.3 * PHI0
    assert surrogate_objective(np.zeros(td.k), td, spec) == pytest.approx(expected)


def test_objective_single_row_matches_loss():
    td = TransformedDataset(np.array([[1.0, -1.0]]), np.array([2.0]))
    spec = SurrogateSpec.normal(1.0, 1.0)
    theta = np.array([1.0, 1.0])  # score 0
    assert surrogate_objective(theta, td, spec) == pytest.approx(0.5 + PHI0)


def test_uniform_objective_maximized_at_least_squares():
    rng = np.random.default_rng(5)
    td = random_td(rng)
    spec = SurrogateSpec.uniform(-1.0, 1.0, cost=0.0)
    theta_ls = ols_solution(td.x, td.y_star)
    base = surrogate_objective(theta_ls, td, spec)
    for _ in range(100):
        probe = theta_ls + rng.normal(scale=0.1, size=td.k)
        assert surrogate_objective(probe, td, spec) <= base + 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    td = random_td(rng, n=60, k=3)
    h = 1e-6
    for family in ("normal", "logistic", "uniform"):
        if family == "uniform":
            spec = SurrogateSpec.uniform(-1.0, 3.0, cost=1.0)
        else:
            spec = SurrogateSpec(family, 0.5, 0.8)
        for _ in range(50):
            theta = rng.normal(scale=0.8, size=td.k)
            grad = surrogate_gradient(theta, td, spec)
            fd = np.empty_like(grad)
            for j in range(td.k):
                ej = np.zeros(td.k)
                ej[j] = h
                fd[j] = (
                    surrogate_objective(theta + ej, td, spec)
                    - surrogate_objective(theta - ej, td, spec)
                ) / (2 * h)
            rel = np.max(np.abs(grad - fd)) / (1.0 + np.max(np.abs(grad)))
            assert rel < 1e-5


# ------------------------------------------------------------------------ fit


def test_uniform_fit_equals_closed_form_both_inits():
    rng = np.random.default_rng(2)
    for trial in range(5):
        td = random_td(rng, n=300, k=4)
        spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
        theta_ls = ols_solution(td.x, td.y_star)
        for init in ("ols", "zeros"):
            res = fit_linear(td, LinearFitConfig(spec=spec, init=init))
            assert np.max(np.abs(res.theta - theta_ls)) < 1e-6, (trial, init)
            assert res.iters < 200
        # the warm start lands exactly on the closed form
        res = fit_linear(td, LinearFitConfig(spec=spec))
        assert res.converged and res.iters == 0


def test_fit_objective_never_below_start():
    rng = np.random.default_rng(3)
    td = random_td(rng, n=150, k=3)
    spec = SurrogateSpec.logistic(0.5, 1.0)
    cfg = LinearFitConfig(spec=spec, init="zeros")
    res = fit_linear(td, cfg)
    assert res.objective >= surrogate_objective(np.zeros(td.k), td, spec)


def test_quadratic_recovery_single_draw():
    sample = gen_simple(SimpleDgp(), 10_000, seed=12)
    td = transform_outcomes(sample.dataset)
    td = td.with_design(build_design(sample.dataset.x, ["1", "x1", "x1^2"]))
    res = fit_linear(td, LinearFitConfig(spec=SurrogateSpec.normal(1.0, 1.0)))
    assert res.converged
    # one-draw check; the Monte Carlo version lives in the acceptance suite
    assert res.theta_external == pytest.approx([1.0, 2.0, -1.0], abs=0.35)


def test_degenerate_outcome_gives_flat_fit():
    n = 80
    x = np.column_stack([np.ones(n), np.linspace(-1, 1, n)])
    td = TransformedDataset(x, np.full(n, 1.0))
    res = fit_linear(td, LinearFitConfig(spec=SurrogateSpec.normal(1.0, 1.0)))
    assert np.max(np.abs(res.theta)) < 1e-8
    preds = predict_cate(res, x)
    assert preds == pytest.approx(np.full(n, 1.0))


def test_fit_shape_and_rank_errors():
    td = TransformedDataset(np.ones((2, 3)), np.array([1.0, 2.0]))
    with pytest.raises(DimensionError):
        fit_linear(td, LinearFitConfig(spec=SurrogateSpec.normal(0.0, 1.0)))
    x = np.column_stack([np.ones(10), np.ones(10)])  # duplicated column
    td = TransformedDataset(x, np.arange(10.0))
    with pytest.raises(SingularDesignError):
        fit_linear(td, LinearFitConfig(spec=SurrogateSpec.uniform(0.0, 1.0)))


def test_l1_penalty_shrinks_and_drops_covariance():
    rng = np.random.default_rng(9)
    td = random_td(rng, n=400, k=5)
    spec = SurrogateSpec.normal(0.0, 1.0)
    free = fit_linear(td, LinearFitConfig(spec=spec))
    assert free.covariance is not None
    pen = fit_linear(td, LinearFitConfig(spec=spec, l1_penalty=0.5))
    assert pen.covariance is None and pen.std_errors is None
    assert np.sum(np.abs(pen.theta)) < np.sum(np.abs(free.theta))


def test_heavy_l1_zeroes_everything():
    rng = np.random.default_rng(10)
    td = random_td(rng, n=100, k=3)
    spec = SurrogateSpec.uniform(-1.0, 1.0, cost=0.0)
    res = fit_linear(td, LinearFitConfig(spec=spec, l1_penalty=1e4, init="zeros"))
    assert np.all(res.theta == 0.0)
    assert res.converged


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**20),
    n=st.integers(40, 400),
    sigma=st.sampled_from([0.05, 0.25, 1.0, 5.0]),
    max_iters=st.integers(1, 200),
)
def test_fit_evaluates_each_accepted_point_once(seed, n, sigma, max_iters):
    td = complex_td(n, seed)
    spec = SurrogateSpec.normal(1.0, sigma)
    scores_seen = []

    def recording_loss_q(spec_, scores, y_star):
        scores_seen.append(np.array(scores))
        return loss_q(spec_, scores, y_star)

    with mock.patch.object(surrogate, "loss_q", recording_loss_q):
        res = fit_linear(td, LinearFitConfig(spec=spec, max_iters=max_iters))
    # the accepted Armijo trial is reused, never evaluated a second time
    for before, after in zip(scores_seen, scores_seen[1:]):
        assert not np.array_equal(before, after)
    assert res.objective == surrogate_objective(res.theta, td, spec)


# two fits of one complex draw, recorded with the solver that evaluated each
# accepted point twice; reusing that evaluation must not move any iterate
PINNED_CAPPED_THETA = [
    23.159219189149866, -5.617192019142309, -5.370754815415112, -4.714556746692045,
    -4.968599013182866, -4.9644298935545335, -4.4468861237005575, -4.452810680821741,
    -5.330937471082273, -4.714896224585515, -3.675976351248371,
]
PINNED_CONVERGED_THETA = [
    4.466924290668486, -0.9963308374501333, -0.9288527446521245, -0.8785391396654724,
    -1.0591656616186165, -0.9079475213718832, -0.8272397789916035, -0.918360809673169,
    -0.9360830183602904, -1.0464265070209162, -0.8533664542646271,
]


@pytest.mark.parametrize(
    "sigma, max_iters, iters, converged, theta",
    [
        (0.05, 200, 200, False, PINNED_CAPPED_THETA),
        (1.0, 10_000, 1624, True, PINNED_CONVERGED_THETA),
    ],
)
def test_fit_matches_pinned_iterates(sigma, max_iters, iters, converged, theta):
    td = complex_td(400, seed=3)
    cfg = LinearFitConfig(spec=SurrogateSpec.normal(1.0, sigma), max_iters=max_iters)
    res = fit_linear(td, cfg)
    assert res.iters == iters
    assert res.converged is converged
    np.testing.assert_allclose(res.theta, theta, rtol=1e-12)


# ------------------------------------------------------------------- sandwich


def test_sandwich_uniform_curvature_is_exact():
    rng = np.random.default_rng(4)
    td = random_td(rng, n=120, k=3)
    spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
    theta = ols_solution(td.x, td.y_star)
    cov = sandwich_covariance(theta, td, spec)
    expected_b = -2.0 * td.x.T @ td.x / td.n
    assert np.array_equal(cov.b_hat, expected_b) or cov.b_hat == pytest.approx(
        expected_b, abs=1e-14
    )


def test_sandwich_uniform_equals_robust_ols_errors():
    rng = np.random.default_rng(6)
    td = random_td(rng, n=250, k=4)
    spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
    theta = ols_solution(td.x, td.y_star)
    cov = sandwich_covariance(theta, td, spec)
    # independent HC0 computation from the closed-form residuals
    resid = td.y_star - td.x @ theta
    xtx_inv = np.linalg.inv(td.x.T @ td.x)
    meat = td.x.T @ (resid[:, None] ** 2 * td.x)
    hc0 = xtx_inv @ meat @ xtx_inv
    assert np.max(np.abs(cov.sandwich - hc0)) < 1e-8
    assert np.max(np.abs(cov.std_errors - np.sqrt(np.diag(hc0)))) < 1e-8


def test_sandwich_symmetric_psd():
    rng = np.random.default_rng(8)
    td = random_td(rng, n=300, k=4)
    spec = SurrogateSpec.normal(0.3, 0.9)
    res = fit_linear(td, LinearFitConfig(spec=spec))
    cov = sandwich_covariance(res.theta, td, spec)
    assert np.max(np.abs(cov.sandwich - cov.sandwich.T)) < 1e-10
    eigs = np.linalg.eigvalsh(cov.sandwich)
    assert np.all(eigs > -1e-8)


# ------------------------------------------------------------------ predict


def test_predict_scale_map_is_one_multiply_add():
    rng = np.random.default_rng(13)
    td = random_td(rng, n=50, k=3)
    spec = SurrogateSpec.normal(1.0, 2.0)
    res = fit_linear(td, LinearFitConfig(spec=spec))
    expected = 2.0 * (td.x @ res.theta) + 1.0
    assert np.array_equal(predict_cate(res, td.x), expected)


def test_predict_zero_theta_returns_cost():
    td = TransformedDataset(np.ones((3, 2)), np.array([1.0, 1.0, 1.0]))
    spec = SurrogateSpec.normal(1.0, 2.0)
    res = fit_linear(td, LinearFitConfig(spec=spec, init="zeros", max_iters=1))
    preds = predict_cate(res, np.array([[0.0, 0.0]]))
    assert preds == pytest.approx([1.0])


def test_predict_dimension_error():
    rng = np.random.default_rng(14)
    td = random_td(rng, n=30, k=3)
    res = fit_linear(td, LinearFitConfig(spec=SurrogateSpec.uniform(0.0, 1.0)))
    with pytest.raises(DimensionError):
        predict_cate(res, np.ones((2, 4)))


def test_policy_from_cate_weak_inequality():
    assert policy_from_cate([1.0], 1.0).tolist() == [1]
    assert policy_from_cate([1.0 - 1e-12], 1.0).tolist() == [0]
    assert policy_from_cate([0.0, 1.0, 2.0], 1.0).tolist() == [0, 1, 1]


def test_external_map_matches_unstandardize():
    rng = np.random.default_rng(15)
    td = random_td(rng, n=200, k=3)
    spec = SurrogateSpec.logistic(0.5, 1.5)
    res = fit_linear(td, LinearFitConfig(spec=spec))
    # with an intercept column, x @ theta_external equals the money-scale CATE
    assert td.x @ res.theta_external == pytest.approx(predict_cate(res, td.x))
