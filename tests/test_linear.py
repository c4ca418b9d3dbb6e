import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policycate import linear, surrogate
from policycate.dgp import ComplexDgp, SimpleDgp, gen_complex, gen_simple
from policycate.errors import (
    DimensionError,
    OverlapError,
    SingularDesignError,
    ValidationError,
)
from policycate.linear import (
    BLOCK_ROWS,
    Dataset,
    LinearFitConfig,
    LinearFitResult,
    TransformedDataset,
    build_design,
    fit_linear,
    ols_solution,
    parse_design,
    policy_from_cate,
    predict_cate,
    predict_rows,
    read_only,
    row_matrix,
    sandwich_covariance,
    surrogate_gradient,
    surrogate_objective,
    transform_outcomes,
)
from policycate.selection import spec_for_sigma
from policycate.surrogate import SurrogateSpec, dloss_dtau, loss_q

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
    for e in ([1.0], [np.nan]):  # a NaN propensity is outside the band too
        with pytest.raises(OverlapError):
            Dataset(x=[[1.0]], w=[1], y=[1.0], e=e)
    with pytest.raises(ValidationError):
        Dataset(x=[[1.0]], w=[2], y=[1.0], e=[0.5])
    with pytest.raises(DimensionError):
        Dataset(x=[[1.0], [2.0]], w=[1], y=[1.0, 2.0], e=[0.5, 0.5])


def sealed(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def test_dataset_copies_writable_inputs():
    rng = np.random.default_rng(30)
    x, w, y = rng.normal(size=(6, 2)), np.array([0.0, 1.0] * 3), rng.normal(size=6)
    e = np.full(6, 0.5)
    ds = Dataset(x=x, w=w, y=y, e=e)
    before = [a.copy() for a in (ds.x, ds.w, ds.y, ds.e)]
    for a in (x, w, y, e):
        a[...] = 0.25
    assert all(np.array_equal(a, b) for a, b in zip((ds.x, ds.w, ds.y, ds.e), before))
    assert not any(a.flags.writeable for a in (ds.x, ds.w, ds.y, ds.e))


def test_dataset_shares_sealed_inputs():
    rng = np.random.default_rng(31)
    x, w = sealed(rng.normal(size=(6, 2))), sealed([0.0, 1.0] * 3)
    y, e = sealed(rng.normal(size=6)), sealed(np.full(6, 0.5))
    ds = Dataset(x=x, w=w, y=y, e=e)
    for mine, stored in ((x, ds.x), (w, ds.w), (y, ds.y), (e, ds.e)):
        assert np.shares_memory(mine, stored) and not stored.flags.writeable
    td = transform_outcomes(ds)
    assert np.shares_memory(td.x, ds.x) and not td.y_star.flags.writeable


def test_transformed_dataset_follows_the_same_rule():
    x, ys = np.ones((3, 2)), np.array([1.0, 2.0, 3.0])
    td = TransformedDataset(x, ys)
    x[0, 0], ys[0] = 9.0, 9.0
    assert td.x[0, 0] == 1.0 and td.y_star[0] == 1.0
    assert not td.x.flags.writeable and not td.y_star.flags.writeable
    x, ys = sealed(x), sealed(ys)
    td = TransformedDataset(x, ys)
    assert np.shares_memory(td.x, x) and np.shares_memory(td.y_star, ys)


def test_row_matrix_reads_a_flat_array_as_one_row():
    x = row_matrix([1, 2, 3])
    assert x.shape == (1, 3) and x.dtype == np.float64


def test_row_matrix_names_a_wrong_width():
    with pytest.raises(DimensionError, match="^rows has 2 features, model expects 3$"):
        row_matrix(np.ones((4, 2)), 3, name="rows")


def test_row_matrix_rejects_a_non_finite_entry_when_asked():
    x = np.ones((3, 2))
    x[1, 0] = np.nan
    assert np.isnan(row_matrix(x)[1, 0])  # the check is opt-in
    with pytest.raises(ValidationError, match="^non-finite x$"):
        row_matrix(x, finite=True)


def test_row_matrix_does_not_copy_a_float64_array():
    x = np.arange(12.0).reshape(4, 3)
    assert np.shares_memory(row_matrix(x, 3, finite=True), x)


def test_transformed_dataset_rejects_an_infinite_row():
    # a design power can overflow on finite covariates; the solver's SVD then failed
    x = np.ones((3, 2))
    x[2, 1] = np.inf
    with pytest.raises(ValidationError, match="^non-finite design rows$"):
        TransformedDataset(x, np.zeros(3))


def test_read_only_copies_a_sealed_view_of_a_writable_owner():
    owner = np.arange(6.0)
    view = owner[:]
    view.setflags(write=False)
    kept = read_only(view)
    owner[0] = 7.0
    assert kept[0] == 0.0 and not kept.flags.writeable
    # a sealed owner and its sealed, contiguous views are shared
    owner.setflags(write=False)
    assert read_only(owner) is owner
    assert read_only(owner[2:]).base is owner
    # other dtypes and strided views are copied into float64 rows
    assert read_only(np.arange(3)).dtype == np.float64
    assert read_only(owner[::2]).flags.c_contiguous


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


# the design grammar read independently: "1", "xJ" or "xJ^P" with J, P >= 1,
# whitespace around a term ignored
_TERM_GRAMMAR = re.compile(r" *(?:(1)|x0*([1-9][0-9]*)(?:\^0*([1-9][0-9]*))?) *")
_GRAMMAR_TERMS = st.just("1") | st.builds(
    lambda j, p: f"x{j}" if p is None else f"x{j}^{p}",
    st.integers(1, 12),
    st.none() | st.integers(1, 3),
)
_ANY_TERMS = (
    _GRAMMAR_TERMS
    | st.sampled_from(["x0", "x", "x1^0", "", "x1^", "z1", 5, None, 1.0])
    | st.text(alphabet="x1^0 ", max_size=5)
)
_DESIGNS = st.one_of(
    st.lists(_GRAMMAR_TERMS, min_size=1, max_size=5),
    st.lists(_ANY_TERMS, max_size=5),
    st.lists(_ANY_TERMS, max_size=5).map(tuple),
    st.sampled_from(["x1", "1", {"1": 0, "x1": 1}, None, 3]),
)


def _grammar_pairs(design):
    """The ``(J, P)`` pairs of a design in the grammar, by the regex; None outside it."""
    if not (isinstance(design, (list, tuple)) and design):
        return None
    matches = [isinstance(t, str) and _TERM_GRAMMAR.fullmatch(t) for t in design]
    if not all(matches):
        return None
    return [
        (None, None) if m[1] else (int(m[2]), int(m[3]) if m[3] else None) for m in matches
    ]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_DESIGNS, st.integers(1, 12))
def test_parse_design_accepts_exactly_the_grammar(design, k):
    rows = np.arange(1.0, 1.0 + 2 * k).reshape(2, k)
    want = _grammar_pairs(design)
    if want is None:
        for parse in (parse_design, lambda d: build_design(rows, d)):
            with pytest.raises(ValidationError) as excinfo:
                parse(design)
            assert excinfo.type is ValidationError  # not a DimensionError
        return
    assert parse_design(design) == want
    if any(j is not None and j > k for j, _ in want):
        with pytest.raises(DimensionError):
            build_design(rows, design)
        return
    cols = [np.ones(2) if j is None else rows[:, j - 1] ** (p or 1) for j, p in want]
    assert np.array_equal(build_design(rows, design), np.column_stack(cols))


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


def test_uniform_fit_equals_closed_form():
    rng = np.random.default_rng(2)
    for trial in range(5):
        td = random_td(rng, n=300, k=4)
        spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
        theta_ls = ols_solution(td.x, td.y_star)
        res = fit_linear(td, LinearFitConfig(spec=spec))
        assert np.max(np.abs(res.theta - theta_ls)) < 1e-6, trial
        # the least-squares start lands exactly on the closed form
        assert res.converged and res.iters == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 5),
    extra_rows=st.integers(1, 300),
    x_scale=st.floats(0.1, 10.0),
    y_scale=st.floats(0.1, 100.0),
    cost=st.floats(-5.0, 5.0),
)
def test_uniform_limit_fit_is_ols(seed, k, extra_rows, x_scale, y_scale, cost):
    # the least-squares start is the optimum: no ascent step, so no
    # iteration cap can change the sigma = inf fit
    rng = np.random.default_rng(seed)
    n = k + extra_rows
    x = np.column_stack([np.ones(n), x_scale * rng.normal(size=(n, k - 1))])
    y_star = y_scale * (x @ rng.normal(size=k) / x_scale + rng.normal(size=n))
    td = TransformedDataset(x, y_star)
    res = fit_linear(td, LinearFitConfig(spec=spec_for_sigma("normal", cost, math.inf)))
    assert res.iters == 0 and res.converged
    assert res.theta.tobytes() == ols_solution(td.x, td.y_star).tobytes()


def test_fit_objective_never_below_start():
    rng = np.random.default_rng(3)
    td = random_td(rng, n=150, k=3)
    spec = SurrogateSpec.logistic(0.5, 1.0)
    res = fit_linear(td, LinearFitConfig(spec=spec))
    start = ols_solution(td.x, spec.standardize(td.y_star))
    assert res.iters > 0
    assert res.objective >= surrogate_objective(start, td, spec)


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
    slope_calls = []

    def recording_loss_q(spec_, scores, y_star, *, work=None):
        scores_seen.append(np.array(scores))
        return loss_q(spec_, scores, y_star, work=work)

    def recording_dloss_dtau(spec_, scores, y_star, *, work=None):
        slope_calls.append(scores)
        return dloss_dtau(spec_, scores, y_star, work=work)

    with mock.patch.object(surrogate, "loss_q", recording_loss_q), mock.patch.object(
        surrogate, "dloss_dtau", recording_dloss_dtau
    ):
        res = fit_linear(td, LinearFitConfig(spec=spec, max_iters=max_iters))
    # the accepted Armijo trial is reused, never evaluated a second time
    for before, after in zip(scores_seen, scores_seen[1:]):
        assert not np.array_equal(before, after)
    assert res.objective == surrogate_objective(res.theta, td, spec)
    # one slope pass at the start and one per accepted point, plus the
    # sandwich covariance's pass on a converged fit; a fit that stops on a
    # failed line search has no pass for its last iteration
    if res.converged:
        assert len(slope_calls) == res.iters + 2
    elif res.iters == max_iters:
        assert len(slope_calls) == res.iters + 1
    else:
        assert res.iters <= len(slope_calls) <= res.iters + 1


# three fits of one complex draw, recorded before the surrogate kernel reused
# row buffers and shared terms; the kernel must not move a single bit
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
PINNED_LOGISTIC_CAPPED_THETA = [
    22.621498122203143, -5.312300754246604, -5.117369934366658, -4.691135870941576,
    -4.889848123036402, -4.724910475272029, -4.436512212335635, -4.5918011773098435,
    -4.9430160034476796, -4.801419242171082, -4.055101938084181,
]


@pytest.mark.parametrize(
    "family, sigma, max_iters, iters, converged, objective, gradient_norm, theta",
    [
        pytest.param(
            "normal", 0.05, 200, 200, False, 0.4528836718634861, 0.001012621385182777,
            PINNED_CAPPED_THETA, id="normal-capped",
        ),
        pytest.param(
            "normal", 1.0, 10_000, 1624, True, 0.5044748067667367, 9.105632090555815e-09,
            PINNED_CONVERGED_THETA, id="normal-converged",
        ),
        pytest.param(
            "logistic", 0.1, 200, 200, False, 0.44650498639878244, 0.001964144403630429,
            PINNED_LOGISTIC_CAPPED_THETA, id="logistic-capped",
        ),
    ],
)
def test_fit_matches_pinned_iterates(
    family, sigma, max_iters, iters, converged, objective, gradient_norm, theta
):
    td = complex_td(400, seed=3)
    spec = getattr(SurrogateSpec, family)(1.0, sigma)
    res = fit_linear(td, LinearFitConfig(spec=spec, max_iters=max_iters))
    assert res.iters == iters
    assert res.converged is converged
    assert res.objective == objective
    assert res.final_gradient_norm == gradient_norm
    np.testing.assert_array_equal(res.theta, theta)


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
    spec = SurrogateSpec.normal(1.0, 2.0)
    zero = np.zeros(2)
    res = LinearFitResult(
        theta=zero,
        theta_external=zero,
        spec=spec,
        converged=False,
        iters=0,
        final_gradient_norm=math.nan,
        objective=math.nan,
    )
    preds = predict_cate(res, np.array([[1.0, 1.0]]))
    assert preds == pytest.approx([1.0])


def test_predict_dimension_error():
    rng = np.random.default_rng(14)
    td = random_td(rng, n=30, k=3)
    res = fit_linear(td, LinearFitConfig(spec=SurrogateSpec.uniform(0.0, 1.0)))
    with pytest.raises(DimensionError):
        predict_cate(res, np.ones((2, 4)))


B = BLOCK_ROWS
WIDE_TERMS = ["1"] + [f"x{j}" for j in range(1, 11)]


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
@pytest.mark.parametrize(
    "design, k", [(WIDE_TERMS, 10), (["1", "x2", "x1^2"], 2), (None, 11)]
)
@pytest.mark.parametrize("spec", [SurrogateSpec.normal(1.0, 0.5), SurrogateSpec.uniform(0.0, 2.0)])
def test_blocked_scoring_equals_whole_design_scoring(n, design, k, spec):
    rng = np.random.default_rng(n + k)
    x = rng.uniform(-1.0, 2.0, size=(n, k))
    theta = rng.normal(size=len(design) if design else k)
    xd = build_design(x, design) if design else x
    want = spec.unstandardize(xd @ theta)
    got = predict_rows(theta, spec, x, design)
    assert got.tobytes() == want.tobytes()
    again = predict_rows(theta, spec, x, design)
    assert not np.shares_memory(got, again)
    assert again.tobytes() == got.tobytes()


@pytest.mark.parametrize("n", [0, 3])
def test_blocked_scoring_checks_the_width_first(n):
    spec = SurrogateSpec.normal(1.0, 1.0)
    with pytest.raises(DimensionError):
        predict_rows(np.ones(3), spec, np.ones((n, 2)))
    with pytest.raises(DimensionError):  # coefficients of another design
        predict_rows(np.ones(3), spec, np.ones((n, 2)), ["1", "x1"])
    with pytest.raises(DimensionError):  # a term past the last column
        predict_rows(np.ones(2), spec, np.ones((n, 2)), ["1", "x3"])
    assert predict_rows(np.ones(3), spec, np.ones((n, 3))).shape == (n,)


@pytest.mark.parametrize("design, k", [(WIDE_TERMS, 10), (None, 11)], ids=["design", "no-design"])
def test_forked_linear_scoring_equals_the_inline_walk_bit_for_bit(
    monkeypatch, pool_sizes, workers, design, k
):
    x = np.random.default_rng(k).uniform(-1.0, 2.0, size=(3 * B + 5, k))  # a short last block
    theta = np.random.default_rng(k + 1).normal(size=11)
    spec = SurrogateSpec.normal(1.0, 0.5)
    workers(2)
    predict_rows(theta, spec, x, design)
    assert pool_sizes == []  # below the floor, as every linear scoring is
    monkeypatch.setattr(linear, "FORK_MIN_MADDS", 0)
    got = {}
    for count in (1, 2):
        workers(count)
        got[count] = [v.hex() for v in predict_rows(theta, spec, x, design).tolist()]
    assert got[2] == got[1]
    assert pool_sizes == [2]


def test_predict_rows_rejects_an_empty_design():
    # an empty design is malformed, not "no design": the raw rows are not scored
    with pytest.raises(ValidationError, match="design needs at least one term"):
        predict_rows([0.5, 2.0], SurrogateSpec.normal(1.0, 1.0), [[1.0, 3.5]], design=[])


# int() refuses strings of more than 4,300 digits with a plain ValueError
@pytest.mark.parametrize("term", ["x" + "9" * 5000, "x1^" + "9" * 5000], ids=["column", "power"])
def test_parse_design_rejects_a_number_too_long_to_read(term):
    with pytest.raises(ValidationError) as excinfo:
        parse_design(["1", term])
    assert excinfo.type is ValidationError


def test_policy_from_cate_weak_inequality():
    assert policy_from_cate([1.0], 1.0).tolist() == [1]
    assert policy_from_cate([1.0 - 1e-12], 1.0).tolist() == [0]
    assert policy_from_cate([0.0, 1.0, 2.0], 1.0).tolist() == [0, 1, 1]


# the design's columns in order: random_td puts the intercept (column 0) first
INTERCEPT_AT = {"first": [0, 1, 2], "middle": [1, 0, 2], "last": [1, 2, 0], "none": [1, 2]}


@pytest.mark.parametrize("family", ["logistic", "normal"])
@pytest.mark.parametrize("intercept", INTERCEPT_AT)
def test_external_map_matches_unstandardize(intercept, family):
    rng = np.random.default_rng(15)
    td = random_td(rng, n=200, k=3)
    td = td.with_design(td.x[:, INTERCEPT_AT[intercept]])
    spec = spec_for_sigma(family, 0.5, 1.5)
    res = fit_linear(td, LinearFitConfig(spec=spec))
    if intercept == "none":
        # the cost has no column to go on, so no money-scale map exists
        assert res.theta_external is None
    else:
        # x @ theta_external equals the money-scale CATE
        assert td.x @ res.theta_external == pytest.approx(predict_cate(res, td.x))
