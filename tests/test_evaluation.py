import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policycate import dataio
from policycate.dgp import (
    ComplexDgp,
    LabeledSample,
    SimpleDgp,
    gen_complex,
    gen_simple,
    oracle_policy_value,
)
from policycate.errors import DimensionError, ValidationError
from policycate.evaluation import (
    EvalReport,
    cate_mse,
    evaluate_model,
    ipw_policy_value,
    qini_coefficient,
)
from policycate.linear import Dataset, TransformedDataset, transform_outcomes
from policycate.selection import SigmaGrid, frontier_sweep, kfold_cv


def qini_of_order(order, tau):
    # reference implementation straight from the definition
    n = len(tau)
    cum = np.cumsum(tau[order]) / n
    diag = np.arange(1, n + 1) / n * np.mean(tau)
    return float(np.mean(cum - diag))


# ------------------------------------------------------------------ ipw value


def test_ipw_trivial_policies():
    td = TransformedDataset(np.ones((4, 1)), np.array([1.0, 2.0, 3.0, 4.0]))
    assert ipw_policy_value(td, np.zeros(4), 1.0) == 0.0
    assert ipw_policy_value(td, np.ones(4), 1.0) == pytest.approx(np.mean(td.y_star) - 1.0)


def test_ipw_matches_oracle_on_simple_dgp():
    sample = gen_simple(SimpleDgp(), 100_000, seed=33)
    td = transform_outcomes(sample.dataset)
    policy = (sample.dataset.x[:, 0] >= 0).astype(int)
    assert ipw_policy_value(td, policy, 1.0) == pytest.approx(4.0 / 9.0, abs=0.03)


def test_ipw_unbiasedness_across_replications():
    reps = 200
    vals = np.empty(reps)
    for r in range(reps):
        sample = gen_simple(SimpleDgp(), 10_000, seed=10_000 + r)
        td = transform_outcomes(sample.dataset)
        policy = (sample.dataset.x[:, 0] >= 0).astype(int)
        vals[r] = ipw_policy_value(td, policy, 1.0)
    se = np.std(vals, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(vals) - 4.0 / 9.0) < 3 * se


def test_ipw_policy_shift_invariance():
    # shifting all scores without crossing the threshold leaves profit unchanged
    sample = gen_simple(SimpleDgp(), 2_000, seed=2)
    td = transform_outcomes(sample.dataset)
    scores = sample.tau_true
    c = 1.0
    gap = np.min(np.abs(scores - c))
    shift = 0.4 * gap
    before = ipw_policy_value(td, (scores >= c).astype(int), c)
    after = ipw_policy_value(td, (scores + shift >= c).astype(int), c)
    assert before == after


# ----------------------------------------------------------------------- mse


def test_cate_mse_values():
    tau = np.array([0.5, -1.0, 2.0])
    assert cate_mse(tau, tau) == 0.0
    assert cate_mse(tau + 1.0, tau) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        cate_mse(tau, tau[:2])


def test_cate_mse_rejects_empty_input():
    # the mean of no rows is NaN, which no caller could tell from a real score
    with pytest.raises(ValidationError, match="need at least one observation"):
        cate_mse([], [])


# ---------------------------------------------------------------------- qini


def test_qini_identical_scores_is_zero():
    tau = np.random.default_rng(1).normal(size=50)
    assert qini_coefficient(np.full(50, 3.3), tau) == 0.0


def test_qini_true_order_beats_random_permutations():
    rng = np.random.default_rng(7)
    tau = rng.normal(size=50)
    best = qini_coefficient(tau, tau)
    idx = np.arange(50)
    for _ in range(1000):
        perm = rng.permutation(idx)
        assert qini_coefficient(tau[perm].astype(float), tau) <= best + 1e-12
    # brute-force equivalence with the reference formula
    order = np.argsort(-tau, kind="stable")
    assert best == pytest.approx(qini_of_order(order, tau), abs=1e-15)


def test_qini_reversal_antisymmetry():
    rng = np.random.default_rng(8)
    tau = rng.normal(size=201)  # distinct values almost surely
    forward = qini_coefficient(tau, tau)
    backward = qini_coefficient(-tau, tau)
    assert backward == pytest.approx(-forward, abs=1e-12)


def test_qini_monotone_transform_invariance():
    rng = np.random.default_rng(9)
    tau = rng.normal(size=300)
    scores = rng.normal(size=300)
    base = qini_coefficient(scores, tau)
    assert qini_coefficient(3.0 * scores + 7.0, tau) == base
    assert qini_coefficient(scores**3, tau) == base


def qini_stable_reference(scores, tau):
    # the formula with an explicitly stable sort, step for step
    if np.all(scores == scores[0]):
        return 0.0
    n = scores.shape[0]
    order = np.argsort(-scores, kind="stable")
    cum_gain = np.cumsum(tau[order]) / n
    diagonal = np.arange(1, n + 1) * (np.mean(tau) / n)
    return float(np.mean(cum_gain - diagonal))


TIED_SCORES = st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0, np.nan]), min_size=2)
DISTINCT_SCORES = st.lists(st.floats(allow_nan=False), min_size=2, unique=True)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(TIED_SCORES, DISTINCT_SCORES), st.integers(0, 2**32 - 1))
def test_qini_equals_the_stable_sort_formula(scores, seed):
    scores = np.array(scores)
    tau = np.random.default_rng(seed).normal(size=scores.shape[0])
    got = qini_coefficient(scores, tau)
    want = qini_stable_reference(scores, tau)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


def test_qini_needs_two_observations():
    with pytest.raises(ValidationError):
        qini_coefficient([1.0], [1.0])


# ------------------------------------------------------------- evaluate_model


def test_evaluate_oracle_predictor():
    dgp = ComplexDgp()
    sample = gen_complex(dgp, 50_000, seed=44)
    report = evaluate_model(dgp.tau, sample, c=1.0, is_cate=True, model_tag="oracle")
    assert report.mse == 0.0
    assert report.profit == pytest.approx(0.515, abs=0.02)
    assert report.n_eval == 50_000
    assert report.model_tag == "oracle"


def test_evaluate_constant_below_cost_predictor():
    sample = gen_simple(SimpleDgp(), 1_000, seed=3)
    report = evaluate_model(
        lambda x: np.full(x.shape[0], 0.0), sample, c=1.0, is_cate=False, model_tag="no_mail"
    )
    assert report.profit == 0.0
    assert report.qini == 0.0
    assert report.mse is None


def test_oracle_scores_top_qini_among_fitted(capsys):
    sample = gen_simple(SimpleDgp(), 4_000, seed=5)
    x = sample.dataset.x[:, 0]
    oracle = qini_coefficient(sample.tau_true, sample.tau_true)
    for scores in (x, -x, 0.5 + x, np.sin(x)):
        assert qini_coefficient(scores, sample.tau_true) <= oracle + 1e-12


def test_eval_report_validation():
    with pytest.raises(ValidationError):
        EvalReport(profit=0.0, mse=-1.0, qini=0.0, n_eval=10)
    with pytest.raises(ValidationError):
        EvalReport(profit=0.0, mse=np.nan, qini=0.0, n_eval=10)
    with pytest.raises(ValidationError):
        EvalReport(profit=0.0, mse=None, qini=0.0, n_eval=0)


# ----------------------------------------------------------- per-row vectors


def _row_rule_entry_points(tmp_path):
    """``name -> (argument, call)``: ``call(form)`` runs the entry point with one
    per-row vector passed through ``form`` and returns a comparable result."""
    sample = gen_simple(SimpleDgp(), 40, seed=5)
    ds, tau = sample.dataset, sample.tau_true
    td = transform_outcomes(ds)
    policy = (tau >= 1.0).astype(float)
    grid = SigmaGrid((1.0,))

    def dataset(field):
        def call(form):
            fields = {"x": ds.x, "w": ds.w, "y": ds.y, "e": ds.e}
            got = Dataset(**dict(fields, **{field: form(fields[field])}))
            return got.w.tobytes(), got.y.tobytes(), got.e.tobytes()

        return field, call

    def predictor(form):
        return lambda x: form(x[:, 0] + 0.5)

    def fit(form):
        return lambda td_train, spec: predictor(form)

    def saved(form):
        dataio.save_dataset(tmp_path / "d.csv", ds, form(tau))
        return (tmp_path / "d.csv").read_bytes()

    return {
        "Dataset.w": dataset("w"),
        "Dataset.y": dataset("y"),
        "Dataset.e": dataset("e"),
        "TransformedDataset": (
            "y_star",
            lambda form: TransformedDataset(td.x, form(td.y_star)).y_star.tobytes(),
        ),
        "LabeledSample": ("tau_true", lambda form: LabeledSample(ds, form(tau)).tau_true.tobytes()),
        "ipw_policy_value": ("policy", lambda form: ipw_policy_value(td, form(policy), 1.0)),
        "cate_mse": ("tau_true", lambda form: cate_mse(tau + 0.5, form(tau))),
        "qini_coefficient": ("tau_true", lambda form: qini_coefficient(-tau, form(tau))),
        "oracle_policy_value": (
            "policy",
            lambda form: oracle_policy_value(sample, form(policy), 1.0),
        ),
        "evaluate_model": (
            "predictions",
            lambda form: evaluate_model(predictor(form), sample, 1.0, True),
        ),
        "save_dataset": ("tau_true", saved),
        "kfold_cv": (
            "predictions",
            lambda form: kfold_cv(td, grid, 2, "normal", fit(form), seed=0),
        ),
        "frontier_sweep": (
            "predictions",
            lambda form: frontier_sweep(td, grid, sample, fit(form), "normal"),
        ),
    }


@pytest.mark.parametrize("entry_point", sorted(_row_rule_entry_points(None)))
def test_every_per_row_vector_follows_one_rule(tmp_path, workers, entry_point):
    workers(1)  # the fits return local closures
    argument, call = _row_rule_entry_points(tmp_path)[entry_point]
    flat = call(lambda v: v)
    assert call(lambda v: v.reshape(-1, 1)) == flat  # an (n, 1) column reads as its flat form
    message = rf"^{re.escape(argument)} has \d+ values for \d+ rows$"
    with pytest.raises(DimensionError, match=message):
        call(lambda v: np.append(v, v[0]))  # one value too many


@pytest.mark.parametrize(
    "entry_point",
    sorted(name for name, (arg, _) in _row_rule_entry_points(None).items() if arg == "predictions"),
)
def test_non_finite_predictions_are_rejected(tmp_path, workers, entry_point):
    workers(1)  # the fits return local closures
    # a NaN prediction scores as "do not treat", and its mse would read NaN
    _, call = _row_rule_entry_points(tmp_path)[entry_point]

    def one_nan(v):
        v = v.copy()
        v[0] = np.nan
        return v

    with pytest.raises(ValidationError, match="^non-finite predictions$"):
        call(one_nan)
