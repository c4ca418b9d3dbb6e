import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest

from policycate import mlp
from policycate.errors import DimensionError, NonFiniteLossError, ValidationError
from policycate.linear import (
    BLOCK_ROWS,
    FORK_MIN_MADDS,
    LinearFitConfig,
    TransformedDataset,
    fit_linear,
    predict_cate,
)
from policycate.mlp import (
    DirectPolicyConfig,
    MlpConfig,
    MlpModel,
    _batch_gradients,
    _init_params,
    _policy_head,
    _StepWork,
    _surrogate_head,
    predict_mlp,
    train_direct_policy,
    train_surrogate_mlp,
)
from policycate.surrogate import SurrogateSpec


def shipped_head(kind, spec=None, c=1.0, temp=0.1):
    return _policy_head(c, temp) if kind == "policy" else _surrogate_head(spec)


def backprop_errors(weights, biases, xb, yb, activation, head, wd, dropout_rate, h=1e-5):
    """Max relative error of each analytic gradient against central differences."""
    work = _StepWork([xb.shape[1], *(w.shape[1] for w in weights)], xb.shape[0])

    def step():
        # a fresh generator per call: every loss sees the analytic pass's masks
        return _batch_gradients(
            weights, biases, xb, yb, activation, dropout_rate,
            np.random.default_rng(DROPOUT_SEED), head, wd, work,
        )

    _, gw, gb = step()
    analytic = [g.copy() for g in (*gw, *gb)]  # views of work.grad, which each step overwrites
    errors = []
    for p, a in zip((*weights, *biases), analytic):
        flat = p.reshape(-1)
        fd = np.zeros_like(flat)
        for j in range(flat.shape[0]):
            orig = flat[j]
            flat[j] = orig + h
            up = step()[0]
            flat[j] = orig - h
            down = step()[0]
            flat[j] = orig
            fd[j] = (up - down) / (2 * h)
        errors.append(np.max(np.abs(a.reshape(-1) - fd)) / (1.0 + np.max(np.abs(a))))
    return errors


DROPOUT_SEED = 5
HEAD_CASES = [
    ("normal", SurrogateSpec.normal(1.0, 1.0)),
    ("logistic", SurrogateSpec.logistic(0.5, 0.7)),
    ("uniform", SurrogateSpec.uniform(0.0, 2.0, cost=1.0)),
    ("policy", None),
]


@pytest.mark.parametrize("kind,spec", HEAD_CASES)
@pytest.mark.parametrize("wd", [0.0, 0.02])
def test_backprop_matches_finite_differences(kind, spec, wd):
    # two tanh hidden layers, with and without dropout: the slope of a
    # dropped-out layer is 1 - h**2 of its activation before the mask
    rng = np.random.default_rng(0)
    xb = rng.normal(size=(5, 3))
    yb = rng.normal(scale=2.0, size=5)
    weights, biases = _init_params([3, 6, 5, 1], "tanh", rng)
    head = shipped_head(kind, spec)
    for dropout_rate in (0.0, 0.3):
        errors = backprop_errors(weights, biases, xb, yb, "tanh", head, wd, dropout_rate)
        assert max(errors) < 1e-4, (dropout_rate, errors)


def test_backprop_relu_away_from_kinks():
    rng = np.random.default_rng(3)
    xb = rng.normal(size=(5, 2)) + 0.5
    yb = rng.normal(size=5)
    weights, biases = _init_params([2, 3, 1], "relu", rng)
    head = shipped_head("normal", SurrogateSpec.normal(1.0, 1.0))
    for dropout_rate in (0.0, 0.3):
        errors = backprop_errors(weights, biases, xb, yb, "relu", head, 0.0, dropout_rate)
        assert max(errors) < 1e-4, (dropout_rate, errors)


def small_problem(rng, n=400, k=3, noise=0.5):
    x = rng.uniform(-1, 2, size=(n, k))
    y_star = 1.0 + x @ np.array([1.0, -0.8, 0.5])[:k] + rng.normal(scale=noise, size=n)
    return TransformedDataset(x, y_star)


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(1)
    td = small_problem(rng)
    spec = SurrogateSpec.normal(1.0, 1.0)
    cfg = MlpConfig(hidden_sizes=(8,), max_epochs=12, batch_size=64, seed=5, dropout_rate=0.2)
    m1 = train_surrogate_mlp(td, spec, cfg, log_train_objective=True)
    m2 = train_surrogate_mlp(td, spec, cfg, log_train_objective=True)
    assert m1.training_log == m2.training_log
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    preds1 = predict_mlp(m1, td.x)
    preds2 = predict_mlp(m2, td.x)
    assert np.array_equal(preds1, preds2)


TRAINERS = {
    "surrogate": lambda td, cfg, **kw: train_surrogate_mlp(
        td, SurrogateSpec.logistic(1.0, 0.7), cfg, **kw
    ),
    "policy": lambda td, cfg, **kw: train_direct_policy(
        td, 1.0, DirectPolicyConfig(mlp=cfg, temperature=0.3), **kw
    ),
}


@pytest.mark.parametrize("head", TRAINERS)
def test_train_objective_flag_changes_only_the_train_column(head):
    # dropout, clipping and weight decay are all on, so every RNG stream and
    # every branch of the update runs; skipping the train-split objective
    # must not move any of them
    td = small_problem(np.random.default_rng(6), n=200, noise=2.0)
    cfg = MlpConfig(
        hidden_sizes=(8, 4),
        activation="tanh",
        weight_decay=1e-3,
        dropout_rate=0.2,
        grad_clip_norm=0.5,
        batch_size=16,
        learning_rate=0.05,
        max_epochs=60,
        early_stop_patience=4,
        seed=11,
    )
    on = TRAINERS[head](td, cfg, log_train_objective=True)
    off = TRAINERS[head](td, cfg)
    assert len(on.training_log) < cfg.max_epochs  # early stopping fired
    for name in ("weights", "biases"):
        for a, b in zip(getattr(on, name), getattr(off, name), strict=True):
            assert np.array_equal(a, b)
    assert np.array_equal(on.x_mean, off.x_mean) and np.array_equal(on.x_sd, off.x_sd)
    assert on.best_epoch == off.best_epoch
    assert on.best_val_objective == off.best_val_objective
    assert [(e, v) for e, _, v in on.training_log] == [(e, v) for e, _, v in off.training_log]
    assert all(np.isfinite(t) for _, t, _ in on.training_log)
    assert all(np.isnan(t) for _, t, _ in off.training_log)


@pytest.mark.parametrize("hidden", [(), (8, 4)])
def test_trained_model_arrays_share_no_memory(hidden):
    # the trainer steps on one flat parameter vector with per-layer views;
    # the returned model must own separate arrays, not views of that vector
    # or of the best-epoch snapshot
    td = small_problem(np.random.default_rng(13), n=120)
    cfg = MlpConfig(hidden_sizes=hidden, max_epochs=8, early_stop_patience=2, batch_size=32, seed=4)
    model = train_surrogate_mlp(td, SurrogateSpec.normal(1.0, 1.0), cfg)
    arrays = [*model.weights, *model.biases, model.x_mean, model.x_sd]
    assert all(a.base is None for a in arrays)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_early_stopping_returns_best_snapshot():
    rng = np.random.default_rng(2)
    td = small_problem(rng, n=300)
    spec = SurrogateSpec.normal(1.0, 1.0)
    cfg = MlpConfig(
        hidden_sizes=(16,), max_epochs=60, early_stop_patience=5, batch_size=32, seed=9
    )
    model = train_surrogate_mlp(td, spec, cfg)
    final_val = model.training_log[-1][2]
    assert model.best_val_objective <= final_val
    assert model.best_epoch <= len(model.training_log)
    vals = [row[2] for row in model.training_log]
    assert model.best_val_objective == min(vals)


def test_zero_hidden_uniform_matches_linear_fit():
    # noise-free linear target: the global optimum of both models coincides
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 2, size=(500, 2))
    theta = np.array([0.7, -1.2])
    td = TransformedDataset(x, x @ theta + 0.3)
    spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
    lin_td = TransformedDataset(np.column_stack([np.ones(500), x]), td.y_star)
    lin = fit_linear(lin_td, LinearFitConfig(spec=spec))
    cfg = MlpConfig(
        hidden_sizes=(),
        batch_size=500,
        learning_rate=0.05,
        max_epochs=4000,
        early_stop_patience=4000,
        validation_fraction=0.1,
        seed=3,
    )
    model = train_surrogate_mlp(td, spec, cfg)
    got = predict_mlp(model, x)
    want = predict_cate(lin, lin_td.x)
    assert np.max(np.abs(got - want)) < 1e-3


def test_constant_outcome_converges_to_constant():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 2, size=(600, 2))
    k0 = 2.0
    td = TransformedDataset(x, np.full(600, k0))
    spec = SurrogateSpec.normal(1.0, 1.0)
    cfg = MlpConfig(
        hidden_sizes=(8,),
        batch_size=600,
        learning_rate=0.05,
        max_epochs=1500,
        early_stop_patience=1500,
        seed=1,
    )
    model = train_surrogate_mlp(td, spec, cfg)
    x_new = rng.uniform(-1, 2, size=(200, 2))
    preds = predict_mlp(model, x_new)
    assert np.max(np.abs(preds - k0)) < 0.05


def test_direct_policy_trivial_cases():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 2, size=(400, 2))
    cfg = DirectPolicyConfig(
        mlp=MlpConfig(hidden_sizes=(4,), batch_size=100, max_epochs=60, seed=2),
        temperature=0.1,
    )
    high = TransformedDataset(x, np.full(400, 5.0))
    model = train_direct_policy(high, 1.0, cfg)
    share = np.mean(predict_mlp(model, x) >= 0.0)
    assert share >= 0.99
    low = TransformedDataset(x, np.full(400, -5.0))
    model = train_direct_policy(low, 1.0, cfg)
    share = np.mean(predict_mlp(model, x) >= 0.0)
    assert share <= 0.01
    assert not model.is_cate


def test_zero_weight_network_predicts_cost():
    rng = np.random.default_rng(8)
    td = small_problem(rng, n=40)
    spec = SurrogateSpec.normal(1.0, 1.0)
    cfg = MlpConfig(hidden_sizes=(4,), max_epochs=1, batch_size=40, seed=0)
    model = train_surrogate_mlp(td, spec, cfg)
    for w in model.weights:
        w[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    preds = predict_mlp(model, td.x)
    assert np.array_equal(preds, np.full(td.n, 1.0))


def test_predict_dimension_error_and_validation():
    rng = np.random.default_rng(10)
    td = small_problem(rng, n=50)
    spec = SurrogateSpec.normal(1.0, 1.0)
    model = train_surrogate_mlp(td, spec, MlpConfig(hidden_sizes=(4,), max_epochs=2, seed=0))
    with pytest.raises(DimensionError):
        predict_mlp(model, np.ones((3, 9)))
    with pytest.raises(ValidationError):
        MlpConfig(validation_fraction=0.8)
    with pytest.raises(ValidationError):
        MlpConfig(dropout_rate=1.0)
    with pytest.raises(ValidationError):
        DirectPolicyConfig(temperature=0.0)
    with pytest.raises(ValidationError):
        train_surrogate_mlp(
            TransformedDataset(np.ones((4, 1)), np.ones(4)), spec, MlpConfig(seed=0)
        )


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("head", ["surrogate", "policy"])
def test_network_without_covariates_is_rejected(activation, head):
    # relu's He scale divides by the input width; tanh would fit a constant
    rng = np.random.default_rng(12)
    td = TransformedDataset(np.empty((40, 0)), rng.normal(size=40))
    cfg = MlpConfig(hidden_sizes=(4,), activation=activation, max_epochs=2, seed=0)
    with pytest.raises(ValidationError, match="at least one covariate"):
        if head == "surrogate":
            train_surrogate_mlp(td, SurrogateSpec.normal(1.0, 1.0), cfg)
        else:
            train_direct_policy(td, 1.0, DirectPolicyConfig(mlp=cfg))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_exploding_learning_rate_raises_non_finite():
    rng = np.random.default_rng(11)
    td = small_problem(rng, n=200, noise=3.0)
    spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
    cfg = MlpConfig(hidden_sizes=(16,), learning_rate=50.0, max_epochs=50, batch_size=20, seed=1)
    with pytest.raises(NonFiniteLossError):
        train_surrogate_mlp(td, spec, cfg)


def test_diverging_weight_decay_raises_non_finite():
    # lr * 2 * weight_decay = 10 makes every step overshoot, so the weights
    # grow without bound while the bounded normal head loss stays finite.
    # Only the penalty's sum of squares overflows inside 50 epochs; the
    # per-step parameter check alone lets this run return a model.
    rng = np.random.default_rng(11)
    td = small_problem(rng, n=200, noise=3.0)
    spec = SurrogateSpec.normal(1.0, 0.5)
    cfg = MlpConfig(
        hidden_sizes=(16,), activation="tanh", learning_rate=1.0, weight_decay=5.0,
        max_epochs=50, batch_size=20, seed=1,
    )
    with pytest.raises(NonFiniteLossError, match="batch loss"):
        train_surrogate_mlp(td, spec, cfg)


# ------------------------------------------------------------ blocked inference


def random_network(hidden, activation, k=4, seed=0):
    rng = np.random.default_rng(seed)
    weights, biases = _init_params([k, *hidden, 1], activation, rng)
    return MlpModel(
        weights=weights,
        biases=[rng.normal(scale=0.1, size=b.shape) for b in biases],
        activation=activation,
        x_mean=rng.normal(size=k),
        x_sd=rng.uniform(0.5, 2.0, size=k),
        head="surrogate",
        spec=SurrogateSpec.normal(1.0, 1.5),
        cost=1.0,
        temperature=None,
        best_epoch=0,
    )


def whole_array_predict(model, x):
    a = (x - model.x_mean) / model.x_sd
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        a = np.maximum(z, 0.0) if model.activation == "relu" else np.tanh(z)
    scores = (a @ model.weights[-1] + model.biases[-1])[:, 0]
    return np.asarray(model.spec.unstandardize(scores))


B = BLOCK_ROWS


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("hidden", [(64, 64), (5, 3), (33, 17, 9)])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3])
def test_blocked_predict_matches_whole_array_pass(activation, hidden, n):
    model = random_network(hidden, activation)
    x = np.random.default_rng(n).normal(size=(n, 4))
    got = predict_mlp(model, x)
    want = whole_array_predict(model, x)
    if n <= B + 1:  # one block (a lone last row joins it): the same BLAS calls
        assert got.tobytes() == want.tobytes()
    else:  # a short last block may take another BLAS kernel
        np.testing.assert_allclose(got, want, rtol=1e-12)
    again = predict_mlp(model, x)
    assert not np.shares_memory(got, again)
    assert again.tobytes() == got.tobytes()


def test_predict_memory_is_bounded_by_the_block(pool_sizes, workers):
    model = random_network((64, 64), "tanh", k=10)
    x = np.random.default_rng(0).normal(size=(300_000, 10))
    for count in (1, 2):
        workers(count)  # inline: the block buffers are this process's; forked: the workers'
        tracemalloc.start()
        try:
            predict_mlp(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        shared = 0 if count == 1 else 8 * x.shape[0]  # the output mapping, which is not traced
        assert peak + shared < 32 * 2**20
    assert pool_sizes == [2]


@pytest.mark.parametrize("rows", ["below-floor", "at-floor", "short-last-block"])
@pytest.mark.parametrize(
    "hidden, activation", [((64, 64), "tanh"), ((64, 64), "relu"), ((33, 17, 9), "tanh")]
)
def test_forked_scoring_equals_the_inline_walk_bit_for_bit(
    pool_sizes, workers, hidden, activation, rows
):
    model = random_network(hidden, activation, k=10)
    floor = math.ceil(FORK_MIN_MADDS / sum(w.size for w in model.weights))  # rows that fan out
    n = {"below-floor": floor - 1, "at-floor": floor, "short-last-block": 300_000}[rows]
    x = np.random.default_rng(n).normal(size=(n, 10))
    got = {}
    for count in (1, 2):
        workers(count)
        got[count] = [v.hex() for v in predict_mlp(model, x).tolist()]
    assert got[2] == got[1]
    assert pool_sizes == ([] if rows == "below-floor" else [2])


def test_a_scoring_worker_that_raises_surfaces_in_the_caller(monkeypatch, workers):
    real_forward = mlp._forward

    def fails_in_a_worker(*args, **kwargs):
        if multiprocessing.parent_process() is not None:
            raise FloatingPointError("overflow in a scoring block")
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(mlp, "_forward", fails_in_a_worker)
    workers(2)
    model = random_network((64, 64), "tanh", k=10)
    x = np.random.default_rng(0).normal(size=(60_000, 10))
    with pytest.raises(FloatingPointError, match="^overflow in a scoring block$"):
        predict_mlp(model, x)
    assert multiprocessing.active_children() == []  # no worker outlives the failure
