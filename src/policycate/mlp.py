"""Small multilayer perceptrons trained with the surrogate loss head.

The network parameterizes the CATE score directly (standardized scale for
normal/logistic threshold families, money scale for uniform); only the
final-layer upstream gradient depends on the head, and it is the analytic
derivative of the per-observation objective.  A second head trains a pure
policy score by maximizing the smoothed experimental policy value
``sigmoid(score / temperature) * (y* - cost)``; its output ranks and
thresholds units but is not a CATE.

Training is plain mini-batch SGD with momentum 0.9, optional weight decay,
inverted dropout on hidden activations, optional global-norm gradient
clipping, and early stopping on the validation objective (the returned
model is the best-validation snapshot).  Momentum buffers and weights are
updated in place.  Inputs are standardized per feature with statistics of
the training split, which stands in for batch normalization and keeps
training deterministic.  All randomness comes from
``policycate.rng.streams(config seed, 4)``, one stream per purpose: the
train/validation split at index 0, initialization at 1, shuffling at 2 and
dropout at 3.  Identical inputs produce bitwise-identical training logs.

After each epoch the training log records the validation objective, which
drives early stopping, and the train-split objective only when the caller
asks for it with ``log_train_objective=True``; otherwise that column is NaN.
Scoring the train split takes most of the per-epoch objective time, and
only ``policycate fit`` writes the log, so ``fit`` asks for it and ``cv``
and ``table2`` do not.  The flag draws no random numbers, so it changes no
weight, no best epoch and no validation objective.

One forward kernel, ``_forward``, serves SGD steps, per-epoch objectives
and ``predict_mlp``.  It writes each hidden layer into a buffer the caller
hands it: fresh batch-sized arrays for a step, views of block-sized buffers
for scoring, which walks raw rows in ``linear.row_blocks`` blocks so its
temporaries grow with the block, not with the row count.  Backpropagation
reads each layer's input, its activation ``h`` before inverted dropout
(Srivastava et al., JMLR 2014) and its mask.  A scoring call on at most
``BLOCK_ROWS + 1`` rows is one block and matches a whole-array pass bitwise;
on more rows a short last block may take another BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import expit

from . import rng
from . import surrogate as sg
from .errors import DimensionError, NonFiniteLossError, ValidationError
from .linear import BLOCK_ROWS, TransformedDataset, row_blocks

_MOMENTUM = 0.9


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple = (64, 64)
    activation: str = "relu"  # "relu" | "tanh"
    weight_decay: float = 0.0
    dropout_rate: float = 0.0
    grad_clip_norm: Optional[float] = None
    batch_size: int = 128
    learning_rate: float = 0.01
    max_epochs: int = 200
    early_stop_patience: int = 20
    validation_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ValidationError("hidden sizes must be positive")
        if self.activation not in ("relu", "tanh"):
            raise ValidationError("activation must be 'relu' or 'tanh'")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be nonnegative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must be in [0, 1)")
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0:
            raise ValidationError("grad_clip_norm must be positive when set")
        if self.batch_size < 1 or self.max_epochs < 1 or self.early_stop_patience < 1:
            raise ValidationError("batch_size, max_epochs, early_stop_patience must be positive")
        if not self.learning_rate > 0:
            raise ValidationError("learning_rate must be positive")
        if not 0.0 < self.validation_fraction <= 0.5:
            raise ValidationError("validation_fraction must be in (0, 0.5]")


@dataclass(frozen=True)
class DirectPolicyConfig:
    mlp: MlpConfig = field(default_factory=MlpConfig)
    temperature: float = 0.1

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValidationError("temperature must be positive")


@dataclass
class MlpModel:
    """Trained network plus everything needed to reproduce its predictions.

    A network reloaded from a model file has no training history: its
    ``training_log`` is empty and its ``best_val_objective`` is NaN.
    """

    weights: list
    biases: list
    activation: str
    x_mean: np.ndarray
    x_sd: np.ndarray
    head: str  # "surrogate" | "policy"
    spec: Optional[sg.SurrogateSpec]
    cost: Optional[float]
    temperature: Optional[float]
    best_epoch: int
    training_log: list = field(default_factory=list)  # (epoch, train_obj, val_obj)
    best_val_objective: float = math.nan

    @property
    def hidden_sizes(self):
        return tuple(w.shape[1] for w in self.weights[:-1])

    @property
    def is_cate(self):
        return self.head == "surrogate"


def _init_params(sizes, activation, rng):
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        if activation == "relu":
            w = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        else:
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return weights, biases


def _act(z, activation, out=None):
    return np.maximum(z, 0.0, out=out) if activation == "relu" else np.tanh(z, out=out)


def _act_grad(h, activation):
    # relu's h > 0 equals z > 0 for every pre-activation z, NaN included
    return (h > 0.0).astype(float) if activation == "relu" else 1.0 - np.square(h)


def _forward(weights, biases, activation, a, hidden, dropout_rate=0.0, rng=None):
    """Scores of standardized rows ``a``, hidden layer ``i`` computed in place in ``hidden[i]``.

    Returns the scores, the rows the output layer read, and per hidden layer
    its input rows, its activation ``h`` and its inverted-dropout mask (or
    None); the next layer reads ``h * mask``.
    """
    layers = []
    for w, b, h in zip(weights[:-1], biases[:-1], hidden):
        np.matmul(a, w, out=h)
        h += b
        _act(h, activation, out=h)
        mask = None
        if dropout_rate > 0.0:
            mask = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
        layers.append((a, h, mask))
        a = h if mask is None else h * mask
    return (a @ weights[-1] + biases[-1])[:, 0], a, layers


def _scores(weights, biases, activation, x_mean, x_sd, x):
    """Scores of raw rows, one block at a time in buffers that belong to this call."""
    n = x.shape[0]
    rows = min(n, BLOCK_ROWS + 1)
    a_buf = np.empty((rows, x.shape[1]))
    h_bufs = [np.empty((rows, w.shape[1])) for w in weights[:-1]]
    out = np.empty(n)
    for start, stop in row_blocks(n):
        a = a_buf[: stop - start]
        np.subtract(x[start:stop], x_mean, out=a)
        np.divide(a, x_sd, out=a)
        hidden = [h[: stop - start] for h in h_bufs]
        out[start:stop] = _forward(weights, biases, activation, a, hidden)[0]
    return out


def _global_norm(grads_w, grads_b):
    total = 0.0
    for g in grads_w:
        total += float(np.sum(np.square(g)))
    for g in grads_b:
        total += float(np.sum(np.square(g)))
    return math.sqrt(total)


def _batch_gradients(
    weights, biases, xb, yb, activation, dropout_rate, rng, head_loss, head_dloss, wd
):
    """Full loss of one batch and its gradients for every parameter.

    The loss is mean per-sample head loss plus the weight-decay penalty; the
    gradients come from standard backpropagation with the analytic head
    derivative as the final-layer upstream term.
    """
    hidden = [np.empty((xb.shape[0], w.shape[1])) for w in weights[:-1]]
    scores, a, layers = _forward(weights, biases, activation, xb, hidden, dropout_rate, rng)
    batch_loss = float(np.mean(head_loss(scores, yb)))
    if wd > 0.0:
        batch_loss += wd * sum(float(np.sum(np.square(w))) for w in weights)

    g = (head_dloss(scores, yb) / xb.shape[0])[:, None]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    grads_w[-1] = a.T @ g
    grads_b[-1] = g.sum(axis=0)
    for layer in range(len(layers) - 1, -1, -1):
        a_in, h, mask = layers[layer]
        g = g @ weights[layer + 1].T
        if mask is not None:
            g = g * mask
        g = g * _act_grad(h, activation)
        grads_w[layer] = a_in.T @ g
        grads_b[layer] = g.sum(axis=0)
    if wd > 0.0:
        for layer, w in enumerate(weights):
            grads_w[layer] = grads_w[layer] + 2.0 * wd * w
    return batch_loss, grads_w, grads_b


def _train(x, y_star, cfg: MlpConfig, head_loss, head_dloss, head_meta, log_train_objective):
    n, k = x.shape
    if n < 10:
        raise ValidationError("need at least 10 observations to train")
    if k < 1:
        raise ValidationError("need at least one covariate")
    split_rng, init_rng, shuffle_rng, dropout_rng = rng.streams(cfg.seed, 4)

    perm = split_rng.permutation(n)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    val_idx, tr_idx = perm[n - n_val :], perm[: n - n_val]
    x_tr, ys_tr = x[tr_idx], y_star[tr_idx]
    x_val, ys_val = x[val_idx], y_star[val_idx]
    x_mean = x_tr.mean(axis=0)
    x_sd = x_tr.std(axis=0)
    x_sd = np.where(x_sd < 1e-12, 1.0, x_sd)
    xs_tr = (x_tr - x_mean) / x_sd

    sizes = [k, *cfg.hidden_sizes, 1]
    weights, biases = _init_params(sizes, cfg.activation, init_rng)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    wd, lr = cfg.weight_decay, cfg.learning_rate

    def data_objective(x_part, ys_part):
        scores = _scores(weights, biases, cfg.activation, x_mean, x_sd, x_part)
        return float(np.mean(head_loss(scores, ys_part)))

    log = []
    best_val = math.inf
    best_epoch = 0
    best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
    since_best = 0
    n_tr = tr_idx.shape[0]

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n_tr)
        for start in range(0, n_tr, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = xs_tr[idx], ys_tr[idx]
            batch_loss, grads_w, grads_b = _batch_gradients(
                weights,
                biases,
                xb,
                yb,
                cfg.activation,
                cfg.dropout_rate,
                dropout_rng,
                head_loss,
                head_dloss,
                wd,
            )
            if not math.isfinite(batch_loss):
                raise NonFiniteLossError(f"non-finite batch loss at epoch {epoch}")

            if cfg.grad_clip_norm is not None:
                norm = _global_norm(grads_w, grads_b)
                if norm > cfg.grad_clip_norm:
                    scale = cfg.grad_clip_norm / norm
                    for g in (*grads_w, *grads_b):
                        g *= scale

            for w, b, vw, vb, gw, gb in zip(weights, biases, vel_w, vel_b, grads_w, grads_b):
                vw *= _MOMENTUM
                vw -= lr * gw
                vb *= _MOMENTUM
                vb -= lr * gb
                w += vw
                b += vb
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                    raise NonFiniteLossError(f"non-finite parameters at epoch {epoch}")

        train_obj = data_objective(x_tr, ys_tr) if log_train_objective else math.nan
        val_obj = data_objective(x_val, ys_val)
        log.append((epoch, train_obj, val_obj))
        if val_obj < best_val:
            best_val = val_obj
            best_epoch = epoch
            best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                break

    return MlpModel(
        weights=best_snapshot[0],
        biases=best_snapshot[1],
        activation=cfg.activation,
        x_mean=x_mean,
        x_sd=x_sd,
        training_log=log,
        best_epoch=best_epoch,
        best_val_objective=best_val,
        **head_meta,
    )


def train_surrogate_mlp(
    td: TransformedDataset,
    spec: sg.SurrogateSpec,
    cfg: MlpConfig,
    *,
    log_train_objective: bool = False,
):
    """Fit the network by minimizing the negated surrogate objective.

    The network output is the internal-scale score; the final-layer upstream
    gradient is the negated analytic derivative of the per-observation term.
    With ``log_train_objective`` the training log holds the train-split
    objective after each epoch; without it that column is NaN.
    """

    def head_loss(scores, ys):
        return -np.asarray(sg.loss_q(spec, scores, ys))

    def head_dloss(scores, ys):
        return -np.asarray(sg.dloss_dtau(spec, scores, ys))

    meta = {"head": "surrogate", "spec": spec, "cost": spec.cost, "temperature": None}
    return _train(td.x, td.y_star, cfg, head_loss, head_dloss, meta, log_train_objective)


def train_direct_policy(
    td: TransformedDataset,
    c: float,
    cfg: DirectPolicyConfig,
    *,
    log_train_objective: bool = False,
):
    """Fit a smoothed policy score by maximizing mean sigmoid(s/T) * (y* - c).

    ``log_train_objective`` means what it does for :func:`train_surrogate_mlp`.
    """
    temp = cfg.temperature

    def head_loss(scores, ys):
        return -expit(scores / temp) * (ys - c)

    def head_dloss(scores, ys):
        p = expit(scores / temp)
        return -(ys - c) * p * (1.0 - p) / temp

    meta = {"head": "policy", "spec": None, "cost": float(c), "temperature": temp}
    return _train(td.x, td.y_star, cfg.mlp, head_loss, head_dloss, meta, log_train_objective)


def predict_mlp(model: MlpModel, x_new):
    """Predictions on new raw-covariate rows (dropout disabled).

    Surrogate-head models return money-scale CATEs; policy-head models
    return the raw score, which ranks and thresholds (treat iff score >= 0)
    but is not a CATE (``model.is_cate`` is False).
    """
    x = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x.shape[1] != model.x_mean.shape[0]:
        raise DimensionError(
            f"x has {x.shape[1]} features, model expects {model.x_mean.shape[0]}"
        )
    scores = _scores(model.weights, model.biases, model.activation, model.x_mean, model.x_sd, x)
    if model.head == "policy":
        return scores
    return np.asarray(model.spec.unstandardize(scores))
