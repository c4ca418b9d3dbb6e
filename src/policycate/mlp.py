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
model is the best-validation snapshot).  Inputs are standardized per
feature with statistics of the training split, which stands in for batch
normalization and keeps training deterministic.  All randomness comes from
``policycate.rng.streams(config seed, 4)``, one stream per purpose: the
train/validation split at index 0, initialization at 1, shuffling at 2 and
dropout at 3.  Identical inputs produce bitwise-identical training logs.
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
from .linear import TransformedDataset

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
    """Trained network plus everything needed to reproduce its predictions."""

    weights: list
    biases: list
    hidden_sizes: tuple
    activation: str
    x_mean: np.ndarray
    x_sd: np.ndarray
    head: str  # "surrogate" | "policy"
    spec: Optional[sg.SurrogateSpec]
    cost: Optional[float]
    temperature: Optional[float]
    config: MlpConfig
    training_log: list  # (epoch, train_obj, val_obj) minimized data objectives
    best_epoch: int
    best_val_objective: float

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


def _act(z, activation):
    return np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)


def _act_grad(z, a, activation):
    return (z > 0.0).astype(float) if activation == "relu" else 1.0 - np.square(a)


def _forward_train(weights, biases, xb, activation, dropout_rate, rng):
    """Forward pass keeping caches; inverted dropout on hidden activations."""
    a = xb
    caches = []
    for w, b in zip(weights[:-1], biases[:-1]):
        z = a @ w + b
        h = _act(z, activation)
        if dropout_rate > 0.0:
            mask = (rng.random(h.shape) >= dropout_rate) / (1.0 - dropout_rate)
            h = h * mask
        else:
            mask = None
        caches.append((a, z, h, mask))
        a = h
    scores = (a @ weights[-1] + biases[-1])[:, 0]
    return scores, a, caches


def _scores(weights, biases, xs, activation):
    """Inference forward pass on standardized rows: no dropout, no caches."""
    a = xs
    for w, b in zip(weights[:-1], biases[:-1]):
        a = _act(a @ w + b, activation)
    return (a @ weights[-1] + biases[-1])[:, 0]


def _forward_scores(model: MlpModel, x, chunk=131072):
    """Inference on raw rows, chunked to bound memory."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.x_mean.shape[0]:
        raise DimensionError(
            f"x has {x.shape[1]} features, model expects {model.x_mean.shape[0]}"
        )
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], chunk):
        xb = (x[start : start + chunk] - model.x_mean) / model.x_sd
        out[start : start + chunk] = _scores(model.weights, model.biases, xb, model.activation)
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
    scores, a_last, caches = _forward_train(weights, biases, xb, activation, dropout_rate, rng)
    batch_loss = float(np.mean(head_loss(scores, yb)))
    if wd > 0.0:
        batch_loss += wd * sum(float(np.sum(np.square(w))) for w in weights)

    g = (head_dloss(scores, yb) / xb.shape[0])[:, None]
    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    grads_w[-1] = a_last.T @ g
    grads_b[-1] = g.sum(axis=0)
    g = g @ weights[-1].T
    for layer in range(len(caches) - 1, -1, -1):
        a_prev, z, h, mask = caches[layer]
        if mask is not None:
            g = g * mask
        g = g * _act_grad(z, h, activation)
        grads_w[layer] = a_prev.T @ g
        grads_b[layer] = g.sum(axis=0)
        if layer > 0:
            g = g @ weights[layer].T
    if wd > 0.0:
        for layer, w in enumerate(weights):
            grads_w[layer] = grads_w[layer] + 2.0 * wd * w
    return batch_loss, grads_w, grads_b


def _train(x, y_star, cfg: MlpConfig, head_loss, head_dloss, head_meta):
    n, k = x.shape
    if n < 10:
        raise ValidationError("need at least 10 observations to train")
    split_rng, init_rng, shuffle_rng, dropout_rng = rng.streams(cfg.seed, 4)

    perm = split_rng.permutation(n)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    val_idx, tr_idx = perm[n - n_val :], perm[: n - n_val]
    x_mean = x[tr_idx].mean(axis=0)
    x_sd = x[tr_idx].std(axis=0)
    x_sd = np.where(x_sd < 1e-12, 1.0, x_sd)
    xs = (x - x_mean) / x_sd
    xs_tr, ys_tr = xs[tr_idx], y_star[tr_idx]
    xs_val, ys_val = xs[val_idx], y_star[val_idx]

    sizes = [k, *cfg.hidden_sizes, 1]
    weights, biases = _init_params(sizes, cfg.activation, init_rng)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    wd, lr = cfg.weight_decay, cfg.learning_rate

    def data_objective(xs_part, ys_part):
        scores = _scores(weights, biases, xs_part, cfg.activation)
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
                    grads_w = [gw * scale for gw in grads_w]
                    grads_b = [gb * scale for gb in grads_b]

            for layer in range(len(weights)):
                vel_w[layer] = _MOMENTUM * vel_w[layer] - lr * grads_w[layer]
                vel_b[layer] = _MOMENTUM * vel_b[layer] - lr * grads_b[layer]
                weights[layer] = weights[layer] + vel_w[layer]
                biases[layer] = biases[layer] + vel_b[layer]
                if not (
                    np.all(np.isfinite(weights[layer])) and np.all(np.isfinite(biases[layer]))
                ):
                    raise NonFiniteLossError(f"non-finite parameters at epoch {epoch}")

        train_obj = data_objective(xs_tr, ys_tr)
        val_obj = data_objective(xs_val, ys_val)
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
        hidden_sizes=cfg.hidden_sizes,
        activation=cfg.activation,
        x_mean=x_mean,
        x_sd=x_sd,
        config=cfg,
        training_log=log,
        best_epoch=best_epoch,
        best_val_objective=best_val,
        **head_meta,
    )


def train_surrogate_mlp(td: TransformedDataset, spec: sg.SurrogateSpec, cfg: MlpConfig):
    """Fit the network by minimizing the negated surrogate objective.

    The network output is the internal-scale score; the final-layer upstream
    gradient is the negated analytic derivative of the per-observation term.
    """

    def head_loss(scores, ys):
        return -np.asarray(sg.loss_q(spec, scores, ys))

    def head_dloss(scores, ys):
        return -np.asarray(sg.dloss_dtau(spec, scores, ys))

    meta = {"head": "surrogate", "spec": spec, "cost": spec.cost, "temperature": None}
    return _train(td.x, td.y_star, cfg, head_loss, head_dloss, meta)


def train_direct_policy(td: TransformedDataset, c: float, cfg: DirectPolicyConfig):
    """Fit a smoothed policy score by maximizing mean sigmoid(s/T) * (y* - c)."""
    temp = cfg.temperature

    def head_loss(scores, ys):
        return -expit(scores / temp) * (ys - c)

    def head_dloss(scores, ys):
        p = expit(scores / temp)
        return -(ys - c) * p * (1.0 - p) / temp

    meta = {"head": "policy", "spec": None, "cost": float(c), "temperature": temp}
    return _train(td.x, td.y_star, cfg.mlp, head_loss, head_dloss, meta)


def predict_mlp(model: MlpModel, x_new):
    """Predictions on new raw-covariate rows (dropout disabled).

    Surrogate-head models return money-scale CATEs; policy-head models
    return the raw score, which ranks and thresholds (treat iff score >= 0)
    but is not a CATE (``model.is_cate`` is False).
    """
    scores = _forward_scores(model, x_new)
    if model.head == "policy":
        return scores
    return np.asarray(model.spec.unstandardize(scores))
