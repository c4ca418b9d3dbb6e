"""Small multilayer perceptrons trained with the surrogate loss head.

The network parameterizes the CATE score directly (standardized scale for
normal/logistic threshold families, money scale for uniform).  A second
head trains a pure policy score by maximizing the smoothed experimental
policy value ``sigmoid(score / temperature) * (y* - cost)``; its output
ranks and thresholds units but is not a CATE.  Each objective is one head,
``head(scores, y*) -> (mean loss, per-row slope of the loss in the score)``
(``_surrogate_head``, ``_policy_head``), which every SGD step, every
per-epoch objective and the backprop tests call.  Its slope is the
final-layer upstream gradient, the only head-dependent term of backprop.

Training is plain mini-batch SGD with momentum 0.9, optional weight decay,
inverted dropout on hidden activations, optional global-norm gradient
clipping, and early stopping on the validation objective (the returned
model is the best-validation snapshot).  Inputs are standardized per
feature with statistics of the training split, which stands in for batch
normalization and keeps training deterministic.  All randomness comes from
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
temporaries grow with the block, not with the row count; a large scoring
fans its blocks out over forked workers (``_scores``).  Backpropagation
reads each layer's input, its activation ``h`` before inverted dropout
(Srivastava et al., JMLR 2014) and its mask.  A scoring call on at most
``BLOCK_ROWS + 1`` rows is one block and matches a whole-array pass bitwise;
on more rows a short last block may take another BLAS kernel.

Each SGD step runs on flat float64 vectors: the parameters, their momentum
and the gradient are one vector each, laid out as every layer's weight
matrix in order, then every layer's bias, and the per-layer weights and
biases are reshaped views of them.  Backpropagation writes each layer's
gradient with ``out=`` into the gradient's views, from batch buffers built
once per fit (``_StepWork``); a short last batch uses their leading rows.
Momentum, clipping and the finiteness check are then one pass each over a
flat vector.  The best-validation snapshot is a copy of the parameter vector,
and the returned model holds copies of its views, so no two of its arrays
share memory.  The policy head takes ``expit`` from
``policycate.surrogate.special``, so ``scipy.special`` loads only once a
network trains on a head that needs it.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linear, rng
from . import surrogate as sg
from .errors import NonFiniteLossError, ValidationError, require
from .linear import TransformedDataset, fork_map, row_blocks, row_matrix

_MOMENTUM = 0.9
# Network scoring fans its blocks out over ``linear.fit_workers()`` processes
# from this many multiply-adds on: rows times the sum of fan_in * fan_out.
# Below it a pool costs more than the second core saves.  With one BLAS
# thread on a 2-core x86 VM, the 10-64-64-1 network took 18 ms inline and
# 20 ms on two workers at two blocks (1.6e8), 35 and 27 ms at three (2.4e8),
# and 0.50 and 0.30 s at 1e6 rows.  A 10-16-1 relu network lost up to
# 131,072 rows (2.3e7), 7.9 against 14.8 ms, and at 1e6 rows (1.8e8) took
# 61 ms inline and 57 ms forked.
FORK_MIN_MADDS = 2e8
ACTIVATIONS = ("relu", "tanh")  # the hidden-layer nonlinearities a network may use

# each MlpConfig field's ``errors.RULES`` kind, also the config schema's ``mlp`` block
MLP_FIELDS = {
    "hidden_sizes": "sizes",
    "activation": ACTIVATIONS,
    "weight_decay": "nonneg_num",
    "dropout_rate": "dropout",
    "grad_clip_norm": "opt_pos_num",
    "batch_size": "pos_int",
    "learning_rate": "pos_num",
    "max_epochs": "pos_int",
    "early_stop_patience": "pos_int",
    "validation_fraction": "holdout",
    "seed": "seed",
}


@dataclass(frozen=True)
class MlpConfig:
    hidden_sizes: tuple = (64, 64)
    activation: str = "relu"  # one of ACTIVATIONS
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
        for name, kind in MLP_FIELDS.items():
            require(getattr(self, name), kind, name)
        rng.streams(self.seed, 0)  # the streams own the seed's range
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass(frozen=True)
class DirectPolicyConfig:
    mlp: MlpConfig = field(default_factory=MlpConfig)
    temperature: float = 0.1

    def __post_init__(self):
        require(self.temperature, "pos_num", "temperature")


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


def _act_grad(h, activation, out):
    # relu's h > 0 equals z > 0 for every pre-activation z, NaN included
    if activation == "relu":
        return np.greater(h, 0.0, out=out)
    np.square(h, out=out)
    return np.subtract(1.0, out, out=out)


def _flat_views(flat, sizes):
    """Per-layer weight and bias views of a flat vector: every weight matrix, then every bias."""
    shapes = list(zip(sizes[:-1], sizes[1:]))
    views, start = [], 0
    for shape in [*shapes, *((fan_out,) for _, fan_out in shapes)]:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views[: len(shapes)], views[len(shapes) :]


class _StepWork:
    """Buffers of one fit's SGD steps, for batches of up to ``rows`` rows.

    ``grad`` is the flat gradient and ``grads_w``/``grads_b`` its per-layer
    views.  Each hidden layer has its activations, its backprop term and one
    scratch array; a short batch uses their leading rows.
    """

    def __init__(self, sizes, rows):
        layers = zip(sizes[:-1], sizes[1:])
        self.grad = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out in layers))
        self.grads_w, self.grads_b = _flat_views(self.grad, sizes)
        self.upstream = np.empty((rows, 1))
        self.hidden = [np.empty((rows, width)) for width in sizes[1:-1]]
        self.delta = [np.empty((rows, width)) for width in sizes[1:-1]]
        self.scratch = [np.empty((rows, width)) for width in sizes[1:-1]]


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


def _score_blocks(weights, biases, activation, x_mean, x_sd, x, blocks, out):
    """Write the scores of raw rows ``x`` in ``blocks`` into ``out``, in buffers of this call."""
    rows = max((stop - start for start, stop in blocks), default=0)
    a_buf = np.empty((rows, x.shape[1]))
    h_bufs = [np.empty((rows, w.shape[1])) for w in weights[:-1]]
    for start, stop in blocks:
        a = a_buf[: stop - start]
        np.subtract(x[start:stop], x_mean, out=a)
        np.divide(a, x_sd, out=a)
        hidden = [h[: stop - start] for h in h_bufs]
        out[start:stop] = _forward(weights, biases, activation, a, hidden)[0]


def _scores(weights, biases, activation, x_mean, x_sd, x):
    """Scores of raw rows, one ``row_blocks`` block at a time.

    From :data:`FORK_MIN_MADDS` on, with more than one ``fit_workers()``,
    each forked worker walks one contiguous run of the blocks in buffers of
    its own and writes straight into one shared anonymous mapping, so
    nothing is pickled back.  The blocks and their code are those of the
    inline walk, so the scores are bitwise its.
    """
    n = x.shape[0]
    blocks = list(row_blocks(n))
    workers = 1
    if n * sum(w.size for w in weights) >= FORK_MIN_MADDS:
        workers = min(linear.fit_workers(), len(blocks))
    if workers <= 1:
        out = np.empty(n)
        _score_blocks(weights, biases, activation, x_mean, x_sd, x, blocks, out)
        return out
    out = np.frombuffer(mmap.mmap(-1, 8 * n))  # MAP_SHARED: the workers' writes reach it
    runs = np.array_split(blocks, workers)
    fork_map(
        lambda i: _score_blocks(weights, biases, activation, x_mean, x_sd, x, runs[i], out),
        workers,
        workers,
    )
    return out


def _sum_of_squares(arrays):
    # one reduction per array, added in order; a single pass over the flat
    # vector would group the sum differently and move the last bits
    total = 0.0
    for a in arrays:
        total += float(np.add.reduce(np.square(a), axis=None))
    return total


def _batch_gradients(weights, biases, xb, yb, activation, dropout_rate, rng, head, wd, work):
    """Full loss of one batch and its gradients for every parameter.

    ``head(scores, yb)`` returns the batch's mean head loss and the per-row
    slope of the head loss in the score.  The loss adds the weight-decay
    penalty; the gradients come from standard backpropagation with that
    slope as the final-layer upstream term, written into the per-layer
    views of ``work.grad``, which are returned.  The next call on ``work``
    overwrites them.
    """
    m = xb.shape[0]
    hidden = [h[:m] for h in work.hidden]
    scores, a, layers = _forward(weights, biases, activation, xb, hidden, dropout_rate, rng)
    batch_loss, slope = head(scores, yb)
    if wd > 0.0:
        batch_loss += wd * _sum_of_squares(weights)

    g = work.upstream[:m]
    np.divide(slope, m, out=g[:, 0])
    np.matmul(a.T, g, out=work.grads_w[-1])
    np.add.reduce(g, axis=0, out=work.grads_b[-1])
    for layer in range(len(layers) - 1, -1, -1):
        a_in, h, mask = layers[layer]
        w_next = weights[layer + 1]
        d = work.delta[layer][:m]
        if w_next.shape[1] == 1:  # a rank-one product: one rounding per entry either way
            np.multiply(g, w_next.T, out=d)
        else:
            np.matmul(g, w_next.T, out=d)
        if mask is not None:
            d *= mask
        d *= _act_grad(h, activation, out=work.scratch[layer][:m])
        np.matmul(a_in.T, d, out=work.grads_w[layer])
        np.add.reduce(d, axis=0, out=work.grads_b[layer])
        g = d
    if wd > 0.0:
        for gw, w in zip(work.grads_w, weights):
            gw += 2.0 * wd * w
    return batch_loss, work.grads_w, work.grads_b


def _train(x, y_star, cfg: MlpConfig, head, head_meta, log_train_objective):
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
    init_w, init_b = _init_params(sizes, cfg.activation, init_rng)
    params = np.concatenate([p.ravel() for p in (*init_w, *init_b)])
    weights, biases = _flat_views(params, sizes)
    vel = np.zeros_like(params)
    n_tr = tr_idx.shape[0]
    work = _StepWork(sizes, min(cfg.batch_size, n_tr))
    wd, lr = cfg.weight_decay, cfg.learning_rate

    def data_objective(x_part, ys_part):
        scores = _scores(weights, biases, cfg.activation, x_mean, x_sd, x_part)
        return head(scores, ys_part)[0]

    log = []
    best_val = math.inf
    best_epoch = 0
    best_params = params.copy()
    since_best = 0

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n_tr)
        for start in range(0, n_tr, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch_loss, grads_w, grads_b = _batch_gradients(
                weights,
                biases,
                xs_tr[idx],
                ys_tr[idx],
                cfg.activation,
                cfg.dropout_rate,
                dropout_rng,
                head,
                wd,
                work,
            )
            if not math.isfinite(batch_loss):
                raise NonFiniteLossError(f"non-finite batch loss at epoch {epoch}")

            if cfg.grad_clip_norm is not None:
                norm = math.sqrt(_sum_of_squares((*grads_w, *grads_b)))
                if norm > cfg.grad_clip_norm:
                    work.grad *= cfg.grad_clip_norm / norm

            vel *= _MOMENTUM
            vel -= np.multiply(work.grad, lr, out=work.grad)
            params += vel
            if not np.isfinite(params).all():
                raise NonFiniteLossError(f"non-finite parameters at epoch {epoch}")

        train_obj = data_objective(x_tr, ys_tr) if log_train_objective else math.nan
        val_obj = data_objective(x_val, ys_val)
        log.append((epoch, train_obj, val_obj))
        if val_obj < best_val:
            best_val = val_obj
            best_epoch = epoch
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.early_stop_patience:
                break

    best_w, best_b = _flat_views(best_params, sizes)
    return MlpModel(
        weights=[w.copy() for w in best_w],
        biases=[b.copy() for b in best_b],
        activation=cfg.activation,
        x_mean=x_mean,
        x_sd=x_sd,
        training_log=log,
        best_epoch=best_epoch,
        best_val_objective=best_val,
        **head_meta,
    )


def _surrogate_head(spec: sg.SurrogateSpec):
    """The negated surrogate objective: ``head(scores, y*) -> (mean loss, per-row slope)``."""

    def head(scores, ys):
        # one workspace: the slope reuses the loss's density term
        work = sg.RowWork(spec, ys)
        loss = sg.loss_q(spec, scores, ys, work=work)
        mean_loss = float(np.mean(np.negative(loss, out=loss)))
        slope = sg.dloss_dtau(spec, scores, ys, work=work)
        return mean_loss, np.negative(slope, out=slope)

    return head


def _policy_head(cost, temperature):
    """The negated smoothed policy value ``sigmoid(s / T) * (y* - cost)``, as a head."""
    expit = sg.special().expit

    def head(scores, ys):
        p = expit(scores / temperature)
        return float(np.mean(-p * (ys - cost))), -(ys - cost) * p * (1.0 - p) / temperature

    return head


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
    meta = {"head": "surrogate", "spec": spec, "cost": spec.cost, "temperature": None}
    return _train(td.x, td.y_star, cfg, _surrogate_head(spec), meta, log_train_objective)


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
    meta = {"head": "policy", "spec": None, "cost": float(c), "temperature": temp}
    return _train(td.x, td.y_star, cfg.mlp, _policy_head(c, temp), meta, log_train_objective)


def predict_mlp(model: MlpModel, x_new):
    """Predictions on new raw-covariate rows (dropout disabled).

    Surrogate-head models return money-scale CATEs; policy-head models
    return the raw score, which ranks and thresholds (treat iff score >= 0)
    but is not a CATE (``model.is_cate`` is False).
    """
    x = row_matrix(x_new, model.x_mean.shape[0])
    scores = _scores(model.weights, model.biases, model.activation, model.x_mean, model.x_sd, x)
    if model.head == "policy":
        return scores
    return np.asarray(model.spec.unstandardize(scores))
