"""CSV and JSON persistence for datasets, fitted models, and reports.

All numeric CSV fields are written with 12 significant digits, which
round-trips bit-exactly through the loaders at that precision; ``None`` is
written as an empty cell and a string verbatim.  Infinite sigma values are
written as the literal ``inf`` in CSV and the string ``"inf"`` in JSON.

Every output file is written to ``<path>.tmp`` and renamed onto ``path``
only once it is complete, so a failed write leaves the previous file (or
none) in place.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DataError, ValidationError, require
from .linear import Dataset, LinearFitResult, parse_design, predict_rows, row_blocks, row_vector
from .mlp import ACTIVATIONS, MlpModel, predict_mlp
from .surrogate import Family, SurrogateSpec


def fmt(x) -> str:
    return "%.12g" % float(x)


@contextlib.contextmanager
def _replacing(path):
    """A text file on ``path + ".tmp"`` that replaces ``path`` when the block succeeds."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _cell(v) -> str:
    if v is None:
        return ""
    return v if isinstance(v, str) else fmt(v)


def write_csv(path, header, rows):
    """Write a header line and one comma-separated line per row."""
    with _replacing(path) as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path, doc):
    with _replacing(path) as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# ------------------------------------------------------------------- datasets


def save_dataset(path, dataset: Dataset, tau_true=None):
    """Write the experiment CSV: header y,w,e,x1..xk plus optional tau_true.

    Rows become Python floats one ``linear.row_blocks`` block at a time, so
    the temporaries grow with the block, not with the row count, and each
    row is formatted by one ``%`` template of ``fmt``'s ``%.12g`` fields.
    """
    header = ["y", "w", "e"] + [f"x{j}" for j in range(1, dataset.k + 1)]
    cols = [dataset.y[:, None], dataset.w[:, None], dataset.e[:, None], dataset.x]
    if tau_true is not None:
        tau_true = row_vector(tau_true, dataset.n, "tau_true")
        header.append("tau_true")
        cols.append(tau_true[:, None])

    line = ",".join(["%.12g"] * len(header)) + "\n"
    with _replacing(path) as f:
        f.write(",".join(header) + "\n")
        for start, stop in row_blocks(dataset.n):
            block = np.hstack([c[start:stop] for c in cols]).tolist()
            f.writelines(line % tuple(row) for row in block)


def load_dataset(path):
    """Read an experiment CSV; returns (Dataset, tau_true or None).

    Validates the header (required columns named in errors, no column
    twice), binary treatment and the propensity overlap band via the
    Dataset constructor, and that every ``tau_true`` cell is finite.  Blank
    lines are skipped, and the data rows stream into ``np.loadtxt`` without
    a list of every line.
    """
    try:
        f = open(path)
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        with f:
            rows = filter(str.strip, f)  # skips blank and whitespace-only lines
            line = next(rows, None)
            if line is None:
                raise DataError(f"{path}: empty dataset file")
            header = line.rstrip("\n").split(",")
            for required in ("y", "w", "e"):
                if required not in header:
                    name = {"y": "outcome", "w": "treatment", "e": "propensity"}[required]
                    raise DataError(f"{path}: missing {name} column '{required}'")
            x_names = [h for h in header if h.startswith("x")]
            expected = [f"x{j}" for j in range(1, len(x_names) + 1)]
            if x_names != expected:
                raise DataError(
                    f"{path}: covariate columns must be x1..xk in order, got {x_names}"
                )
            known = {"y", "w", "e", "tau_true", *expected}
            unknown = [h for h in header if h not in known]
            if unknown:
                raise DataError(f"{path}: unknown columns {unknown}")
            repeated = [h for i, h in enumerate(header) if h in header[:i]]
            if repeated:
                raise DataError(f"{path}: repeated column '{repeated[0]}'")
            idx = {name: header.index(name) for name in header}
            line = next(rows, None)
            if line is None:
                raise DataError(f"{path}: no data rows")
            try:
                data = np.loadtxt(
                    itertools.chain([line], rows), delimiter=",", comments=None, ndmin=2
                )
            except ValueError as exc:
                raise DataError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    if data.shape[1] != len(header):
        raise DataError(f"{path}: expected {len(header)} fields per row, got {data.shape[1]}")
    # np.take's result is C-ordered (a fancy index's is not), so once sealed
    # the Dataset shares it instead of copying it; tau_true is taken the same
    # way, so holding it does not keep the whole parsed table alive
    x = np.take(data, [idx[name] for name in expected], axis=1)
    x.setflags(write=False)
    tau = np.take(data, idx["tau_true"], axis=1) if "tau_true" in idx else None
    if tau is not None:
        tau.setflags(write=False)
    try:
        ds = Dataset(x=x, w=data[:, idx["w"]], y=data[:, idx["y"]], e=data[:, idx["e"]])
        if tau is not None:
            row_vector(tau, name="tau_true", finite=True)
    except Exception as exc:
        raise DataError(f"{path}: {exc}") from exc
    return ds, tau


# --------------------------------------------------------------------- models


@dataclass(frozen=True)
class LoadedModel:
    """A reloaded model: a raw-covariate predictor plus metadata."""

    kind: str
    is_cate: bool
    predict: Callable[[np.ndarray], np.ndarray]


def _spec_to_json(spec: SurrogateSpec):
    doc = {"family": spec.family.value, "cost": spec.cost}
    if spec.family is Family.UNIFORM:
        doc["sigma"] = None
        doc["uniform_lo"] = spec.uniform_lo
        doc["uniform_hi"] = spec.uniform_hi
    else:
        doc["sigma"] = spec.scale
    return doc


def _spec_from_json(doc) -> SurrogateSpec:
    family = Family(doc["family"])
    if family is Family.UNIFORM:
        return SurrogateSpec.uniform(doc["uniform_lo"], doc["uniform_hi"], cost=doc["cost"])
    return SurrogateSpec(family, doc["cost"], doc["sigma"])


def _floats(v):
    """A vector as a JSON list of numbers; None stays None."""
    return None if v is None else [float(x) for x in v]


def save_linear_fit(path, result: LinearFitResult, design=None):
    doc = {
        "kind": "linear",
        **_spec_to_json(result.spec),
        "design": list(design) if design is not None else None,
        "theta": _floats(result.theta),
        "theta_external": _floats(result.theta_external),
        "converged": result.converged,
        "iters": result.iters,
        "final_gradient_norm": result.final_gradient_norm,
        "std_errors": _floats(result.std_errors),
    }
    write_json(path, doc)


def save_mlp_model(path, model: MlpModel):
    doc = {
        "kind": "mlp",
        "head": model.head,
        "hidden_sizes": list(model.hidden_sizes),
        "activation": model.activation,
        "weights": [w.ravel().tolist() for w in model.weights],
        "weight_shapes": [list(w.shape) for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "x_mean": model.x_mean.tolist(),
        "x_sd": model.x_sd.tolist(),
        "best_epoch": model.best_epoch,
    }
    if model.head == "surrogate":
        doc.update(_spec_to_json(model.spec))
    else:
        doc["cost"] = model.cost
        doc["temperature"] = model.temperature
    write_json(path, doc)


def save_training_log(path, model: MlpModel):
    """Write the ``epoch,train_obj,val_obj`` CSV of a network's training.

    The network must have been trained with ``log_train_objective=True``;
    a log whose train column holds NaN is refused.
    """
    if any(math.isnan(train_obj) for _, train_obj, _ in model.training_log):
        raise ValidationError(
            "the training log has no train-split objective; "
            "train with log_train_objective=True to write it"
        )
    write_csv(path, ["epoch", "train_obj", "val_obj"], model.training_log)


def _finite_array(values, name):
    """``values`` as a 1-D float array whose every entry is finite."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} is not a list of finite numbers")
    return a


def _loaded_linear(doc):
    spec = _spec_from_json(doc)
    theta = _finite_array(doc["theta"], "theta")
    design = doc.get("design")
    # parsed here, so a bad term names the file
    if design is not None and len(parse_design(design)) != len(theta):
        raise ValueError(f"{len(theta)} coefficients for {len(design)} design terms")
    return LoadedModel(
        kind="linear",
        is_cate=True,
        predict=lambda x_raw: predict_rows(theta, spec, x_raw, design),
    )


def _loaded_mlp(doc):
    """A saved network, checked so that it scores as it was trained to.

    The layers must chain from ``len(x_mean)`` inputs to one output, and
    every number must be finite, with each ``x_sd`` positive.
    """
    head, activation = doc["head"], doc["activation"]
    require(head, ("surrogate", "policy"), "head", ValueError)
    require(activation, ACTIVATIONS, "activation", ValueError)
    x_mean = _finite_array(doc["x_mean"], "x_mean")
    x_sd = _finite_array(doc["x_sd"], "x_sd")
    if len(x_sd) != len(x_mean) or not np.all(x_sd > 0):
        raise ValueError("x_sd is not one positive number per x_mean entry")
    weights = [
        _finite_array(flat, f"weights[{i}]").reshape(shape)
        for i, (flat, shape) in enumerate(zip(doc["weights"], doc["weight_shapes"], strict=True))
    ]
    biases = [_finite_array(b, f"biases[{i}]") for i, b in enumerate(doc["biases"])]
    width = len(x_mean)
    for i, (w, b) in enumerate(zip(weights, biases, strict=True)):
        if w.ndim != 2 or w.shape[0] != width or b.shape != w.shape[1:]:
            raise ValueError(
                f"layer {i}: weight shape {w.shape} and bias shape {b.shape} "
                f"do not follow {width} inputs"
            )
        width = w.shape[1]
    if not weights or width != 1:
        raise ValueError(f"the network ends in {width} outputs, not 1")
    model = MlpModel(
        weights=weights,
        biases=biases,
        activation=activation,
        x_mean=x_mean,
        x_sd=x_sd,
        head=head,
        spec=_spec_from_json(doc) if head == "surrogate" else None,
        cost=float(doc["cost"]),
        temperature=doc.get("temperature"),
        best_epoch=int(doc.get("best_epoch", 0)),
    )
    return LoadedModel(
        kind="mlp",
        is_cate=model.is_cate,
        predict=lambda x_raw: predict_mlp(model, x_raw),
    )


def read_json_object(path, error, what):
    """The JSON object in ``path``, a ``what``; anything else raises ``error`` naming the file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: a {what} holds a JSON object")
    return doc


def load_model(path) -> LoadedModel:
    """Reload a saved model; a malformed file raises :class:`DataError`."""
    doc = read_json_object(path, DataError, "model file")
    build = {"linear": _loaded_linear, "mlp": _loaded_mlp}.get(doc.get("kind"))
    if build is None:
        raise DataError(f"{path}: unknown model kind {doc.get('kind')!r}")
    try:
        return build(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed {doc['kind']} model: {exc!r}") from exc


# -------------------------------------------------------------------- reports


def write_curve_csv(path, rows):
    write_csv(path, ["tau", "surrogate_value", "stepwise_value"], rows)


def write_frontier_csv(path, points):
    """Points are (sigma, mse, profit) triples."""
    write_csv(path, ["sigma", "mse", "profit"], points)


def json_sigma(v):
    """A sigma as JSON: the string "inf" for the uniform limit, else the number."""
    return "inf" if math.isinf(v) else v


def write_cv_json(path, cv):
    doc = {
        "sigma_mse": json_sigma(cv.sigma_mse),
        "sigma_profit": json_sigma(cv.sigma_profit),
        "k": cv.k,
        "seed": cv.seed,
        "fold_scores": [
            {
                "sigma": json_sigma(s.sigma),
                "fold": s.fold,
                "mse_proxy": s.mse_proxy,
                "profit": s.profit,
            }
            for s in cv.fold_scores
        ],
        "frontier": [
            {"sigma": json_sigma(sigma), "mse_proxy": mse, "profit": profit}
            for sigma, mse, profit in cv.frontier
        ],
    }
    write_json(path, doc)


def write_eval_csv(path, reports):
    write_csv(
        path,
        ["model_tag", "profit", "mse", "qini", "n_eval"],
        [(r.model_tag, r.profit, r.mse, r.qini, r.n_eval) for r in reports],
    )


def write_summary_csv(path, rows):
    """Mean/SD table rows: (model, stats dict with metric -> (mean, sd))."""
    metrics = ("profit", "mse", "qini")
    write_csv(
        path,
        ["model"] + [f"{m}_{stat}" for m in metrics for stat in ("mean", "sd")],
        [
            [model] + [v for m in metrics for v in stats.get(m, (None, None))]
            for model, stats in rows
        ],
    )
