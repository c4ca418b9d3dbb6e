"""CSV and JSON persistence for datasets, fitted models, and reports.

All numeric CSV fields are written with 12 significant digits, which
round-trips bit-exactly through the loaders at that precision.  Infinite
sigma values are written as the literal ``inf`` in CSV and the string
``"inf"`` in JSON.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dgp import LabeledSample
from .errors import DataError
from .linear import Dataset, LinearFitResult, build_design
from .mlp import MlpConfig, MlpModel, predict_mlp
from .surrogate import Family, SurrogateSpec


def fmt(x) -> str:
    return "%.12g" % float(x)


def _ensure_parent(path):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


# ------------------------------------------------------------------- datasets


def save_dataset(path, dataset: Dataset, tau_true=None):
    """Write the experiment CSV: header y,w,e,x1..xk plus optional tau_true."""
    _ensure_parent(path)
    k = dataset.k
    header = ["y", "w", "e"] + [f"x{j}" for j in range(1, k + 1)]
    if tau_true is not None:
        tau_true = np.asarray(tau_true, dtype=float).ravel()
        header.append("tau_true")
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for i in range(dataset.n):
            row = [fmt(dataset.y[i]), "%d" % int(dataset.w[i]), fmt(dataset.e[i])]
            row += [fmt(v) for v in dataset.x[i]]
            if tau_true is not None:
                row.append(fmt(tau_true[i]))
            f.write(",".join(row) + "\n")


def load_dataset(path):
    """Read an experiment CSV; returns (Dataset, tau_true or None).

    Validates the header (required columns named in errors), binary
    treatment, and the propensity overlap band via the Dataset constructor.
    """
    try:
        with open(path) as f:
            lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    for required in ("y", "w", "e"):
        if required not in header:
            name = {"y": "outcome", "w": "treatment", "e": "propensity"}[required]
            raise DataError(f"{path}: missing {name} column '{required}'")
    x_names = [h for h in header if h.startswith("x")]
    expected = [f"x{j}" for j in range(1, len(x_names) + 1)]
    if x_names != expected:
        raise DataError(f"{path}: covariate columns must be x1..xk in order, got {x_names}")
    known = {"y", "w", "e", "tau_true", *expected}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise DataError(f"{path}: unknown columns {unknown}")
    idx = {name: header.index(name) for name in header}
    rows = []
    for ln_no, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise DataError(f"{path}:{ln_no}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DataError(f"{path}:{ln_no}: {exc}") from exc
    data = np.asarray(rows, dtype=float)
    x = data[:, [idx[name] for name in expected]] if expected else np.ones((data.shape[0], 0))
    try:
        ds = Dataset(x=x, w=data[:, idx["w"]], y=data[:, idx["y"]], e=data[:, idx["e"]])
    except Exception as exc:
        raise DataError(f"{path}: {exc}") from exc
    tau = data[:, idx["tau_true"]] if "tau_true" in idx else None
    return ds, tau


# --------------------------------------------------------------------- models


@dataclass(frozen=True)
class LoadedModel:
    """A reloaded model: a raw-covariate predictor plus metadata."""

    kind: str
    is_cate: bool
    cost: float
    predict: Callable[[np.ndarray], np.ndarray]
    design: Optional[tuple] = None


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


def save_linear_fit(path, result: LinearFitResult, design=None):
    _ensure_parent(path)
    doc = {
        "kind": "linear",
        **_spec_to_json(result.spec),
        "design": list(design) if design is not None else None,
        "theta": [float(v) for v in result.theta],
        "theta_external": [float(v) for v in result.theta_external],
        "converged": result.converged,
        "iters": result.iters,
        "final_gradient_norm": result.final_gradient_norm,
        "std_errors": None
        if result.std_errors is None
        else [float(v) for v in result.std_errors],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def save_mlp_model(path, model: MlpModel):
    _ensure_parent(path)
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
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def save_training_log(path, model: MlpModel):
    _ensure_parent(path)
    with open(path, "w") as f:
        f.write("epoch,train_obj,val_obj\n")
        for epoch, train_obj, val_obj in model.training_log:
            f.write(f"{epoch},{fmt(train_obj)},{fmt(val_obj)}\n")


def _linear_predictor(doc):
    spec = _spec_from_json(doc)
    theta = np.asarray(doc["theta"], dtype=float)
    design = doc.get("design")

    def predict(x_raw):
        x = np.atleast_2d(np.asarray(x_raw, dtype=float))
        xd = build_design(x, design) if design else x
        scores = xd @ theta
        return np.asarray(spec.unstandardize(scores))

    return LoadedModel(
        kind="linear",
        is_cate=True,
        cost=float(doc["cost"]),
        predict=predict,
        design=tuple(design) if design else None,
    )


def _mlp_predictor(doc):
    weights = [
        np.asarray(flat, dtype=float).reshape(shape)
        for flat, shape in zip(doc["weights"], doc["weight_shapes"])
    ]
    biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    head = doc["head"]
    spec = _spec_from_json(doc) if head == "surrogate" else None
    model = MlpModel(
        weights=weights,
        biases=biases,
        hidden_sizes=tuple(doc["hidden_sizes"]),
        activation=doc["activation"],
        x_mean=np.asarray(doc["x_mean"], dtype=float),
        x_sd=np.asarray(doc["x_sd"], dtype=float),
        head=head,
        spec=spec,
        cost=float(doc["cost"]),
        temperature=doc.get("temperature"),
        config=MlpConfig(hidden_sizes=tuple(doc["hidden_sizes"]), activation=doc["activation"]),
        training_log=[],
        best_epoch=int(doc.get("best_epoch", 0)),
        best_val_objective=math.nan,
    )
    return LoadedModel(
        kind="mlp",
        is_cate=(head == "surrogate"),
        cost=float(doc["cost"]),
        predict=lambda x_raw: predict_mlp(model, x_raw),
    )


def load_model(path) -> LoadedModel:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    kind = doc.get("kind")
    if kind == "linear":
        return _linear_predictor(doc)
    if kind == "mlp":
        return _mlp_predictor(doc)
    raise DataError(f"{path}: unknown model kind {kind!r}")


# -------------------------------------------------------------------- reports


def write_curve_csv(path, rows):
    _ensure_parent(path)
    with open(path, "w") as f:
        f.write("tau,surrogate_value,stepwise_value\n")
        for tau, surr, step in rows:
            f.write(f"{fmt(tau)},{fmt(surr)},{fmt(step)}\n")


def write_frontier_csv(path, points):
    """Points are (sigma, mse, profit) triples or FrontierPoint objects."""
    _ensure_parent(path)
    with open(path, "w") as f:
        f.write("sigma,mse,profit\n")
        for p in points:
            sigma, mse, profit = (p.sigma, p.mse, p.profit) if hasattr(p, "sigma") else p
            f.write(f"{fmt(sigma)},{fmt(mse)},{fmt(profit)}\n")


def json_sigma(v):
    """A sigma as JSON: the string "inf" for the uniform limit, else the number."""
    return "inf" if math.isinf(v) else v


def write_cv_json(path, cv):
    _ensure_parent(path)
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
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def write_eval_csv(path, reports):
    _ensure_parent(path)
    with open(path, "w") as f:
        f.write("model_tag,profit,mse,qini,n_eval\n")
        for r in reports:
            mse = "" if r.mse is None else fmt(r.mse)
            f.write(f"{r.model_tag},{fmt(r.profit)},{mse},{fmt(r.qini)},{r.n_eval}\n")


def write_summary_csv(path, rows):
    """Mean/SD table rows: (model, stats dict with metric -> (mean, sd))."""
    _ensure_parent(path)
    metrics = ("profit", "mse", "qini")
    with open(path, "w") as f:
        f.write("model," + ",".join(f"{m}_mean,{m}_sd" for m in metrics) + "\n")
        for model, stats in rows:
            cells = [model]
            for m in metrics:
                mean, sd = stats.get(m, (None, None))
                cells.append("" if mean is None else fmt(mean))
                cells.append("" if sd is None else fmt(sd))
            f.write(",".join(cells) + "\n")
