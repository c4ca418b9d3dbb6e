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

from .errors import DataError, DimensionError
from .linear import BLOCK_ROWS, Dataset, LinearFitResult, predict_rows
from .mlp import MlpModel, predict_mlp
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

    Rows become Python floats one block of ``BLOCK_ROWS`` at a time, so the
    temporaries grow with the block, not with the row count.
    """
    header = ["y", "w", "e"] + [f"x{j}" for j in range(1, dataset.k + 1)]
    cols = [dataset.y[:, None], dataset.w[:, None], dataset.e[:, None], dataset.x]
    if tau_true is not None:
        tau_true = np.asarray(tau_true, dtype=float).ravel()
        if tau_true.shape[0] != dataset.n:
            raise DimensionError(
                f"tau_true has {tau_true.shape[0]} values for a dataset of {dataset.n} rows"
            )
        header.append("tau_true")
        cols.append(tau_true[:, None])

    def rows():
        for start in range(0, dataset.n, BLOCK_ROWS):
            yield from np.hstack([c[start : start + BLOCK_ROWS] for c in cols]).tolist()

    write_csv(path, header, rows())


def load_dataset(path):
    """Read an experiment CSV; returns (Dataset, tau_true or None).

    Validates the header (required columns named in errors, no column
    twice), binary treatment, and the propensity overlap band via the
    Dataset constructor.  Blank lines are skipped, and the data rows stream
    into ``np.loadtxt`` without a list of every line.
    """
    try:
        f = open(path)
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
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
            raise DataError(f"{path}: covariate columns must be x1..xk in order, got {x_names}")
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
    if data.shape[1] != len(header):
        raise DataError(f"{path}: expected {len(header)} fields per row, got {data.shape[1]}")
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


def save_linear_fit(path, result: LinearFitResult, design=None):
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
    write_csv(path, ["epoch", "train_obj", "val_obj"], model.training_log)


def _linear_predictor(doc):
    spec = _spec_from_json(doc)
    theta = np.asarray(doc["theta"], dtype=float)
    design = doc.get("design")
    if design and len(design) != len(theta):
        raise ValueError(f"{len(theta)} coefficients for {len(design)} design terms")
    return LoadedModel(
        kind="linear",
        is_cate=True,
        predict=lambda x_raw: predict_rows(theta, spec, x_raw, design),
    )


def _mlp_predictor(doc):
    head = doc["head"]
    model = MlpModel(
        weights=[
            np.asarray(flat, dtype=float).reshape(shape)
            for flat, shape in zip(doc["weights"], doc["weight_shapes"])
        ],
        biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
        activation=doc["activation"],
        x_mean=np.asarray(doc["x_mean"], dtype=float),
        x_sd=np.asarray(doc["x_sd"], dtype=float),
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


def load_model(path) -> LoadedModel:
    """Reload a saved model; a malformed file raises :class:`DataError`."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: a model file holds a JSON object")
    build = {"linear": _linear_predictor, "mlp": _mlp_predictor}.get(doc.get("kind"))
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
