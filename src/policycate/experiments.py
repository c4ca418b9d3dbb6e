"""Config-driven experiment runners behind the command-line interface.

A single JSON document configures every command; unknown keys are rejected
with dotted-path diagnostics.  Sections:

  dgp        name ("simple" | "complex"), n, seed, optional replications,
             noise_sd, cost, variance_convention (true reads the noise
             parameter as a variance, i.e. sd = sqrt(0.1))
  model      type ("linear" | "mlp" | "policy"), family, sigma ("inf" for
             the uniform limit), cost, design terms (linear), solver knobs
             max_iters and grad_tol (linear fit and cv), nested mlp config,
             temperature (policy)
  evaluation n, seed for oracle-labeled evaluation draws
  selection  sigma grid ("inf" allowed), folds, seed
  table2     desk-scale benchmark sizes and grids
  output     default output directory (CLI --out overrides)
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import dataio
from .dgp import ComplexDgp, LabeledSample, SimpleDgp, gen_complex, gen_simple
from .errors import ConfigError
from .evaluation import evaluate_model
from .linear import (
    LinearFitConfig,
    build_design,
    fit_linear,
    predict_rows,
    transform_outcomes,
)
from .mlp import DirectPolicyConfig, MlpConfig, predict_mlp, train_direct_policy, train_surrogate_mlp
from .selection import (
    DEFAULT_SIGMA_GRID,
    SIGMA_FIT_MAX_ITERS,
    SigmaGrid,
    frontier_sweep,
    kfold_cv,
    linear_fit_function,
    mlp_fit_function,
    spec_for_sigma,
)
from .surrogate import ScalarSurrogateProblem, SurrogateSpec, objective_curve

# ------------------------------------------------------------- config schema


def _want_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _want_num(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)) or v == "inf"


def _field_error(path, msg):
    raise ConfigError(f"{path}: {msg}")


def _check_field(path, value, kind):
    if kind == "pos_int":
        if not (_want_int(value) and value > 0):
            _field_error(path, "expected a positive integer")
    elif kind == "int":
        if not _want_int(value):
            _field_error(path, "expected an integer")
    elif kind == "num":
        if not (_want_num(value) and value != "inf"):
            _field_error(path, "expected a number")
    elif kind == "nonneg_num":
        if not (_want_num(value) and value != "inf" and value >= 0):
            _field_error(path, "expected a nonnegative number")
    elif kind == "pos_num":
        if not (_want_num(value) and value != "inf" and value > 0):
            _field_error(path, "expected a positive number")
    elif kind == "bool":
        if not isinstance(value, bool):
            _field_error(path, "expected a boolean")
    elif kind == "sigma":
        if not (_want_num(value) and (value == "inf" or value > 0)):
            _field_error(path, 'expected a positive number or "inf"')
    elif kind == "sigma_list":
        if not (isinstance(value, list) and value):
            _field_error(path, "expected a nonempty list")
        for i, v in enumerate(value):
            _check_field(f"{path}[{i}]", v, "sigma")
    elif kind == "str_list":
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            _field_error(path, "expected a list of strings")
    elif kind == "int_list":
        if not (isinstance(value, list) and all(_want_int(v) and v > 0 for v in value)):
            _field_error(path, "expected a list of positive integers")
    elif isinstance(kind, tuple):  # choices
        if value not in kind:
            _field_error(path, f"expected one of {list(kind)}")
    elif kind == "str":
        if not isinstance(value, str):
            _field_error(path, "expected a string")
    else:  # pragma: no cover - schema authoring error
        raise AssertionError(f"unknown schema kind {kind}")


_MLP_FIELDS = {
    "hidden_sizes": "int_list",
    "activation": ("relu", "tanh"),
    "weight_decay": "nonneg_num",
    "dropout_rate": "nonneg_num",
    "grad_clip_norm": "pos_num",
    "batch_size": "pos_int",
    "learning_rate": "pos_num",
    "max_epochs": "pos_int",
    "early_stop_patience": "pos_int",
    "validation_fraction": "pos_num",
    "seed": "int",
}

CONFIG_SCHEMA = {
    "dgp": {
        "__required__": ("name", "n", "seed"),
        "name": ("simple", "complex"),
        "n": "pos_int",
        "seed": "int",
        "replications": "pos_int",
        "noise_sd": "nonneg_num",
        "cost": "num",
        "variance_convention": "bool",
    },
    "model": {
        "__required__": ("type",),
        "type": ("linear", "mlp", "policy"),
        "family": ("normal", "logistic", "uniform"),
        "sigma": "sigma",
        "uniform_lo": "num",
        "uniform_hi": "num",
        "cost": "num",
        "design": "str_list",
        "max_iters": "pos_int",
        "grad_tol": "pos_num",
        "temperature": "pos_num",
        "mlp": _MLP_FIELDS,
    },
    "evaluation": {
        "__required__": ("n",),
        "n": "pos_int",
        "seed": "int",
    },
    "selection": {
        "__required__": (),
        "grid": "sigma_list",
        "folds": "pos_int",
        "seed": "int",
    },
    "table2": {
        "__required__": (),
        "replications": "pos_int",
        "train_n": "pos_int",
        "train_seed": "int",
        "eval_n": "pos_int",
        "eval_seed": "int",
        "linear_grid": "sigma_list",
        "linear_folds": "pos_int",
        "mlp_grid": "sigma_list",
        "mlp_folds": "pos_int",
        "policy_temperature": "pos_num",
        "mlp": _MLP_FIELDS,
    },
    "output": {
        "__required__": (),
        "dir": "str",
    },
}


def validate_config(doc, required_sections=()):
    """Schema-check a config document; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config root: expected an object")
    for key in doc:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{key}: unknown config section")
    for section in required_sections:
        if section not in doc:
            raise ConfigError(f"{section}: required section is missing")
    for section, content in doc.items():
        schema = CONFIG_SCHEMA[section]
        if not isinstance(content, dict):
            raise ConfigError(f"{section}: expected an object")
        for field in schema.get("__required__", ()):
            if field not in content:
                raise ConfigError(f"{section}.{field}: required field is missing")
        for field, value in content.items():
            if field == "__required__" or field not in schema:
                raise ConfigError(f"{section}.{field}: unknown field")
            kind = schema[field]
            if isinstance(kind, dict):  # nested mlp block
                if not isinstance(value, dict):
                    raise ConfigError(f"{section}.{field}: expected an object")
                for sub, subval in value.items():
                    if sub not in kind:
                        raise ConfigError(f"{section}.{field}.{sub}: unknown field")
                    _check_field(f"{section}.{field}.{sub}", subval, kind[sub])
            else:
                _check_field(f"{section}.{field}", value, kind)
    return doc


def _sigma_value(v):
    return math.inf if v == "inf" else float(v)


def _dgp_from_config(cfg):
    section = cfg["dgp"]
    noise_sd = float(section.get("noise_sd", 0.1))
    if section.get("variance_convention", False):
        noise_sd = math.sqrt(noise_sd)
    cost = float(section.get("cost", 1.0))
    if section["name"] == "simple":
        return SimpleDgp(noise_sd=noise_sd, cost=cost)
    return ComplexDgp(noise_sd=noise_sd, cost=cost)


def _generate(dgp, n, seed):
    if isinstance(dgp, SimpleDgp):
        return gen_simple(dgp, n, seed)
    return gen_complex(dgp, n, seed)


def _mlp_config(doc, seed_default=0):
    doc = dict(doc or {})
    if "hidden_sizes" in doc:
        doc["hidden_sizes"] = tuple(doc["hidden_sizes"])
    doc.setdefault("seed", seed_default)
    return MlpConfig(**doc)


def _default_design(k):
    return ["1"] + [f"x{j}" for j in range(1, k + 1)]


def _solver_options(model_cfg):
    """The linear solver knobs a ``model`` section sets, for ``fit`` and ``cv`` alike."""
    return {k: model_cfg[k] for k in ("max_iters", "grad_tol") if k in model_cfg}


def _mean_sd(reports):
    """{metric: (mean, sd)} over ``EvalReport``s, for each metric all of them carry.

    The SD uses ddof=1 and is None for a single report.
    """
    stats = {}
    for name in ("profit", "mse", "qini"):
        vals = [getattr(r, name) for r in reports]
        if any(v is None for v in vals):
            continue
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else None
        stats[name] = (float(np.mean(vals)), sd)
    return stats


def _threshold_spec(family, cost, sigma, uniform_lo=None, uniform_hi=None):
    """The spec for a user-given family, cost and sigma.

    The uniform family ignores sigma and is supported on (uniform_lo,
    uniform_hi), which default to cost -/+ 1; any other family goes through
    ``spec_for_sigma``.
    """
    if family != "uniform":
        return spec_for_sigma(family, cost, sigma)
    lo = cost - 1.0 if uniform_lo is None else uniform_lo
    hi = cost + 1.0 if uniform_hi is None else uniform_hi
    return SurrogateSpec.uniform(lo, hi, cost=cost)


def _spec_from_model_config(model):
    # float() so that an integer bound is stored as 0.0, not 0, in model.json
    lo, hi = (float(model[k]) if k in model else None for k in ("uniform_lo", "uniform_hi"))
    cost = float(model.get("cost", 1.0))
    return _threshold_spec(
        model.get("family", "normal"), cost, _sigma_value(model.get("sigma", 1.0)), lo, hi
    )


# ------------------------------------------------------------------ simulate


def run_simulate(cfg, out_dir, with_oracle=False, replications=None, seed=None):
    validate_config(cfg, required_sections=("dgp",))
    dgp = _dgp_from_config(cfg)
    section = cfg["dgp"]
    reps = int(replications if replications is not None else section.get("replications", 1))
    base_seed = int(seed if seed is not None else section["seed"])
    n = section["n"]
    paths = []
    for r in range(reps):
        rep_seed = base_seed + r
        sample = _generate(dgp, n, rep_seed)
        path = os.path.join(out_dir, f"{section['name']}_rep{r:03d}_seed{rep_seed}.csv")
        dataio.save_dataset(path, sample.dataset, sample.tau_true if with_oracle else None)
        paths.append(path)
    return paths


# ----------------------------------------------------------------------- fit


def run_fit(data_path, cfg, out_dir):
    validate_config(cfg, required_sections=("model",))
    model_cfg = cfg["model"]
    dataset, _ = dataio.load_dataset(data_path)
    td = transform_outcomes(dataset)
    spec = _spec_from_model_config(model_cfg)
    model_path = os.path.join(out_dir, "model.json")

    if model_cfg["type"] == "linear":
        design = model_cfg.get("design", _default_design(dataset.k))
        td_design = td.with_design(build_design(dataset.x, design))
        result = fit_linear(td_design, LinearFitConfig(spec=spec, **_solver_options(model_cfg)))
        dataio.save_linear_fit(model_path, result, design=design)
        return {"model_path": model_path, "converged": result.converged, "iters": result.iters}

    mlp_cfg = _mlp_config(model_cfg.get("mlp"))
    if model_cfg["type"] == "mlp":
        model = train_surrogate_mlp(td, spec, mlp_cfg)
    else:
        policy_cfg = DirectPolicyConfig(
            mlp=mlp_cfg, temperature=float(model_cfg.get("temperature", 0.1))
        )
        model = train_direct_policy(td, spec.cost, policy_cfg)
    dataio.save_mlp_model(model_path, model)
    log_path = os.path.join(out_dir, "training_log.csv")
    dataio.save_training_log(log_path, model)
    return {
        "model_path": model_path,
        "training_log": log_path,
        "best_epoch": model.best_epoch,
    }


# ------------------------------------------------------------------ evaluate


def _builtin_predictor(tag, dgp, cost):
    if tag == "oracle":
        return dgp.tau, True
    if tag == "mail":
        return lambda x: np.full(np.atleast_2d(x).shape[0], cost), False
    if tag == "no_mail":
        return lambda x: np.full(np.atleast_2d(x).shape[0], cost - 1.0), False
    raise ConfigError(f"unknown builtin model tag {tag!r}")


def _linear_predictor(result, design):
    """Raw-covariate scores of a linear fit on ``design``; it pickles."""
    return functools.partial(predict_rows, result.theta, result.spec, design=design)


def _training_draw(dgp, n, seed):
    """A transformed training draw, raw and on its default linear design.

    Returns ``(td_raw, td_lin, design, ols)``, where ``ols`` predicts with the
    least-squares fit (the uniform threshold limit) on ``td_lin``.
    """
    sample = _generate(dgp, n, seed)
    td_raw = transform_outcomes(sample.dataset)
    design = _default_design(sample.dataset.k)
    td_lin = td_raw.with_design(build_design(sample.dataset.x, design))
    spec_inf = spec_for_sigma("normal", dgp.cost, math.inf)
    ols = _linear_predictor(fit_linear(td_lin, LinearFitConfig(spec=spec_inf)), design)
    return td_raw, td_lin, design, ols


def run_evaluate(cfg, model_arg, out_path, replications=None):
    """Score a saved model or builtin tag on fresh oracle-labeled draws.

    Replication r (0-based) scores on the draw with seed
    ``evaluation.seed + r``, whatever the model tag; the ``ols`` tag also
    refits on the training draw with seed ``dgp.seed + r``.  One replication
    writes one report row to ``out_path``; several write every round to
    ``<out_path stem>_rounds.csv`` and their mean/SD to ``out_path``.
    """
    validate_config(cfg, required_sections=("dgp", "evaluation"))
    dgp = _dgp_from_config(cfg)
    eval_n = cfg["evaluation"]["n"]
    eval_seed = int(cfg["evaluation"].get("seed", 990_000))
    reps = int(replications) if replications else 1
    cost = dgp.cost

    tag = model_arg
    if model_arg in ("oracle", "mail", "no_mail"):
        predictor, is_cate = _builtin_predictor(model_arg, dgp, cost)
    elif model_arg == "ols":
        is_cate = True  # the predictor is refit for each replication below
    else:
        loaded = dataio.load_model(model_arg)
        predictor, is_cate = loaded.predict, loaded.is_cate
        tag = os.path.splitext(os.path.basename(model_arg))[0]

    reports = []
    for r in range(reps):
        if model_arg == "ols":
            *_, predictor = _training_draw(dgp, cfg["dgp"]["n"], int(cfg["dgp"]["seed"]) + r)
        sample = _generate(dgp, eval_n, eval_seed + r)
        report = evaluate_model(predictor, sample, cost, is_cate, model_tag=tag)
        reports.append(report)

    if reps == 1:
        dataio.write_eval_csv(out_path, reports)
    else:
        rounds_path = os.path.splitext(out_path)[0] + "_rounds.csv"
        dataio.write_eval_csv(rounds_path, reports)
        dataio.write_summary_csv(out_path, [(reports[0].model_tag, _mean_sd(reports))])
    return reports


# ------------------------------------------------------------------------ cv


def run_cv(data_path, cfg, out_dir, eval_data_path=None):
    validate_config(cfg, required_sections=("model",))
    model_cfg = cfg["model"]
    selection = cfg.get("selection", {})
    dataset, _ = dataio.load_dataset(data_path)
    td = transform_outcomes(dataset)
    family = model_cfg.get("family", "normal")
    if family == "uniform":
        raise ConfigError("model.family: cv tunes sigma; use normal or logistic")
    cost = float(model_cfg.get("cost", 1.0))
    grid = SigmaGrid(tuple(_sigma_value(v) for v in selection.get("grid", DEFAULT_SIGMA_GRID)))
    folds = int(selection.get("folds", 5))
    seed = int(selection.get("seed", 0))

    design = None
    if model_cfg["type"] == "linear":
        design = model_cfg.get("design", _default_design(dataset.k))
        td = td.with_design(build_design(dataset.x, design))
        fit = linear_fit_function(**_solver_options(model_cfg))
    elif model_cfg["type"] == "mlp":
        fit = mlp_fit_function(_mlp_config(model_cfg.get("mlp")))
    else:
        raise ConfigError("model.type: cv supports linear or mlp models")

    cv = kfold_cv(td, grid, folds, family, fit, seed=seed, cost=cost)
    cv_path = os.path.join(out_dir, "cv_result.json")
    dataio.write_cv_json(cv_path, cv)
    frontier_path = os.path.join(out_dir, "frontier.csv")
    dataio.write_frontier_csv(frontier_path, cv.frontier)

    out = {"cv_path": cv_path, "frontier_path": frontier_path, "cv": cv}
    if eval_data_path is not None:
        eval_ds, eval_tau = dataio.load_dataset(eval_data_path)
        if eval_tau is None:
            raise ConfigError("--eval-data file must carry a tau_true column")
        eval_sample = LabeledSample(dataset=eval_ds, tau_true=eval_tau)
        eval_design = build_design(eval_ds.x, design) if design else None
        points = frontier_sweep(
            td, grid, eval_sample, fit, family, cost=cost, eval_design=eval_design
        )
        truth_path = os.path.join(out_dir, "truth_frontier.csv")
        dataio.write_frontier_csv(truth_path, [(p.sigma, p.mse, p.profit) for p in points])
        out["truth_frontier_path"] = truth_path
        out["truth_frontier"] = points
    return out


# --------------------------------------------------------------------- curve


def parse_grid_spec(spec_str):
    parts = spec_str.split(":")
    if len(parts) != 3:
        raise ConfigError("grid spec must be lo:hi:points")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec_str!r}: {exc}") from exc
    if count < 1 or not hi > lo:
        raise ConfigError("grid spec needs hi > lo and points >= 1")
    return np.linspace(lo, hi, count)


def run_curve(tau0, cost, family, sigmas, grid_spec, out_dir, uniform_lo=None, uniform_hi=None):
    grid = parse_grid_spec(grid_spec)
    if family == "uniform":  # ignores sigma, so one curve and one file
        sigmas = sigmas[:1]
    paths = []
    for sigma in sigmas:
        sigma = _sigma_value(sigma)
        spec = _threshold_spec(family, cost, sigma, uniform_lo, uniform_hi)
        if family == "uniform":
            label = "uniform"
        else:
            label = "inf" if math.isinf(sigma) else ("%g" % sigma)
        rows = objective_curve(ScalarSurrogateProblem(tau0, spec), grid)
        path = os.path.join(out_dir, f"curve_sigma_{label}.csv")
        dataio.write_curve_csv(path, rows)
        paths.append(path)
    return paths


# -------------------------------------------------------------------- table2

TABLE2_DEFAULTS = {
    "replications": 10,
    "train_n": 10_000,
    "train_seed": 1,
    "eval_n": 1_000_000,
    "eval_seed": 990_000,
    "linear_grid": list(DEFAULT_SIGMA_GRID),
    "linear_folds": 5,
    "mlp_grid": [1.0, 2.0, "inf"],
    "mlp_folds": 2,
    "policy_temperature": 0.1,
    "mlp": {
        "hidden_sizes": [64, 64],
        "activation": "tanh",
        "weight_decay": 1e-5,
        "grad_clip_norm": 50.0,
        "batch_size": 256,
        "learning_rate": 0.02,
        "max_epochs": 250,
        "early_stop_patience": 50,
        "validation_fraction": 0.15,
    },
}

TABLE2_MODEL_ORDER = (
    "no_mail",
    "mail",
    "ols",
    "linear_sigma_mse",
    "linear_sigma_profit",
    "mlp_sigma_mse",
    "mlp_sigma_profit",
    "policy_mlp",
    "oracle",
)


def _table2_params(cfg):
    params = dict(TABLE2_DEFAULTS)
    params["mlp"] = dict(TABLE2_DEFAULTS["mlp"])
    user = cfg.get("table2", {})
    for key, value in user.items():
        if key == "mlp":
            params["mlp"].update(value)
        else:
            params[key] = value
    params["linear_grid"] = SigmaGrid(tuple(_sigma_value(v) for v in params["linear_grid"]))
    params["mlp_grid"] = SigmaGrid(tuple(_sigma_value(v) for v in params["mlp_grid"]))
    dgp_cfg = {"dgp": cfg["dgp"]} if "dgp" in cfg else None
    if dgp_cfg is not None and cfg["dgp"]["name"] != "complex":
        raise ConfigError("dgp.name: the benchmark table uses the complex generator")
    dgp = _dgp_from_config(dgp_cfg) if dgp_cfg else ComplexDgp()
    return params, dgp


def _policy_score(model, cost, x):
    # the policy score thresholds at zero; shifting by the cost lets the
    # generic 1{score >= cost} rule reproduce its decisions (ranking and
    # hence the ranking metric are shift-invariant)
    return predict_mlp(model, x) + cost


def _table2_fit_rep(args):
    """One training replication: all fitted models, no evaluation.

    Returns ``(rep, models, selected)``: ``models`` lists ``(tag, sigma,
    predictor, is_cate)`` in ``TABLE2_MODEL_ORDER``, with predictors that
    pickle, and ``selected`` is the replication's CV choices as JSON.
    """
    rep, params, dgp = args
    train_seed = params["train_seed"] + rep
    td_raw, td_lin, design, ols = _training_draw(dgp, params["train_n"], train_seed)
    cost = dgp.cost
    models = [("ols", None, ols, True)]

    # sigma-tuned linear models, both selection criteria
    lin_fit = linear_fit_function()
    cv_lin = kfold_cv(
        td_lin,
        params["linear_grid"],
        params["linear_folds"],
        "normal",
        lin_fit,
        seed=train_seed,
        cost=cost,
    )
    for tag, sigma in (("linear_sigma_mse", cv_lin.sigma_mse), ("linear_sigma_profit", cv_lin.sigma_profit)):
        spec = spec_for_sigma("normal", cost, sigma)
        fit_cfg = LinearFitConfig(spec=spec, max_iters=SIGMA_FIT_MAX_ITERS)
        models.append((tag, sigma, _linear_predictor(fit_linear(td_lin, fit_cfg), design), True))

    # sigma-tuned surrogate networks, both criteria
    mlp_cfg = _mlp_config(params["mlp"], seed_default=train_seed)
    cv_mlp = kfold_cv(
        td_raw,
        params["mlp_grid"],
        params["mlp_folds"],
        "normal",
        mlp_fit_function(mlp_cfg),
        seed=train_seed,
        cost=cost,
    )
    trained = {}
    for tag, sigma in (("mlp_sigma_mse", cv_mlp.sigma_mse), ("mlp_sigma_profit", cv_mlp.sigma_profit)):
        if sigma not in trained:
            spec = spec_for_sigma("normal", cost, sigma)
            trained[sigma] = train_surrogate_mlp(td_raw, spec, mlp_cfg)
        models.append((tag, sigma, functools.partial(predict_mlp, trained[sigma]), True))

    # direct policy network
    policy_cfg = DirectPolicyConfig(mlp=mlp_cfg, temperature=params["policy_temperature"])
    policy = train_direct_policy(td_raw, cost, policy_cfg)
    models.append(("policy_mlp", None, functools.partial(_policy_score, policy, cost), False))
    selected = {
        "rep": rep,
        "linear": [dataio.json_sigma(v) for v in (cv_lin.sigma_mse, cv_lin.sigma_profit)],
        "mlp": [dataio.json_sigma(v) for v in (cv_mlp.sigma_mse, cv_mlp.sigma_profit)],
    }
    return rep, models, selected


def run_table2(cfg, out_dir, jobs=1):
    """Desk-scale benchmark: every model family on the complex generator.

    Fits ``replications`` training draws, evaluates all models on one large
    oracle-labeled sample, and writes per-replication rows plus a mean/SD
    summary.  Returns {model: {metric: (mean, sd)}} with per-replication
    (profit, mse, qini) triples under the "_runs" key.  The three output
    files are written only after the last replication, so a failed run
    writes none of them.
    """
    validate_config(cfg)
    params, dgp = _table2_params(cfg)
    eval_sample = _generate(dgp, params["eval_n"], params["eval_seed"])
    cost = dgp.cost

    rep_args = [(rep, params, dgp) for rep in range(params["replications"])]
    per_model = {tag: [] for tag in TABLE2_MODEL_ORDER}
    runs = []
    selected = []

    def score(rep, models):
        for tag, sigma, predictor, is_cate in models:
            report = evaluate_model(predictor, eval_sample, cost, is_cate, model_tag=tag)
            runs.append((rep, tag, sigma, report.profit, report.mse, report.qini))
            per_model[tag].append(report)

    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        if pool is not None:
            fitted_iter = pool.map(_table2_fit_rep, rep_args)
        else:
            fitted_iter = map(_table2_fit_rep, rep_args)
        for rep, models, rep_selected in fitted_iter:  # score each replication as it lands
            score(rep, models)
            selected.append(rep_selected)
    finally:
        # a failed replication must not leave queued work or live workers
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    # the shared baselines need no training draw; they are scored as
    # `evaluate` scores the same builtin tags
    baselines = ("oracle", "mail", "no_mail")
    score(None, [(tag, None, *_builtin_predictor(tag, dgp, cost)) for tag in baselines])

    summary = {tag: _mean_sd(per_model[tag]) for tag in TABLE2_MODEL_ORDER}
    summary["_runs"] = {
        tag: [(r.profit, r.mse, r.qini) for r in reports] for tag, reports in per_model.items()
    }
    dataio.write_csv(
        os.path.join(out_dir, "table2_runs.csv"),
        ["rep", "model", "sigma", "profit", "mse", "qini"],
        runs,
    )
    dataio.write_summary_csv(
        os.path.join(out_dir, "table2.csv"), [(tag, summary[tag]) for tag in TABLE2_MODEL_ORDER]
    )
    dataio.write_json(os.path.join(out_dir, "table2_selected_sigmas.json"), selected)
    return summary
