"""Config-driven experiment runners behind the command-line interface.

A single JSON document configures every command.  On reading, unknown keys
are rejected with dotted-path diagnostics, and each value meets the rule that
its class applies too (``errors.RULES``; "inf" is the one infinite sigma).
Sections:

  dgp        name ("simple" | "complex"), n, seed, optional replications,
             noise_sd, cost, variance_convention (true reads the noise
             parameter as a variance, i.e. sd = sqrt(noise_sd))
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

import dataclasses
import functools
import math
import os

import numpy as np

from . import dataio, linear, mlp, rng
from .dgp import ComplexDgp, LabeledSample, SimpleDgp, generate
from .errors import ConfigError, DataError, ValidationError, require
from .evaluation import evaluate_model
from .linear import (
    LinearFitConfig,
    build_design,
    fit_linear,
    fork_map,
    parse_design,
    transform_outcomes,
)
from .mlp import DirectPolicyConfig, MlpConfig, predict_mlp, train_direct_policy, train_surrogate_mlp
from .selection import (
    DEFAULT_SIGMA_GRID,
    SigmaGrid,
    frontier_sweep,
    kfold_cv,
    linear_fit_function,
    mlp_fit_function,
    spec_for_sigma,
)
from .surrogate import Family, ScalarSurrogateProblem, objective_curve

# ------------------------------------------------------------- config schema


def _blame(path, error, check, *args, **kwargs):
    """``check(*args, **kwargs)``, whose ``ValidationError`` becomes ``error`` naming ``path``."""
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        raise error(f"{path}: {exc}") from exc


def _check_field(path, value, kind):
    """Check one value by its ``errors.RULES`` kind, its schema or its rule's owner."""
    if isinstance(kind, dict):  # a nested object, such as an mlp block
        _check_object(path, value, kind)
    elif kind == "design":
        _blame(path, ConfigError, parse_design, value)
    elif kind == "sigma":  # the spec's owner holds the floor
        require(value, kind, path, ConfigError)
        _blame(path, ConfigError, spec_for_sigma, "normal", 0.0, float(value))
    elif kind == "sigma_list":
        require(value, "list", path, ConfigError)
        for i, v in enumerate(value):
            _check_field(f"{path}[{i}]", v, "sigma")
        _blame(path, ConfigError, SigmaGrid, tuple(value))
    else:
        require(value, kind, path, ConfigError)
        if kind == "seed":
            _blame(path, ConfigError, rng.streams, value, 0)


def _check_object(path, value, schema):
    """Check one config object against its schema; unknown fields are errors."""
    require(value, "object", path, ConfigError)
    for field in schema.get("__required__", ()):
        if field not in value:
            raise ConfigError(f"{path}.{field}: required field is missing")
    for field, item in value.items():
        if field == "__required__" or field not in schema:
            raise ConfigError(f"{path}.{field}: unknown field")
        _check_field(f"{path}.{field}", item, schema[field])


CONFIG_SCHEMA = {
    "dgp": {
        "__required__": ("name", "n", "seed"),
        "name": ("simple", "complex"),
        "n": "pos_int",
        "seed": "seed",
        "replications": "pos_int",
        "noise_sd": "nonneg_num",
        "cost": "num",
        "variance_convention": "bool",
    },
    "model": {
        "__required__": ("type",),
        "type": ("linear", "mlp", "policy"),
        "family": tuple(f.value for f in Family),
        "sigma": "sigma",
        "cost": "num",
        "design": "design",
        "max_iters": "pos_int",
        "grad_tol": "pos_num",
        "temperature": "pos_num",
        "mlp": mlp.MLP_FIELDS,
    },
    "evaluation": {
        "__required__": ("n",),
        "n": "int_ge2",  # every oracle score ranks its rows for the qini
        "seed": "seed",
    },
    "selection": {
        "__required__": (),
        "grid": "sigma_list",
        "folds": "int_ge2",
        "seed": "seed",
    },
    "table2": {
        "__required__": (),
        "replications": "pos_int",
        "train_n": "pos_int",
        "train_seed": "seed",
        "eval_n": "int_ge2",
        "eval_seed": "seed",
        "linear_grid": "sigma_list",
        "linear_folds": "int_ge2",
        "mlp_grid": "sigma_list",
        "mlp_folds": "int_ge2",
        "policy_temperature": "pos_num",
        "mlp": mlp.MLP_FIELDS,
    },
    "output": {
        "__required__": (),
        "dir": "str",
    },
}


def validate_config(doc, required_sections=()):
    """Schema-check a config document (unknown keys are errors); the runners trust it."""
    require(doc, "object", "config root", ConfigError)
    for key in doc:
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{key}: unknown config section")
    for section in required_sections:
        if section not in doc:
            raise ConfigError(f"{section}: required section is missing")
    for section, content in doc.items():
        _check_object(section, content, CONFIG_SCHEMA[section])
    return doc


def _dgp_from_config(cfg):
    """The ``dgp`` section's generator; a field the section omits keeps its default."""
    section = cfg["dgp"]
    make = SimpleDgp if section["name"] == "simple" else ComplexDgp
    dgp = make(**{k: float(section[k]) for k in ("noise_sd", "cost") if k in section})
    if section.get("variance_convention", False):
        dgp = dataclasses.replace(dgp, noise_sd=math.sqrt(dgp.noise_sd))
    return dgp


def _mlp_config(doc, seed_default=0):
    return MlpConfig(**{"seed": seed_default, **(doc or {})})


def _default_design(k):
    return ["1"] + [f"x{j}" for j in range(1, k + 1)]


def _solver_options(model_cfg):
    """The linear solver knobs a ``model`` section sets, for ``fit`` and ``cv`` alike."""
    return {k: model_cfg[k] for k in ("max_iters", "grad_tol") if k in model_cfg}


def _check_seeds(first, count):
    """Check the consecutive seeds ``first .. first + count - 1`` by their ends, before any draw."""
    rng.streams(first, 0)
    rng.streams(first + count - 1, 0)


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


def _model_inputs(cfg, data_path):
    """The checked ``model`` section, its family and cost, the transformed
    dataset and the linear design (by default an intercept and every covariate)."""
    model = cfg["model"]
    dataset, _ = dataio.load_dataset(data_path)
    design = model.get("design", _default_design(dataset.k))
    family, cost = model.get("family", "normal"), float(model.get("cost", 1.0))
    return model, family, cost, transform_outcomes(dataset), design


# ------------------------------------------------------------------ simulate


def run_simulate(cfg, out_dir, with_oracle=False, replications=None, seed=None):
    dgp = _dgp_from_config(cfg)
    section = cfg["dgp"]
    reps = int(replications if replications is not None else section.get("replications", 1))
    base_seed = int(seed if seed is not None else section["seed"])
    n = section["n"]
    _check_seeds(base_seed, reps)  # so a bad one leaves no files behind
    paths = []
    for r in range(reps):
        rep_seed = base_seed + r
        sample = generate(dgp, n, rep_seed)
        path = os.path.join(out_dir, f"{section['name']}_rep{r:03d}_seed{rep_seed}.csv")
        dataio.save_dataset(path, sample.dataset, sample.tau_true if with_oracle else None)
        paths.append(path)
    return paths


# ----------------------------------------------------------------------- fit


def run_fit(data_path, cfg, out_dir):
    model_cfg, family, cost, td, design = _model_inputs(cfg, data_path)
    spec = spec_for_sigma(family, cost, float(model_cfg.get("sigma", 1.0)))
    model_path = os.path.join(out_dir, "model.json")

    if model_cfg["type"] == "linear":
        td_design = td.with_design(build_design(td.x, design))
        result = fit_linear(td_design, LinearFitConfig(spec=spec, **_solver_options(model_cfg)))
        dataio.save_linear_fit(model_path, result, design=design)
        return {"model_path": model_path, "converged": result.converged, "iters": result.iters}

    mlp_cfg = _mlp_config(model_cfg.get("mlp"))
    if model_cfg["type"] == "mlp":
        model = train_surrogate_mlp(td, spec, mlp_cfg, log_train_objective=True)
    else:
        temperature = {k: float(model_cfg[k]) for k in ("temperature",) if k in model_cfg}
        policy_cfg = DirectPolicyConfig(mlp=mlp_cfg, **temperature)
        model = train_direct_policy(td, spec.cost, policy_cfg, log_train_objective=True)
    dataio.save_mlp_model(model_path, model)
    log_path = os.path.join(out_dir, "training_log.csv")
    dataio.save_training_log(log_path, model)
    return {
        "model_path": model_path,
        "training_log": log_path,
        "best_epoch": model.best_epoch,
    }


# ------------------------------------------------------------------ evaluate


def _builtin_models(dgp):
    """{tag: (predictor, is_cate)} of the models that need no training, in table2's row order."""
    cost = dgp.cost
    return {
        "oracle": (dgp.tau, True),
        "mail": (lambda x: np.full(linear.row_matrix(x).shape[0], cost), False),
        "no_mail": (lambda x: np.full(linear.row_matrix(x).shape[0], cost - 1.0), False),
    }


def _training_draw(dgp, n, seed):
    """A transformed training draw of raw rows, its linear fit callback and OLS.

    ``lin_fit`` fits the draw's default linear design; ``ols`` is its
    least-squares fit (the uniform threshold limit), a raw-row predictor.
    """
    sample = generate(dgp, n, seed)
    td = transform_outcomes(sample.dataset)
    lin_fit = linear_fit_function(_default_design(sample.dataset.k))
    return td, lin_fit, lin_fit(td, spec_for_sigma("normal", dgp.cost, math.inf))


def _file_predict(predict, path, x):
    """A model file's predictions for rows ``x``; a non-finite one is the file's fault."""
    return _blame(path, DataError, linear.row_vector, predict(x), name="predictions", finite=True)


def run_evaluate(cfg, model_arg, out_path, replications=None):
    """Score a saved model or builtin tag on fresh oracle-labeled draws.

    Replication r (0-based) scores on the draw with seed
    ``evaluation.seed + r``, whatever the model tag; the ``ols`` tag also
    refits on the training draw with seed ``dgp.seed + r``.  A saved policy
    network is scored by its own rule, treat when its score is at least 0,
    through ``_policy_score``, as ``table2`` scores it.  One replication
    writes one report row to ``out_path``; several write every round to
    ``<out_path stem>_rounds.csv`` and their mean/SD to ``out_path``.
    """
    dgp = _dgp_from_config(cfg)
    eval_n = cfg["evaluation"]["n"]
    eval_seed = int(cfg["evaluation"].get("seed", TABLE2_DEFAULTS["eval_seed"]))
    reps = int(replications) if replications else 1
    _check_seeds(eval_seed, reps)
    if model_arg == "ols":
        _check_seeds(cfg["dgp"]["seed"], reps)
    cost = dgp.cost
    builtins = _builtin_models(dgp)

    tag = model_arg
    if model_arg in builtins:
        predictor, is_cate = builtins[model_arg]
    elif model_arg == "ols":
        is_cate = True  # the predictor is refit for each replication below
    else:
        loaded = dataio.load_model(model_arg)
        predictor = functools.partial(_file_predict, loaded.predict, model_arg)
        is_cate = loaded.is_cate
        if not is_cate:
            predictor = functools.partial(_policy_score, predictor, cost)
        tag = os.path.splitext(os.path.basename(model_arg))[0]

    reports = []
    for r in range(reps):
        if model_arg == "ols":
            *_, predictor = _training_draw(dgp, cfg["dgp"]["n"], int(cfg["dgp"]["seed"]) + r)
        sample = generate(dgp, eval_n, eval_seed + r)
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
    model_cfg = cfg["model"]  # a model cv cannot tune is rejected before the data is read
    if model_cfg.get("family") == "uniform":
        raise ConfigError("model.family: cv tunes sigma; use normal or logistic")
    if model_cfg["type"] == "policy":
        raise ConfigError("model.type: cv supports linear or mlp models")
    _, family, cost, td, design = _model_inputs(cfg, data_path)
    selection = cfg.get("selection", {})
    grid = SigmaGrid(tuple(selection.get("grid", DEFAULT_SIGMA_GRID)))
    folds = int(selection.get("folds", 5))
    seed = int(selection.get("seed", 0))

    if model_cfg["type"] == "linear":
        fit = linear_fit_function(design, **_solver_options(model_cfg))
    else:
        fit = mlp_fit_function(_mlp_config(model_cfg.get("mlp")))

    eval_sample = None  # checked before any fit, so a bad file writes nothing
    if eval_data_path is not None:
        eval_ds, eval_tau = dataio.load_dataset(eval_data_path)
        if eval_tau is None:
            raise ConfigError("--eval-data file must carry a tau_true column")
        if eval_ds.k != td.k:
            raise DataError(
                f"{eval_data_path}: {eval_ds.k} covariate columns, "
                f"but the training data has {td.k}"
            )
        if eval_ds.n < 2:  # each point's report ranks the rows for its qini
            raise DataError(f"{eval_data_path}: the truth frontier needs at least 2 data rows")
        eval_sample = LabeledSample(dataset=eval_ds, tau_true=eval_tau)

    cv = kfold_cv(td, grid, folds, family, fit, seed=seed, cost=cost)
    if eval_sample is not None:  # swept before any file is written, so a failed run writes none
        points = frontier_sweep(td, grid, eval_sample, fit, family, cost=cost)
    cv_path = os.path.join(out_dir, "cv_result.json")
    dataio.write_cv_json(cv_path, cv)
    frontier_path = os.path.join(out_dir, "frontier.csv")
    dataio.write_frontier_csv(frontier_path, cv.frontier)

    out = {"cv_path": cv_path, "frontier_path": frontier_path, "cv": cv}
    if eval_sample is not None:
        truth_path = os.path.join(out_dir, "truth_frontier.csv")
        dataio.write_frontier_csv(truth_path, points)
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError("grid spec bounds must be finite")
    return np.linspace(lo, hi, count)


def run_curve(tau0, cost, family, sigmas, grid_spec, out_dir, uniform_lo=None, uniform_hi=None):
    """One objective curve per sigma to ``curve_sigma_<label>.csv``.

    The grid, the sigmas and the uniform bounds are checked, and every spec
    is built, before the first file is written.
    """
    grid = parse_grid_spec(grid_spec)
    if family == "uniform":  # ignores sigma, so one curve and one file
        specs = {"uniform": spec_for_sigma(family, cost, math.inf, uniform_lo, uniform_hi)}
    elif uniform_lo is not None or uniform_hi is not None:
        raise ConfigError("--uniform-lo and --uniform-hi apply only to --family uniform")
    else:
        specs = {}  # file label -> spec
        for sigma in map(float, sigmas):
            label = "inf" if math.isinf(sigma) else ("%g" % sigma)
            if label in specs:
                raise ConfigError(f"two --sigma values both write curve_sigma_{label}.csv")
            specs[label] = spec_for_sigma(family, cost, sigma)
    paths = []
    for label, spec in specs.items():
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


def _table2_params(cfg, replications=None, seed=None):
    """``TABLE2_DEFAULTS`` overridden by the ``table2`` section and then by the
    ``replications`` and training ``seed`` given, and the generator."""
    user = cfg.get("table2", {})
    flags = {"replications": replications, "train_seed": seed}
    flags = {k: v for k, v in flags.items() if v is not None}
    mlp = {**TABLE2_DEFAULTS["mlp"], **user.get("mlp", {})}
    params = {**TABLE2_DEFAULTS, **user, **flags, "mlp": mlp}
    params["linear_grid"] = SigmaGrid(tuple(params["linear_grid"]))
    params["mlp_grid"] = SigmaGrid(tuple(params["mlp_grid"]))
    _check_seeds(params["train_seed"], params["replications"])
    dgp = _dgp_from_config(cfg) if "dgp" in cfg else ComplexDgp()
    if not isinstance(dgp, ComplexDgp):
        raise ConfigError("dgp.name: the benchmark table uses the complex generator")
    return params, dgp


def _policy_score(predict, cost, x):
    # a policy head treats where its score is at least 0; shifting by the cost
    # lets the generic 1{score >= cost} rule reproduce its decisions (ranking,
    # and hence the ranking metric, is shift-invariant)
    return predict(x) + cost


def _table2_fit_rep(args):
    """One training replication: all fitted models, no evaluation.

    Returns ``(rep, models, selected)``: ``models`` lists ``(tag, sigma,
    predictor, is_cate)`` in ``TABLE2_MODEL_ORDER``, with predictors that
    pickle, and ``selected`` is the replication's CV choices as JSON.
    """
    rep, params, dgp = args
    train_seed = params["train_seed"] + rep
    td, lin_fit, ols = _training_draw(dgp, params["train_n"], train_seed)
    cost = dgp.cost
    models = [("ols", None, ols, True)]
    selected = {"rep": rep}
    mlp_cfg = _mlp_config(params["mlp"], seed_default=train_seed)

    # sigma-tuned linear models, then surrogate networks: CV picks a sigma
    # under each criterion, and the same callback refits once per distinct pick
    for name, fit in (("linear", lin_fit), ("mlp", mlp_fit_function(mlp_cfg))):
        grid, folds = params[f"{name}_grid"], params[f"{name}_folds"]
        cv = kfold_cv(td, grid, folds, "normal", fit, seed=train_seed, cost=cost)
        picks = {"mse": cv.sigma_mse, "profit": cv.sigma_profit}
        refits = {s: fit(td, spec_for_sigma("normal", cost, s)) for s in set(picks.values())}
        for criterion, sigma in picks.items():
            models.append((f"{name}_sigma_{criterion}", sigma, refits[sigma], True))
        selected[name] = [dataio.json_sigma(s) for s in picks.values()]

    # direct policy network
    policy_cfg = DirectPolicyConfig(mlp=mlp_cfg, temperature=params["policy_temperature"])
    policy = train_direct_policy(td, cost, policy_cfg)
    predict = functools.partial(predict_mlp, policy)
    models.append(("policy_mlp", None, functools.partial(_policy_score, predict, cost), False))
    return rep, models, selected


def run_table2(cfg, out_dir, jobs=1, replications=None, seed=None):
    """Desk-scale benchmark: every model family on the complex generator.

    Fits ``replications`` training draws from the training seed ``seed``
    (``table2.replications`` and ``table2.train_seed`` when not given),
    evaluates all models on one large oracle-labeled sample, and writes
    per-replication rows plus a mean/SD summary.  Returns {model: {metric:
    (mean, sd)}} with per-replication (profit, mse, qini) triples under the
    "_runs" key.  The three output files are written only after the last
    replication, so a failed run writes none of them.
    """
    params, dgp = _table2_params(cfg, replications, seed)
    eval_sample = generate(dgp, params["eval_n"], params["eval_seed"])
    cost = dgp.cost

    per_model = {tag: [] for tag in TABLE2_MODEL_ORDER}
    runs = []
    selected = []

    def score(rep, models):
        for tag, sigma, predictor, is_cate in models:
            report = evaluate_model(predictor, eval_sample, cost, is_cate, model_tag=tag)
            runs.append((rep, tag, sigma, report.profit, report.mse, report.qini))
            per_model[tag].append(report)

    # fork_map starts no more workers than there are replications
    fitted = fork_map(
        lambda rep: _table2_fit_rep((rep, params, dgp)), params["replications"], jobs
    )
    for rep, models, rep_selected in fitted:
        score(rep, models)
        selected.append(rep_selected)
    # the shared baselines are scored as `evaluate` scores the same builtin tags
    score(None, [(tag, None, *model) for tag, model in _builtin_models(dgp).items()])

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
