"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each function in ``WRAPPED`` at every module
attribute that holds it (its home module, the package namespace, and every
module that imported it by name, such as ``dataio.predict_mlp``).  Calls
made through a function-local import, as in ``linear_fit_function``, read
the patched module attribute at call time, so they are covered too.
Reloaded linear models predict through a closure in ``dataio`` rather than
``predict_cate``; ``load_model`` is wrapped so that closure gets a span of
its own.  ``uninstall`` restores every original.

A span is ``[name, start, end, parent index, unit, attrs]``.  Spans stay in
memory; ``write`` saves them as JSON lines when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import json
import math
import os
import sys
import time

import numpy as np

PACKAGE = "policycate"


def _sigma(spec):
    return math.inf if spec.family.value == "uniform" else spec.scale


def _rows(args, kwargs, result):
    return {"rows": int(np.size(args[1]))}


def _fit_attrs(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return {
        "sigma": _sigma(cfg.spec),
        "iters": result.iters,
        "converged": result.converged,
        "capped": (not result.converged) and result.iters >= cfg.max_iters,
    }


def _train_attrs(args, kwargs, result):
    attrs = {"epochs": len(result.training_log), "best_epoch": result.best_epoch}
    if result.spec is not None:
        attrs["sigma"] = _sigma(result.spec)
    return attrs


def _predict_rows(args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _gen_rows(args, kwargs, result):
    return {"rows": result.dataset.n}


def _saved_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# module -> {public function: attrs taken from (args, kwargs, result)}
WRAPPED = {
    "surrogate": {"loss_q": _rows, "dloss_dtau": _rows, "d2loss_dtau2": _rows},
    "linear": {
        "transform_outcomes": None,
        "build_design": None,
        "ols_solution": None,
        "fit_linear": _fit_attrs,
        "sandwich_covariance": None,
        "predict_cate": _predict_rows,
    },
    "mlp": {
        "train_surrogate_mlp": _train_attrs,
        "train_direct_policy": _train_attrs,
        "predict_mlp": _predict_rows,
    },
    "selection": {"kfold_cv": None},
    "dgp": {"gen_complex": _gen_rows, "oracle_policy_value": None},
    "evaluation": {
        "evaluate_model": None,
        "qini_coefficient": None,
        "cate_mse": None,
        "ipw_policy_value": None,
    },
    "dataio": {
        "save_dataset": _saved_bytes,
        "load_dataset": None,
        "save_linear_fit": _saved_bytes,
        "save_mlp_model": _saved_bytes,
        "load_model": None,
    },
}
LOADED_LINEAR_PREDICT = "dataio.linear_model_predict"
FIT_SPANS = ("linear.fit_linear", "mlp.train_surrogate_mlp")  # what CV fit callbacks call
PREDICT_SPANS = ("linear.predict_cate", "mlp.predict_mlp")

# spans each workload must record in one set-up plus one unit
REQUIRED = {
    "linear-cv": {
        "dgp.gen_complex",
        "dataio.save_dataset",
        "dataio.load_dataset",
        "linear.transform_outcomes",
        "linear.build_design",
        "linear.ols_solution",
        "linear.fit_linear",
        "linear.sandwich_covariance",
        "linear.predict_cate",
        "selection.kfold_cv",
        "evaluation.ipw_policy_value",
        "surrogate.loss_q",
        "surrogate.dloss_dtau",
        "surrogate.d2loss_dtau2",
    },
    "evaluate-1e6": {
        "dgp.gen_complex",
        "dgp.oracle_policy_value",
        "dataio.save_dataset",
        "dataio.load_dataset",
        "dataio.save_linear_fit",
        "dataio.save_mlp_model",
        "dataio.load_model",
        LOADED_LINEAR_PREDICT,
        "linear.transform_outcomes",
        "linear.build_design",
        "linear.fit_linear",
        "mlp.train_surrogate_mlp",
        "mlp.train_direct_policy",
        "mlp.predict_mlp",
        "evaluation.evaluate_model",
        "evaluation.qini_coefficient",
        "evaluation.cate_mse",
        "surrogate.loss_q",
    },
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.unit = None
        self.enabled = True
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.unit, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if attrs_fn is not None:
                span[5] = attrs_fn(args, kwargs, result)
            return result

        return traced

    def _wrap_load_model(self, load_model):
        wrap_predict = functools.partial(self._wrap, LOADED_LINEAR_PREDICT, attrs_fn=_predict_rows)

        @functools.wraps(load_model)
        def load(path):
            loaded = load_model(path)
            if loaded.kind != "linear":
                return loaded  # reloaded networks predict through predict_mlp
            return dataclasses.replace(loaded, predict=wrap_predict(loaded.predict))

        return load

    def install(self, extra_modules=()):
        """Wrap every function in WRAPPED wherever a module holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == PACKAGE]
        modules += list(extra_modules)
        for mod_name, functions in WRAPPED.items():
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name, attrs_fn in functions.items():
                original = getattr(home, fn_name)
                inner = self._wrap_load_model(original) if fn_name == "load_model" else original
                wrapper = self._wrap(f"{mod_name}.{fn_name}", inner, attrs_fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def write(self, path, spans):
        """Save spans as JSON lines; CV fits also get their fold index."""
        folds = {}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as f:
            for name, start, end, parent, unit, attrs in spans:
                doc = {"name": name, "start": start, "end": end, "parent": parent, "unit": unit}
                if attrs:
                    doc["attrs"] = {k: _json_num(v) for k, v in attrs.items()}
                if name in FIT_SPANS and parent >= 0 and spans[parent][0] == "selection.kfold_cv":
                    key = (parent, attrs["sigma"])
                    doc["attrs"]["fold"] = folds[key] = folds.get(key, -1) + 1
                f.write(json.dumps(doc) + "\n")


def _json_num(v):
    return "inf" if isinstance(v, float) and math.isinf(v) else v


# ------------------------------------------------------------ layer metrics

# counts that must repeat exactly between traced passes over the same input
EXACT = (
    "surrogate.loss_calls",
    "surrogate.loss_rows",
    "surrogate.deriv_calls",
    "linear.fits",
    "linear.iters",
    "linear.capped_frac",
    "linear.converged_frac",
    "linear.loss_evals_per_iter",
    "mlp.trains",
    "mlp.epochs",
    "mlp.useful_epoch_frac",
    "selection.fold_fits",
    "dataio.bytes_written",
)

def _ratio(num, den):
    """A ratio whose base is zero does not apply to the workload; it reads 0."""
    return num / den if den else 0.0


def covered(spans):
    return {s[0] for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of one slice of spans (one set-up plus one unit).

    A span's time counts once per metric even when spans nest; self time of
    the CV loop is its span minus the fit and predict calls it made.
    """
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def pick(*names):
        return [spans[i] for n in names for i in by_name.get(n, ())]

    def busy(*names):
        return sum(s[2] - s[1] for s in pick(*names))

    def total(name, key):
        return sum(s[5][key] for s in pick(name))

    fits = pick("linear.fit_linear")
    fit_times = sorted(s[2] - s[1] for s in fits)
    iters = sum(s[5]["iters"] for s in fits)
    fit_idx = set(by_name.get("linear.fit_linear", ()))
    loss_in_fits = 0
    for i in by_name.get("surrogate.loss_q", ()):
        parent = spans[i][3]
        while parent >= 0 and parent not in fit_idx:
            parent = spans[parent][3]
        loss_in_fits += parent >= 0

    trains = pick("mlp.train_surrogate_mlp", "mlp.train_direct_policy")
    epochs = sum(s[5]["epochs"] for s in trains)
    train_s = sum(s[2] - s[1] for s in trains)

    cv_idx = set(by_name.get("selection.kfold_cv", ()))
    fold_fits = 0
    in_callbacks = 0.0
    for s in spans:
        if s[3] in cv_idx and s[0] in FIT_SPANS + PREDICT_SPANS:
            in_callbacks += s[2] - s[1]
            fold_fits += s[0] in FIT_SPANS
    cv_s = busy("selection.kfold_cv")

    predict_mlp_s = busy("mlp.predict_mlp")
    gen_s = busy("dgp.gen_complex")
    return {
        "surrogate.loss_calls": len(pick("surrogate.loss_q")),
        "surrogate.loss_rows": total("surrogate.loss_q", "rows"),
        "surrogate.deriv_calls": len(pick("surrogate.dloss_dtau", "surrogate.d2loss_dtau2")),
        "surrogate.busy_s": busy("surrogate.loss_q", "surrogate.dloss_dtau", "surrogate.d2loss_dtau2"),
        "linear.fits": len(fits),
        "linear.fit_busy_s": sum(fit_times),
        "linear.fit_p50_s": float(np.percentile(fit_times, 50)) if fit_times else 0.0,
        "linear.fit_p90_s": float(np.percentile(fit_times, 90)) if fit_times else 0.0,
        "linear.iters": iters,
        "linear.capped_frac": _ratio(sum(s[5]["capped"] for s in fits), len(fits)),
        "linear.converged_frac": _ratio(sum(s[5]["converged"] for s in fits), len(fits)),
        "linear.loss_evals_per_iter": _ratio(loss_in_fits, iters),
        "linear.ols_busy_s": busy("linear.ols_solution"),
        "linear.sandwich_busy_s": busy("linear.sandwich_covariance"),
        "linear.predict_busy_s": busy("linear.predict_cate", LOADED_LINEAR_PREDICT),
        "linear.prep_busy_s": busy("linear.transform_outcomes", "linear.build_design"),
        "mlp.trains": len(trains),
        "mlp.train_busy_s": train_s,
        "mlp.epochs": epochs,
        "mlp.s_per_epoch": _ratio(train_s, epochs),
        "mlp.useful_epoch_frac": _ratio(sum(s[5]["best_epoch"] for s in trains), epochs),
        "mlp.predict_busy_s": predict_mlp_s,
        "mlp.predict_rows_per_s": _ratio(total("mlp.predict_mlp", "rows"), predict_mlp_s),
        "selection.cv_busy_s": cv_s,
        "selection.cv_self_s": cv_s - in_callbacks,
        "selection.fold_fits": fold_fits,
        "dgp.gen_busy_s": gen_s,
        "dgp.rows_per_s": _ratio(total("dgp.gen_complex", "rows"), gen_s),
        "evaluation.evaluate_busy_s": busy("evaluation.evaluate_model"),
        "evaluation.qini_busy_s": busy("evaluation.qini_coefficient"),
        "evaluation.profit_busy_s": busy("dgp.oracle_policy_value", "evaluation.ipw_policy_value"),
        "evaluation.mse_busy_s": busy("evaluation.cate_mse"),
        "dataio.save_busy_s": busy("dataio.save_dataset", "dataio.save_linear_fit", "dataio.save_mlp_model"),
        "dataio.load_busy_s": busy("dataio.load_dataset", "dataio.load_model"),
        "dataio.bytes_written": sum(
            s[5]["bytes"]
            for s in pick("dataio.save_dataset", "dataio.save_linear_fit", "dataio.save_mlp_model")
        ),
    }
