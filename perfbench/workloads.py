"""The benchmark workloads: two phases of one ``table2`` replication.

Each workload has a set-up, which prepares the inputs of a given list of
units, and a unit, the piece of work that is timed.  Unit r of ``linear-cv``
trains on the draw with seed ``seed + r``; every ``evaluate-1e6`` unit scores
the same models on the draw ``990000 + seed``.  Units call only the
package's public functions, through their modules, so the tracer in
``tracer.py`` sees every call.  Every unit returns an outcome that
``check_*`` compares against the invariants below and against the seed
commit's outputs in ``reference.json``.

* ``linear-cv``: the linear half of a replication (OLS-limit fit, 5-fold CV
  over the table2 sigma grid, the two final fits at the selected sigmas).
* ``evaluate-1e6``: scoring four saved models on a 1,000,000-row draw, as
  ``policycate evaluate`` does.  Network training runs in its set-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from policycate import dataio, dgp, evaluation, linear, mlp, selection
from policycate.experiments import TABLE2_DEFAULTS

COST = 1.0
DESIGN = ("1",) + tuple(f"x{j}" for j in range(1, 11))
# table2's final linear fits and the benchmark's sigma=1 model use this cap
FINAL_MAX_ITERS = 1500
EVAL_SEED_OFFSET = TABLE2_DEFAULTS["eval_seed"]
FLOAT_RTOL = 1e-6


def _sigmas(values):
    return tuple(math.inf if v == "inf" else float(v) for v in values)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``SMOKE`` its quick self-test.

    table2 trains on 10,000 rows; the benchmark uses 3,000 so that a run holds
    several units within its time budget.  At 3,000 rows, as at 10,000, most
    fits at sigma <= 0.5 stop at the iteration cap and most fits at
    sigma >= 1 converge.
    """

    train_n: int = 3000
    eval_n: int = 1_000_000
    score_n: int = 50_000  # oracle rows that score linear-cv's final models
    linear_grid: tuple = _sigmas(TABLE2_DEFAULTS["linear_grid"])
    linear_folds: int = TABLE2_DEFAULTS["linear_folds"]
    mlp_overrides: dict = field(default_factory=dict)


FULL = Sizes()
SMOKE = Sizes(
    train_n=240,
    eval_n=5000,
    score_n=2000,
    linear_grid=(0.5, 1.0, math.inf),
    linear_folds=2,
    mlp_overrides={"max_epochs": 6, "early_stop_patience": 3},
)


def mlp_config(seed, sizes):
    block = {**TABLE2_DEFAULTS["mlp"], **sizes.mlp_overrides, "seed": seed}
    block["hidden_sizes"] = tuple(block["hidden_sizes"])
    return mlp.MlpConfig(**block)


def _spec(sigma):
    return selection.spec_for_sigma("normal", COST, sigma)


# ------------------------------------------------------------------ set-up


@dataclass(frozen=True)
class Draw:
    seed: int
    td: linear.TransformedDataset  # raw covariates, as the networks see them
    td_lin: linear.TransformedDataset  # table2's linear design 1, x1..x10


def prepare_draw(seed, sizes, workdir):
    """Draw, CSV round trip (as ``policycate simulate`` then ``cv`` do), transforms."""
    sample = dgp.gen_complex(dgp.ComplexDgp(), sizes.train_n, seed)
    path = os.path.join(workdir, f"complex_seed{seed}.csv")
    dataio.save_dataset(path, sample.dataset)
    dataset, _ = dataio.load_dataset(path)
    td = linear.transform_outcomes(dataset)
    td_lin = td.with_design(linear.build_design(dataset.x, DESIGN))
    return Draw(seed=seed, td=td, td_lin=td_lin)


@dataclass(frozen=True)
class CvSetup:
    draws: dict  # unit r -> the draw with seed seed + r
    score_sample: dgp.LabeledSample  # oracle-labelled rows for the headline metrics


def setup_cv(seed, units, sizes, workdir):
    draws = {r: prepare_draw(seed + r, sizes, workdir) for r in units}
    score = dgp.gen_complex(dgp.ComplexDgp(), sizes.score_n, EVAL_SEED_OFFSET + seed)
    return CvSetup(draws=draws, score_sample=score)


@dataclass(frozen=True)
class EvalSetup:
    seed: int
    eval_seed: int
    paths: dict  # model tag -> saved model file
    models: dict  # model tag -> in-memory fit, for the round-trip check


def setup_evaluate(seed, units, sizes, workdir):
    """Fit the four scored models on table2's first training draw and save them.

    Every unit scores the same models, so ``units`` is not used.  The models
    do not depend on ``seed``; the evaluation draw does.  Models
    fitted on a seed-dependent draw would make the scored profit and MSE
    differ by up to 25% from seed to seed, which no run-length could steady.
    """
    train_seed = TABLE2_DEFAULTS["train_seed"]
    draw = prepare_draw(train_seed, sizes, workdir)
    cfg = mlp_config(train_seed, sizes)
    models = {
        "ols": linear.fit_linear(draw.td_lin, linear.LinearFitConfig(spec=_spec(math.inf))),
        "linear_sigma1": linear.fit_linear(
            draw.td_lin, linear.LinearFitConfig(spec=_spec(1.0), max_iters=FINAL_MAX_ITERS)
        ),
        "mlp_sigma1": mlp.train_surrogate_mlp(draw.td, _spec(1.0), cfg),
        "policy_mlp": mlp.train_direct_policy(
            draw.td,
            COST,
            mlp.DirectPolicyConfig(mlp=cfg, temperature=TABLE2_DEFAULTS["policy_temperature"]),
        ),
    }
    paths = {}
    for tag, model in models.items():
        paths[tag] = os.path.join(workdir, f"{tag}.json")
        if isinstance(model, linear.LinearFitResult):
            dataio.save_linear_fit(paths[tag], model, design=DESIGN)
        else:
            dataio.save_mlp_model(paths[tag], model)
    return EvalSetup(seed=seed, eval_seed=EVAL_SEED_OFFSET + seed, paths=paths, models=models)


# ------------------------------------------------------------------- units


@dataclass(frozen=True)
class CvOutcome:
    seed: int
    cv: selection.CvResult
    final: dict  # sigma -> fitted model at that sigma
    extra: dict  # the OLS-limit fit

    def summary(self):
        frontier = {sigma: (mse, profit) for sigma, mse, profit in self.cv.frontier}
        return {
            "sigma_mse": _json_sigma(self.cv.sigma_mse),
            "sigma_profit": _json_sigma(self.cv.sigma_profit),
            "profit": frontier[self.cv.sigma_profit][1],
            "mse": frontier[self.cv.sigma_mse][0],
        }


def linear_unit(draw, sizes):
    """The linear half of ``experiments._table2_fit_rep`` on one draw."""
    td = draw.td_lin
    ols = linear.fit_linear(td, linear.LinearFitConfig(spec=_spec(math.inf)))
    cv = selection.kfold_cv(
        td,
        selection.SigmaGrid(sizes.linear_grid),
        sizes.linear_folds,
        "normal",
        selection.linear_fit_function(),
        seed=draw.seed,
        cost=COST,
    )
    final = {  # two fits, as in table2, even when the selected sigmas coincide
        sigma: linear.fit_linear(
            td, linear.LinearFitConfig(spec=_spec(sigma), max_iters=FINAL_MAX_ITERS)
        )
        for sigma in (cv.sigma_mse, cv.sigma_profit)
    }
    return CvOutcome(seed=draw.seed, cv=cv, final=final, extra={"ols": ols})


@dataclass(frozen=True)
class EvalOutcome:
    sample: dgp.LabeledSample
    reports: dict  # model tag -> EvalReport
    predictors: dict  # model tag -> reloaded predictor

    def summary(self):
        return {
            tag: {"profit": r.profit, "mse": r.mse, "qini": r.qini}
            for tag, r in self.reports.items()
        }


def evaluate_unit(setup, sizes):
    """Draw the evaluation sample, then reload and score every saved model."""
    sample = dgp.gen_complex(dgp.ComplexDgp(), sizes.eval_n, setup.eval_seed)
    reports, predictors = {}, {}
    for tag, path in setup.paths.items():
        loaded = dataio.load_model(path)
        reports[tag] = evaluation.evaluate_model(
            loaded.predict, sample, COST, loaded.is_cate, model_tag=tag
        )
        predictors[tag] = loaded.predict
    return EvalOutcome(sample=sample, reports=reports, predictors=predictors)


# ------------------------------------------------------------------ checks


def _json_sigma(v):
    return "inf" if math.isinf(v) else v


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)


def _compare(summary, ref, where):
    problems = []
    for key, want in ref.items():
        got = summary.get(key)
        if isinstance(want, dict):
            problems += _compare(got or {}, want, f"{where}.{key}")
        elif isinstance(want, str) or key.startswith("sigma"):
            if got != want:
                problems.append(f"{where}.{key}: got {got!r}, reference {want!r}")
        elif not _close(got, want):
            problems.append(f"{where}.{key}: got {got!r}, reference {want!r}")
    return problems


def _check_selection(cv):
    """Recompute the frontier and both selections from the fold scores."""
    problems = []
    best_mse, best_profit = math.inf, -math.inf
    sel_mse = sel_profit = None
    for sigma, mse, profit in cv.frontier:
        rows = [s for s in cv.fold_scores if s.sigma == sigma]
        if len(rows) != cv.k:
            problems.append(f"sigma {sigma}: {len(rows)} fold scores for {cv.k} folds")
            continue
        if not (_close(mse, float(np.mean([r.mse_proxy for r in rows])))
                and _close(profit, float(np.mean([r.profit for r in rows])))):
            problems.append(f"sigma {sigma}: frontier is not the fold mean")
        if not (math.isfinite(mse) and math.isfinite(profit)):
            problems.append(f"sigma {sigma}: non-finite CV score")
        if mse <= best_mse:  # ties go to the larger sigma
            best_mse, sel_mse = mse, sigma
        if profit >= best_profit:
            best_profit, sel_profit = profit, sigma
    if (sel_mse, sel_profit) != (cv.sigma_mse, cv.sigma_profit):
        problems.append(
            f"selected ({cv.sigma_mse}, {cv.sigma_profit}) but the frontier gives "
            f"({sel_mse}, {sel_profit})"
        )
    return problems


def _sigma_of(spec):
    return math.inf if spec.family.value == "uniform" else spec.scale


def check_linear(draw, out, ref):
    problems = _check_selection(out.cv)
    td = draw.td_lin
    ls, *_ = np.linalg.lstsq(td.x, td.y_star, rcond=None)
    ols = out.extra["ols"].theta_external
    if not np.allclose(ols, ls, rtol=1e-7, atol=1e-9):
        problems.append("OLS-limit fit differs from least squares on y*")
    for sigma, res in out.final.items():
        if _sigma_of(res.spec) != sigma or not np.all(np.isfinite(res.theta)):
            problems.append(f"final fit at sigma {sigma} is wrong or non-finite")
    if ref is not None:
        problems += _compare(out.summary(), ref, f"draw {draw.seed}")
    return problems


def _in_memory_predict(model, x):
    if isinstance(model, linear.LinearFitResult):
        return linear.predict_cate(model, linear.build_design(x, DESIGN))
    return mlp.predict_mlp(model, x)


def check_evaluate(setup, out, ref):
    problems = []
    sample = out.sample
    best = float(np.mean(np.maximum(sample.tau_true - COST, 0.0)))
    x = sample.dataset.x[:2048]
    for tag, report in out.reports.items():
        want = _in_memory_predict(setup.models[tag], x)
        if not np.allclose(out.predictors[tag](x), want, rtol=1e-10, atol=1e-12):
            problems.append(f"{tag}: reloaded model predicts differently from the fit")
        if not (math.isfinite(report.profit) and report.profit <= best + 1e-12):
            problems.append(f"{tag}: profit {report.profit} above the oracle optimum {best}")
        if report.mse is not None and not (math.isfinite(report.mse) and report.mse >= 0):
            problems.append(f"{tag}: bad mse {report.mse}")
        if not math.isfinite(report.qini):
            problems.append(f"{tag}: non-finite qini")
    if ref is not None:
        problems += _compare(out.summary(), ref, f"seed {setup.seed}")
    return problems


# ---------------------------------------------------------------- registry


def _oracle_scores(sample, model):
    preds = _in_memory_predict(model, sample.dataset.x)
    profit = dgp.oracle_policy_value(sample, linear.policy_from_cate(preds, COST), COST)
    return profit, evaluation.cate_mse(preds, sample.tau_true)


def cv_headline(setup, out):
    """table2's columns for this unit's final models, scored on oracle rows.

    Profit is that of the sigma_profit model and MSE that of the sigma_mse
    model.  The CV-mean held-out scores stay in the reference check; as
    headline numbers they are too noisy from draw to draw for a run that
    holds only a few units.
    """
    profit, _ = _oracle_scores(setup.score_sample, out.final[out.cv.sigma_profit])
    _, mse = _oracle_scores(setup.score_sample, out.final[out.cv.sigma_mse])
    return profit, mse


def evaluate_headline(setup, out):
    report = out.reports["mlp_sigma1"]
    return report.profit, report.mse


@dataclass(frozen=True)
class Workload:
    name: str
    unit_s: float  # one unit process (import, set-up, warm-up, unit) on a 2-core x86 VM
    setup: object  # (seed, unit indices, sizes, workdir) -> state
    unit: object  # (state, r, sizes) -> outcome
    check: object  # (state, r, outcome, reference) -> problems
    ref_key: object  # (state, r) -> reference key
    headline: object  # (state, outcome) -> (profit, mse) reported end to end


WORKLOADS = {
    "linear-cv": Workload(
        name="linear-cv",
        unit_s=14.0,
        setup=setup_cv,
        unit=lambda setup, r, sizes: linear_unit(setup.draws[r], sizes),
        check=lambda setup, r, out, ref: check_linear(setup.draws[r], out, ref),
        ref_key=lambda setup, r: str(setup.draws[r].seed),
        headline=cv_headline,
    ),
    "evaluate-1e6": Workload(
        name="evaluate-1e6",
        unit_s=9.0,
        setup=setup_evaluate,
        unit=lambda setup, r, sizes: evaluate_unit(setup, sizes),
        check=lambda setup, r, out, ref: check_evaluate(setup, out, ref),
        ref_key=lambda setup, r: str(setup.seed),
        headline=evaluate_headline,
    ),
}
