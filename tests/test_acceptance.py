"""Acceptance suite: one test per release criterion, with pass/fail prints.

Each test pins its numeric tolerances and its wall-clock budget.  The
Monte Carlo tests are the expensive part of the suite; the benchmark-table
test dominates (minutes, not seconds).
"""

import math
import time

import numpy as np
import pytest

from policycate.dgp import SimpleDgp, gen_simple, oracle_policy_value
from policycate.experiments import run_table2
from policycate.linear import (
    LinearFitConfig,
    TransformedDataset,
    build_design,
    fit_linear,
    ols_solution,
    policy_from_cate,
    predict_cate,
    sandwich_covariance,
    transform_outcomes,
)
from policycate.mlp import (
    _batch_gradients,
    _init_params,
    _policy_head,
    _StepWork,
    _surrogate_head,
)
from policycate.selection import (
    DEFAULT_SIGMA_GRID,
    SigmaGrid,
    frontier_sweep,
    linear_fit_function,
    spec_for_sigma,
)
from policycate.surrogate import (
    ScalarSurrogateProblem,
    SurrogateSpec,
    dloss_dtau,
    loss_q,
    scalar_argmax,
)

FOUR_NINTHS = 4.0 / 9.0


def report(name, ok, detail, budget_s, elapsed_s):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed_s:.2f}s / budget {budget_s:.0f}s)")


# 1 ---------------------------------------------------------------------------


def test_criterion_1_scalar_fisher_consistency():
    t0 = time.time()
    worst = 0.0
    for family in ("normal", "logistic"):
        for sigma in (0.25, 1.0, 4.0):
            for c in (-1.0, 0.0, 2.0):
                for m in (-3.5, 0.4, 3.5):
                    tau0 = min(5.0, max(-5.0, c + m * sigma))
                    prob = ScalarSurrogateProblem(tau0, SurrogateSpec(family, c, sigma))
                    got = scalar_argmax(prob, tol=1e-6)
                    worst = max(worst, abs(got - tau0))
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    report("1 scalar consistency", ok, f"worst |tau_hat - tau0| = {worst:.2e}", 1, elapsed)
    assert worst < 1e-3
    assert elapsed < 1.0


# 2 ---------------------------------------------------------------------------


def test_criterion_2_uniform_matches_least_squares():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        n, k = int(rng.integers(50, 400)), int(rng.integers(2, 6))
        x = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y_star = x @ rng.normal(size=k) + rng.normal(scale=2.0, size=n)
        td = TransformedDataset(x, y_star)
        spec = SurrogateSpec.uniform(0.0, 2.0, cost=1.0)
        res = fit_linear(td, LinearFitConfig(spec=spec))
        worst = max(worst, float(np.max(np.abs(res.theta - ols_solution(x, y_star)))))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    report("2 uniform = least squares", ok, f"worst sup-norm gap = {worst:.2e}", 1, elapsed)
    assert worst < 1e-6
    assert elapsed < 1.0


# 3 ---------------------------------------------------------------------------


def test_criterion_3_derivative_suites():
    t0 = time.time()
    rng = np.random.default_rng(7)
    specs = [
        SurrogateSpec.normal(1.0, 0.7),
        SurrogateSpec.logistic(0.5, 1.3),
        SurrogateSpec.uniform(-1.0, 3.0, cost=1.0),
    ]
    # linear path: analytic score derivative vs central differences
    worst_lin = 0.0
    h = 1e-6
    for spec in specs:
        for _ in range(200):
            tb = float(rng.uniform(-3, 3))
            ys = float(rng.uniform(-5, 5))
            d = dloss_dtau(spec, tb, ys)
            fd = (loss_q(spec, tb + h, ys) - loss_q(spec, tb - h, ys)) / (2 * h)
            worst_lin = max(worst_lin, abs(d - fd) / (1 + abs(d)))
    # full network backprop for every shipped head, tanh (smooth) activation
    heads = [_surrogate_head(sp) for sp in specs] + [_policy_head(1.0, 0.1)]
    worst_mlp = 0.0
    xb = rng.normal(size=(5, 2))
    yb = rng.normal(scale=2.0, size=5)
    work = _StepWork([2, 3, 1], 5)
    for head in heads:
        weights, biases = _init_params([2, 3, 1], "tanh", rng)

        def step():
            return _batch_gradients(weights, biases, xb, yb, "tanh", 0.0, None, head, 0.0, work)

        _, gw, gb = step()
        # the gradients are views of work.grad, which every later step overwrites
        gw, gb = [g.copy() for g in gw], [g.copy() for g in gb]
        hp = 1e-5
        for params, grads in ((weights, gw), (biases, gb)):
            for layer, p in enumerate(params):
                flat = p.reshape(-1)
                gflat = grads[layer].reshape(-1)
                for j in range(flat.shape[0]):
                    orig = flat[j]
                    flat[j] = orig + hp
                    up = step()[0]
                    flat[j] = orig - hp
                    dn = step()[0]
                    flat[j] = orig
                    fd = (up - dn) / (2 * hp)
                    worst_mlp = max(worst_mlp, abs(gflat[j] - fd) / (1 + abs(gflat[j])))
    elapsed = time.time() - t0
    ok = worst_lin < 1e-5 and worst_mlp < 1e-4 and elapsed < 10.0
    report(
        "3 derivative suites",
        ok,
        f"linear rel err = {worst_lin:.2e}, backprop rel err = {worst_mlp:.2e}",
        10,
        elapsed,
    )
    assert worst_lin < 1e-5
    assert worst_mlp < 1e-4
    assert elapsed < 10.0


# 4 ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_4_quadratic_recovery():
    t0 = time.time()
    reps, n = 100, 10_000
    dgp = SimpleDgp()
    spec = SurrogateSpec.normal(1.0, 1.0)
    design = ["1", "x1", "x1^2"]
    coefs = np.empty((reps, 3))
    profits = np.empty(reps)
    eval_sample = gen_simple(dgp, 100_000, seed=880_000)
    eval_design = build_design(eval_sample.dataset.x, design)
    for r in range(reps):
        sample = gen_simple(dgp, n, seed=40_000 + r)
        td = transform_outcomes(sample.dataset)
        td = td.with_design(build_design(sample.dataset.x, design))
        res = fit_linear(td, LinearFitConfig(spec=spec))
        coefs[r] = res.theta_external
        preds = predict_cate(res, eval_design)
        profits[r] = oracle_policy_value(eval_sample, policy_from_cate(preds, 1.0), 1.0)
    truth = np.array([1.0, 2.0, -1.0])
    mean = coefs.mean(axis=0)
    mc_se = coefs.std(axis=0, ddof=1) / math.sqrt(reps)
    z = np.abs(mean - truth) / mc_se
    mean_profit = float(profits.mean())
    elapsed = time.time() - t0
    ok = bool(np.all(z < 3.0)) and mean_profit >= 0.98 * FOUR_NINTHS and elapsed < 120
    report(
        "4 quadratic recovery",
        ok,
        f"coef means = {np.round(mean, 4)}, |z| = {np.round(z, 2)}, "
        f"profit = {mean_profit:.4f} (floor {0.98 * FOUR_NINTHS:.4f})",
        120,
        elapsed,
    )
    assert np.all(z < 3.0)
    assert mean_profit >= 0.98 * FOUR_NINTHS
    assert elapsed < 120


# 5 ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_sandwich_coverage():
    t0 = time.time()
    reps, n = 500, 5_000
    dgp = SimpleDgp()
    spec = SurrogateSpec.normal(1.0, 1.0)
    design = ["1", "x1", "x1^2"]
    truth = np.array([1.0, 2.0, -1.0])
    covered = np.zeros(3)
    used = 0
    for r in range(reps):
        sample = gen_simple(dgp, n, seed=70_000 + r)
        td = transform_outcomes(sample.dataset)
        td = td.with_design(build_design(sample.dataset.x, design))
        res = fit_linear(td, LinearFitConfig(spec=spec, grad_tol=1e-7))
        cov = sandwich_covariance(res.theta, td, spec)
        half = 1.959963984540054 * cov.std_errors
        covered += (np.abs(res.theta_external - truth) <= half).astype(float)
        used += 1
    rates = covered / used
    elapsed = time.time() - t0
    ok = bool(np.all((rates >= 0.90) & (rates <= 0.98))) and elapsed < 180
    report("5 sandwich coverage", ok, f"per-coefficient coverage = {np.round(rates, 3)}", 180, elapsed)
    assert np.all(rates >= 0.90)
    assert np.all(rates <= 0.98)
    assert elapsed < 180


# 6 ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table2_summary(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("table2")
    t0 = time.time()
    summary = run_table2({}, str(out_dir), jobs=1)
    summary["_elapsed"] = time.time() - t0
    return summary


@pytest.mark.slow
def test_criterion_6_benchmark_table(table2_summary):
    s = table2_summary
    elapsed = s["_elapsed"]
    oracle_profit = s["oracle"]["profit"][0]
    mail_profit = s["mail"]["profit"][0]
    ols_profit, ols_mse = s["ols"]["profit"][0], s["ols"]["mse"][0]
    lin_profit = s["linear_sigma_profit"]["profit"][0]
    mlp_profit, mlp_mse = s["mlp_sigma_mse"]["profit"][0], s["mlp_sigma_mse"]["mse"][0]
    qini_oracle = s["oracle"]["qini"][0]
    qini_mlp = min(s["mlp_sigma_mse"]["qini"][0], s["mlp_sigma_profit"]["qini"][0])
    qini_mlp_max = max(s["mlp_sigma_mse"]["qini"][0], s["mlp_sigma_profit"]["qini"][0])
    qini_linear = max(
        s["ols"]["qini"][0],
        s["linear_sigma_mse"]["qini"][0],
        s["linear_sigma_profit"]["qini"][0],
    )
    lin_runs = s["_runs"]["linear_sigma_profit"]
    ols_runs = s["_runs"]["ols"]
    per_draw_wins = sum(a[0] > b[0] for a, b in zip(lin_runs, ols_runs))
    checks = {
        "oracle profit in 0.515 +- 0.01": abs(oracle_profit - 0.515) <= 0.01,
        "mail profit in -0.004 +- 0.01": abs(mail_profit - (-0.004)) <= 0.01,
        "ols profit in [0.24, 0.30]": 0.24 <= ols_profit <= 0.30,
        "ols mse in [1.47, 1.52]": 1.47 <= ols_mse <= 1.52,
        "profit-tuned linear beats ols": lin_profit > ols_profit,
        "profit-tuned linear wins >= 8/10 draws": per_draw_wins >= 0.8 * len(ols_runs),
        "surrogate mlp profit >= 0.45": mlp_profit >= 0.45,
        "surrogate mlp mse <= 0.5": mlp_mse <= 0.5,
        "qini order oracle >= mlp": qini_oracle >= qini_mlp_max,
        "qini order mlp >= linear": qini_mlp >= qini_linear,
        "runtime < 15 min": elapsed < 900,
    }
    detail = (
        f"oracle {oracle_profit:.4f}, mail {mail_profit:.4f}, ols ({ols_profit:.4f}, "
        f"{ols_mse:.4f}), linear-profit {lin_profit:.4f}, mlp ({mlp_profit:.4f}, "
        f"{mlp_mse:.4f}), qini o/m/l {qini_oracle:.3f}/{qini_mlp:.3f}/{qini_linear:.3f}"
    )
    report("6 benchmark table", all(checks.values()), detail, 900, elapsed)
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, failed


# 7 ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_frontier_tradeoff():
    t0 = time.time()
    sample = gen_simple(SimpleDgp(), 10_000, seed=550_000)
    td = transform_outcomes(sample.dataset)
    design = ["1", "x1"]
    eval_sample = gen_simple(SimpleDgp(), 100_000, seed=660_000)
    points = frontier_sweep(
        td,
        SigmaGrid(DEFAULT_SIGMA_GRID),
        eval_sample,
        linear_fit_function(design),
        "normal",
        cost=1.0,
    )
    by_sigma = {p.sigma: p for p in points}
    ref = by_sigma[math.inf]
    # Monte Carlo SE of each profit-vs-reference gap on the shared sample
    theta_ls = ols_solution(build_design(sample.dataset.x, design), td.y_star)
    x_eval = eval_sample.dataset.x  # raw rows; the fit callback builds their design
    ref_policy = policy_from_cate(build_design(x_eval, design) @ theta_ls, 1.0)
    ref_contrib = ref_policy * (eval_sample.tau_true - 1.0)
    fit = linear_fit_function(design)
    winners = []
    for p in points:
        if math.isinf(p.sigma):
            continue
        predictor = fit(td, spec_for_sigma("normal", 1.0, p.sigma))
        contrib = policy_from_cate(predictor(x_eval), 1.0) * (eval_sample.tau_true - 1.0)
        gap_se = float(np.std(contrib - ref_contrib, ddof=1)) / math.sqrt(len(contrib))
        if p.profit - ref.profit > 2.0 * gap_se and p.mse > ref.mse:
            winners.append((p.sigma, p.profit - ref.profit, gap_se))
    elapsed = time.time() - t0
    ok = bool(winners) and elapsed < 60
    report(
        "7 frontier trade-off",
        ok,
        f"reference profit {ref.profit:.4f}, winners (sigma, gap, se) = "
        + ", ".join(f"({s:g}, {g:.4f}, {se:.4f})" for s, g, se in winners[:3]),
        60,
        elapsed,
    )
    assert winners
    assert elapsed < 60


# 8 ---------------------------------------------------------------------------


def test_criterion_8_out_of_scope_documented():
    # Not reproducible at desk scale, by design: external tree/boosting
    # baselines (reported from the source table, never refit here), exact
    # ranking-coefficient magnitudes (definition differs), and the
    # full-scale replication SD columns.  The property checks in criteria
    # 4-7 stand in for them.
    excluded = ("causal forest row", "xgboost row", "exact qini magnitudes", "full-scale SDs")
    report("8 exclusions documented", True, "; ".join(excluded), 1, 0.0)
    assert len(excluded) == 4
