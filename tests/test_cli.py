import json

import numpy as np
import pytest

from policycate import dataio, experiments
from policycate.cli import main
from policycate.linear import ols_solution


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def base_config(**overrides):
    doc = {
        "dgp": {"name": "simple", "n": 400, "seed": 7},
        "model": {
            "type": "linear",
            "family": "normal",
            "sigma": 1.0,
            "cost": 1.0,
            "design": ["1", "x1", "x1^2"],
        },
        "evaluation": {"n": 5000, "seed": 99},
        "selection": {"grid": [0.5, "inf"], "folds": 2, "seed": 0},
    }
    doc.update(overrides)
    return doc


def test_simulate_is_deterministic_and_counts_replications(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["simulate", "--config", cfg, "--out", str(out1), "--replications", "3"]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--replications", "3"]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and len(files1) == 3
    assert {"simple_rep000_seed7.csv", "simple_rep001_seed8.csv", "simple_rep002_seed9.csv"} == set(
        files1
    )
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_rejects_zero_n(tmp_path):
    doc = base_config()
    doc["dgp"]["n"] = 0
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_config_unknown_key_rejected(tmp_path):
    doc = base_config()
    doc["dgp"]["typo_field"] = 1
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", "o"]) == 2


def test_fit_uniform_matches_closed_form(tmp_path):
    doc = base_config()
    doc["model"] = {"type": "linear", "family": "uniform", "cost": 1.0, "design": ["1", "x1"]}
    cfg = write_config(tmp_path / "cfg.json", doc)
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
    data = sim_dir / "simple_rep000_seed7.csv"
    fit_dir = tmp_path / "fit"
    assert main(["fit", "--data", str(data), "--config", cfg, "--out", str(fit_dir)]) == 0
    doc_json = json.loads((fit_dir / "model.json").read_text())
    ds, _ = dataio.load_dataset(data)
    from policycate.linear import build_design, transform_outcomes

    td = transform_outcomes(ds)
    x = build_design(ds.x, ["1", "x1"])
    theta_ls = ols_solution(x, td.y_star)
    assert np.max(np.abs(np.asarray(doc_json["theta"]) - theta_ls)) < 1e-6


def test_fit_missing_column_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,w,x1\n1.0,1,0.5\n")
    cfg = write_config(tmp_path / "cfg.json", base_config())
    assert main(["fit", "--data", str(bad), "--config", cfg, "--out", str(tmp_path / "f")]) == 3


def test_evaluate_builtin_rows(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--model", "no_mail", "--config", cfg, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[0] == "no_mail"
    assert float(row[1]) == 0.0  # never treats
    assert float(row[3]) == 0.0  # constant scores rank nothing
    assert main(["evaluate", "--model", "oracle", "--config", cfg, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert float(row[2]) == 0.0  # oracle has zero mse
    assert float(row[1]) == pytest.approx(4.0 / 9.0, abs=0.05)


def test_evaluate_replications_summary(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "summary.csv"
    code = main(
        ["evaluate", "--model", "ols", "--config", cfg, "--out", str(out), "--replications", "3"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("model,profit_mean,profit_sd")
    assert lines[1].split(",")[0] == "ols"
    rounds = (tmp_path / "summary_rounds.csv").read_text().splitlines()
    assert len(rounds) == 4
    assert len({line.split(",", 1)[1] for line in rounds[1:]}) == 3


@pytest.mark.parametrize("model", ["ols", "oracle"])
def test_evaluate_replication_r_scores_on_eval_seed_plus_r(tmp_path, monkeypatch, model):
    eval_seeds = []
    generate = experiments._generate

    def recording_generate(dgp, n, seed):
        if n == 5000:  # the evaluation draw; training draws have dgp.n = 400 rows
            eval_seeds.append(seed)
        return generate(dgp, n, seed)

    monkeypatch.setattr(experiments, "_generate", recording_generate)
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "summary.csv"
    args = ["evaluate", "--model", model, "--config", cfg, "--out", str(out)]
    assert main(args + ["--replications", "3"]) == 0
    assert eval_seeds == [99, 100, 101]


def test_cv_command_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    sim_dir = tmp_path / "sim"
    main(["simulate", "--config", cfg, "--out", str(sim_dir), "--with-oracle"])
    data = str(sim_dir / "simple_rep000_seed7.csv")
    cv_dir = tmp_path / "cv"
    assert main(["cv", "--data", data, "--config", cfg, "--out", str(cv_dir),
                 "--eval-data", data]) == 0
    result = json.loads((cv_dir / "cv_result.json").read_text())
    assert {"sigma_mse", "sigma_profit", "fold_scores", "frontier"} <= set(result)
    frontier = (cv_dir / "frontier.csv").read_text().splitlines()
    assert frontier[0] == "sigma,mse,profit"
    assert len(frontier) == 3  # one row per grid sigma
    truth = (cv_dir / "truth_frontier.csv").read_text().splitlines()
    assert len(truth) == 3


def test_cv_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    sim_dir = tmp_path / "sim"
    main(["simulate", "--config", cfg, "--out", str(sim_dir)])
    data = str(sim_dir / "simple_rep000_seed7.csv")
    d1, d2 = tmp_path / "cv1", tmp_path / "cv2"
    main(["cv", "--data", data, "--config", cfg, "--out", str(d1)])
    main(["cv", "--data", data, "--config", cfg, "--out", str(d2)])
    assert (d1 / "cv_result.json").read_bytes() == (d2 / "cv_result.json").read_bytes()
    assert (d1 / "frontier.csv").read_bytes() == (d2 / "frontier.csv").read_bytes()


def test_curve_command_stepwise_jump(tmp_path):
    out = tmp_path / "curves"
    code = main(
        ["curve", "--tau0", "2", "--cost", "1", "--family", "normal",
         "--sigma", "1", "--sigma", "2", "--grid=-6:8:701", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "curve_sigma_1.csv").read_text().splitlines()[1:]
    rows = [tuple(float(v) for v in ln.split(",")) for ln in lines]
    taus = np.array([r[0] for r in rows])
    surr = np.array([r[1] for r in rows])
    step = np.array([r[2] for r in rows])
    assert np.all(step[taus < 1.0] == 0.0)
    assert np.all(step[taus >= 1.0] == 1.0)
    # curve peaks at tau0 = 2 within one grid step
    assert abs(taus[np.argmax(surr)] - 2.0) <= (taus[1] - taus[0]) + 1e-12
    # smaller sigma hugs the step more closely at tau = 4
    lines2 = (out / "curve_sigma_2.csv").read_text().splitlines()[1:]
    surr2 = np.array([float(ln.split(",")[1]) for ln in lines2])
    at4 = int(np.argmin(np.abs(taus - 4.0)))
    assert abs(surr[at4] - 1.0) < abs(surr2[at4] - 1.0)


def test_curve_requires_out(tmp_path):
    assert main(["curve", "--tau0", "2", "--cost", "1", "--family", "normal"]) == 2


# each subcommand's required arguments, and a value for each override flag
REQUIRED_ARGS = {
    "simulate": [],
    "fit": ["--data", "d.csv"],
    "evaluate": ["--model", "oracle"],
    "cv": ["--data", "d.csv"],
    "curve": ["--tau0", "2", "--cost", "1", "--family", "normal"],
}
FLAG_VALUES = {"--seed": "3", "--jobs": "2", "--replications": "2", "--config": "cfg.json"}
IGNORED_FLAGS = [
    ("fit", "--seed"),
    ("evaluate", "--seed"),
    ("cv", "--seed"),
    ("curve", "--seed"),
    ("simulate", "--jobs"),
    ("fit", "--jobs"),
    ("evaluate", "--jobs"),
    ("cv", "--jobs"),
    ("curve", "--jobs"),
    ("fit", "--replications"),
    ("cv", "--replications"),
    ("curve", "--replications"),
    ("curve", "--config"),
]


@pytest.mark.parametrize(
    "command, flag", IGNORED_FLAGS, ids=[f"{c}-{f.lstrip('-')}" for c, f in IGNORED_FLAGS]
)
def test_flag_the_command_ignores_is_rejected(command, flag, capsys):
    argv = [command] + REQUIRED_ARGS[command] + [flag, FLAG_VALUES[flag], "--out", "o"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {FLAG_VALUES[flag]}" in capsys.readouterr().err


def test_table2_failure_closes_runs_file(tmp_path, monkeypatch):
    opened = []

    def recording_open(*args, **kwargs):
        f = open(*args, **kwargs)
        opened.append(f)
        return f

    def failing_rep(args):
        raise RuntimeError("replication failed")

    monkeypatch.setattr(experiments, "open", recording_open, raising=False)
    monkeypatch.setattr(experiments, "_table2_fit_rep", failing_rep)
    cfg = {"table2": {"replications": 2, "eval_n": 2000}}
    with pytest.raises(RuntimeError, match="replication failed"):
        experiments.run_table2(cfg, str(tmp_path), jobs=1)
    assert [f.name for f in opened] == [str(tmp_path / "table2_runs.csv")]
    assert all(f.closed for f in opened)
