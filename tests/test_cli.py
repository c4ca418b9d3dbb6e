import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policycate import dataio, experiments, linear
from policycate.cli import main
from policycate.errors import ConfigError
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


# arbitrary JSON, and documents shaped like a config (each section an object
# whose keys are the schema's fields, required ones always present), so that
# every field check is reached, not only the root and section checks
_SCHEMA = experiments.CONFIG_SCHEMA
_FIELD_NAMES = sorted({f for sec in _SCHEMA.values() for f in sec} | set(_SCHEMA["model"]["mlp"]))
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from(["inf", "relu", "normal", "ols", "linear", "complex"])
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELD_NAMES) | st.text(max_size=3), children, max_size=4),
    max_leaves=10,
)


def _config_section(schema):
    fields = {f: _JSON_VALUES for f in schema if f != "__required__"}
    required = {f: fields.pop(f) for f in schema["__required__"]}
    return st.fixed_dictionaries(required, optional=fields)


_JSON_DOCS = _JSON_VALUES | st.fixed_dictionaries(
    {}, optional={name: _config_section(schema) for name, schema in _SCHEMA.items()}
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_JSON_DOCS)
def test_validate_config_accepts_or_raises_config_error(doc):
    try:
        experiments.validate_config(doc)
    except ConfigError:
        pass


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


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_fit_network_without_covariates_exits_2(tmp_path, capsys, activation):
    rng = np.random.default_rng(0)
    rows = [f"{y:.6f},{w},0.5" for y, w in zip(rng.normal(size=40), rng.integers(0, 2, 40))]
    data = tmp_path / "no_x.csv"
    data.write_text("y,w,e\n" + "\n".join(rows) + "\n")
    doc = base_config()
    doc["model"] = {"type": "mlp", "mlp": {"activation": activation, "max_epochs": 2}}
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "fit"
    assert main(["fit", "--data", str(data), "--config", cfg, "--out", str(out)]) == 2
    assert "need at least one covariate" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_evaluate_malformed_model_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    model = tmp_path / "model.json"
    model.write_text('{"kind": "linear"}')
    argv = ["evaluate", "--model", str(model), "--config", cfg, "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 3
    assert "model.json" in capsys.readouterr().err


def test_evaluate_linear_model_of_another_width_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", base_config())  # 1-covariate simple draw
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "linear", "family": "normal", "cost": 1.0, "sigma": 1.0,
        "theta": [0.1, 0.2, 0.3], "design": None,
    }))
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 2
    assert "x has 1 features, model expects 3" in capsys.readouterr().err
    assert not out.exists()


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


def test_evaluate_loads_a_saved_model_once(tmp_path, monkeypatch):
    loads = []
    load_model = dataio.load_model

    def counting_load_model(path):
        loads.append(path)
        return load_model(path)

    monkeypatch.setattr(dataio, "load_model", counting_load_model)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "linear", "family": "normal", "cost": 1.0, "sigma": 1.0,
        "theta": [0.1, 0.2], "design": ["1", "x1"],
    }))
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "summary.csv"
    args = ["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]
    assert main(args + ["--replications", "3"]) == 0
    assert loads == [str(model)]
    assert len((tmp_path / "summary_rounds.csv").read_text().splitlines()) == 4


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


def test_cv_honours_model_max_iters(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    sim_dir = tmp_path / "sim"
    main(["simulate", "--config", cfg, "--out", str(sim_dir)])
    data = str(sim_dir / "simple_rep000_seed7.csv")
    assert main(["cv", "--data", data, "--config", cfg, "--out", str(tmp_path / "default")]) == 0
    doc = base_config()
    doc["model"]["max_iters"] = 1
    capped_cfg = write_config(tmp_path / "capped.json", doc)
    caps = []
    real_fit = linear.fit_linear

    def spy(td, fit_cfg):
        caps.append(fit_cfg.max_iters)
        return real_fit(td, fit_cfg)

    monkeypatch.setattr(linear, "fit_linear", spy)
    capped_out = tmp_path / "capped"
    assert main(["cv", "--data", data, "--config", capped_cfg, "--out", str(capped_out)]) == 0
    assert caps == [1] * 4  # two sigmas, two folds
    default = (tmp_path / "default" / "cv_result.json").read_bytes()
    assert (capped_out / "cv_result.json").read_bytes() != default


def test_repeated_sigma_is_rejected_by_cv_and_table2(tmp_path, capsys):
    doc = base_config()
    doc["selection"]["grid"] = [0.5, 0.5]
    doc["table2"] = {
        "replications": 1,
        "train_n": 600,
        "eval_n": 2000,
        "linear_grid": [0.5, 0.5],
        "mlp": {"max_epochs": 2},
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    sim_dir = tmp_path / "sim"
    main(["simulate", "--config", cfg, "--out", str(sim_dir)])
    data = str(sim_dir / "simple_rep000_seed7.csv")
    del doc["dgp"]  # table2 draws from the complex generator
    table2_cfg = write_config(tmp_path / "table2.json", doc)
    for argv in (
        ["cv", "--data", data, "--config", cfg, "--out", str(tmp_path / "cv")],
        ["table2", "--config", table2_cfg, "--out", str(tmp_path / "t2")],
    ):
        assert main(argv) == 2
        assert "strictly ascending" in capsys.readouterr().err
    assert not (tmp_path / "cv" / "cv_result.json").exists()
    assert not (tmp_path / "t2" / "table2.csv").exists()


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


def test_curve_uniform_writes_its_file_once(tmp_path, monkeypatch, capsys):
    writes = []
    write = dataio.write_curve_csv
    monkeypatch.setattr(dataio, "write_curve_csv", lambda *a: writes.append(a) or write(*a))
    out = tmp_path / "curve"
    argv = ["curve", "--tau0", "2", "--cost", "1", "--family", "uniform", "--sigma", "1",
            "--sigma", "2", "--grid=-3:5:17", "--out", str(out)]
    assert main(argv) == 0
    path = out / "curve_sigma_uniform.csv"
    assert len(writes) == 1
    assert capsys.readouterr().out.split() == [str(path)]
    assert [p.name for p in out.iterdir()] == [path.name]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_OUTPUT_SHA256["curve/curve_sigma_uniform.csv"]


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


NON_POSITIVE_COUNTS = [
    (command, flag, value)
    for command, flag in [
        ("simulate", "--replications"),
        ("evaluate", "--replications"),
        ("table2", "--replications"),
        ("table2", "--jobs"),
    ]
    for value in ("0", "-1")
]


@pytest.mark.parametrize(
    "command, flag, value",
    NON_POSITIVE_COUNTS,
    ids=[f"{c}-{f.lstrip('-')}={v}" for c, f, v in NON_POSITIVE_COUNTS],
)
def test_non_positive_count_is_rejected(tmp_path, capsys, command, flag, value):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "out"
    required = REQUIRED_ARGS.get(command, [])
    argv = [command, *required, "--config", cfg, "--out", str(out), f"{flag}={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"expected a positive integer, got '{value}'" in capsys.readouterr().err
    assert not out.exists()


def test_non_numeric_sigma_is_rejected(tmp_path, capsys):
    argv = ["curve", *REQUIRED_ARGS["curve"], "--sigma", "abc", "--out", str(tmp_path / "c")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid float value: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_table2_failure_leaves_no_outputs(tmp_path, monkeypatch):
    def failing_rep(args):
        raise RuntimeError("replication failed")

    monkeypatch.setattr(experiments, "_table2_fit_rep", failing_rep)
    cfg = {"table2": {"replications": 2, "eval_n": 2000}}
    with pytest.raises(RuntimeError, match="replication failed"):
        experiments.run_table2(cfg, str(tmp_path), jobs=1)
    assert not (tmp_path / "table2_runs.csv").exists()
    assert not (tmp_path / "table2_runs.csv.tmp").exists()
    assert list(tmp_path.iterdir()) == []


# a small table2 run whose outputs were recorded before the scoring, summary
# and RNG helpers were consolidated; those refactors must keep them unchanged
GOLDEN_TABLE2_CONFIG = {
    "table2": {
        "replications": 2,
        "train_n": 600,
        "eval_n": 5000,
        "linear_grid": [0.5, 1, "inf"],
        "mlp_grid": [1, "inf"],
        "mlp": {"max_epochs": 5, "early_stop_patience": 3},
    }
}
GOLDEN_TABLE2_CSV = """\
model,profit_mean,profit_sd,mse_mean,mse_sd,qini_mean,qini_sd
no_mail,0,,,,0,
mail,0.00286169391725,,,,0,
ols,0.0422482683007,0.0603730854965,1.57666444351,0.0147408522045,0.0190009391849,0.035288881564
linear_sigma_mse,0.0442664187785,0.05751898972,1.57467978234,0.0119341174655,0.019586584837,0.0344606535402
linear_sigma_profit,0.147192661333,0.203078677864,7.7645175379,8.74181838533,0.0460143627139,0.0718351754371
mlp_sigma_mse,0.0305945806347,0.0288117113736,1.80339342963,0.324510594778,0.0166889852884,0.0258403863705
mlp_sigma_profit,0.0436865660779,0.0473265747459,1.81631096015,0.306242447928,0.0179534574801,0.0276286200933
policy_mlp,0.0219113185262,0.0314517356712,,,0.0170317164841,0.0228554155336
oracle,0.518219954792,,0,,0.34405925713,
"""
GOLDEN_TABLE2_RUNS_CSV = """\
rep,model,sigma,profit,mse,qini
0,ols,,0.0849384864565,1.56624108695,0.0439539466393
0,linear_sigma_mse,inf,0.0849384864565,1.56624108695,0.0439539466393
0,linear_sigma_profit,0.5,0.290790971565,13.9459165981,0.0968095023932
0,mlp_sigma_mse,1,0.0509675371246,1.57392978749,0.0349608977194
0,mlp_sigma_profit,inf,0.0771515080111,1.59976484853,0.0374898421029
0,policy_mlp,,0.0441510540994,,0.0331929357947
1,ols,,-0.00044194985498,1.58708780006,-0.00595206826948
1,linear_sigma_mse,0.5,0.00359435110047,1.58311847773,-0.0047807769654
1,linear_sigma_profit,0.5,0.00359435110047,1.58311847773,-0.0047807769654
1,mlp_sigma_mse,inf,0.0102216241448,2.03285707176,-0.00158292714272
1,mlp_sigma_profit,inf,0.0102216241448,2.03285707176,-0.00158292714272
1,policy_mlp,,-0.000328417046998,,0.000870497173468
,oracle,,0.518219954792,0,0.34405925713
,mail,,0.00286169391725,,0
,no_mail,,0,,0
"""
GOLDEN_TABLE2_SIGMAS = [
    {"rep": 0, "linear": ["inf", 0.5], "mlp": [1.0, "inf"]},
    {"rep": 1, "linear": [0.5, 0.5], "mlp": ["inf", "inf"]},
]


def assert_csv_matches(got_text, want_text):
    got = [line.split(",") for line in got_text.splitlines()]
    want = [line.split(",") for line in want_text.splitlines()]
    assert [len(row) for row in got] == [len(row) for row in want]
    assert got[0] == want[0]
    for got_row, want_row in zip(got[1:], want[1:]):
        for g, w in zip(got_row, want_row):
            try:
                w_num = float(w)
            except ValueError:
                assert g == w, (got_row, want_row)
            else:
                assert float(g) == pytest.approx(w_num, rel=1e-9, abs=0.0), (got_row, want_row)


def test_table2_golden_outputs_and_worker_count_invariance(tmp_path):
    outputs = ("table2.csv", "table2_runs.csv", "table2_selected_sigmas.json")
    written = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        experiments.run_table2(json.loads(json.dumps(GOLDEN_TABLE2_CONFIG)), str(out), jobs=jobs)
        written[jobs] = {name: (out / name).read_bytes() for name in outputs}
    assert written[1] == written[2]
    files = {name: data.decode() for name, data in written[1].items()}
    assert_csv_matches(files["table2.csv"], GOLDEN_TABLE2_CSV)
    assert_csv_matches(files["table2_runs.csv"], GOLDEN_TABLE2_RUNS_CSV)
    assert json.loads(files["table2_selected_sigmas.json"]) == GOLDEN_TABLE2_SIGMAS


def test_evaluate_ols_reproduces_the_table2_ols_row(tmp_path):
    # `evaluate --model ols` and table2 fit OLS on the same training draw and
    # score it through the same path, so rep 0's row is reproduced bit for bit
    doc = {
        "dgp": {"name": "complex", "n": 600, "seed": 1},
        "evaluation": {"n": 5000, "seed": 990000},
    }
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "ols.csv"
    assert main(["evaluate", "--model", "ols", "--config", cfg, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    golden = GOLDEN_TABLE2_RUNS_CSV.splitlines()[1].split(",")
    assert golden[:2] == ["0", "ols"]
    assert row[:4] == ["ols"] + golden[3:6]


# SHA-256 of every file written by a few fixed-seed commands whose outputs
# involve no matrix products, recorded before the CSV/JSON writers were
# merged into dataio.write_csv/write_json; the writers must keep every byte
GOLDEN_OUTPUT_SHA256 = {
    "curve/curve_sigma_0.5.csv": "c88321c44dfc8edd8f07b950e36e0246eb0d41fd548e3f20316138a85d39e2b8",
    "curve/curve_sigma_inf.csv": "c6301956c1febcc667dcf32d4da1eb1443597d71dcf3c2eb7f59b9e253eba78c",
    "curve/curve_sigma_uniform.csv": "c6301956c1febcc667dcf32d4da1eb1443597d71dcf3c2eb7f59b9e253eba78c",
    "mail.csv": "123103a73c37ed0fb0061fc812a6adfe4e7819a82df77c463c95bf2e52df9ee9",
    "mail_rounds.csv": "abe887e70ffdebf0e00b6fb528719e63681257df8e940f2fc85b81cda9b78a8e",
    "oracle.csv": "27a22a96c7e53c2ec81367a4ff70067a934434a4a6a5d0be7eb7354ae29eb840",
    "oracle_rounds.csv": "b71ba39e7179b02820c05ff7781b6a9af126a8145d9ff72181806636822ba3e3",
    "sim/simple_rep000_seed7.csv": "42cc14588c73ee7b553cb398a3f0d84308242554602431f9befc9ea9543d82df",
}


def test_output_files_are_byte_identical_to_recorded_hashes(tmp_path):
    doc = base_config()
    doc["dgp"]["n"] = 60
    doc["evaluation"]["n"] = 300
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    commands = [
        ["simulate", "--config", cfg, "--out", str(out / "sim"), "--with-oracle"],
        ["curve", "--tau0", "2", "--cost", "1", "--family", "normal", "--sigma", "0.5",
         "--sigma", "inf", "--grid=-3:5:17", "--out", str(out / "curve")],
        ["curve", "--tau0", "2", "--cost", "1", "--family", "uniform", "--grid=-3:5:17",
         "--out", str(out / "curve")],
        ["evaluate", "--model", "mail", "--config", cfg, "--out", str(out / "mail.csv"),
         "--replications", "2"],
        ["evaluate", "--model", "oracle", "--config", cfg, "--out", str(out / "oracle.csv"),
         "--replications", "2"],
    ]
    for argv in commands:
        assert main(argv) == 0
    got = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert got == GOLDEN_OUTPUT_SHA256
