import argparse
import functools
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policycate import cli, dataio, errors, experiments, linear
from policycate.cli import main
from policycate.dgp import ComplexDgp, SimpleDgp, generate
from policycate.errors import ConfigError
from policycate.evaluation import evaluate_model
from policycate.linear import ols_solution
from policycate.mlp import (
    DirectPolicyConfig,
    MlpConfig,
    predict_mlp,
    train_direct_policy,
    train_surrogate_mlp,
)
from policycate.linear import LinearFitConfig
from policycate.selection import SigmaGrid, kfold_cv, linear_fit_function, spec_for_sigma


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


def test_variance_convention_reads_noise_sd_as_a_variance(tmp_path):
    files = []
    for name, noise in (("var", {"noise_sd": 0.25, "variance_convention": True}),
                        ("sd", {"noise_sd": 0.5})):
        doc = base_config()
        doc["dgp"].update(n=50, **noise)
        cfg = write_config(tmp_path / f"{name}.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        files.append((tmp_path / name / "simple_rep000_seed7.csv").read_bytes())
    assert files[0] == files[1]


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


# JSON's NaN and Infinity parse as floats; a config number must be finite
NON_FINITE_NUMBERS = [
    ("dgp", "cost", math.nan, "dgp.cost: expected a number"),
    ("dgp", "noise_sd", math.inf, "dgp.noise_sd: expected a nonnegative number"),
    ("model", "sigma", math.inf, 'model.sigma: expected a positive number or "inf"'),
    ("mlp", "learning_rate", math.inf, "model.mlp.learning_rate: expected a positive number"),
]


@pytest.mark.parametrize(
    "section, field, value, message",
    NON_FINITE_NUMBERS,
    ids=[f"{s}.{f}={v}" for s, f, v, _ in NON_FINITE_NUMBERS],
)
def test_non_finite_config_number_exits_2(tmp_path, capsys, section, field, value, message):
    doc = base_config()
    if section == "mlp":
        doc["model"] = {"type": "mlp", "mlp": {field: value}}
    else:
        doc[section][field] = value
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main(["evaluate", "--model", "mail", "--config", cfg, "--out", str(out)]) == 2
    if section != "dgp":  # evaluate does not read the model section
        assert main(["fit", "--data", "d.csv", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# Philox keys lie in [0, 2^128); every seed a command reads is one.  The
# third replication of a simulate run from 2^128 - 2 is out of range, and
# the first two draws must not be written before that is found.
SEEDS_OUT_OF_RANGE = [
    ("simulate", {"dgp": {"seed": -1}}, []),
    ("simulate", {}, ["--seed", "-1"]),
    ("simulate", {"dgp": {"seed": 2**128 - 2}}, ["--replications", "3"]),
    ("evaluate", {"evaluation": {"seed": 2**128}}, ["--model", "mail"]),
    ("table2", {"table2": {"train_seed": 2**128}}, []),
    ("table2", {}, ["--seed", "-1"]),
]


@pytest.mark.parametrize(
    "command, overrides, args",
    SEEDS_OUT_OF_RANGE,
    ids=[
        "dgp.seed",
        "simulate--seed",
        "simulate-last-replication",
        "evaluation.seed",
        "table2.train_seed",
        "table2--seed",
    ],
)
def test_seed_outside_the_philox_key_range_exits_2(tmp_path, capsys, command, overrides, args):
    doc = base_config()
    for section, fields in overrides.items():
        doc.setdefault(section, {}).update(fields)
    if command == "table2":
        del doc["dgp"]
        doc.setdefault("table2", {}).update(replications=1, train_n=300, eval_n=2000)
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *args]) == 2
    assert "seed must lie in [0, 2^128)" in capsys.readouterr().err
    assert not out.exists()


# each of these was rejected only after the data file was read (cv, fit) or
# after data was drawn (table2, evaluate), and the config fields went unnamed;
# now the config read, or the seed check before the first draw, rejects it
CV, FIT = ["cv", "--data", "missing.csv"], ["fit", "--data", "missing.csv"]
READ_TIME_FAULTS = {
    "grid-descending": (CV, {"selection": {"grid": [1, 0.5]}},
                        "selection.grid: sigma grid must be strictly ascending"),
    "one-fold": (CV, {"selection": {"folds": 1}}, "selection.folds: expected an integer >= 2"),
    "dropout-one": (FIT, {"model": {"type": "mlp", "mlp": {"dropout_rate": 1.0}}},
                    "model.mlp.dropout_rate: expected a number in [0, 1)"),
    "validation-fraction": (FIT, {"model": {"type": "mlp", "mlp": {"validation_fraction": 0.6}}},
                            "model.mlp.validation_fraction: expected a number in (0, 0.5]"),
    "network-seed": (FIT, {"model": {"type": "mlp", "mlp": {"seed": -1}}},
                     "model.mlp.seed: seed must lie in [0, 2^128), got -1"),
    "table2-one-fold": (["table2"], {"table2": {"mlp_folds": 1}},
                        "table2.mlp_folds: expected an integer >= 2"),
    "table2-network-seed": (["table2"], {"table2": {"mlp": {"seed": -1}}},
                            "table2.mlp.seed: seed must lie in [0, 2^128), got -1"),
    # a sigma below the spec's 1e-8 floor failed at the first spec, unnamed
    "sigma-below-floor": (FIT, {"model": {"type": "linear", "sigma": 1e-9}},
                          "model.sigma: scale must be >= 1e-08"),
    "grid-below-floor": (CV, {"selection": {"grid": [1e-9, 1]}},
                         "selection.grid[0]: scale must be >= 1e-08"),
    "table2-linear-grid-below-floor": (["table2"], {"table2": {"linear_grid": [1e-9, "inf"]}},
                                       "table2.linear_grid[0]: scale must be >= 1e-08"),
    "table2-mlp-grid-below-floor": (["table2"], {"table2": {"mlp_grid": [0.5, 1e-9]}},
                                    "table2.mlp_grid[1]: scale must be >= 1e-08"),
    # cv read the whole data file before it rejected a model it cannot tune
    "cv-policy": (CV, {"model": {"type": "policy"}},
                  "model.type: cv supports linear or mlp models"),
    "cv-uniform": (CV, {"model": {"type": "linear", "family": "uniform"}},
                   "model.family: cv tunes sigma; use normal or logistic"),
    # a one-row oracle sample has no qini; it failed after the draw, unnamed
    "evaluation-n-one": (["evaluate", "--model", "mail"], {"evaluation": {"n": 1}},
                         "evaluation.n: expected an integer >= 2"),
    "table2-eval-n-one": (["table2"], {"table2": {"eval_n": 1}},
                          "table2.eval_n: expected an integer >= 2"),
    # a JSON integer too large for a float escaped as an OverflowError traceback
    "integer-beyond-float": (FIT, {"dgp": {"name": "simple", "n": 40, "seed": 1, "cost": 10**400}},
                             "dgp.cost: expected a number"),
    # the last replication's seed is out of range; the first ones were drawn
    "table2-last-replication-seed": (["table2", "--replications", "3"],
                                     {"table2": {"train_seed": 2**128 - 2}},
                                     f"seed must lie in [0, 2^128), got {2**128}"),
    "evaluate-last-replication-seed": (["evaluate", "--model", "mail", "--replications", "2"],
                                       {"evaluation": {"n": 50, "seed": 2**128 - 1}},
                                       f"seed must lie in [0, 2^128), got {2**128}"),
    "ols-last-training-seed": (["evaluate", "--model", "ols", "--replications", "2"],
                               {"dgp": {"name": "simple", "n": 50, "seed": 2**128 - 1}},
                               f"seed must lie in [0, 2^128), got {2**128}"),
}


@pytest.mark.parametrize("argv, overrides, message", READ_TIME_FAULTS.values(),
                         ids=READ_TIME_FAULTS.keys())
def test_config_fault_exits_2_before_any_data_is_read_or_drawn(
    tmp_path, monkeypatch, capsys, argv, overrides, message
):
    def no_draw(*args):
        raise AssertionError("a rejected config drew data")

    monkeypatch.setattr(experiments, "generate", no_draw)
    monkeypatch.chdir(tmp_path)  # where missing.csv is missing
    doc = {**base_config(), **overrides}
    if argv[0] == "table2":
        del doc["dgp"]
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main([*argv, "--config", cfg, "--out", "out"]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# (config section, class, field, value): the class rejects the value with the
# text the config read gives, less the section's dotted prefix; each of these
# was accepted from Python, and hidden_sizes=(1.5,) was read as one unit
CONSTRUCTOR_FAULTS = {
    "batch-size": ("model.mlp", MlpConfig, "batch_size", 1.5),
    "learning-rate": ("model.mlp", MlpConfig, "learning_rate", math.inf),
    "hidden-sizes": ("model.mlp", MlpConfig, "hidden_sizes", (1.5,)),
    "grad-tol": ("model", functools.partial(LinearFitConfig, spec_for_sigma("normal", 1.0, 1.0)),
                 "grad_tol", math.inf),
    "noise-sd": ("dgp", SimpleDgp, "noise_sd", math.nan),
    "temperature": ("model", DirectPolicyConfig, "temperature", math.inf),
}


@pytest.mark.parametrize("section, make, field, value", CONSTRUCTOR_FAULTS.values(),
                         ids=CONSTRUCTOR_FAULTS.keys())
def test_constructors_apply_the_config_rules_with_its_messages(section, make, field, value):
    with pytest.raises(errors.ValidationError) as raised:
        make(**{field: value})
    message = str(raised.value)
    assert message.startswith(f"{field}: expected ")
    doc = {"model": {"type": "mlp"}, "dgp": {"name": "simple", "n": 10, "seed": 1}}
    block = doc
    for key in section.split("."):
        block = block.setdefault(key, {})
    block[field] = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ConfigError) as raised:
        experiments.validate_config(doc)
    assert str(raised.value) == f"{section}.{message}"


def test_folds_below_two_use_the_config_rule():
    td = linear.transform_outcomes(generate(SimpleDgp(), 40, seed=1).dataset)
    with pytest.raises(errors.ValidationError, match="^folds: expected an integer >= 2$"):
        kfold_cv(td, SigmaGrid((1.0,)), 1, "normal", linear_fit_function(), seed=0)


def test_constructors_keep_accepting_what_python_callers_pass():
    net = MlpConfig(hidden_sizes=(3, np.int64(2)), seed=np.int64(5), batch_size=np.int32(8),
                    learning_rate=np.float64(0.01), grad_clip_norm=None)
    assert net.hidden_sizes == (3, 2) and all(type(h) is int for h in net.hidden_sizes)
    fit_cfg = LinearFitConfig(spec_for_sigma("normal", 1.0, 1.0), max_iters=np.int64(3),
                              grad_tol=np.float32(1e-6))
    assert fit_cfg.max_iters == 3
    numpy_draw = generate(SimpleDgp(noise_sd=np.float64(0.1)), np.int64(20), np.uint64(4))
    assert np.array_equal(numpy_draw.dataset.y, generate(SimpleDgp(), 20, 4).dataset.y)


def test_null_grad_clip_norm_means_no_clipping_as_none_does(tmp_path):
    doc = base_config()
    cfg = write_config(tmp_path / "cfg.json", doc)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 0
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")
    written = []
    for name, extra in (("omitted", {}), ("null", {"grad_clip_norm": None})):
        net = {"hidden_sizes": [3], "max_epochs": 3, "seed": 1, **extra}
        cfg = write_config(tmp_path / f"{name}.json", dict(doc, model={"type": "mlp", "mlp": net}))
        assert main(["fit", "--data", data, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / "model.json").read_bytes())
    assert written[0] == written[1]


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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.binary(max_size=40) | _JSON_DOCS.map(lambda doc: json.dumps(doc).encode()))
def test_load_config_returns_a_checked_document_or_raises_config_error(data):
    # any file, UTF-8 or not, JSON or not: reading it and finding its output
    # location either succeed or raise ConfigError, never another exception
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "wb") as f:
            f.write(data)
        try:
            cfg = cli._load_config(path)
        except ConfigError:
            return
    assert isinstance(cfg, dict)
    try:
        out = cli._out_dir(argparse.Namespace(out=None), cfg)
    except ConfigError:
        return
    assert isinstance(out, str)


# each of these was read before it was checked, and crashed with a traceback
MALFORMED_CONFIGS = {
    "not-utf8": (b'{"dgp": {"name": "simple", "n": 10, "seed": 1}}\xff',
                 ["simulate", "--out", "out"], "cfg.json: not UTF-8 text"),
    "output-not-an-object": (b'{"dgp": {"name": "simple", "n": 10, "seed": 1}, "output": 5}',
                             ["simulate"], "output: expected an object"),
    "table2-not-an-object": (b'{"table2": [1]}', ["table2", "--out", "out", "--seed", "4"],
                             "table2: expected an object"),
    "root-not-an-object": (b"[1, 2]", ["table2", "--out", "out", "--replications", "1"],
                           "cfg.json: a config holds a JSON object"),
    "nested-too-deeply": (b"[" * 100_000 + b"]" * 100_000, ["simulate", "--out", "out"],
                          "cfg.json: JSON nested too deeply"),
}


@pytest.mark.parametrize("data, argv, message", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_file_exits_2(tmp_path, monkeypatch, capsys, data, argv, message):
    (tmp_path / "cfg.json").write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--config", "cfg.json"]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def _concrete_errors(cls=errors.PolicyCateError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _concrete_errors(sub)


_EXIT_LABELS = {2: "config error", 3: "data error", 4: "numerical failure"}


@pytest.mark.parametrize("error", list(_concrete_errors()), ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_label(monkeypatch, capsys, error):
    # an error class that main does not map would escape as a traceback
    def failing_run(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_run", failing_run)
    code = main(["table2"])
    assert code in _EXIT_LABELS
    assert capsys.readouterr().err == f"{_EXIT_LABELS[code]}: boom\n"


# each class's exit code and the built-in exception it also is, if any
ERROR_EXITS = {
    "ConfigError": (2, None),
    "ValidationError": (2, ValueError),
    "DimensionError": (2, ValueError),
    "DataError": (3, None),
    "OverlapError": (3, ValueError),
    "DomainError": (4, None),
    "SearchError": (4, None),
    "SingularDesignError": (4, None),
    "SingularHessianError": (4, None),
    "NonFiniteLossError": (4, FloatingPointError),
}


@pytest.mark.parametrize("name", ERROR_EXITS)
def test_each_error_class_keeps_its_exit_code_and_builtin_base(monkeypatch, name):
    error = getattr(errors, name)
    code, builtin = ERROR_EXITS[name]

    def failing_run(args):
        raise error("boom")

    monkeypatch.setattr(cli, "_run", failing_run)
    assert main(["table2"]) == code
    assert builtin is None or issubclass(error, builtin)


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


def test_fit_on_a_file_that_is_not_utf8_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"y,w,e,x1\xff\n1.0,1,0.5,0.2\n")
    cfg = write_config(tmp_path / "cfg.json", base_config())
    assert main(["fit", "--data", str(bad), "--config", cfg, "--out", str(tmp_path / "f")]) == 3
    assert "bad.csv: not UTF-8 text" in capsys.readouterr().err


def test_fit_on_a_nan_propensity_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("y,w,e,x1\n1.0,1,0.5,0.2\n0.5,0,nan,0.4\n")
    cfg = write_config(tmp_path / "cfg.json", base_config())
    assert main(["fit", "--data", str(bad), "--config", cfg, "--out", str(tmp_path / "f")]) == 3
    assert "bad.csv: propensities must lie in" in capsys.readouterr().err


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


@pytest.fixture(scope="module")
def saved_network(tmp_path_factory):
    """A 3-epoch (4,) surrogate network as saved, and a config to score it."""
    td = linear.transform_outcomes(generate(ComplexDgp(), 400, seed=3).dataset)
    net = MlpConfig(hidden_sizes=(4,), max_epochs=3, seed=3)
    model = train_surrogate_mlp(td, spec_for_sigma("normal", 1.0, 1.0), net)
    path = tmp_path_factory.mktemp("net") / "model.json"
    dataio.save_mlp_model(path, model)
    doc = {"dgp": {"name": "complex", "n": 400, "seed": 3}, "evaluation": {"n": 500, "seed": 5}}
    return json.loads(path.read_text()), doc


def _edit(doc, key, edit):
    return {**doc, key: edit(doc[key])}


# each file scored silently with other numbers or crashed; every one must
# exit 3 and name the file, as any other malformed model file does
MALFORMED_NETWORKS = {
    "activation-sigmoid": lambda d: {**d, "activation": "sigmoid"},
    "head-foo": lambda d: {**d, "head": "foo"},
    "shapes-do-not-chain": lambda d: _edit(d, "weight_shapes", lambda s: [s[0][::-1], s[1]]),
    "short-bias": lambda d: _edit(d, "biases", lambda b: [b[0][:-1], b[1]]),
    "short-x-mean": lambda d: _edit(d, "x_mean", lambda m: m[:-1]),
    "two-outputs": lambda d: {
        **d,
        "weights": [d["weights"][0], d["weights"][1] * 2],
        "weight_shapes": [d["weight_shapes"][0], [4, 2]],
        "biases": [d["biases"][0], d["biases"][1] * 2],
    },
    "non-finite-weight": lambda d: _edit(d, "weights", lambda w: [[math.inf, *w[0][1:]], w[1]]),
    "non-finite-x-mean": lambda d: _edit(d, "x_mean", lambda m: [math.nan, *m[1:]]),
    "zero-x-sd": lambda d: _edit(d, "x_sd", lambda m: [0.0, *m[1:]]),
}


@pytest.mark.parametrize("edit", MALFORMED_NETWORKS.values(), ids=MALFORMED_NETWORKS.keys())
def test_evaluate_malformed_network_file_exits_3(tmp_path, capsys, saved_network, edit):
    saved, doc = saved_network
    model = tmp_path / "bad_net.json"
    model.write_text(json.dumps(edit(saved)))
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert "bad_net.json: malformed mlp model" in capsys.readouterr().err
    assert not out.exists()


# a finite model file whose scores overflow exits 3 naming the file, and
# numpy's overflow warning, raised as an error here, never fires: the scoring
# walk leaves the finiteness check to the evaluation
def huge_network(saved):
    return {
        **saved,
        "weights": [[1e300] * len(w) for w in saved["weights"]],
        "biases": [[1e300] * len(b) for b in saved["biases"]],
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_network_file_that_overflows_exits_3(tmp_path, capsys, saved_network):
    # every weight and bias finite, yet the relu network's scores overflow;
    # this exited 2 as a config error without naming the file
    saved, doc = saved_network
    model = tmp_path / "huge_net.json"
    model.write_text(json.dumps(huge_network(saved)))
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {model}: non-finite predictions\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_network_file_that_overflows_exits_3_when_scoring_fans_out(
    tmp_path, monkeypatch, capsys, saved_network, pool_sizes, workers
):
    saved, doc = saved_network
    model = tmp_path / "huge_net.json"
    model.write_text(json.dumps(huge_network(saved)))
    workers(2)
    monkeypatch.setattr(linear, "FORK_MIN_MADDS", 0)  # the small network fans out too
    cfg = write_config(tmp_path / "cfg.json", {**doc, "evaluation": {"n": 40_000, "seed": 5}})
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {model}: non-finite predictions\n"
    assert not out.exists()
    assert pool_sizes == [2]  # the scoring's own pool


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_evaluate_network_file_whose_money_scale_overflows_exits_3(
    tmp_path, capsys, saved_network
):
    # the standardized scores are finite; sigma 2 takes them past the largest float
    saved, doc = saved_network
    model = tmp_path / "big_net.json"
    model.write_text(json.dumps({
        **saved,
        "sigma": 2.0,
        "weights": [[0.0] * len(w) for w in saved["weights"]],
        "biases": [[0.0] * len(b) for b in saved["biases"][:-1]] + [[1.5e308]],
    }))
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {model}: non-finite predictions\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def saved_linear(tmp_path_factory):
    """A linear fit on ``["1", "x1"]`` as saved, and a config to score it."""
    td = linear.transform_outcomes(generate(SimpleDgp(), 300, seed=7).dataset)
    design = ["1", "x1"]
    fit = linear.fit_linear(
        td.with_design(linear.build_design(td.x, design)),
        linear.LinearFitConfig(spec=spec_for_sigma("normal", 1.0, 1.0)),
    )
    path = tmp_path_factory.mktemp("linear") / "model.json"
    dataio.save_linear_fit(path, fit, design=design)
    doc = {"dgp": {"name": "simple", "n": 300, "seed": 7}, "evaluation": {"n": 500, "seed": 5}}
    return json.loads(path.read_text()), doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fans_out", [False, True], ids=["inline", "fanned-out"])
def test_evaluate_linear_file_that_overflows_exits_3(
    tmp_path, monkeypatch, capsys, saved_linear, pool_sizes, workers, fans_out
):
    # theta is finite, yet x' theta overflows on the draw's rows
    saved, doc = saved_linear
    model = tmp_path / "huge_linear.json"
    model.write_text(json.dumps({**saved, "theta": [1e308] * len(saved["theta"])}))
    if fans_out:
        workers(2)
        monkeypatch.setattr(linear, "FORK_MIN_MADDS", 0)  # linear scoring fans out too
    cfg = write_config(tmp_path / "cfg.json", {**doc, "evaluation": {"n": 40_000, "seed": 5}})
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {model}: non-finite predictions\n"
    assert not out.exists()
    assert pool_sizes == ([2] if fans_out else [])


# a design the term grammar rejects, whatever the rows; each exited 2 without
# naming the file, crashed, or (the object, the empty power) scored as if it
# were another design
MALFORMED_DESIGNS = {
    "unknown-term": ["1", "z9"],
    "column-zero": ["1", "x0"],
    "empty-power": ["1", "x1^"],
    "non-string-term": ["1", 5],
    "string-not-list": "x1",
    "object-not-list": {"1": 0, "x1": 1},
    "zero-power": ["1", "x1^0"],
    "superscript-power": ["1", "x1^\u00b2"],
    "empty": [],
}


@pytest.mark.parametrize("design", MALFORMED_DESIGNS.values(), ids=MALFORMED_DESIGNS.keys())
def test_evaluate_linear_model_with_malformed_design_exits_3(
    tmp_path, capsys, saved_linear, design
):
    saved, doc = saved_linear
    model = tmp_path / "bad_linear.json"
    model.write_text(json.dumps({**saved, "design": design}))
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert "bad_linear.json: malformed linear model" in capsys.readouterr().err
    assert not out.exists()


# a design the grammar rejects is a config error, whatever the model type;
# before, a network ignored it and a linear fit read it after the data file
# (the over-long column number escaped as a traceback)
CONFIG_DESIGNS = {
    "unknown-term": ["1", "z9"],
    "empty-power": ["1", "x1^"],
    "too-many-digits": ["1", "x" + "9" * 5000],
}


@pytest.mark.parametrize("model_type", ["linear", "mlp"])
@pytest.mark.parametrize("design", CONFIG_DESIGNS.values(), ids=CONFIG_DESIGNS.keys())
def test_malformed_config_design_exits_2_before_the_data_is_read(
    tmp_path, capsys, model_type, design
):
    doc = base_config(model={"type": model_type, "design": design})
    cfg = write_config(tmp_path / "cfg.json", doc)
    out = tmp_path / "out"
    for command in ("fit", "cv"):
        argv = [command, "--data", str(tmp_path / "missing.csv"), "--config", cfg]
        assert main([*argv, "--out", str(out)]) == 2
        assert "config error: model.design: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a warning would reach stderr ahead of the error line
def test_design_with_non_finite_rows_exits_2_before_any_fit(tmp_path, monkeypatch, capsys):
    # x1^2000 overflows on the simple draw's covariates; the solver's SVD then
    # failed and the command exited 1 with a traceback
    doc = base_config(model={"type": "linear", "design": ["1", "x1^2000"]})
    cfg = write_config(tmp_path / "cfg.json", doc)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")])
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")

    def no_fit(*args):
        raise AssertionError("a design of non-finite rows was fitted")

    monkeypatch.setattr(linear, "fit_linear", no_fit)
    monkeypatch.setattr(experiments, "fit_linear", no_fit)
    capsys.readouterr()
    for command in ("fit", "cv"):
        out = tmp_path / command
        assert main([command, "--data", data, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: non-finite design rows\n"
        assert not out.exists()


def test_evaluate_linear_model_with_non_finite_theta_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "kind": "linear", "family": "normal", "cost": 1.0, "sigma": 1.0,
        "theta": [math.nan, math.nan, math.nan], "design": ["1", "x1", "x1^2"],
    }))
    out = tmp_path / "r.csv"
    assert main(["evaluate", "--model", str(model), "--config", cfg, "--out", str(out)]) == 3
    assert "model.json: malformed linear model" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_model_that_is_not_utf8_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    model = tmp_path / "model.json"
    model.write_bytes(b'{"kind": "linear"\xff}')
    argv = ["evaluate", "--model", str(model), "--config", cfg, "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 3
    assert "model.json: not UTF-8 text" in capsys.readouterr().err


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
    generate = experiments.generate

    def recording_generate(dgp, n, seed):
        if n == 5000:  # the evaluation draw; training draws have dgp.n = 400 rows
            eval_seeds.append(seed)
        return generate(dgp, n, seed)

    monkeypatch.setattr(experiments, "generate", recording_generate)
    cfg = write_config(tmp_path / "cfg.json", base_config())
    out = tmp_path / "summary.csv"
    args = ["evaluate", "--model", model, "--config", cfg, "--out", str(out)]
    assert main(args + ["--replications", "3"]) == 0
    assert eval_seeds == [99, 100, 101]


def test_evaluate_scores_a_saved_policy_network_by_its_own_rule(tmp_path):
    # a policy head treats where its score is at least 0, not at least the
    # cost; evaluate scores the reloaded network as table2 scores the one in
    # memory, through _policy_score, bit for bit
    doc = base_config()
    dgp = experiments._dgp_from_config(doc)
    td = linear.transform_outcomes(generate(dgp, 400, seed=7).dataset)
    net = MlpConfig(hidden_sizes=(5,), max_epochs=20, early_stop_patience=5, seed=3)
    model = train_direct_policy(td, dgp.cost, DirectPolicyConfig(mlp=net))
    path = tmp_path / "policy.json"
    dataio.save_mlp_model(path, model)
    reports = experiments.run_evaluate(doc, str(path), str(tmp_path / "eval.csv"))

    sample = generate(dgp, 5000, seed=99)
    predict = functools.partial(predict_mlp, model)
    score = functools.partial(experiments._policy_score, predict, dgp.cost)
    want = evaluate_model(score, sample, dgp.cost, False, model_tag="policy")
    assert reports == [want]
    # the two rules treat different units here, so the check can tell them apart
    assert want.profit != evaluate_model(predict, sample, dgp.cost, False).profit


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


def test_cv_honours_model_max_iters(tmp_path, monkeypatch, workers):
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
    workers(1)  # the spy records in this process

    def spy(td, fit_cfg):
        caps.append(fit_cfg.max_iters)
        return real_fit(td, fit_cfg)

    monkeypatch.setattr(linear, "fit_linear", spy)
    capped_out = tmp_path / "capped"
    assert main(["cv", "--data", data, "--config", capped_cfg, "--out", str(capped_out)]) == 0
    assert caps == [1] * 4  # two sigmas, two folds
    default = (tmp_path / "default" / "cv_result.json").read_bytes()
    assert (capped_out / "cv_result.json").read_bytes() != default


def test_a_fit_failing_in_a_worker_exits_4_and_writes_nothing(
    tmp_path, monkeypatch, capsys, workers
):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")])
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")
    real_fit = linear.fit_linear

    def fails_in_a_worker(td, fit_cfg):
        if multiprocessing.parent_process() is not None:
            raise errors.SingularDesignError("design matrix is rank deficient")
        return real_fit(td, fit_cfg)

    monkeypatch.setattr(linear, "fit_linear", fails_in_a_worker)
    workers(2)  # the fits run in workers, where the spy fails
    capsys.readouterr()
    out = tmp_path / "cv"
    assert main(["cv", "--data", data, "--config", cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == "numerical failure: design matrix is rank deficient\n"
    assert not out.exists()


# runs `policycate` on the first N usable cores, and first prints the fit workers
ON_CORES = """
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[: int(sys.argv[1])])
from policycate import cli, linear
print(linear.fit_workers(), flush=True)
sys.exit(cli.main(sys.argv[2:]))
"""
needs_two_cores = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two usable cores",
)


def run_on_cores(cores, argv):
    """``policycate argv`` on ``cores`` cores with one BLAS thread; the fit workers it saw."""
    env = {
        **os.environ,
        "PYTHONPATH": os.path.dirname(os.path.dirname(linear.__file__)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", ON_CORES, str(cores), *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[0])


@needs_two_cores
@pytest.mark.parametrize("model", ["linear", "mlp"])
def test_cv_output_is_the_same_forked_or_inline(tmp_path, model):
    # one BLAS thread: on two cores the fits fan out over two workers, on one
    # core they run inline; the files must not tell the two apart
    doc = base_config(selection={"grid": [0.25, 1.0, "inf"], "folds": 3, "seed": 0})
    if model == "mlp":
        doc["model"] = {
            "type": "mlp", "family": "normal", "sigma": 1.0, "cost": 1.0,
            "mlp": {"hidden_sizes": [6], "max_epochs": 15, "batch_size": 32, "seed": 2},
        }
    cfg = write_config(tmp_path / "cfg.json", doc)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"), "--with-oracle"])
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")
    written = {}
    for cores in (2, 1):
        out = tmp_path / f"cores{cores}"
        argv = ["cv", "--data", data, "--config", cfg, "--out", str(out), "--eval-data", data]
        assert run_on_cores(cores, argv) == cores  # fit workers
        written[cores] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(written[2]) == ["cv_result.json", "frontier.csv", "truth_frontier.csv"]
    assert written[2] == written[1]


@needs_two_cores
def test_evaluate_output_is_the_same_forked_or_inline(tmp_path):
    # one BLAS thread: on two cores the network's blocks fan out over two
    # workers, on one core they are scored inline
    td = linear.transform_outcomes(generate(ComplexDgp(), 400, seed=3).dataset)
    net = MlpConfig(hidden_sizes=(64, 64), activation="tanh", max_epochs=2, seed=3)
    model = train_surrogate_mlp(td, spec_for_sigma("normal", 1.0, 1.0), net)
    path = str(tmp_path / "net.json")
    dataio.save_mlp_model(path, model)
    n = 50_000  # four blocks
    assert n * sum(w.size for w in model.weights) >= linear.FORK_MIN_MADDS
    doc = {"dgp": {"name": "complex", "n": 400, "seed": 3}, "evaluation": {"n": n, "seed": 5}}
    cfg = write_config(tmp_path / "cfg.json", doc)
    written = {}
    for cores in (2, 1):
        out = tmp_path / f"cores{cores}.csv"
        argv = ["evaluate", "--model", path, "--config", cfg, "--out", str(out)]
        assert run_on_cores(cores, argv) == cores  # fit workers
        written[cores] = out.read_bytes()
    assert written[2] == written[1]


@pytest.mark.parametrize(
    "case, code, message",
    [
        ("missing", 3, "cannot read dataset file"),
        ("no_tau_true", 2, "tau_true"),
        ("other_width", 3, "10 covariate columns, but the training data has 1"),
        ("nan_tau_true", 3, "non-finite tau_true"),
        # a one-row file has no qini; it was swept and written
        ("one_row", 3, "the truth frontier needs at least 2 data rows"),
    ],
)
def test_cv_checks_eval_data_before_writing_anything(
    tmp_path, monkeypatch, capsys, case, code, message
):
    cfg = write_config(tmp_path / "cfg.json", base_config())
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"), "--with-oracle"])
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")
    if case == "missing":
        eval_data = str(tmp_path / "absent.csv")
    elif case == "no_tau_true":
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "plain")])
        eval_data = str(tmp_path / "plain" / "simple_rep000_seed7.csv")
    elif case == "nan_tau_true":
        lines = (tmp_path / "sim" / "simple_rep000_seed7.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "tau_true"
        lines[2] = ",".join(lines[2].split(",")[:-1] + ["nan"])
        eval_data = str(tmp_path / "nan_tau.csv")
        (tmp_path / "nan_tau.csv").write_text("\n".join(lines) + "\n")
    elif case == "one_row":
        lines = (tmp_path / "sim" / "simple_rep000_seed7.csv").read_text().splitlines()
        eval_data = str(tmp_path / "one_row.csv")
        (tmp_path / "one_row.csv").write_text("\n".join(lines[:2]) + "\n")
    else:
        wide = write_config(
            tmp_path / "wide.json", base_config(dgp={"name": "complex", "n": 50, "seed": 3})
        )
        main(["simulate", "--config", wide, "--out", str(tmp_path / "wide"), "--with-oracle"])
        eval_data = str(tmp_path / "wide" / "complex_rep000_seed3.csv")
    capsys.readouterr()

    def no_fit(*args, **kwargs):
        raise AssertionError("a rejected --eval-data file reached a fit")

    monkeypatch.setattr(experiments, "kfold_cv", no_fit)
    out = tmp_path / "cv"
    out.mkdir()
    argv = ["cv", "--data", data, "--config", cfg, "--out", str(out), "--eval-data", eval_data]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and (case == "no_tau_true" or eval_data in err)
    assert list(out.iterdir()) == []


def test_cv_writes_nothing_when_the_truth_frontier_fails(tmp_path, monkeypatch, capsys):
    # cv_result.json and frontier.csv were written before the sweep ran
    def failing_sweep(*args, **kwargs):
        raise errors.NonFiniteLossError("sweep diverged")

    cfg = write_config(tmp_path / "cfg.json", base_config())
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"), "--with-oracle"])
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")
    monkeypatch.setattr(experiments, "frontier_sweep", failing_sweep)
    out = tmp_path / "cv"
    argv = ["cv", "--data", data, "--config", cfg, "--out", str(out), "--eval-data", data]
    assert main(argv) == 4
    assert "numerical failure: sweep diverged" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize(
    "model, message",
    [
        ({"family": "uniform"}, "model.family: cv tunes sigma; use normal or logistic"),
        ({"type": "policy"}, "model.type: cv supports linear or mlp models"),
    ],
    ids=["uniform-family", "policy-model"],
)
def test_cv_rejects_a_model_it_cannot_tune(tmp_path, capsys, model, message):
    doc = base_config()
    cfg = write_config(tmp_path / "cfg.json", doc)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")])
    doc["model"].update(model)
    bad = write_config(tmp_path / "bad.json", doc)
    capsys.readouterr()
    out = tmp_path / "cv"
    data = str(tmp_path / "sim" / "simple_rep000_seed7.csv")
    assert main(["cv", "--data", data, "--config", bad, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs, replications, pools", [(8, 2, [2]), (8, 1, []), (1, 2, [])])
def test_table2_pool_has_no_more_workers_than_replications(
    tmp_path, pool_sizes, workers, jobs, replications, pools
):
    workers(1)  # only table2's own pool
    cfg = {
        "table2": {
            "replications": replications,
            "train_n": 300,
            "eval_n": 2000,
            "linear_grid": ["inf"],
            "mlp_grid": ["inf"],
            "mlp": {"max_epochs": 2},
        }
    }
    experiments.run_table2(cfg, str(tmp_path), jobs=jobs)
    assert pool_sizes == pools
    assert len((tmp_path / "table2_runs.csv").read_text().splitlines()) == 1 + 6 * replications + 3


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


CURVE_INPUTS_IT_CANNOT_HONOUR = [
    (["--sigma", "1", "--sigma", "1.0000001"], "both write curve_sigma_1.csv"),
    (["--grid=-inf:5:5"], "grid spec bounds must be finite"),
    (["--uniform-lo", "0"], "--uniform-lo and --uniform-hi apply only to --family uniform"),
    (["--family", "logistic", "--uniform-hi", "3"], "apply only to --family uniform"),
    (["--grid=1:2"], "grid spec must be lo:hi:points"),
    (["--grid=a:b:3"], "bad grid spec 'a:b:3'"),
    (["--grid=2:1:5"], "grid spec needs hi > lo and points >= 1"),
]


@pytest.mark.parametrize(
    "args, message",
    CURVE_INPUTS_IT_CANNOT_HONOUR,
    ids=[
        "repeated-label",
        "infinite-grid",
        "uniform-lo-normal",
        "uniform-hi-logistic",
        "two-part-grid",
        "non-numeric-grid",
        "descending-grid",
    ],
)
def test_curve_rejects_input_it_cannot_honour(tmp_path, capsys, args, message):
    out = tmp_path / "curve"
    argv = ["curve", "--tau0", "2", "--cost", "1", "--family", "normal", *args, "--out", str(out)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


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
    def failing_rep(rep, params, dgp):
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


# SHA-256 of every file written by a few fixed-seed commands, recorded before
# the CSV/JSON writers were merged into dataio.write_csv/write_json; the
# writers must keep every byte.  The relu and policy network fits (recorded
# before the train-split objective became opt-in) also pin the training
# loop, so their model.json and training_log.csv must keep every byte too.
# The tanh network on the logistic head (recorded before the SGD step moved
# onto one flat parameter buffer) pins the other activation and head.  The
# linear fit of the base config and a cv --eval-data run on the same draw
# (recorded before the CV folds were split once per fold and the OLS start
# lost its separate rank test) pin the linear solver, the CV loop and the
# frontier sweep.  A uniform linear fit and a complex draw (recorded before
# the uniform support left the model config and the complex generator's
# width became a class constant) pin the default uniform model.json and the
# complex draws.  Two replications of the ols tag and a uniform curve with
# its own support (recorded before the two generators became one routine and
# every threshold spec came from spec_for_sigma) pin the refit-per-replication
# path, the sigma = inf spec and the curve's uniform bounds.  A cv --eval-data
# run on the relu network (recorded before each config was checked once per
# command) pins cv's network path.  A logistic curve (recorded before cdf,
# partial_mean and kappa standardized through SurrogateSpec.standardize) pins
# the logistic branches of the scalar threshold functions.  A logistic linear
# fit, a default-design linear fit and a logistic tanh network on the complex
# draw, and evaluate on each (recorded before the config schema and the
# classes it configures shared one table of value rules) pin the paths those
# refactors touch.
# Unlike the other files the networks depend on matrix products: they are
# too small for a BLAS thread split, but a BLAS build that sums in another
# order, or a numpy whose tanh kernel for this CPU rounds differently, would
# need them re-recorded.
GOLDEN_OUTPUT_SHA256 = {
    "curve/curve_sigma_0.5.csv": "c88321c44dfc8edd8f07b950e36e0246eb0d41fd548e3f20316138a85d39e2b8",
    "curve/curve_sigma_inf.csv": "c6301956c1febcc667dcf32d4da1eb1443597d71dcf3c2eb7f59b9e253eba78c",
    "curve/curve_sigma_uniform.csv": "c6301956c1febcc667dcf32d4da1eb1443597d71dcf3c2eb7f59b9e253eba78c",
    "curve_bounds/curve_sigma_uniform.csv": "475f323913bfbe2793127506ea78045326694b74cd63f27ef838a14101ec87c4",
    "curve_logistic/curve_sigma_0.5.csv": "9903a795f180bbee48558534d6dc7d1c838b1ea49f77b9638a78df8d99bf0d21",
    "cv/cv_result.json": "fafc0aa2690bda5dbb6f6c88d04302955caaff023f94fefca3f21eea2f62fcae",
    "cv/frontier.csv": "2b3776e29aa631ca0a1792797f983fdf76efda099e3e80d247348c39adec0b74",
    "cv/truth_frontier.csv": "43e6b11599e86555263cd72cf80b4330c292c01787c4757e21d379d7767b9527",
    "cv_mlp/cv_result.json": "32f7f16f33fd6e111c6cad41b40f0be8d278e492058435562fbc4533c29567d6",
    "cv_mlp/frontier.csv": "24933023548b0c714e3d69390a9b2c7475b1e5a800f362e75544c8d3dab0e0af",
    "cv_mlp/truth_frontier.csv": "e579a6af2cfdf58c58057c28fb4167ce91a4125e97c1e0b196bb6138bd1371a6",
    "eval_fit_complex_linear.csv": "d716d9007230d2964bf473e32032a690e9d818104b6ed35b9d04651c07fb0727",
    "eval_fit_complex_mlp.csv": "5494fe97a6096d3d475e008992411f04a6450086976cbce954880ef3205f716b",
    "eval_fit_linear.csv": "6d85d3f7ecb830c11fafaeea0634c33c613ffdea93686fe63b16cee8b542dfc2",
    "eval_fit_logistic.csv": "230ea7548b99e447a5b7524f0ef8a0a3fe663b310a105701f815c818673d3bdf",
    "eval_fit_mlp.csv": "93e0e087c8a57ab6c4d85e17d4045d6a6a49a421dad234bc5dfe0dc5e503aa32",
    "eval_fit_policy.csv": "95888e8347ba3de82cf62c2b9f21e58fe4c30212b96f5a20b04854d1d622fe93",
    "fit_complex_linear/model.json": "aa9be7c07f329acd50ff347b84118d9e54aafbdafb56a1610362d177eac7a3c4",
    "fit_complex_mlp/model.json": "8d7b801498e10fa4458bd8e351f2222f90cda38db8cc328dc6e6fb5b06fbf91a",
    "fit_complex_mlp/training_log.csv": "18f286d84ac7aad222d2aa0aa336e5e12895043d96954059db5d52925a371537",
    "fit_linear/model.json": "378b5cd09e664666b9419d0348e86f577ad34db45e43ead1da0f5e45e0472f0c",
    "fit_logistic/model.json": "dd9b8ad1bcd968d7f62e2205091ab854593757360d563439c06fc3f28f7138fb",
    "fit_mlp/model.json": "22d8166e7637da396d727273d9f1b49776483ba475b3714e19ef7dc24a0766aa",
    "fit_mlp/training_log.csv": "514ce1ba05c6f2ccb1015c87c8dd6641815d8956dadf49420a9032d217702b49",
    "fit_policy/model.json": "581aeb33bfbbe14b65f554577d5331d8b35b70d160df337d42e83d7a6978a308",
    "fit_policy/training_log.csv": "466e3d44cfecbab58b2bbe4fe9b513a017fd2affb9c38e6a00b90e3533af8b0f",
    "fit_tanh/model.json": "d2f2aad4f2bd8dfe2c2e4c6c6adea9675200198fef01e57a9b6a4679380e49d7",
    "fit_tanh/training_log.csv": "e970c659e9771cfa3999735fbad0cc582130d2bfd7d1a1d821e3ae82cd694425",
    "fit_uniform/model.json": "6c28fab4e5139ee287ad2200d19e8a221cf7ccea49d1f704574f9be41b0f05ae",
    "mail.csv": "123103a73c37ed0fb0061fc812a6adfe4e7819a82df77c463c95bf2e52df9ee9",
    "mail_rounds.csv": "abe887e70ffdebf0e00b6fb528719e63681257df8e940f2fc85b81cda9b78a8e",
    "ols.csv": "851bacfedbf93912944199cc7faf374a6f5133cb72c68df6c332ea70a88e74aa",
    "ols_rounds.csv": "88153bb2476e27d027d97572f0dfabfb8d0ac6cc83a089e25ad2d24e5a6fc745",
    "oracle.csv": "27a22a96c7e53c2ec81367a4ff70067a934434a4a6a5d0be7eb7354ae29eb840",
    "oracle_rounds.csv": "b71ba39e7179b02820c05ff7781b6a9af126a8145d9ff72181806636822ba3e3",
    "sim/complex_rep000_seed7.csv": "3143ed318f4c217cbd92c984204d72c7b1052fa2bf5009620d81a58450ce2196",
    "sim/simple_rep000_seed7.csv": "42cc14588c73ee7b553cb398a3f0d84308242554602431f9befc9ea9543d82df",
}


def test_output_files_are_byte_identical_to_recorded_hashes(tmp_path):
    doc = base_config()
    doc["dgp"]["n"] = 60
    doc["evaluation"]["n"] = 300
    cfg = write_config(tmp_path / "cfg.json", doc)
    net = {
        "hidden_sizes": [5],
        "activation": "relu",
        "weight_decay": 0.001,
        "dropout_rate": 0.2,
        "grad_clip_norm": 0.5,
        "batch_size": 16,
        "max_epochs": 40,
        "early_stop_patience": 4,
        "seed": 3,
    }
    nets = {
        "mlp": {"type": "mlp", "family": "normal", "sigma": 1.0, "cost": 1.0, "mlp": net},
        "policy": {"type": "policy", "cost": 1.0, "temperature": 0.2, "mlp": net},
        "tanh": {
            "type": "mlp", "family": "logistic", "sigma": 0.5, "cost": 1.0,
            "mlp": {**net, "activation": "tanh"},
        },
    }
    models = {f"fit_{kind}": model for kind, model in nets.items()}
    models["fit_uniform"] = dict(doc["model"], family="uniform")
    models["fit_logistic"] = dict(doc["model"], family="logistic")
    # a default-design linear fit and a logistic network on the complex draw
    complex_models = {
        "fit_complex_linear": {"type": "linear", "family": "normal", "sigma": 1.0, "cost": 1.0},
        "fit_complex_mlp": nets["tanh"],
    }
    complex_cfg = write_config(
        tmp_path / "cfg_complex.json", dict(doc, dgp=dict(doc["dgp"], name="complex"))
    )
    out = tmp_path / "out"
    data = str(out / "sim" / "simple_rep000_seed7.csv")
    complex_data = str(out / "sim" / "complex_rep000_seed7.csv")
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
        ["evaluate", "--model", "ols", "--config", cfg, "--out", str(out / "ols.csv"),
         "--replications", "2"],
        ["curve", "--tau0", "2", "--cost", "1", "--family", "logistic", "--sigma", "0.5",
         "--grid=-3:5:17", "--out", str(out / "curve_logistic")],
        ["curve", "--tau0", "2", "--cost", "1", "--family", "uniform", "--uniform-lo=-1",
         "--uniform-hi", "4", "--grid=-3:5:17", "--out", str(out / "curve_bounds")],
        ["fit", "--data", data, "--config", cfg, "--out", str(out / "fit_linear")],
        ["cv", "--data", data, "--config", cfg, "--out", str(out / "cv"), "--eval-data", data],
        ["cv", "--data", data, "--config",
         write_config(tmp_path / "cfg_cv_mlp.json", dict(doc, model=nets["mlp"])),
         "--out", str(out / "cv_mlp"), "--eval-data", data],
        ["simulate", "--config", complex_cfg, "--out", str(out / "sim"), "--with-oracle"],
    ] + [
        ["fit", "--data", data, "--config",
         write_config(tmp_path / f"cfg_{name}.json", dict(doc, model=model)),
         "--out", str(out / name)]
        for name, model in models.items()
    ] + [
        ["fit", "--data", complex_data, "--config",
         write_config(tmp_path / f"cfg_{name}.json", dict(doc, model=model)),
         "--out", str(out / name)]
        for name, model in complex_models.items()
    ] + [
        # evaluate_model on reloaded linear models, networks and the policy rule
        ["evaluate", "--model", str(out / name / "model.json"), "--config", eval_cfg,
         "--out", str(out / f"eval_{name}.csv")]
        for name, eval_cfg in (
            ("fit_linear", cfg), ("fit_mlp", cfg), ("fit_policy", cfg), ("fit_logistic", cfg),
            ("fit_complex_linear", complex_cfg), ("fit_complex_mlp", complex_cfg),
        )
    ]
    for argv in commands:
        assert main(argv) == 0
    got = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert got == GOLDEN_OUTPUT_SHA256
