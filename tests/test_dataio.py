import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policycate import dataio
from policycate.dgp import SimpleDgp, gen_simple
from policycate.errors import DataError, DimensionError, ValidationError
from policycate.linear import (
    BLOCK_ROWS,
    LinearFitConfig,
    TransformedDataset,
    build_design,
    fit_linear,
    predict_cate,
    transform_outcomes,
)
from policycate.mlp import (
    DirectPolicyConfig,
    MlpConfig,
    predict_mlp,
    train_direct_policy,
    train_surrogate_mlp,
)
from policycate.selection import spec_for_sigma
from policycate.surrogate import SurrogateSpec


def sample_dataset():
    return gen_simple(SimpleDgp(), 200, seed=3)


def test_dataset_roundtrip_bytes(tmp_path):
    sample = sample_dataset()
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    dataio.save_dataset(p1, sample.dataset, sample.tau_true)
    ds, tau = dataio.load_dataset(p1)
    dataio.save_dataset(p2, ds, tau)
    assert p1.read_bytes() == p2.read_bytes()
    assert tau is not None and len(tau) == 200


def test_dataset_roundtrip_without_oracle(tmp_path):
    sample = sample_dataset()
    p = tmp_path / "a.csv"
    dataio.save_dataset(p, sample.dataset)
    ds, tau = dataio.load_dataset(p)
    assert tau is None
    assert ds.n == 200 and ds.k == 1


def test_save_dataset_rejects_tau_true_of_another_length(tmp_path):
    sample = gen_simple(SimpleDgp(), 5, seed=3)
    p = tmp_path / "a.csv"
    with pytest.raises(DimensionError, match="tau_true"):
        dataio.save_dataset(p, sample.dataset, np.arange(9.0))
    with pytest.raises(DimensionError, match="tau_true"):
        dataio.save_dataset(p, sample.dataset, np.arange(4.0))
    assert not p.exists()


@pytest.mark.parametrize("n", [1, BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 2])
def test_blocked_dataset_rows_equal_the_whole_table(tmp_path, n):
    sample = gen_simple(SimpleDgp(), n, seed=6)
    ds = sample.dataset
    dataio.save_dataset(tmp_path / "blocked.csv", ds, sample.tau_true)
    table = np.hstack([ds.y[:, None], ds.w[:, None], ds.e[:, None], ds.x, sample.tau_true[:, None]])
    dataio.write_csv(tmp_path / "whole.csv", ["y", "w", "e", "x1", "tau_true"], table.tolist())
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "a.csv"
    dataio.save_dataset(p, sample_dataset().dataset)
    before = p.read_bytes()
    row_blocks = dataio.row_blocks

    def failing_row_blocks(n):
        # the first block's rows reach the file before the write fails
        yield from itertools.islice(row_blocks(n), 1)
        raise RuntimeError("disk full")

    monkeypatch.setattr(dataio, "row_blocks", failing_row_blocks)
    other = gen_simple(SimpleDgp(), 200, seed=4)
    with pytest.raises(RuntimeError, match="disk full"):
        dataio.save_dataset(p, other.dataset, other.tau_true)
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["a.csv"]


def test_loader_names_missing_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,w,x1\n1.0,1,0.5\n")
    with pytest.raises(DataError, match="propensity column 'e'"):
        dataio.load_dataset(p)
    p.write_text("w,e,x1\n1,0.5,0.5\n")
    with pytest.raises(DataError, match="outcome column 'y'"):
        dataio.load_dataset(p)


def test_loader_rejects_unknown_and_misordered_columns(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,w,e,x2\n1.0,1,0.5,0.5\n")
    with pytest.raises(DataError, match="x1..xk"):
        dataio.load_dataset(p)
    p.write_text("y,w,e,x1,zz\n1.0,1,0.5,0.5,1\n")
    with pytest.raises(DataError, match="unknown columns"):
        dataio.load_dataset(p)


def test_loader_validates_overlap_and_treatment(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,w,e,x1\n1.0,1,1.0,0.5\n")
    with pytest.raises(DataError, match="propensities"):
        dataio.load_dataset(p)
    p.write_text("y,w,e,x1\n1.0,2,0.5,0.5\n")
    with pytest.raises(DataError, match="binary"):
        dataio.load_dataset(p)


@pytest.mark.parametrize("column", ["y", "tau_true"])
def test_loader_rejects_a_repeated_column(tmp_path, column):
    p = tmp_path / "twice.csv"
    p.write_text(f"y,w,e,x1,tau_true,{column}\n1.0,1,0.5,0.5,2.0,3.0\n")
    with pytest.raises(DataError, match=f"twice.csv: repeated column '{column}'"):
        dataio.load_dataset(p)


def test_header_only_dataset_is_a_data_error(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("y,w,e,x1\n")
    with pytest.raises(DataError, match="no data rows"):
        dataio.load_dataset(p)


def test_loader_rejects_rows_of_another_width(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("y,w,e,x1\n1.0,1,0.5,0.5,9\n")
    with pytest.raises(DataError, match="expected 4 fields"):
        dataio.load_dataset(p)
    p.write_text("y,w,e,x1\n1.0,1,0.5,0.5\n1.0,1,0.5\n")
    with pytest.raises(DataError, match="bad.csv"):
        dataio.load_dataset(p)
    p.write_text("y,w,e,x1\n1.0,1,0.5,abc\n")
    with pytest.raises(DataError, match="abc"):
        dataio.load_dataset(p)


def test_linear_model_roundtrip(tmp_path):
    sample = sample_dataset()
    td = transform_outcomes(sample.dataset)
    design = ["1", "x1", "x1^2"]
    td = td.with_design(build_design(sample.dataset.x, design))
    res = fit_linear(td, LinearFitConfig(spec=SurrogateSpec.normal(1.0, 1.0)))
    path = tmp_path / "model.json"
    dataio.save_linear_fit(path, res, design=design)
    loaded = dataio.load_model(path)
    assert loaded.kind == "linear" and loaded.is_cate
    got = loaded.predict(sample.dataset.x)
    want = predict_cate(res, td.x)
    assert got == pytest.approx(want, abs=1e-12)


def test_linear_model_without_an_intercept_writes_null_theta_external(tmp_path):
    # the cost has no all-ones column to go on; the model still reloads and scores
    sample = sample_dataset()
    design = ["x1", "x1^2"]
    td = transform_outcomes(sample.dataset).with_design(build_design(sample.dataset.x, design))
    res = fit_linear(td, LinearFitConfig(spec=SurrogateSpec.normal(1.0, 1.0)))
    path = tmp_path / "model.json"
    dataio.save_linear_fit(path, res, design=design)
    assert json.loads(path.read_text())["theta_external"] is None
    got = dataio.load_model(path).predict(sample.dataset.x)
    assert got.tobytes() == predict_cate(res, td.x).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    terms=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=4, unique=True),
    family=st.sampled_from(["normal", "logistic"]),
    sigma=st.sampled_from([0.25, 1.0, 4.0, math.inf]),
    n_new=st.one_of(st.integers(1, 64), st.integers(BLOCK_ROWS - 2, BLOCK_ROWS + 2)),
)
def test_saved_linear_fit_predicts_bitwise_like_the_fit(seed, terms, family, sigma, n_new):
    # fit -> save_linear_fit -> load_model -> predict, on designs with power
    # terms, scored in one block or across the block boundary
    rng = np.random.default_rng(seed)
    design = ["1"] + [f"x{j}" if p == 1 else f"x{j}^{p}" for j, p in terms]
    x = rng.uniform(-2.0, 2.0, size=(80, 3))
    y_star = 1.0 + x[:, 0] - x[:, 1] ** 2 + rng.normal(scale=2.0, size=80)
    td = TransformedDataset(build_design(x, design), y_star)
    spec = spec_for_sigma(family, 1.0, sigma)
    res = fit_linear(td, LinearFitConfig(spec=spec, max_iters=30))
    x_new = rng.uniform(-3.0, 3.0, size=(n_new, 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        dataio.save_linear_fit(path, res, design=design)
        got = dataio.load_model(path).predict(x_new)
    assert got.tobytes() == predict_cate(res, x_new, design=design).tobytes()


def test_mlp_model_roundtrip(tmp_path):
    sample = sample_dataset()
    td = transform_outcomes(sample.dataset)
    spec = SurrogateSpec.logistic(1.0, 0.5)
    cfg = MlpConfig(hidden_sizes=(6,), max_epochs=5, seed=2)
    model = train_surrogate_mlp(td, spec, cfg, log_train_objective=True)
    path = tmp_path / "model.json"
    dataio.save_mlp_model(path, model)
    loaded = dataio.load_model(path)
    assert loaded.kind == "mlp" and loaded.is_cate
    got = loaded.predict(sample.dataset.x)
    want = predict_mlp(model, sample.dataset.x)
    assert np.array_equal(got, want)
    log_path = tmp_path / "log.csv"
    dataio.save_training_log(log_path, model)
    lines = log_path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_obj,val_obj"
    assert len(lines) == len(model.training_log) + 1


def test_training_log_without_train_objective_is_rejected(tmp_path):
    td = transform_outcomes(sample_dataset().dataset)
    cfg = MlpConfig(hidden_sizes=(4,), max_epochs=3, seed=2)
    model = train_surrogate_mlp(td, SurrogateSpec.normal(1.0, 1.0), cfg)
    log_path = tmp_path / "log.csv"
    with pytest.raises(ValidationError, match="log_train_objective=True"):
        dataio.save_training_log(log_path, model)
    assert list(tmp_path.iterdir()) == []


def test_policy_model_roundtrip(tmp_path):
    sample = sample_dataset()
    td = transform_outcomes(sample.dataset)
    cfg = DirectPolicyConfig(mlp=MlpConfig(hidden_sizes=(5, 3), max_epochs=4, seed=1))
    model = train_direct_policy(td, 1.0, cfg)
    path = tmp_path / "policy.json"
    dataio.save_mlp_model(path, model)
    loaded = dataio.load_model(path)
    assert loaded.kind == "mlp" and not loaded.is_cate
    assert np.array_equal(loaded.predict(sample.dataset.x), predict_mlp(model, sample.dataset.x))
    assert model.hidden_sizes == (5, 3)
    assert json.loads(path.read_text())["hidden_sizes"] == [5, 3]


MALFORMED_MODELS = {
    "no-family": {"kind": "linear"},
    "not-an-object": [1, 2],
    "short-theta": {
        "kind": "linear", "family": "normal", "cost": 1.0, "sigma": 1.0,
        "design": ["1", "x1", "x1^2"], "theta": [0.5, 0.1],
    },
    "linear-labelled-mlp": {
        "kind": "mlp", "family": "normal", "cost": 1.0, "sigma": 1.0,
        "design": ["1", "x1"], "theta": [0.5, 0.1],
    },
}


@pytest.mark.parametrize("doc", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS.keys())
def test_malformed_model_file_is_a_data_error(tmp_path, doc):
    p = tmp_path / "model.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="model.json"):
        dataio.load_model(p)


def test_linear_model_without_design_checks_row_width(tmp_path):
    p = tmp_path / "model.json"
    p.write_text(json.dumps({
        "kind": "linear", "family": "normal", "cost": 1.0, "sigma": 1.0,
        "theta": [0.1, 0.2, 0.3], "design": None,
    }))
    loaded = dataio.load_model(p)
    with pytest.raises(DimensionError, match="x has 1 features, model expects 3"):
        loaded.predict(sample_dataset().dataset.x)
    assert loaded.predict(np.ones((4, 3))).shape == (4,)


def test_dataset_that_is_not_utf8_is_a_data_error(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"y,w,e,x1\xff\n1.0,1,0.5,0.2\n")
    with pytest.raises(DataError, match="latin.csv: not UTF-8 text"):
        dataio.load_dataset(p)


def test_model_that_is_not_utf8_is_a_data_error(tmp_path):
    p = tmp_path / "model.json"
    p.write_bytes(b'{"kind": "linear"\xff}')
    with pytest.raises(DataError, match="model.json: not UTF-8 text"):
        dataio.load_model(p)


def test_unknown_model_kind(tmp_path):
    p = tmp_path / "weird.json"
    p.write_text('{"kind": "forest"}\n')
    with pytest.raises(DataError, match="unknown model kind"):
        dataio.load_model(p)


def test_frontier_csv_inf_literal(tmp_path):
    p = tmp_path / "frontier.csv"
    dataio.write_frontier_csv(p, [(float("inf"), 1.0, 0.5), (0.25, 2.0, 0.25)])
    text = p.read_text().splitlines()
    assert text[0] == "sigma,mse,profit"
    assert text[1].startswith("inf,")


def test_twelve_digit_roundtrip(tmp_path):
    values = np.random.default_rng(0).normal(size=50) * 1e3
    formatted = [dataio.fmt(v) for v in values]
    reparsed = [dataio.fmt(float(s)) for s in formatted]
    assert formatted == reparsed
