"""Peak traced memory of the 1e6-row scoring path and the dataset I/O,
bounded by what they keep.

Each bound sits well under the peak of the whole-array code this path
replaced (in parentheses, measured with the same calls) and above the
blocked or in-place code's own peak, so a temporary of the full row count
coming back fails the test.
"""

import json
import tracemalloc

import numpy as np

from policycate import dataio
from policycate.dgp import ComplexDgp, gen_complex
from policycate.evaluation import qini_coefficient
from policycate.linear import TransformedDataset

MiB = 2**20


def traced_peak(fn):
    """Peak bytes ``fn()`` allocates above what was live when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_a_draw_holds_its_sample_once():
    samples = []
    peak = traced_peak(lambda: samples.append(gen_complex(ComplexDgp(), 200_000, seed=1)))
    s = samples[0]
    held = sum(a.nbytes for a in (s.dataset.x, s.dataset.w, s.dataset.y, s.dataset.e, s.tau_true))
    assert peak <= 1.5 * held  # (2.0x when the dataset copied the covariates)


def test_a_subset_holds_its_rows_once():
    # kfold_cv takes each fold's rows this way
    rng = np.random.default_rng(5)
    x, y_star = rng.normal(size=(100_000, 10)), rng.normal(size=100_000)
    td = TransformedDataset(x, y_star)
    idx = np.sort(rng.permutation(100_000)[:80_000])
    subsets = []
    peak = traced_peak(lambda: subsets.append(td.subset(idx)))
    held = subsets[0].x.nbytes + subsets[0].y_star.nbytes
    assert peak <= 1.25 * held  # (2.0x when the subset copied its rows twice)


def test_loaded_linear_model_scores_in_blocks(tmp_path, workers):
    workers(1)  # the block buffers are this process's under any thread setting
    terms = ["1"] + [f"x{j}" for j in range(1, 11)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "kind": "linear", "family": "normal", "cost": 1.0, "sigma": 0.5,
        "design": terms, "theta": np.linspace(-1.0, 1.0, len(terms)).tolist(),
    }))
    predict = dataio.load_model(path).predict
    x = np.random.default_rng(2).uniform(-1.0, 2.0, size=(200_000, 10))
    assert traced_peak(lambda: predict(x)) < 8 * MiB  # (19.8 MiB with the full design)


def test_qini_keeps_few_row_sized_temporaries():
    rng = np.random.default_rng(3)
    scores, tau = rng.normal(size=1_000_000), rng.normal(size=1_000_000)
    assert traced_peak(lambda: qini_coefficient(scores, tau)) < 32 * MiB  # (45.8 MiB)


def test_dataset_writer_formats_rows_in_blocks(tmp_path):
    s = gen_complex(ComplexDgp(), 100_000, seed=4)
    peak = traced_peak(lambda: dataio.save_dataset(tmp_path / "d.csv", s.dataset, s.tau_true))
    assert peak < 24 * MiB  # (59.5 MiB when the whole table became Python floats)


def test_dataset_loader_streams_its_rows(tmp_path):
    s = gen_complex(ComplexDgp(), 100_000, seed=4)
    path = tmp_path / "d.csv"
    dataio.save_dataset(path, s.dataset, s.tau_true)  # an 18.6 MB file
    peak = traced_peak(lambda: dataio.load_dataset(path))
    assert peak < 40 * MiB  # (53.6 MiB with every line of the file in a list)


def test_a_loaded_dataset_holds_its_covariates_once(tmp_path):
    s = gen_complex(ComplexDgp(), 50_000, seed=4)
    path = tmp_path / "d.csv"
    dataio.save_dataset(path, s.dataset, s.tau_true)
    peak = traced_peak(lambda: dataio.load_dataset(path))
    assert peak < 13 * MiB  # (15.3 MiB when the dataset copied its covariates again)


def test_a_loaded_tau_does_not_hold_the_parsed_table(tmp_path):
    # run_cv holds an --eval-data file's tau_true through the whole CV
    s = gen_complex(ComplexDgp(), 50_000, seed=4)
    path = tmp_path / "d.csv"
    dataio.save_dataset(path, s.dataset, s.tau_true)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tau = dataio.load_dataset(path)[1]  # the Dataset is dropped here
        held = tracemalloc.get_traced_memory()[0] - live
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * tau.nbytes  # (14x when tau was a column view of the table)
