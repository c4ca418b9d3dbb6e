"""The benchmark's own self-test, so a package change cannot break its calls unseen."""

import ast
import importlib
import importlib.util
import math
import os
import subprocess
import sys

import pytest

from policycate import linear
from policycate.dgp import SimpleDgp, gen_simple
from policycate.experiments import TABLE2_DEFAULTS
from policycate.selection import SigmaGrid, kfold_cv, linear_fit_function

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_benchmark_smoke_run_passes():
    # writes only under the repository's .perfbench/ directory
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_exists():
    # the tracer finds its targets by name, so a rename would break the
    # benchmark; the smoke run above notices only under -m slow
    missing = [
        f"{mod}.{name}"
        for mod, functions in _tracer().WRAPPED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"policycate.{mod}"), name, None))
    ]
    assert missing == []


def test_every_package_name_the_workloads_read_exists():
    # workloads.py reads package functions and table2 defaults by name, so a
    # rename would break the benchmark; the smoke run above notices only
    # under -m slow.  The file is parsed, not imported or run.
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as f:
        tree = ast.parse(f.read())
    modules = {"dataio", "dgp", "evaluation", "linear", "mlp", "selection"}
    attrs, keys = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                attrs.add((node.value.id, node.attr))
        elif isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id == "TABLE2_DEFAULTS" and isinstance(node.slice, ast.Constant):
                keys.add(node.slice.value)
    assert {mod for mod, _ in attrs} == modules and keys  # the walk found the reads
    missing = [
        f"{mod}.{name}"
        for mod, name in sorted(attrs)
        if not hasattr(importlib.import_module(f"policycate.{mod}"), name)
    ]
    assert missing == []
    assert sorted(keys - TABLE2_DEFAULTS.keys()) == []


def test_linear_cv_on_design_rows_scores_through_predict_cate(monkeypatch, workers):
    # the traced linear-cv workload requires a linear.predict_cate span, and
    # it runs kfold_cv on design rows with the default linear callback
    designs = []
    real = linear.predict_cate

    def spy(*args, **kwargs):
        designs.append(kwargs.get("design"))
        return real(*args, **kwargs)

    monkeypatch.setattr(linear, "predict_cate", spy)
    workers(1)  # a spy predictor does not pickle
    sample = gen_simple(SimpleDgp(), 200, seed=5)
    td = linear.transform_outcomes(sample.dataset)
    td = td.with_design(linear.build_design(sample.dataset.x, ["1", "x1"]))
    grid = SigmaGrid((1.0, math.inf))
    kfold_cv(td, grid, 2, "normal", linear_fit_function(), seed=0, cost=1.0)
    assert designs == [None] * 4  # one call per (sigma, fold), on the rows as given
