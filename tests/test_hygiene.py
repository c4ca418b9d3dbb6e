"""Source hygiene checks that need nothing beyond the standard library."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "policycate"
# the package namespace re-exports names it never uses itself
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "annotations" and getattr(node, "module", None) == "__future__":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_finds_one():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == [(1, "math")]


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(source):
    """Module-level ``_name`` functions, classes and assignments the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in defined.items() if name not in read)


def test_dead_private_name_scan_finds_each_kind():
    source = "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\n_X = 1\n_used()\n"
    assert dead_private_names(source) == [(2, "_dead"), (3, "_Gone"), (4, "_X")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_every_private_name_it_defines(path):
    assert dead_private_names(path.read_text()) == []


def atleast_2d_callers(source):
    """The innermost enclosing function (None at module level) of each ``atleast_2d`` call."""
    callers = []

    def visit(node, func):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "atleast_2d":
                callers.append(func)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return callers


def test_atleast_2d_scan_finds_each_caller():
    source = (
        "import numpy as np\nfrom numpy import atleast_2d\nnp.atleast_2d(1)\n"
        "def f():\n    return lambda x: atleast_2d(x)\n"
    )
    assert atleast_2d_callers(source) == [None, "f"]


def test_row_matrices_have_one_reader():
    # linear.row_matrix is the one coercion of a row matrix and the one
    # source of the width message; a hand-rolled copy fails here
    files = sorted(PACKAGE_DIR.glob("*.py"))
    callers = {p.name: atleast_2d_callers(p.read_text()) for p in files}
    assert {name: c for name, c in callers.items() if c} == {"linear.py": ["row_matrix"]}
    assert sum(p.read_text().count("features, model expects") for p in files) == 1


def imported_modules(source):
    """The dotted name of every module ``source`` imports, and of every name it imports from one."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_imported_module_scan_finds_each_form():
    source = "import mmap\nfrom concurrent import futures\nfrom . import linear\n"
    assert imported_modules(source) == {"mmap", "concurrent.futures"}


def test_scoring_and_fits_fan_out_in_one_module():
    # linear.fork_map starts every pool and linear.score_rows maps every
    # shared output; a second pool or mapping elsewhere fails here
    def fans_out(path):
        return any(
            name.split(".")[0] == "mmap" or name.startswith("concurrent.futures")
            for name in imported_modules(path.read_text())
        )

    assert [p.name for p in sorted(PACKAGE_DIR.glob("*.py")) if fans_out(p)] == ["linear.py"]


def loaded_after(code, modules):
    """Those of ``modules`` that are in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    code = f"{code}\nimport sys\nprint([m for m in {list(modules)!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.special"])
def test_importing_the_package_leaves_scipy_module_unloaded(module):
    # scalar_argmax imports scipy.optimize inside the function, and
    # surrogate.special imports scipy.special at the first special-function
    # call; each keeps about a quarter second off every command that does
    # not need it
    assert loaded_after("import policycate", [module]) == []


def test_simulate_and_evaluate_ols_leave_scipy_special_unloaded(tmp_path):
    # simulate draws data, and evaluate's ols refit uses the uniform family:
    # neither calls a special function
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"dgp": {"name": "complex", "n": 300, "seed": 1},'
        ' "evaluation": {"n": 2000, "seed": 99}}'
    )
    commands = [
        ["simulate", "--config", str(config), "--out", str(tmp_path / "sim")],
        ["evaluate", "--model", "ols", "--config", str(config), "--out", str(tmp_path / "ols.csv")],
    ]
    for argv in commands:
        code = f"from policycate.cli import main\nassert main({argv!r}) == 0"
        assert loaded_after(code, ["scipy.special", "scipy.optimize"]) == [], argv
    assert (tmp_path / "ols.csv").is_file()


def test_config_field_lists_match_what_they_configure():
    from policycate import experiments
    from policycate.mlp import MLP_FIELDS, MlpConfig

    assert set(MLP_FIELDS) == {f.name for f in dataclasses.fields(MlpConfig)}
    for section in ("model", "table2"):
        assert experiments.CONFIG_SCHEMA[section]["mlp"] is MLP_FIELDS
    table2 = set(experiments.CONFIG_SCHEMA["table2"]) - {"__required__"}
    assert table2 == set(experiments.TABLE2_DEFAULTS)
