"""The names the benchmark in ``perfbench/`` reaches in buckdens.

``perfbench/layers.py`` wraps the functions its ``_TARGETS`` table names,
the workloads and the traced CLI import buckdens names, and the worker
stamps ``kernels.active_backend()``.  A rename or deletion in buckdens
would otherwise show only in the benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def _load_layers():
    # layers.py imports no buckdens module until install() is called
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(mod, attr) for mod, attr, _, _ in _load_layers()._TARGETS]


@pytest.mark.parametrize("mod,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_resolves(mod, attr):
    owner = importlib.import_module(f"buckdens.{mod}")
    if "." in attr:   # install() takes a method from its class's own __dict__
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


IMPORTS = sorted({
    (path.name, node.module, alias.name)
    for path in (PERFBENCH / f for f in ("workloads.py", "worker.py", "traced_cli.py"))
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "buckdens"
    for alias in node.names})


def test_the_benchmark_imports_buckdens_names():
    assert {module for _, module, _ in IMPORTS} >= {"buckdens", "buckdens.verify"}


@pytest.mark.parametrize("where,module,name", IMPORTS,
                         ids=[f"{w}:{m}.{n}" for w, m, n in IMPORTS])
def test_imported_name_resolves(where, module, name):
    # ``from package import submodule`` resolves through the import system
    owner = importlib.import_module(module)
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}")


def test_sumset_mod_first_parameter_is_p():
    from buckdens.sets import sumset_mod

    # the tracer reads the modulus of argument 0, or of keyword ``p``
    assert next(iter(inspect.signature(sumset_mod).parameters)) == "p"


def test_backend_stamp_resolves():
    from buckdens import kernels

    assert kernels.active_backend() == "numpy"
