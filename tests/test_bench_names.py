"""The names and call shapes the benchmark in ``perfbench/`` reaches in
buckdens.

``perfbench/layers.py`` wraps the functions its ``_TARGETS`` table names
and reads some of their arguments by position, the workloads and the
traced CLI import buckdens names and call them, and the worker stamps
``kernels.active_backend()``.  A rename, deletion or reordered parameter
in buckdens would otherwise show only in the benchmark run.
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


def test_backend_stamp_resolves():
    from buckdens import kernels

    assert kernels.active_backend() == "numpy"


def _argument_reads():
    """(module, attribute, position, name) for every ``_arg(a, k, pos, name)``
    a ``_TARGETS`` counter makes, read from the table's syntax."""
    table = next(node.value for node in ast.parse(LAYERS.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_TARGETS"])
    return [(row.elts[0].value, row.elts[1].value,
             call.args[2].value, call.args[3].value)
            for row in table.elts if isinstance(row, ast.Tuple)
            for call in ast.walk(row.elts[3])
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"]


ARGUMENT_READS = _argument_reads()


def test_the_tracer_reads_arguments():
    assert {(mod, attr) for mod, attr, _, _ in ARGUMENT_READS} >= {
        ("sets", "sumset_mod"), ("density", "empirical_banach"),
        ("verify", "sumset_window")}


@pytest.mark.parametrize("mod,attr,pos,name", ARGUMENT_READS,
                         ids=[f"{m}.{a}:{p}={n}" for m, a, p, n in ARGUMENT_READS])
def test_traced_argument_is_at_its_position(mod, attr, pos, name):
    # the counter takes args[pos] unless ``name`` is passed by keyword
    fn = getattr(importlib.import_module(f"buckdens.{mod}"), attr)
    param = list(inspect.signature(fn).parameters.values())[pos]
    assert param.name == name
    assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def _workload_calls():
    """(name, positional count, keyword names) of every call the workloads
    make to a name they import from buckdens."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {name for where, _, name in IMPORTS if where == "workloads.py"}
    return sorted({(node.func.id, len(node.args), tuple(k.arg for k in node.keywords))
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id in imported})


WORKLOAD_CALLS = _workload_calls()


def test_the_workloads_call_theorem_report_with_a_tower():
    assert ("theorem_report", 4, ("tower",)) in WORKLOAD_CALLS


@pytest.mark.parametrize("name,positional,keywords", WORKLOAD_CALLS,
                         ids=[f"{n}/{p}{''.join('+' + k for k in kw)}"
                              for n, p, kw in WORKLOAD_CALLS])
def test_workload_call_binds(name, positional, keywords):
    module = next(m for where, m, n in IMPORTS if where == "workloads.py" and n == name)
    fn = getattr(importlib.import_module(module), name)
    inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
