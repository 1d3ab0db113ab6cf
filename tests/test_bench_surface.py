"""The library surface `perfbench/run.py` relies on.

The benchmark wraps module globals by name in its traced run and reads a few
attributes of the index; a rename in the library would only show as failed
benchmark jobs. These tests read the names from the benchmark's own source.
"""
import ast
import importlib
import inspect
from pathlib import Path

import awci
from awci.ridge import build_all_ridge_t
from awci.sweep import enumerate_pairs
from awci.tables import build_pos_tables

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def module_tree():
    return ast.parse(RUN.read_text())


def test_every_wrapped_global_exists():
    tree = module_tree()
    # module-level aliases: NAME = importlib.import_module("awci.x")
    modules = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "attr", None) == "import_module"):
            modules[node.targets[0].id] = importlib.import_module(node.value.args[0].value)
    wrappers = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "install_wrappers")
    patched = [(call.args[0].id, call.args[1].value) for call in ast.walk(wrappers)
               if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "patch"]
    assert len(patched) >= 10
    for alias, name in patched:
        assert callable(getattr(modules[alias], name, None)), f"{alias}.{name}"


def test_every_imported_name_exists():
    tree = module_tree()
    names = [alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module == "awci"
             for alias in node.names]
    assert "build_all_ridge_t" in names
    for name in names:
        assert hasattr(awci, name), name


def test_enumerate_pairs_binds_the_benchmark_call():
    calls = [node for node in ast.walk(module_tree()) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "enumerate_pairs"]
    assert calls
    signature = inspect.signature(enumerate_pairs)
    for call in calls:
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_ridge_and_table_attributes_read_by_the_traced_run(demo):
    tables = build_pos_tables(demo)
    ridge_t = build_all_ridge_t(tables, 1)
    for x, row in enumerate(ridge_t):
        for y, rt in enumerate(row):
            assert (rt is None) == (x == y)
            if rt is not None:
                assert isinstance(rt.width, int)
    assert sum(len(r) for rows_x in tables.pos for rows in rows_x if rows is not None
               for r in rows) > 0
