"""The names the benchmark reaches into the package by.

bench/tracing.py wraps the functions and methods its TARGETS name, and the
bench scripts import further names and read adem_expand's cache counters.
A rename in the package would break only the traced bench runs, so it is
caught here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mod_name,attr,_kind", _tracing().TARGETS)
def test_every_traced_name_resolves(mod_name, attr, _kind):
    home = importlib.import_module("dyerlashof." + mod_name)
    if "." in attr:
        # the tracer wraps what the class itself defines, not an inherited name
        cls_name, meth = attr.split(".")
        assert callable(getattr(home, cls_name).__dict__[meth])
    else:
        assert callable(getattr(home, attr))


def test_every_imported_name_resolves():
    imported = [
        (node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dyerlashof")
        for alias in node.names
    ]
    assert ("dyerlashof.arith", "HalfInt") in imported
    for module, name in imported:
        home = importlib.import_module(module)
        assert hasattr(home, name) or importlib.util.find_spec(f"{module}.{name}"), \
            f"{module}.{name}"


def test_adem_cache_counters():
    from dyerlashof.dlalgebra import adem_expand

    info = adem_expand.cache_info()
    assert all(n >= 0 for n in (info.hits, info.misses, info.currsize))


def test_in_process_workloads_run_and_check(monkeypatch):
    # what the bench calls and checks, not only its names: every op of each
    # in-process workload at its tiny size
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    ran = []
    for name, cls in workloads.WORKLOADS.items():
        if not cls.in_process:
            continue
        workload = cls(101, tiny=True)
        for op in workload.ops():
            out = workload.run(op)
            workload.check(op, out)
            assert isinstance(workload.canonical(op, out), bytes)
        ran.append(name)
        if name == "action":
            # bench reads the action caches by name, through .get(name, ());
            # a renamed cache would read as 0 entries
            assert all(n > 0 for n in workload.cache_sizes), workload.cache_sizes
    assert sorted(ran) == ["action", "rewrite", "table"]
