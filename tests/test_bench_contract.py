"""The names the benchmark reaches into the package by.

bench/tracing.py wraps the functions and methods its TARGETS name, and the
bench scripts import further names and read adem_expand's cache counters.
A rename in the package would break only the traced bench runs, so it is
caught here.
"""

import ast
import hashlib
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


def test_normalize_counts_in_the_adem_cache():
    # normalize calls the cache behind adem_expand directly, so its lookups
    # must still show in the counters bench/worker.py reads
    from dyerlashof.dlalgebra import DLElement, adem_expand, normalize

    adem_expand.cache_clear()
    elt = DLElement(3, 1, {((0, 20), (0, 0)): 1})
    normalize(elt)
    info = adem_expand.cache_info()
    assert info.misses > 0 and info.currsize > 0
    normalize(elt)
    assert adem_expand.cache_info().hits > info.hits


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
            # a renamed cache would read as 0 entries.  The action has one
            # memo: a one-factor result lives in the monomial record of
            # (qc,), so the class-cache reading is 0 and the monomial one not
            qclass, monomial = workload.cache_sizes
            assert qclass == 0 and monomial > 0, workload.cache_sizes
    assert sorted(ran) == ["action", "rewrite", "table"]


# the sha256 of one pass at seed 101, as bench/worker.py digests it
_PASS_DIGESTS = {
    "rewrite": "28d283ba491997ae9ea140d399c9371d34b360268277fc34e2b361fa9f05b748",
    "table": "9496eca23efbfb4c8b012148ae7184936c3546d13b0e96bb8916b43dd62e938d",
    "action": "7fddf54cf64e1f37e9bc646f0fd7cf3c5c0fb3ca4bb45d603b0a4df2fdb54357",
}


@pytest.mark.parametrize("name", _PASS_DIGESTS)
def test_in_process_pass_digests_pinned(monkeypatch, name):
    """One full pass of each in-process workload at seed 101: every op run,
    checked and digested by its canonical output, as bench/worker.py does,
    so a change to any output the bench compares fails here and not only in
    a bench run.  The fix of the relations on twisted products (ROADMAP
    item 1) will move the rewrite digest, and the change that makes it must
    pin the new one here."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name](101, root=str(BENCH.parent))
    digest = hashlib.sha256()
    for op in workload.ops():
        out = workload.run(op)
        workload.check(op, out)
        digest.update(workload.canonical(op, out))
    assert digest.hexdigest() == _PASS_DIGESTS[name]


def test_cli_workload_runs_and_checks(monkeypatch, tmp_path):
    # the cli workload at its tiny size: one child per command kind, started
    # as the bench starts them, so a change that breaks a CLI child fails
    # here and not only in a bench run.  The children import the package
    # from <root>/src and write their context files under <root>
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    (tmp_path / "src").symlink_to(BENCH.parent / "src")
    workload = workloads.Cli(101, tiny=True, root=str(tmp_path))
    kinds = []
    try:
        for op in workload.ops():
            workload.check(op, workload.run(op))
            kinds.append(op[0])
    finally:
        workload.close()
    assert sorted(kinds) == ["act", "basis", "dmodule", "example", "invalid", "rewrite",
                             "table"]
