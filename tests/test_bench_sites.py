"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` wraps nvgates functions at the module attributes
listed in ``tracing.LAYERS``; a traced run stops at the first one that is
missing.  This pins those names in the fast suite, so that deleting or
renaming a traced function fails here rather than only in ``python3 -m
pytest -q perfbench``.  Items of every workload also run under the tracer,
so that code which stops calling a traced name where the tracer wraps it
fails here, not only in a ``--trace 1`` run.  Those sites are also the only
imports in ``src/nvgates`` that a module may keep without reading them.
"""

import ast
import functools
import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

SITES = [(layer, module, attr) for layer, sites in tracing.LAYERS.items() for module, attr in sites]
MODULES = sorted(p for p in (pathlib.Path(__file__).resolve().parents[1] / "src" / "nvgates").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("layer, module, attr", SITES, ids=[f"{m}.{a}" for _, m, a in SITES])
def test_traced_name_resolves_to_a_callable(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{layer}: {module}.{attr} is missing"


def _run_traced(workload, work):
    """Outputs of ``work`` run as the worker runs them, under a tracer
    installed before set-up, and the layers of ``tracing.NONZERO[workload]``
    that recorded no call; a traced run fails on any of those."""
    import worker

    tracer = tracing.Tracer()
    tracer.install()
    try:
        run = worker.prepare(workload)
        outs = []
        for n, item in enumerate(work):
            tracer.start_item(n)
            outs.append(run(item))
    finally:
        tracer.uninstall()
    layers = tracer.summary()["layers"]
    return outs, sorted(layer for layer in tracing.NONZERO[workload] if layers[layer][0] == 0)


def test_netlist_oneshot_item_records_every_required_layer():
    # a rewrite that stops calling a traced name must fail here too
    import items

    kinds = ("pbs", "pbsfs", "hwp", "bs", "nv", "spinh")
    item = next(
        item for item in items.netlist_items(20131001)
        if item[3] is None and all(f"\n{kind} " in item[1] for kind in kinds)
    )
    (out,), silent = _run_traced("netlist-oneshot", [item])
    assert out[0] == "ok", out
    assert not silent, f"layers with no call: {silent}"


@pytest.mark.parametrize("workload", ["sweep-random", "verify-cli"])
def test_compiled_workload_items_record_every_required_layer(workload, monkeypatch):
    # these workloads reach the circuit layers only while compiling each gate
    # once, so one item per gate runs on freshly parsed circuits
    import items
    from nvgates import gates

    monkeypatch.setattr(gates, "_gate_circuit", functools.cache(gates._gate_circuit.__wrapped__))
    stream = items.sweep_items if workload == "sweep-random" else items.verify_items
    per_gate = {}
    for item in stream(20131001):
        per_gate.setdefault(item[1] if workload == "sweep-random" else item[1][1], item)
        if len(per_gate) == len(gates.GATE_NAMES):
            break
    outs, silent = _run_traced(workload, per_gate.values())
    assert workload == "sweep-random" or all(out[0] == 0 for out in outs), outs
    assert not silent, f"layers with no call: {silent}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_reads_every_name_it_imports(path):
    # no linter is installed, so an unused import is caught here; a traced site may be imported for the tracer alone
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    traced = {attr for _, module, attr in SITES if module == f"nvgates.{path.stem}"}
    unread = imported - read - traced
    assert not unread, f"{path.name} imports {sorted(unread)} and never reads them"
