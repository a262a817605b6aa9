"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` wraps nvgates functions at the module attributes
listed in ``tracing.LAYERS``; a traced run stops at the first one that is
missing.  This pins those names in the fast suite, so that deleting or
renaming a traced function fails here rather than only in ``python3 -m
pytest -q perfbench``.  One ``netlist-oneshot`` item also runs under the
tracer, so that code which stops calling a traced name where the tracer
wraps it fails here, not only in a ``--trace 1`` run.
"""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402

SITES = [(layer, module, attr) for layer, sites in tracing.LAYERS.items() for module, attr in sites]


@pytest.mark.parametrize("layer, module, attr", SITES, ids=[f"{m}.{a}" for _, m, a in SITES])
def test_traced_name_resolves_to_a_callable(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{layer}: {module}.{attr} is missing"


def test_netlist_oneshot_item_records_every_required_layer():
    # a traced run fails when a layer of tracing.NONZERO records no call, so
    # a rewrite that stops calling a traced name must fail here too
    import items
    import worker

    kinds = ("pbs", "pbsfs", "hwp", "bs", "nv", "spinh")
    item = next(
        item for item in items.netlist_items(20131001)
        if item[3] is None and all(f"\n{kind} " in item[1] for kind in kinds)
    )
    run = worker.prepare("netlist-oneshot")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.start_item(0)
        out = run(item)
    finally:
        tracer.uninstall()
    assert out[0] == "ok", out
    layers = tracer.summary()["layers"]
    silent = sorted(layer for layer in tracing.NONZERO["netlist-oneshot"] if layers[layer][0] == 0)
    assert not silent, f"layers with no call: {silent}"
