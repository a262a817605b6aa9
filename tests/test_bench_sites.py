"""The benchmark's tracer finds every function it wraps.

``perfbench/tracing.py`` wraps nvgates functions at the module attributes
listed in ``tracing.LAYERS``; a traced run stops at the first one that is
missing.  This pins those names in the fast suite, so that deleting or
renaming a traced function fails here rather than only in ``python3 -m
pytest -q perfbench``.
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
