"""Per-layer spans recorded by wrapping nvgates functions from outside.

The nvgates modules import each other's functions by name, so a function is
wrapped at every module attribute its callers look it up through (for
example ``nvgates.analysis.run_netlist`` as well as
``nvgates.netlist.run_netlist``).  Each call becomes one span: layer, item
id, parent span, start, end, and the time covered by its child spans.  Spans
stay in memory and are aggregated when the run ends; a layer's self time is
its spans' durations minus their children's.  Durations are process CPU
time, the clock the item times use.

Nothing under ``src/`` is changed: :meth:`Tracer.install` swaps the module
attributes and :meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import importlib
from time import process_time

from items import WORKLOADS

# layer -> the (module, attribute) sites its function is looked up through
LAYERS = {
    "netlist.parse": [("nvgates.netlist", "parse_netlist")],
    "netlist.apply": [("nvgates.netlist", "apply_elements"), ("nvgates.analysis", "apply_elements")],
    "netlist.run": [
        ("nvgates.netlist", "run_netlist"),
        ("nvgates.analysis", "run_netlist"),
        ("nvgates.cli", "run_netlist"),
    ],
    "netlist.feedforward": [("nvgates.netlist", "apply_spin_ops")],
    "state.input": [("nvgates.netlist", "make_product_state")],
    "state.collapse": [("nvgates.netlist", "partial_trace_photon_collapse")],
    "elements.pbs": [("nvgates.elements", "apply_pbs_rl")],
    "elements.pbsfs": [("nvgates.elements", "apply_pbs_fs")],
    "elements.hwp": [("nvgates.elements", "apply_hwp")],
    "elements.bs": [("nvgates.elements", "apply_bs")],
    "elements.nv": [("nvgates.elements", "scatter")],
    "elements.spinh": [("nvgates.elements", "apply_spin_hadamard")],
    "gates.build": [
        ("nvgates.gates", "build_gate_circuit"),
        ("nvgates.analysis", "build_gate_circuit"),
        ("nvgates.cli", "build_gate_circuit"),
    ],
    "gates.ideal": [("nvgates.analysis", "ideal_gate_unitary"), ("nvgates.cli", "ideal_gate_unitary")],
    "analysis.fidelity": [("nvgates.analysis", "fidelity_simulated")],
    "analysis.efficiency": [("nvgates.analysis", "efficiency_simulated")],
    "cli.verify": [("nvgates.cli", "cmd_verify")],
}

# Layers that must record calls on each workload; a traced run that sees
# zero calls on one of them fails instead of reporting.
_CIRCUIT_LAYERS = {
    "netlist.apply", "netlist.run", "state.input", "state.collapse",
    "elements.pbs", "elements.hwp", "elements.nv", "elements.spinh",
}
NONZERO = {
    "sweep-random": _CIRCUIT_LAYERS | {
        "netlist.feedforward", "elements.bs", "gates.build", "gates.ideal",
        "analysis.fidelity", "analysis.efficiency",
    },
    "verify-cli": _CIRCUIT_LAYERS | {
        "netlist.feedforward", "elements.bs", "gates.build", "gates.ideal", "cli.verify",
    },
    "netlist-oneshot": _CIRCUIT_LAYERS | {"netlist.parse", "elements.bs", "elements.pbsfs"},
}

# (layer metrics, end-to-end metrics they should move, workloads where they
# should move them, workloads where no change is predicted)
PREDICTIONS = (
    ("elements.*.self_s, netlist.apply.self_s, state.input.self_s",
     "items_per_s, item_ms_p50", WORKLOADS, ()),
    ("state.collapse.self_s", "items_per_s, item_ms_p50", WORKLOADS, ()),
    ("netlist.apply.unique_ratio", "items_per_s", ("sweep-random",), ("verify-cli", "netlist-oneshot")),
    ("netlist.parse.self_s", "item_ms_p50", ("netlist-oneshot",), ("sweep-random", "verify-cli")),
    ("netlist.feedforward.self_s", "items_per_s, item_ms_p50",
     ("sweep-random", "verify-cli"), ("netlist-oneshot",)),
    ("gates.build.self_s", "setup_s", ("sweep-random",), ()),
    ("gates.build.self_s, gates.ideal.self_s", "items_per_s", ("verify-cli",), ("netlist-oneshot",)),
    ("analysis.fidelity.self_s, analysis.efficiency.self_s", "items_per_s",
     ("sweep-random",), ("verify-cli", "netlist-oneshot")),
    ("cli.verify.self_s", "items_per_s, item_ms_p50", ("verify-cli",), ("sweep-random", "netlist-oneshot")),
)

_ELEMENT_LAYERS = {name for name in LAYERS if name.startswith("elements.")}


class Tracer:
    """Span recorder; create it after ``import nvgates``, then toggle it with
    :meth:`install` / :meth:`uninstall` around the traced calls."""

    def __init__(self):
        self.names = list(LAYERS)
        self.spans: list = []
        self.item = -1
        self.amps_touched = 0
        self.apply_calls = 0
        self.apply_unique = 0
        self._apply_keys: set = set()
        self._stack = [[-1, 0.0]]  # frames: [span id, time covered by children]
        self._sites = []  # (module, attribute, original, wrapper)
        for idx, (layer, sites) in enumerate(LAYERS.items()):
            wrappers: dict = {}
            for mod_name, attr in sites:
                module = importlib.import_module(mod_name)
                original = getattr(module, attr, None)
                if not callable(original):
                    raise RuntimeError(f"traced name {mod_name}.{attr} is missing")
                if original not in wrappers:
                    wrappers[original] = self._wrap(idx, layer, original)
                self._sites.append((module, attr, original, wrappers[original]))

    def _wrap(self, idx: int, layer: str, fn):
        spans = self.spans
        stack = self._stack
        element = layer in _ELEMENT_LAYERS
        apply = layer == "netlist.apply"

        def traced(*args, **kwargs):
            if element:
                self.amps_touched += args[0].amps.size
            elif apply:
                self._note_apply(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = process_time()
                stack.pop()
                parent[1] += t1 - t0
                spans[sid] = (idx, self.item, parent[0], t0, t1, frame[1])

        return traced

    def _note_apply(self, net, state, reflection=None, upto=None):
        self.apply_calls += 1
        self._apply_keys.add((id(net), reflection, upto, state.amps.tobytes()))

    def install(self):
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)

    def start_item(self, item: int):
        """Close the previous item's distinct-evaluation count, open ``item``."""
        self.apply_unique += len(self._apply_keys)
        self._apply_keys.clear()
        self.item = item

    def summary(self) -> dict:
        """Calls and self time per layer, plus the computed counters."""
        self.start_item(-1)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for idx, _item, _parent, t0, t1, child in self.spans:
            calls[idx] += 1
            self_s[idx] += (t1 - t0) - child
        return {
            "layers": {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)},
            "spans": len(self.spans),
            "amps_touched": self.amps_touched,
            "apply_calls": self.apply_calls,
            "apply_unique": self.apply_unique,
        }
