"""Seeded item streams for the three benchmark workloads.

Every stream is an endless iterator of items, fully determined by the seed,
so a run can take as many items as fit in its time budget.  Items are plain
tuples that pickle cheaply; ``worker.py`` executes them against nvgates and
``checks.py`` verifies the outputs.

- ``sweep-random``: ``("sweep", gate, ratio, trials, seed)`` over the default grid
  of 96 coupling ratios in [0.5, 10] x 3 gates, the grid order reshuffled on
  every pass and every gate issued once per ratio.
- ``verify-cli``: ``("verify", argv, ideal)`` for ``nvgates verify`` with
  20 trials, the regime cycling through ratio 1, 2.5, 6 and ``--ideal``.
- ``netlist-oneshot``: ``("netlist", text, r_hot, expect)`` with a freshly
  generated ``.nv`` text per item.  ``expect`` is ``None`` for a valid
  circuit, else ``(class, kind, line)`` for a malformed one.
"""

from __future__ import annotations

import itertools

import numpy as np

GATES = ("cnot", "toffoli", "fredkin")
RATIO_GRID = tuple(float(x) for x in np.linspace(0.5, 10.0, 96))
SWEEP_TRIALS = 16
VERIFY_TRIALS = 20
VERIFY_REGIMES = (("--ratio", "1"), ("--ratio", "2.5"), ("--ratio", "6"), ("--ideal",))
R_HOT = 0.8

# netlist-oneshot: each block of 20 items holds 18 valid circuits with this
# fixed (spins, element count) mix, in seeded order and wiring, plus two
# malformed texts.
BLOCK_SPINS = (2,) * 6 + (3,) * 6 + (4,) * 4 + (5,) * 2
BLOCK_ELEMENTS = tuple(int(x) for x in np.linspace(12, 40, len(BLOCK_SPINS)))
MALFORMED_PER_BLOCK = 2
AMP_CAP = 2500  # 2 * modes * 2**spins never exceeds this
# Malformed classes, cycled in this order.  "overlap" is the overlapping
# wire case (pbs a b -> c b); every class expects a NetlistError with the
# inserted line and its column, and every class but "overlap" also expects
# the listed diagnostic kind.
MALFORMED_CLASSES = (
    ("unknown", "unknown-directive"),
    ("undeclared", "undeclared-mode"),
    ("arity", "arity-mismatch"),
    ("ordering", "non-topological"),
    ("spin-range", "spin-range"),
    ("overlap", None),
)

WORKLOAD_PARAMS = {
    "sweep-random": {
        "call": "analysis.sweep([gate], [ratio], 'random', trials, seed)",
        "gates": list(GATES),
        "ratios": f"{len(RATIO_GRID)} points in [0.5, 10]",
        "trials": SWEEP_TRIALS,
    },
    "verify-cli": {
        "call": "cli.main(['verify', gate, '--trials', trials, '--seed', s, *regime])",
        "gates": list(GATES),
        "trials": VERIFY_TRIALS,
        "regimes": [" ".join(r) for r in VERIFY_REGIMES],
    },
    "netlist-oneshot": {
        "call": "parse_netlist(text); run_netlist(net, balanced_product_input(net), resonant_pair(r_hot))",
        "r_hot": R_HOT,
        "spins": sorted(set(BLOCK_SPINS)),
        "elements": [BLOCK_ELEMENTS[0], BLOCK_ELEMENTS[-1]],
        "max_amplitudes": AMP_CAP,
        "malformed_share": MALFORMED_PER_BLOCK / (len(BLOCK_SPINS) + MALFORMED_PER_BLOCK),
        "malformed_classes": [c for c, _ in MALFORMED_CLASSES],
    },
}
WORKLOADS = tuple(WORKLOAD_PARAMS)


def _seed32(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def sweep_items(seed: int):
    rng = np.random.default_rng(seed)
    while True:
        for i in rng.permutation(len(RATIO_GRID)):
            for gate in rng.permutation(GATES):
                yield ("sweep", str(gate), RATIO_GRID[i], SWEEP_TRIALS, _seed32(rng))


def verify_items(seed: int):
    rng = np.random.default_rng(seed)
    for k in itertools.count():
        regime = VERIFY_REGIMES[k % len(VERIFY_REGIMES)]
        s = str(_seed32(rng))
        for gate in rng.permutation(GATES):
            argv = ["verify", str(gate), "--trials", str(VERIFY_TRIALS), "--seed", s, *regime]
            yield ("verify", argv, regime == ("--ideal",))


class _Circuit:
    """A generated feed-forward circuit: every splitter writes fresh wires,
    every mode is detected, photon enters on ``m0``."""

    def __init__(self, rng: np.random.Generator, n_spins: int, n_elements: int):
        self.n_spins = n_spins
        self.modes = ["m0"]
        self.lines: list[str] = []
        self.writer_of: dict[str, int] = {}  # mode -> index of the line writing it
        live = ["m0"]
        cfg = 2**n_spins

        def fits(extra: int) -> bool:
            return 2 * (len(self.modes) + extra) * cfg <= AMP_CAP

        def fresh(written: bool = True) -> str:
            label = f"w{len(self.modes)}"
            self.modes.append(label)
            if written:
                self.writer_of[label] = len(self.lines)
            return label

        kinds = ("pbs", "bs", "pbsfs", "hwp", "nv", "spinh")
        for _ in range(n_elements):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind in ("pbs", "bs", "pbsfs") and not fits(3):
                kind = ("hwp", "nv")[int(rng.integers(2))]
            if kind == "hwp":
                self.lines.append(f"hwp {live[int(rng.integers(len(live)))]}")
            elif kind == "nv":
                m = live[int(rng.integers(len(live)))]
                self.lines.append(f"nv {m} spin_{int(rng.integers(n_spins))}")
            elif kind == "spinh":
                self.lines.append(f"spinh {int(rng.integers(n_spins))}")
            elif kind == "pbsfs":
                m = live.pop(int(rng.integers(len(live))))
                o1, o2 = fresh(), fresh()
                self.lines.append(f"pbsfs {m} -> {o1} {o2}")
                live += [o1, o2]
            else:  # pbs / bs: recombine two live wires, or one live + vacuum
                if len(live) >= 2 and rng.random() < 0.5:
                    i, j = rng.choice(len(live), size=2, replace=False)
                    a, b = live[i], live[j]
                    live = [m for m in live if m not in (a, b)]
                else:
                    a = live.pop(int(rng.integers(len(live))))
                    b = fresh(written=False)  # a vacuum input port
                if rng.random() < 0.5:
                    a, b = b, a
                o1, o2 = fresh(), fresh()
                self.lines.append(f"{kind} {a} {b} -> {o1} {o2}")
                live += [o1, o2]

    def text(self, inserted: tuple[int, str] | None = None) -> tuple[str, int]:
        """Circuit text, optionally with one extra line inserted before
        element line ``inserted[0]``; returns (text, 1-based inserted line)."""
        body = list(self.lines)
        line_no = 0
        if inserted is not None:
            body.insert(inserted[0], inserted[1])
            line_no = 4 + inserted[0]  # after the comment, spins and modes lines
        head = ["# generated circuit", f"spins {self.n_spins}", "modes " + " ".join(self.modes)]
        tail = [f"detect {m}" for m in self.modes]
        return "\n".join(head + body + tail) + "\n", line_no


def _malformed(rng: np.random.Generator, cls: str):
    """A malformed text of class ``cls`` and the line that should be blamed."""
    while True:
        c = _Circuit(rng, int(rng.integers(2, 4)), int(rng.integers(12, 25)))
        written = list(c.writer_of)
        if len(c.modes) >= 3 and written:
            break
    modes, n = c.modes, c.n_spins
    pos = int(rng.integers(len(c.lines) + 1))

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    if cls == "unknown":
        bad = f"mirror {pick(modes)}"
    elif cls == "undeclared":
        bad = f"hwp q{len(modes)}"
    elif cls == "arity":
        bad = f"bs {pick(modes)} {pick(modes)} -> {pick(modes)}"
    elif cls == "ordering":
        target = pick(written)
        pos = int(rng.integers(c.writer_of[target] + 1))
        bad = f"nv {target} spin_{int(rng.integers(n))}"
    elif cls == "spin-range":
        bad = f"nv {pick(modes)} spin_{n + int(rng.integers(3))}"
    else:  # overlap: an output wire repeats an input wire
        a, b, out = (modes[i] for i in rng.choice(len(modes), size=3, replace=False))
        bad = f"pbs {a} {b} -> {out} {b}"
    return c.text((pos, bad))


def netlist_items(seed: int):
    rng = np.random.default_rng(seed)
    n_malformed = 0
    while True:
        sizes = list(zip(rng.permutation(BLOCK_SPINS), rng.permutation(BLOCK_ELEMENTS)))
        block: list = [None] * MALFORMED_PER_BLOCK + sizes
        for entry in (block[i] for i in rng.permutation(len(block))):
            if entry is None:
                cls, kind = MALFORMED_CLASSES[n_malformed % len(MALFORMED_CLASSES)]
                n_malformed += 1
                text, line = _malformed(rng, cls)
                yield ("netlist", text, R_HOT, (cls, kind, line))
            else:
                text, _ = _Circuit(rng, int(entry[0]), int(entry[1])).text()
                yield ("netlist", text, R_HOT, None)


STREAMS = {"sweep-random": sweep_items, "verify-cli": verify_items, "netlist-oneshot": netlist_items}
