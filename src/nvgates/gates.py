"""Prebuilt photon-mediated gate circuits on NV spins.

Three circuits are provided, each driven by one photon prepared in
(|R>+|L>)/sqrt2 that is routed through Mach-Zehnder blocks (a PBS pair
enclosing NV reflections), measured in the F/S basis, and completed by
outcome-conditioned single-spin corrections:

- ``cnot``    (2 spins): flips the target iff the control is |->.
- ``toffoli`` (3 spins): flips the target iff both controls are |->.
- ``fredkin`` (3 spins): swaps the two targets iff the control is |->.

Spin 0 is always the (first) control.  Mode labels follow the wire numbers
of the corresponding interferometer layouts; pass-through components (hwp,
nv) keep their wire's incoming label.  Unnamed interferometer arms use
labels 20-27, ``vac`` is a shared never-occupied input port and ``w`` a
shared always-empty recombination port.

Each circuit is defined only by its shipped data file ``circuits/<name>.nv``,
feedforward table included; :func:`build_gate_circuit` parses it.
"""

from __future__ import annotations

import functools
from importlib import resources

import numpy as np

from .netlist import Netlist, parse_netlist

GATE_NAMES = ("cnot", "toffoli", "fredkin")


def _canon(name: str) -> str:
    low = str(name).lower()
    if low not in GATE_NAMES:
        raise ValueError(f"unknown gate {name!r}; expected one of {GATE_NAMES}")
    return low


def ideal_gate_unitary(name: str) -> np.ndarray:
    """Permutation matrix over spin configurations, spin 0 most significant.

    cnot: flips spin 1 iff spin 0 is |->.  toffoli: flips spin 2 iff spins
    0 and 1 are both |->.  fredkin: swaps spins 1 and 2 iff spin 0 is |->.
    Each gate's matrix is built once and is read-only.
    """
    return _target_gate(_canon(name))


@functools.cache
def _target_gate(name: str) -> np.ndarray:
    if name == "cnot":
        perm = [0, 1, 3, 2]
    elif name == "toffoli":
        perm = [0, 1, 2, 3, 4, 5, 7, 6]
    else:  # fredkin: configs 101 <-> 110
        perm = [0, 1, 2, 3, 4, 6, 5, 7]
    dim = len(perm)
    u = np.zeros((dim, dim), dtype=complex)
    for src, dst in enumerate(perm):
        u[dst, src] = 1.0
    u.setflags(write=False)
    return u


def build_gate_circuit(name: str) -> Netlist:
    """The gate circuit with its feedforward table, parsed once from its
    shipped .nv file; every call, in any letter case, returns the same
    immutable netlist."""
    return _gate_circuit(_canon(name))


@functools.cache
def _gate_circuit(name: str) -> Netlist:
    return parse_netlist(shipped_circuit_text(name))


def shipped_circuit_text(name: str) -> str:
    """Contents of the shipped .nv data file for a gate."""
    name = _canon(name)
    return resources.files(__package__).joinpath(f"circuits/{name}.nv").read_text(encoding="utf-8")
