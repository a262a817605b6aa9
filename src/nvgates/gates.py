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
feedforward table included; :func:`build_gate_circuit` parses it.  The
block-matrix helpers give the closed-form operators of the interferometer
building blocks for comparison with the simulated circuits.
"""

from __future__ import annotations

import functools
from importlib import resources

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair
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


def build_mz_block(routed_pol: str, r: ReflectionPair = IDEAL_PAIR) -> np.ndarray:
    """Diagonal operator of one single-NV Mach-Zehnder block on
    (polarization x one spin), basis {R+, R-, L+, L-}.

    ``routed_pol`` names the polarization sent through the NV arm; the other
    polarization takes the free arm.  Ideal case: L-routed gives
    diag(1, 1, -1, 1), R-routed gives diag(1, -1, 1, 1).
    """
    if routed_pol not in ("R", "L"):
        raise ValueError(f"routed_pol must be 'R' or 'L', got {routed_pol!r}")
    if routed_pol == "L":
        diag = [1.0, 1.0, r.r_cold, r.r_hot]
    else:
        diag = [r.r_hot, r.r_cold, 1.0, 1.0]
    return np.diag(np.asarray(diag, dtype=complex))


def build_two_nv_mz_block(
    routed_pol: str,
    r_first: ReflectionPair = IDEAL_PAIR,
    r_second: ReflectionPair = IDEAL_PAIR,
) -> np.ndarray:
    """Diagonal operator of a Mach-Zehnder block whose NV arm holds two NVs
    in sequence, on (polarization x two spins), basis
    {R++, R+-, R-+, R--, L++, L+-, L-+, L--}.

    It is the product of the two NVs' :func:`build_mz_block` diagonals,
    the first on the first spin and the second on the second; the
    reflections are scalar factors, so the opposite visiting order yields
    the identical operator.  Ideal case: R-routed gives
    diag(1, -1, -1, 1, 1, 1, 1, 1), L-routed gives
    diag(1, 1, 1, 1, 1, -1, -1, 1).
    """
    first = np.diag(build_mz_block(routed_pol, r_first)).reshape(2, 2, 1)
    second = np.diag(build_mz_block(routed_pol, r_second)).reshape(2, 1, 2)
    return np.diag((first * second).ravel())


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
