"""Shared fixtures, random-input helpers, and a random circuit generator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nvgates.cavity import ReflectionPair
from nvgates.elements import Element, Kind
from nvgates.netlist import Netlist


def random_amplitude_pair(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_spin_pairs(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    return [random_amplitude_pair(rng) for _ in range(n)]


def kron_pairs(pairs) -> np.ndarray:
    v = np.ones(1, dtype=complex)
    for p in pairs:
        v = np.kron(v, np.asarray(p, dtype=complex))
    return v


def random_reflection(rng: np.random.Generator, resonant_cold: bool = True) -> ReflectionPair:
    """Random physical pair with |r_hot| <= 1 (and |r_cold| <= 1)."""
    r_hot = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if resonant_cold:
        r_cold = -1.0 + 0.0j
    else:
        r_cold = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ReflectionPair(r_hot=r_hot, r_cold=r_cold)


def random_netlist(rng: np.random.Generator, n_elements: int = 8) -> Netlist:
    """Random feed-forward circuit whose detectors cover every mode.

    PBS/BS/PBSFS always write fresh output labels, so no element ever routes
    amplitude into an occupied mode; the input state should occupy only
    ``m0``.
    """
    n_spins = int(rng.integers(2, 4))
    modes = ["m0"]
    live = ["m0"]
    fresh = 0

    def new_mode():
        nonlocal fresh
        fresh += 1
        label = f"f{fresh}"
        modes.append(label)
        return label

    elements: list[Element] = []
    for _ in range(n_elements):
        choice = rng.choice(["pbs", "bs", "pbsfs", "hwp", "nv", "spinh"])
        if choice == "hwp":
            m = str(rng.choice(live))
            elements.append(Element(Kind.HWP, (m,), (m,)))
        elif choice == "nv":
            m = str(rng.choice(live))
            k = int(rng.integers(0, n_spins))
            elements.append(Element(Kind.NV_SCATTER, (m,), (m,), spin=k))
        elif choice == "spinh":
            k = int(rng.integers(0, n_spins))
            elements.append(Element(Kind.SPIN_H, spin=k))
        elif choice == "pbs":
            m = str(rng.choice(live))
            second = new_mode()  # declared but never occupied: a vacuum port
            o1, o2 = new_mode(), new_mode()
            elements.append(Element(Kind.PBS_RL, (m, second), (o1, o2)))
            live.remove(m)
            live.extend([o1, o2])
        elif choice == "pbsfs":
            m = str(rng.choice(live))
            o1, o2 = new_mode(), new_mode()
            elements.append(Element(Kind.PBS_FS, (m,), (o1, o2)))
            live.remove(m)
            live.extend([o1, o2])
        else:  # bs
            if len(live) >= 2:
                picks = rng.choice(len(live), size=2, replace=False)
                a, b = live[picks[0]], live[picks[1]]
            else:
                a, b = live[0], new_mode()
            o1, o2 = new_mode(), new_mode()
            elements.append(Element(Kind.BS5050, (a, b), (o1, o2)))
            for m in {a, b}:
                if m in live:
                    live.remove(m)
            live.extend([o1, o2])
    return Netlist(
        n_spins=n_spins,
        modes=tuple(modes),
        elements=tuple(elements),
        detectors=tuple(modes),
        feedforward=(),
    )


def random_hybrid_input(rng: np.random.Generator, net: Netlist):
    """Random normalized state with the photon confined to the input mode."""
    from nvgates.state import HybridState

    amps = np.zeros((2, len(net.modes), 2**net.n_spins), dtype=complex)
    block = rng.normal(size=(2, 2**net.n_spins)) + 1j * rng.normal(size=(2, 2**net.n_spins))
    block /= np.linalg.norm(block)
    amps[:, net.modes.index("m0") if "m0" in net.modes else 0, :] = block
    return HybridState(net.modes, net.n_spins, amps)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20130423)


BALANCED = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion at the end of the run.

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.outcome == "passed" else report.outcome.upper()
        if report.when == "call" and report.outcome == "failed":
            outcome = "FAIL"
        _ACCEPTANCE_RESULTS[name] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]:<5} {name}")
