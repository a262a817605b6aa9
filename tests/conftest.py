"""Shared fixtures, random-input helpers, and a random circuit generator."""

from __future__ import annotations

import contextlib
import io
import math
import random
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from nvgates.cavity import IDEAL_PAIR, ReflectionPair
from nvgates.cli import main
from nvgates.elements import Element, Kind, _apply_element
from nvgates.netlist import Netlist, NetlistError, parse_netlist, serialize_netlist
from nvgates.state import HybridState


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)`` in process.  Every
    warning it raises is shown, each time, on stderr as outside pytest."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    shown = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return code, out.getvalue(), err.getvalue() + shown


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


def phase_aligned_deviation(actual, expected) -> float:
    """Max amplitude deviation after removing one optimal global phase.

    A gate may differ from its ideal by a global phase; everything else
    (relative phases, moduli) must match.  Stacked vectors, shape (..., d),
    are each aligned with their own phase, and the largest deviation over
    all of them is returned.
    """
    actual, expected = np.asarray(actual, dtype=complex), np.asarray(expected, dtype=complex)
    assert actual.shape == expected.shape, (actual.shape, expected.shape)
    ov = (expected.conj() * actual).sum(axis=-1, keepdims=True)
    mag = abs(ov)
    phase = np.divide(ov, mag, out=np.ones(ov.shape, dtype=complex), where=mag > 0)
    return float(abs(actual - phase * expected).max())


def random_reflection(rng: np.random.Generator, resonant_cold: bool = True) -> ReflectionPair:
    """Random physical pair with |r_hot| <= 1 (and |r_cold| <= 1)."""
    r_hot = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    if resonant_cold:
        r_cold = -1.0 + 0.0j
    else:
        r_cold = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return ReflectionPair(r_hot=r_hot, r_cold=r_cold)


def mz_block(routed: str, *pairs: ReflectionPair) -> np.ndarray:
    """Operator of a Mach-Zehnder block on (polarization x spins), run
    through the engine: a PBS pair around one ``nv`` per pair, NV k on spin
    k with ``pairs[k]``, on the arm polarization ``routed`` ("R" or "L")
    takes.  Column p * 2**n + c is the amplitude on mode ``out`` for the
    photon entering mode ``m`` with polarization p and spins in configuration
    c, indexed the same way; no amplitude may be left on another mode."""
    arm = {"R": "arm0", "L": "arm1"}[routed]  # R transmits to the first output, L reflects to the second
    n = len(pairs)
    net = parse_netlist("\n".join([f"spins {n}", "modes m vac arm0 arm1 out w", "pbs m vac -> arm0 arm1",
                                   *(f"nv {arm} spin_{k}" for k in range(n)), "pbs arm0 arm1 -> out w"]))
    m, out, dim = net.modes.index("m"), net.modes.index("out"), 2 << n
    block = np.empty((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros((2, len(net.modes), dim // 2), dtype=complex)
        amps[col // (dim // 2), m, col % (dim // 2)] = 1.0
        state = HybridState(net.modes, n, amps)
        for el in net.elements:
            state = _apply_element(state, el, pairs[el.spin] if el.kind is Kind.NV_SCATTER else IDEAL_PAIR)
        assert not np.any(np.delete(state.amps, out, axis=1))
        block[:, col] = state.amps[:, out].ravel()
    return block


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


# tokens a mutation may put on a .nv line: every directive, the arrow, spin
# operands in and out of range, operators and outcome labels good and bad
MUTATION_TOKENS = (
    "spins", "modes", "pbs", "pbsfs", "hwp", "bs", "nv", "spinh", "detect", "feedforward", "->", "#",
    "spin_0", "spin_1", "spin_2", "spin_3", "spin_x", "0", "1", "2", "3", "-1", "24", "I", "Z", "-Z", "X",
    "F9:", "S9:", "Fnope:", ":", "in", "vac", "m0", "f1", "\u03b1",
)


def text_refusal(n_spins, modes, elements, detectors, feedforward=()) -> NetlistError:
    """The error that parsing the text of these ``Netlist`` fields raises;
    the fields need not make a ``Netlist``, since the serializer reads only
    them."""
    fields = SimpleNamespace(n_spins=n_spins, modes=modes, elements=elements, detectors=detectors, feedforward=feedforward)
    with pytest.raises(NetlistError) as err:
        parse_netlist(serialize_netlist(fields))
    return err.value


def mutate_netlist_text(rng: random.Random, text: str) -> str:
    """``text`` after one to three edits drawn from ``rng``.

    An edit swaps, deletes or inserts a line; replaces, drops or adds a
    token; adds or deletes a ``detect`` line; repeats a ``feedforward``
    rule or gives it another outcome label; or changes the spin count.  One text in four is then
    re-spaced: tabs and runs of blanks between tokens, leading blanks,
    trailing comments and CRLF endings.
    """
    lines = text.splitlines() or [""]

    def pick(prefix):
        found = [i for i, line in enumerate(lines) if line.startswith(prefix)]
        return rng.choice(found) if found else None

    def declared():
        k = pick("modes")
        return (lines[k].split()[1:] if k is not None else []) or ["nope"]

    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines) + 1)
        toks = lines[i].split()
        edit = rng.randrange(10)
        if edit == 0:
            lines[i], lines[j - 1] = lines[j - 1], lines[i]
        elif edit == 1 and len(lines) > 1:
            del lines[i]
        elif edit == 2:
            junk = " ".join(rng.choices(MUTATION_TOKENS, k=rng.randint(1, 5)))
            lines.insert(j, lines[i] if rng.random() < 0.5 else junk)
        elif edit == 3 and toks:
            toks[rng.randrange(len(toks))] = rng.choice(rng.choice((MUTATION_TOKENS, text.split())))
            lines[i] = " ".join(toks)
        elif edit == 4 and toks:
            del toks[rng.randrange(len(toks))]
            lines[i] = " ".join(toks)
        elif edit == 5:
            toks.insert(rng.randint(0, len(toks)), rng.choice(MUTATION_TOKENS))
            lines[i] = " ".join(toks)
        elif edit == 6:
            lines.insert(j, f"detect {rng.choice(declared())}")
        elif edit == 7 and (k := pick("detect")) is not None:
            del lines[k]
        elif edit == 8 and (k := pick("feedforward")) is not None:
            rule = lines[k]
            if rng.random() < 0.5:  # the same outcome again, or another one
                label = rng.choice("FS") + rng.choice([*declared(), "nope"])
                rule = f"feedforward {label}:{rule.partition(':')[2]}"
            lines.insert(j, rule)
        elif edit == 9 and (k := pick("spins")) is not None:
            lines[k] = f"spins {rng.choice(('1', '0', '24', 'x'))}"
    if rng.random() >= 0.25:
        return "\n".join(lines) + "\n"
    eol = rng.choice(("\n", "\r\n"))
    respaced = []
    for line in lines:
        code, hash_, comment = line.partition("#")
        toks = code.split() or [""]
        body = toks[0] + "".join(rng.choice((" ", "\t", "  ", " \t ")) + tok for tok in toks[1:])
        tail = hash_ + comment if hash_ else rng.choice(("", "", "  # note", "\t# x -> y", "#"))
        respaced.append(rng.choice(("", " ", "\t")) + body + tail)
    return eol.join(respaced) + rng.choice((eol, ""))


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
