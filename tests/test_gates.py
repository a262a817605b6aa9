"""Gate circuits: Mach-Zehnder blocks run through the engine, ideal unitaries, circuit behavior."""

import math
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import nvgates
from nvgates.analysis import efficiency_closed_form, fidelity_closed_form
from nvgates.cavity import IDEAL_PAIR, resonant_pair
from nvgates.gates import (
    GATE_NAMES,
    build_gate_circuit,
    ideal_gate_unitary,
)
from nvgates.netlist import (
    balanced_product_input,
    max_nv_path_depth,
    nv_element_count,
    product_input,
    run_netlist,
    serialize_netlist,
    parse_netlist,
)
from nvgates.state import spin_config_index, PLUS, MINUS

from conftest import kron_pairs, mz_block, random_reflection, random_spin_pairs
from oracle import circuit_matrix, flat

SQ2 = 1.0 / math.sqrt(2.0)


# --- block matrices -------------------------------------------------------

def _mz_diagonal(routed, pair):
    """Closed-form diagonal of a one-NV block, basis {R+, R-, L+, L-}: the
    routed polarization meets the NV, the other one takes the free arm."""
    if routed == "L":
        return np.array([1.0, 1.0, pair.r_cold, pair.r_hot], dtype=complex)
    return np.array([pair.r_hot, pair.r_cold, 1.0, 1.0], dtype=complex)


def test_mz_block_ideal_diagonals():
    assert np.allclose(mz_block("L", IDEAL_PAIR), np.diag([1, 1, -1, 1]), atol=0)
    assert np.allclose(mz_block("R", IDEAL_PAIR), np.diag([1, -1, 1, 1]), atol=0)


def test_mz_block_realistic_entry():
    block = mz_block("L", resonant_pair(0.5))
    assert np.allclose(block, np.diag([1, 1, -1, 0.5]), atol=0)


def test_two_nv_block_ideal_diagonals():
    assert np.allclose(
        mz_block("R", IDEAL_PAIR, IDEAL_PAIR), np.diag([1, -1, -1, 1, 1, 1, 1, 1]), atol=0
    )
    assert np.allclose(
        mz_block("L", IDEAL_PAIR, IDEAL_PAIR), np.diag([1, 1, 1, 1, 1, -1, -1, 1]), atol=0
    )


def test_two_nv_block_realistic_entries():
    r = resonant_pair(0.7)
    block = mz_block("R", r, r)
    assert block[0, 0] == pytest.approx(0.49)          # R++ -> r^2
    assert block[3, 3] == pytest.approx(1.0)           # R-- -> r_cold^2
    assert block[1, 1] == pytest.approx(-0.7)          # R+- -> r*r_cold


def test_mz_block_matches_circuit_fragment(rng):
    # a PBS pair enclosing an NV is the closed-form diagonal on (pol x spin)
    pair = resonant_pair(rng.uniform(0, 1))
    for routed in ("L", "R"):
        assert np.allclose(mz_block(routed, pair), np.diag(_mz_diagonal(routed, pair)), rtol=0, atol=1e-12)


def test_two_nv_block_matches_circuit_fragment(rng):
    # PBS -> nv spin_0 -> nv spin_1 -> PBS with two different lossy pairs,
    # in both routings, is the product of the two NVs' diagonals, the first
    # on the first spin; swapping the NVs' pairs gives another block, so the
    # order of the factors is pinned too
    first, second = random_reflection(rng, resonant_cold=False), random_reflection(rng, resonant_cold=False)
    for routed in ("R", "L"):
        block = mz_block(routed, first, second)
        assert not np.allclose(block, mz_block(routed, second, first))
        product = _mz_diagonal(routed, first).reshape(2, 2, 1) * _mz_diagonal(routed, second).reshape(2, 1, 2)
        assert np.allclose(block, np.diag(product.ravel()), rtol=0, atol=1e-12)


# --- ideal unitaries ------------------------------------------------------

def test_ideal_unitaries_are_permutations():
    for name in GATE_NAMES:
        u = ideal_gate_unitary(name)
        assert np.array_equal(np.abs(u), np.abs(u).astype(int))
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]))
        assert np.allclose(np.abs(u).sum(axis=0), 1)


def test_ideal_unitary_examples():
    cnot = ideal_gate_unitary("cnot")
    src = spin_config_index((MINUS, PLUS))
    dst = spin_config_index((MINUS, MINUS))
    assert cnot[dst, src] == 1.0
    toffoli = ideal_gate_unitary("toffoli")
    keep = spin_config_index((PLUS, MINUS, PLUS))
    assert toffoli[keep, keep] == 1.0
    fredkin = ideal_gate_unitary("fredkin")
    src = spin_config_index((MINUS, PLUS, MINUS))
    dst = spin_config_index((MINUS, MINUS, PLUS))
    assert fredkin[dst, src] == 1.0


def test_ideal_unitary_built_once_and_read_only():
    for name in GATE_NAMES:
        target = ideal_gate_unitary(name)
        assert ideal_gate_unitary(name.upper()) is target
        assert not target.flags.writeable
        with pytest.raises(ValueError):
            target[0, 0] = 0.0


# --- circuits -------------------------------------------------------------

def test_shipped_circuit_files():
    # the .nv files are the only definition of the gates: exactly one per
    # gate ships as package data, and each is parsed once
    circuits = resources.files("nvgates").joinpath("circuits")
    assert {f.name for f in circuits.iterdir()} == {f"{name}.nv" for name in GATE_NAMES}
    for name in GATE_NAMES:
        assert build_gate_circuit(name) is build_gate_circuit(name)


def test_a_renamed_copy_of_the_package_reads_its_own_circuit_files(tmp_path):
    # nothing named nvgates is importable in the subprocess, and the copy's
    # cnot file differs from this package's
    copy = tmp_path / "nvgates_copy"
    shutil.copytree(Path(nvgates.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "circuits" / "cnot.nv", "a", encoding="utf-8") as fh:
        fh.write("# the copy's own file\n")
    code = "from nvgates_copy import gates; gates.build_gate_circuit('cnot'); print(gates.shipped_circuit_text('cnot'))"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(tmp_path)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("# the copy's own file\n\n")


def test_gate_circuit_parsed_once_in_any_letter_case(monkeypatch):
    from nvgates import gates

    for name in GATE_NAMES:
        net = build_gate_circuit(name)
        assert build_gate_circuit(name.upper()) is net
        assert build_gate_circuit(name.capitalize()) is net
    # a new spelling of a known gate parses nothing
    monkeypatch.setattr(gates, "parse_netlist", lambda text: pytest.fail("parsed again"))
    assert build_gate_circuit("CnOt") is build_gate_circuit("cnot")


# every reader of a gate name, each returning something comparable
_GATE_NAME_READERS = {
    "build_gate_circuit": build_gate_circuit,
    "ideal_gate_unitary": lambda name: id(ideal_gate_unitary(name)),
    "fidelity_closed_form": lambda name: fidelity_closed_form(name, 0.5),
    "efficiency_closed_form": lambda name: efficiency_closed_form(name, 0.5),
}


@pytest.mark.parametrize("reader", sorted(_GATE_NAME_READERS))
def test_one_gate_name_rule(reader):
    # one rule for every reader: any letter case, and one diagnostic
    read = _GATE_NAME_READERS[reader]
    assert read("Toffoli") == read("toffoli")
    with pytest.raises(ValueError, match=r"unknown gate 'swap'; expected one of \('cnot', 'toffoli', 'fredkin'\)"):
        read("swap")


def test_builder_round_trip():
    for name in GATE_NAMES:
        net = build_gate_circuit(name)
        assert parse_netlist(serialize_netlist(net)) == net


def test_nv_interaction_counts():
    # reflections along the longest photon path / total nv elements
    expected = {"cnot": (2, 2), "toffoli": (3, 4), "fredkin": (5, 7)}
    for name, (depth, count) in expected.items():
        net = build_gate_circuit(name)
        assert max_nv_path_depth(net) == depth
        assert nv_element_count(net) == count


def test_cnot_basis_example():
    net = build_gate_circuit("cnot")
    state = product_input(net, [(0, 1), (1, 0)])  # |-,+>
    for outcome in run_netlist(net, state):
        assert outcome.probability == pytest.approx(0.5, abs=1e-12)
        assert abs(outcome.spins.amps[spin_config_index((MINUS, MINUS))]) == pytest.approx(1.0, abs=1e-12)


def test_toffoli_flip_example(rng):
    a, b = random_spin_pairs(rng, 1)[0]
    net = build_gate_circuit("toffoli")
    state = product_input(net, [(0, 1), (0, 1), (a, b)])
    for outcome in run_netlist(net, state):
        assert outcome.probability == pytest.approx(0.25, abs=1e-12)
        got_flip = outcome.spins.amps[spin_config_index((MINUS, MINUS, PLUS))]
        got_keep = outcome.spins.amps[spin_config_index((MINUS, MINUS, MINUS))]
        assert got_flip == pytest.approx(b, abs=1e-12)
        assert got_keep == pytest.approx(a, abs=1e-12)


def test_fredkin_control_plus_identity(rng):
    net = build_gate_circuit("fredkin")
    pairs = [(1, 0)] + random_spin_pairs(rng, 2)
    state = product_input(net, pairs)
    expected = kron_pairs(pairs)
    for outcome in run_netlist(net, state):
        assert outcome.probability == pytest.approx(0.25, abs=1e-12)
        assert np.abs(outcome.spins.amps - expected).max() < 1e-12


def test_outcome_uniformity_ideal(rng):
    probs = {"cnot": 0.5, "toffoli": 0.25, "fredkin": 0.25}
    for name in GATE_NAMES:
        net = build_gate_circuit(name)
        state = product_input(net, random_spin_pairs(rng, net.n_spins))
        for outcome in run_netlist(net, state):
            assert outcome.probability == pytest.approx(probs[name], abs=1e-12)


def test_paper_traced_outcomes_exact_amplitudes(rng):
    # the feedforward tables restore the ideal output exactly, global phase +1
    for name in GATE_NAMES:
        net = build_gate_circuit(name)
        target = ideal_gate_unitary(name)
        pairs = random_spin_pairs(rng, net.n_spins)
        expected = target @ kron_pairs(pairs)
        for outcome in run_netlist(net, product_input(net, pairs)):
            assert np.abs(outcome.spins.amps - expected).max() < 1e-12


def test_gate_entangles_balanced_control():
    # CNOT on ((|+>+|->)/sqrt2) x |+> yields a maximally entangled pair
    net = build_gate_circuit("cnot")
    state = product_input(net, [(SQ2, SQ2), (1, 0)])
    for outcome in run_netlist(net, state):
        rho = outcome.spins.amps.reshape(2, 2)
        schmidt = np.linalg.svd(rho, compute_uv=False)
        assert np.abs(schmidt - SQ2).max() < 1e-10


def test_block_level_cnot_equality():
    # the full netlist equals (L-routed block) -> HWP -> (spin-H . R-routed
    # block . spin-H) as an operator from the input wire to the detector wire
    net = build_gate_circuit("cnot")
    full = circuit_matrix(net, IDEAL_PAIR)
    n_modes, n_cfg = len(net.modes), 4
    src_mode = net.modes.index("in")
    dst_mode = net.modes.index("9")

    # single-wire composition on (pol x control x target), index pol*4+c*2+t
    mz1 = mz_block("L", IDEAL_PAIR)      # on (pol, control)
    mz2 = mz_block("R", IDEAL_PAIR)      # on (pol, target)
    h_ph = np.kron(np.array([[1, 1], [1, -1]]) * SQ2, np.eye(4))
    h_el = np.array([[1, 1], [1, -1]]) * SQ2
    block1 = np.kron(mz1, np.eye(2))
    spin_h_t = np.kron(np.eye(4), h_el)
    # mz2 acts on (pol, t) with the control as spectator; it is diagonal
    op2 = np.diag([mz2[p * 2 + t, p * 2 + t] for p in range(2) for _ in range(2) for t in range(2)])
    composed = spin_h_t @ op2 @ spin_h_t @ h_ph @ block1

    for pol_i in range(2):
        for cfg_i in range(n_cfg):
            src = flat(pol_i, src_mode, cfg_i, n_modes, n_cfg)
            col = full[:, src]
            for pol_o in range(2):
                for cfg_o in range(n_cfg):
                    got = col[flat(pol_o, dst_mode, cfg_o, n_modes, n_cfg)]
                    want = composed[pol_o * 4 + cfg_o, pol_i * 4 + cfg_i]
                    assert got == pytest.approx(want, abs=1e-12)


def test_feedforward_tables_cover_outcomes():
    for name in GATE_NAMES:
        net = build_gate_circuit(name)
        table = dict(net.feedforward)
        assert set(table) == set(net.outcome_labels())


def test_realistic_regime_outcomes_still_sum(rng):
    pair = resonant_pair(0.37)
    for name in GATE_NAMES:
        net = build_gate_circuit(name)
        state = balanced_product_input(net)
        outcomes = run_netlist(net, state, pair)
        total = sum(o.probability for o in outcomes)
        assert 0 < total < 1
