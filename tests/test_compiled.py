"""Compiled circuits: exact polynomial coefficients in r_hot from one run.

``analysis.compile_circuit`` runs a circuit once with r_hot a formal
variable and every mode detected.  These tests pin its outcome maps and
efficiencies to the widened interpreter at the same reflection pair and to
the dense oracle of ``oracle.py``, check that exact zeros stay exact, and
check the formal shift itself.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgates import netlist
from nvgates.analysis import _basis_run, _FormalHot, compile_circuit
from nvgates.cavity import IDEAL_PAIR, ParameterError, ReflectionPair, resonant_pair, scatter
from nvgates.elements import Kind, Pauli
from nvgates.gates import GATE_NAMES, build_gate_circuit, shipped_circuit_text
from nvgates.netlist import _every_mode_detected, nv_element_count, parse_netlist, run_netlist
from nvgates.state import HybridState, PLUS, R

import oracle
from conftest import random_netlist
from test_netlist_properties import netlists

PAIRS = {
    "ideal": IDEAL_PAIR,
    "resonant-0.3": resonant_pair(0.3),
    "absorbing": resonant_pair(0.0),
    "complex": ReflectionPair(r_hot=0.6 * np.exp(0.7j), r_cold=0.9 * np.exp(-2.1j)),
}
TOL = 1e-12


def _interpreter(net, pair):
    """Outcome maps, shape (outcomes, 2**n, 2**n), and the pre-detection
    squared norm per basis input, from one widened interpreter run; every
    mode is detected, so all its rows together hold the norm."""
    dim = 2**net.n_spins
    rows = np.array([o.amps for o in run_netlist(*_basis_run(net), pair)]).reshape(-1, dim, dim)
    return rows[: 2 * len(net.detectors)], np.sum(np.abs(rows) ** 2, axis=(0, 1))


def _oracle(net, pair):
    """The same two quantities from the dense circuit matrix, one basis
    input at a time, photon (|R>+|L>)/sqrt2 on the input mode."""
    dim = 2**net.n_spins
    matrix = oracle.circuit_matrix(net, pair)
    maps = np.zeros((2 * len(net.detectors), dim, dim), dtype=complex)
    norms = np.zeros(dim)
    for cfg in range(dim):
        vec = np.zeros((2, len(net.modes), dim), dtype=complex)
        vec[:, 0, cfg] = 1.0 / math.sqrt(2.0)
        amps = (matrix @ vec.reshape(-1)).reshape(vec.shape)
        for row, (_, _, spins) in enumerate(oracle.detect(net, amps)):
            maps[row, :, cfg] = spins
        norms[cfg] = np.sum(np.abs(amps) ** 2)
    return maps, norms


def _compiled(net, pair):
    compiled = compile_circuit(net, pair.r_cold)
    maps = compiled.maps(pair.r_hot)
    return maps[: compiled.n_outcomes], np.sum(np.abs(maps) ** 2, axis=(0, 1))


def _random_nets(rng, count):
    nets = [random_netlist(rng, n_elements=10) for _ in range(count)]
    kinds = {el.kind for net in nets for el in net.elements}
    assert {Kind.BS5050, Kind.PBS_FS, Kind.NV_SCATTER} <= kinds
    return nets


def _fresh(gate):
    return parse_netlist(shipped_circuit_text(gate))


@pytest.mark.parametrize("gate", GATE_NAMES)
@pytest.mark.parametrize("pair_name", PAIRS)
def test_compiled_gate_matches_interpreter_and_oracle(gate, pair_name):
    pair = PAIRS[pair_name]
    net = _fresh(gate)
    maps, norms = _compiled(net, pair)
    for name, (ref_maps, ref_norms) in (("interpreter", _interpreter(net, pair)), ("oracle", _oracle(net, pair))):
        assert np.max(np.abs(maps - ref_maps)) < TOL, name
        assert np.max(np.abs(norms - ref_norms)) < TOL, name


def test_compiled_random_circuits_match_interpreter_and_oracle(rng):
    for net in _random_nets(rng, 12):
        pair = ReflectionPair(r_hot=0.7 * np.exp(1.1j), r_cold=-0.95 + 0.1j)
        maps, norms = _compiled(net, pair)
        for ref_maps, ref_norms in (_interpreter(net, pair), _oracle(net, pair)):
            assert np.max(np.abs(maps - ref_maps)) < TOL
            assert np.max(np.abs(norms - ref_norms)) < TOL


@settings(max_examples=60, deadline=None)
@given(netlists(), st.complex_numbers(max_magnitude=1), st.complex_numbers(max_magnitude=1))
def test_compiled_generated_netlists_match_interpreter_and_oracle(net, r_hot, r_cold):
    # generated circuits have vacuum ports, partial detection and
    # feedforward tables; the input mode may be one no element reads
    pair = ReflectionPair(r_hot, r_cold)
    maps, norms = _compiled(net, pair)
    for ref_maps, ref_norms in (_interpreter(net, pair), _oracle(net, pair)):
        assert np.max(np.abs(maps - ref_maps), initial=0.0) < TOL
        assert np.max(np.abs(norms - ref_norms)) < TOL


def test_compiled_efficiency_counts_undetected_modes(rng):
    # detecting only the input mode leaves most amplitude undetected; the
    # compiled rows still sum to the pre-detection norm
    for net in _random_nets(rng, 8):
        partial = replace(net, detectors=net.detectors[:1])
        pair = resonant_pair(0.45)
        compiled = compile_circuit(partial, pair.r_cold)
        assert compiled.n_outcomes == 2
        maps, norms = _compiled(partial, pair)
        ref_maps, ref_norms = _interpreter(partial, pair)
        assert np.max(np.abs(maps - ref_maps)) < TOL
        assert np.max(np.abs(norms - ref_norms)) < TOL


def test_exact_zeros_at_zero_r_hot_match_the_interpreter(rng):
    nets = [_fresh(gate) for gate in GATE_NAMES] + _random_nets(rng, 8)
    for net in nets:
        for r_cold in (-1.0, 0.9 * np.exp(-2.1j), 0.0):
            pair = ReflectionPair(0.0, r_cold)
            maps, norms = _compiled(net, pair)
            ref_maps, ref_norms = _interpreter(net, pair)
            assert np.array_equal(maps == 0, ref_maps == 0)
            assert np.array_equal(norms == 0, ref_norms == 0)
    # every path meets an NV and both reflections absorb: all maps are zero
    dead = parse_netlist("spins 2\nmodes in\nnv in spin_0\ndetect in\n")
    maps, norms = _compiled(dead, ReflectionPair(0.0, 0.0))
    assert not np.any(maps) and not np.any(norms)


def test_degree_is_bounded_by_the_nv_count():
    for gate in GATE_NAMES:
        net = _fresh(gate)
        compiled = compile_circuit(net, -1.0)
        nv_count = sum(el.kind is Kind.NV_SCATTER for el in net.elements)
        assert 1 < len(compiled.coefficients) <= nv_count + 1
        assert np.any(compiled.coefficients[-1])
        assert not compiled.coefficients.flags.writeable


def test_compile_is_kept_for_the_last_r_cold_only():
    net = _fresh("cnot")
    first = compile_circuit(net, -1.0)
    assert compile_circuit(net, -1.0 + 0.0j) is first
    other = compile_circuit(net, 0.5)
    assert other is not first and not np.array_equal(other.maps(0.3), first.maps(0.3))
    assert compile_circuit(net, -1.0) is not first  # recompiled, equal values
    assert np.array_equal(compile_circuit(net, -1.0).coefficients, first.coefficients)
    assert len(net._compiled) == 1
    # the cache is no part of the netlist's value
    assert net == build_gate_circuit("cnot") and hash(net) == hash(build_gate_circuit("cnot"))


def test_compile_checks_no_netlist(monkeypatch):
    # the widened netlist is made from the checked circuit's facts, so a compile runs no Netlist.__post_init__
    checks = []
    original = netlist.Netlist.__post_init__
    monkeypatch.setattr(netlist.Netlist, "__post_init__", lambda net: checks.append(net) or original(net))
    for gate in GATE_NAMES:
        net = _fresh(gate)
        checks.clear()
        compile_circuit(net, -1.0)
        assert checks == [], gate


def _checked_widening(net, extra):
    """``_basis_run``'s netlist as the checked construction makes it: ``dataclasses.replace``."""
    idle = net.n_spins + extra
    undetected = tuple(m for m in net.modes if m not in net.detectors)
    return replace(net, n_spins=net.n_spins + idle, detectors=net.detectors + undetected,
                   feedforward=tuple((label, ops + (Pauli.I,) * idle) for label, ops in net.feedforward))


def test_the_widened_netlist_is_the_checked_one(rng):
    # a compile's widening, and nvgates run's: every mode detected on no idle spin (extra = -n)
    nets = [(_fresh(gate), extra) for gate in GATE_NAMES for extra in (0, nv_element_count(_fresh(gate)).bit_length())]
    nets += [(random_netlist(rng, n_elements=int(rng.integers(1, 16))), int(rng.integers(0, 4))) for _ in range(24)]
    for net, extra in nets:
        for extra, wide in ((extra, _basis_run(net, extra)[0]), (-net.n_spins, _every_mode_detected(net))):
            reference = _checked_widening(net, extra)
            assert wide == reference
            assert wide.lines == reference.lines == () and wide._compiled == {}
            assert all(type(getattr(wide, name)) is tuple for name in ("modes", "elements", "detectors", "feedforward"))


def test_a_widening_past_the_amplitude_cap_is_refused_as_the_checked_one_is():
    net = parse_netlist("spins 12\nmodes a\nhwp a\n")  # 2 * 2**24 amplitudes widened
    with pytest.raises(ValueError) as checked:
        _checked_widening(net, 0)
    with pytest.raises(ValueError) as err:
        _basis_run(net)
    assert str(err.value) == str(checked.value) == "Netlist of 24 spins and 1 modes exceeds 16777216 amplitudes"


def test_compile_refuses_an_r_cold_no_passive_cavity_gives():
    # 5.0 used to compile, its basis input 0 then carrying a row power of 117.6; NaN raised an OverflowError
    net = _fresh("cnot")
    for r_cold in (5.0, 1.5j, math.nan, math.inf, complex(math.nan, 0.0)):
        with pytest.raises(ParameterError, match=r"^reflection amplitude must satisfy \|r_cold\| <= 1, got "):
            compile_circuit(net, r_cold)
        assert not net._compiled
    assert compile_circuit(net, -(1 + 1e-13)).n_outcomes == len(net.outcome_labels())  # within the rounding allowed


def test_formal_shift_moves_each_coefficient_up_one_slot():
    amps = np.zeros((3, 8), dtype=complex)
    amps[0, 0], amps[1, 5], amps[2, 6] = 2.0, 3j, 4.0
    expected = np.zeros_like(amps)
    expected[0, 1], expected[1, 6], expected[2, 7] = 2.0, 3j, 4.0
    before = amps.copy()
    assert np.array_equal(_FormalHot(4, -1.0).times_hot(amps), expected)
    assert np.array_equal(amps, before)  # the shift is a new array


def test_formal_shift_raises_instead_of_dropping_the_top_slot():
    # one circuit spin and a 2-slot register: (R, +) picks up r_hot, so an
    # amplitude already at r_hot**1 cannot take a second factor
    amps = np.zeros((2, 1, 4), dtype=complex)
    amps[R, 0, PLUS * 2 + 1] = 1.0
    state = HybridState(("a",), 2, amps)
    formal = _FormalHot(2, -1.0)
    with pytest.raises(OverflowError, match="2-slot"):
        scatter(state, 0, "a", formal)
    amps[R, 0, PLUS * 2 + 1], amps[R, 0, PLUS * 2] = 0.0, 1.0
    shifted = scatter(HybridState(("a",), 2, amps), 0, "a", formal)
    assert shifted.amps[R, 0, PLUS * 2 + 1] == 1.0 and shifted.amps[R, 0, PLUS * 2] == 0.0
    with pytest.raises(TypeError):
        np.ones(4) * _FormalHot(2, -1.0)
