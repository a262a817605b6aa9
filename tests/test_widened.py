"""Widened runs: every spin-basis input from one interpreter pass.

``fidelity_simulated``, ``efficiency_simulated`` and ``nvgates verify``
evaluate every input from one compile of each circuit, a run on n extra idle
ancilla spins (plus its coefficient register in r_hot; see
``test_compiled.py``).  These tests pin the metrics to two references
written here, a per-input interpreter loop and the dense oracle of
``oracle.py``, and count the element applications the compile costs.
"""

import math

import numpy as np
import pytest

from nvgates import analysis, cli, netlist
from nvgates.analysis import efficiency_simulated, fidelity_simulated
from nvgates.cavity import IDEAL_PAIR, ReflectionPair, resonant_pair
from nvgates.elements import Pauli
from nvgates.gates import GATE_NAMES, build_gate_circuit, ideal_gate_unitary, shipped_circuit_text
from nvgates.netlist import apply_elements, parse_netlist, product_input, run_netlist
from nvgates.state import DimensionMismatchError, HybridState, make_product_state, working_copy

import oracle
from conftest import BALANCED, kron_pairs, phase_aligned_deviation, random_netlist, random_spin_pairs

PAIRS = {
    "ideal": IDEAL_PAIR,
    "resonant-0.3": resonant_pair(0.3),
    "complex": ReflectionPair(r_hot=0.6 * np.exp(0.7j), r_cold=0.9 * np.exp(-2.1j)),
}
TRIALS = 6
SEED = 11
TOL = 1e-12


def _inputs(n, convention):
    """Spin pairs per input, drawn as ``analysis`` draws them."""
    if convention == "balanced":
        return [[BALANCED] * n]
    rng = np.random.default_rng(SEED)
    return [random_spin_pairs(rng, n) for _ in range(TRIALS)]


def _metrics(per_input, normalization):
    """Mean fidelity and efficiency from per-input (outcomes, norm) pairs,
    where outcomes are (probability, normalized corrected spin vector, ideal)."""
    fids, effs = [], []
    for outcomes, norm in per_input:
        weighted = total = 0.0
        for p, spins, ideal in outcomes:
            if p == 0.0:
                continue
            weighted += p * abs(np.vdot(ideal, spins)) ** 2
            total += p
        fids.append(weighted / total if normalization == "postselected" else weighted)
        effs.append(norm)
    return float(np.mean(fids)), float(np.mean(effs))


def _interpreter_runs(net, target, pair, inputs):
    """One interpreter run per input, as the metrics were evaluated before."""
    per_input = []
    for pairs in inputs:
        state = product_input(net, pairs)
        ideal = target @ kron_pairs(pairs)
        outcomes = [(o.probability, o.spins.amps, ideal) for o in run_netlist(net, state, pair)]
        per_input.append((outcomes, apply_elements(net, state, pair).norm2()))
    return per_input


def _oracle_runs(net, target, matrix, inputs):
    """Dense circuit matrix; collapse and feedforward from their definitions."""
    n_cfg = 2**net.n_spins
    b = 1.0 / math.sqrt(2.0)
    per_input = []
    for pairs in inputs:
        spin_in = kron_pairs(pairs)
        vec = np.zeros((2, len(net.modes), n_cfg), dtype=complex)
        vec[:, 0, :] = b * spin_in  # photon (|R>+|L>)/sqrt2 on the first mode
        amps = (matrix @ vec.reshape(-1)).reshape(vec.shape)
        outcomes = [
            (p, spins / math.sqrt(p) if p else spins, target @ spin_in)
            for _, p, spins in oracle.detect(net, amps)
        ]
        per_input.append((outcomes, float(np.sum(np.abs(amps) ** 2))))
    return per_input


@pytest.mark.parametrize("gate", GATE_NAMES)
@pytest.mark.parametrize("pair_name", PAIRS)
def test_widened_metrics_match_both_references(gate, pair_name):
    pair = PAIRS[pair_name]
    net = build_gate_circuit(gate)
    target = ideal_gate_unitary(gate)
    matrix = oracle.circuit_matrix(net, pair)
    for convention in analysis.INPUT_CONVENTIONS:
        inputs = _inputs(net.n_spins, convention)
        references = {
            "interpreter": _interpreter_runs(net, target, pair, inputs),
            "oracle": _oracle_runs(net, target, matrix, inputs),
        }
        eff = efficiency_simulated(gate, pair, convention, trials=TRIALS, seed=SEED)
        for normalization in analysis.NORMALIZATIONS:
            fid = fidelity_simulated(gate, pair, convention, normalization, trials=TRIALS, seed=SEED)
            for name, per_input in references.items():
                ref_fid, ref_eff = _metrics(per_input, normalization)
                where = (name, convention, normalization)
                assert fid == pytest.approx(ref_fid, abs=TOL), where
                assert eff == pytest.approx(ref_eff, abs=TOL), where


def _basis_pairs(n, cfg):
    """Spin pairs of basis configuration ``cfg``, spin 0 most significant."""
    return [((1.0, 0.0), (0.0, 1.0))[(cfg >> (n - 1 - k)) & 1] for k in range(n)]


def test_widened_run_holds_every_basis_response(rng):
    # random circuits exercise every routing kind, pbsfs and bs included
    for _ in range(10):
        net = random_netlist(rng, n_elements=10)
        n = net.n_spins
        pair = ReflectionPair(r_hot=0.7 * np.exp(1.1j), r_cold=-0.95 + 0.1j)
        wide = apply_elements(*analysis._basis_run(net), pair)
        columns = wide.amps.reshape(2, len(net.modes), 2**n, 2**n)
        for cfg in range(2**n):
            single = apply_elements(net, product_input(net, _basis_pairs(n, cfg)), pair)
            assert np.array_equal(columns[..., cfg], single.amps)


def test_basis_run_with_coefficient_slots():
    # two detectors out of declaration order and four undetected modes
    net = parse_netlist(
        "spins 2\nmodes a b c d e f\npbs a b -> c d\nnv c spin_1\nbs c d -> e f\n"
        "detect f\ndetect e\nfeedforward Ff: spin_0 Z spin_1 -Z\nfeedforward Se: spin_1 Z\n"
    )
    n, extra = net.n_spins, 3
    wide, start = analysis._basis_run(net, extra)
    assert wide.n_spins == 2 * n + extra
    assert (wide.modes, wide.elements) == (net.modes, net.elements)
    assert wide.detectors == ("f", "e", "a", "b", "c", "d")
    assert [label for label, _ in wide.feedforward] == [label for label, _ in net.feedforward]
    for (_, ops), (_, wide_ops) in zip(net.feedforward, wide.feedforward):
        assert wide_ops == ops + (Pauli.I,) * (n + extra)
    assert (start.modes, start.n_spins) == (net.modes, wide.n_spins)
    assert start.norm2() == pytest.approx(2**n, abs=1e-12)
    slots = start.amps.reshape(2, len(net.modes), 2**n, 2**n, 2**extra)
    assert not np.any(slots[..., 1:])
    for cfg in range(2**n):
        assert np.array_equal(slots[..., cfg, 0], product_input(net, _basis_pairs(n, cfg)).amps)


def test_full_loss_is_nan_in_both_conventions(monkeypatch):
    dead = netlist.parse_netlist("spins 2\nmodes in\nnv in spin_0\ndetect in\n")
    monkeypatch.setattr(analysis, "build_gate_circuit", lambda gate: dead)
    absorber = ReflectionPair(0.0, 0.0)
    for convention in analysis.INPUT_CONVENTIONS:
        for normalization in analysis.NORMALIZATIONS:
            assert math.isnan(fidelity_simulated("cnot", absorber, convention, normalization, trials=3))
        assert efficiency_simulated("cnot", absorber, convention, trials=3) == 0.0


def test_random_convention_needs_a_trial():
    for trials in (0, -2):
        with pytest.raises(ValueError, match="at least 1 trial"):
            fidelity_simulated("cnot", IDEAL_PAIR, "random", trials=trials)
        with pytest.raises(ValueError, match="at least 1 trial"):
            efficiency_simulated("cnot", IDEAL_PAIR, "random", trials=trials)
    # the balanced convention has one input and ignores the trial count
    assert efficiency_simulated("cnot", IDEAL_PAIR, "balanced", trials=0) == pytest.approx(1.0)


def test_a_working_copy_keeps_the_space_in_a_writable_copy():
    st = make_product_state(BALANCED, "a", [BALANCED, BALANCED], ("a", "b"))
    work = working_copy(st)
    assert work.amps.flags.writeable and not np.shares_memory(work.amps, st.amps)
    assert (work.modes, work.n_spins) == (st.modes, st.n_spins)
    assert work.amps.tobytes() == st.amps.tobytes()
    with pytest.raises(DimensionMismatchError):
        HybridState(st.modes, st.n_spins, np.zeros((2, 2, 2), dtype=complex))


def test_phase_aligned_deviation_aligns_each_stacked_vector():
    expected = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    actual = expected * np.array([[1j], [-1.0]])  # a different phase per row
    assert phase_aligned_deviation(actual, expected) == pytest.approx(0.0, abs=1e-15)
    assert phase_aligned_deviation(actual[0], expected[0]) == pytest.approx(0.0, abs=1e-15)
    assert phase_aligned_deviation(actual, expected[::-1]) == pytest.approx(1.0)


# --- perf guard: count interpreter passes, not time ------------------------


def _count_passes(monkeypatch):
    """Counts element applications; a pass over net applies len(net.elements)."""
    calls = []
    original = netlist._apply_element

    def counting(state, el, reflection=IDEAL_PAIR):
        calls.append(el)
        return original(state, el, reflection)

    monkeypatch.setattr(netlist, "_apply_element", counting)
    return calls


def _fresh_circuits(monkeypatch, *modules):
    """Serve ``modules`` one newly parsed netlist per gate, with nothing compiled yet."""
    fresh = {gate: netlist.parse_netlist(shipped_circuit_text(gate)) for gate in GATE_NAMES}
    for module in modules:
        monkeypatch.setattr(module, "build_gate_circuit", lambda gate: fresh[gate.lower()])


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_sweep_item_runs_at_most_two_passes(monkeypatch, gate):
    _fresh_circuits(monkeypatch, analysis)
    calls = _count_passes(monkeypatch)
    (rec,) = analysis.sweep([gate], [2.0], "random", trials=16, seed=5)
    assert 0 < rec.fidelity_sim <= 1
    assert len(calls) <= 2 * len(build_gate_circuit(gate).elements)


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_verify_runs_at_most_one_pass(monkeypatch, capsys, gate):
    _fresh_circuits(monkeypatch, analysis, cli)
    calls = _count_passes(monkeypatch)
    assert cli.main(["verify", gate, "--trials", "20", "--seed", "4", "--ratio", "2.5"]) == 0
    assert len(calls) <= len(build_gate_circuit(gate).elements)
    assert "post-selected fidelity, outcomes weighted by probability" in capsys.readouterr().out


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_factorized_efficiency_applies_each_element_once(monkeypatch, gate):
    # one ideal pass over the widened circuit holds every state the model reads
    calls = _count_passes(monkeypatch)
    analysis.efficiency_factorized(gate, 0.3)
    assert calls == list(build_gate_circuit(gate).elements)


@pytest.mark.parametrize("gate", GATE_NAMES)
def test_compiled_circuit_serves_later_ratios_without_a_pass(monkeypatch, capsys, gate):
    _fresh_circuits(monkeypatch, analysis, cli)
    calls = _count_passes(monkeypatch)
    analysis.sweep([gate], [2.0], "random", trials=16, seed=5)
    assert len(calls) == len(build_gate_circuit(gate).elements)  # the compile
    calls.clear()
    (rec,) = analysis.sweep([gate], [3.5], "random", trials=16, seed=6)
    assert 0 < rec.fidelity_sim <= 1
    assert cli.main(["verify", gate, "--trials", "20", "--seed", "4", "--ratio", "6"]) == 0
    assert cli.main(["truth-table", gate, "--r-hot", "0.3"]) == 0
    assert calls == []
    capsys.readouterr()
