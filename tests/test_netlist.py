"""Netlist grammar, diagnostics, round-trip, and interpreter semantics."""

from dataclasses import replace

import numpy as np
import pytest

from nvgates.elements import Kind, Pauli
from nvgates.gates import GATE_NAMES, build_gate_circuit
from nvgates.netlist import (
    MAX_AMPLITUDES,
    DiagnosticKind,
    NetlistError,
    apply_spin_ops,
    balanced_product_input,
    iter_element_states,
    parse_netlist,
    run_netlist,
    serialize_netlist,
)
from nvgates.state import DimensionMismatchError, HybridState

import oracle
from conftest import random_hybrid_input, random_netlist, random_reflection

SMALL = """\
# toy circuit
spins 2
modes in a b out vac waste
pbs in vac -> a b
nv b spin_0
hwp a
pbs a b -> out waste
spinh 1
detect out
feedforward Fout: spin_0 I spin_1 Z
feedforward Sout: spin_0 -Z spin_1 I
"""


def test_parse_small_circuit():
    net = parse_netlist(SMALL)
    assert net.n_spins == 2
    assert net.modes == ("in", "a", "b", "out", "vac", "waste")
    kinds = [el.kind for el in net.elements]
    assert kinds == [Kind.PBS_RL, Kind.NV_SCATTER, Kind.HWP, Kind.PBS_RL, Kind.SPIN_H]
    assert net.detectors == ("out",)
    assert net.feedforward_map["Sout"] == (Pauli.MINUS_Z, Pauli.I)
    assert net.elements[0].line == 4


def test_parse_repeated_hwp_lines():
    net = parse_netlist("spins 1\nmodes 3\nhwp 3\nhwp 3\n")
    assert [el.kind for el in net.elements] == [Kind.HWP, Kind.HWP]
    assert net.elements[0].in_modes == ("3",)


def test_parse_accepts_crlf_and_comments():
    net = parse_netlist("spins 1\r\nmodes a b # trailing\r\nhwp a\r\n")
    assert net.modes == ("a", "b")


def _expect_error(text, kind, line):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert err.value.kind is kind, err.value
    assert err.value.line == line, err.value
    return err.value


def test_diagnostic_unknown_directive():
    err = _expect_error("spins 1\nmodes a\nwibble a\n", DiagnosticKind.UNKNOWN_DIRECTIVE, 3)
    assert err.column == 1


def test_diagnostic_undeclared_mode():
    _expect_error("spins 1\nmodes a\nhwp q\n", DiagnosticKind.UNDECLARED_MODE, 3)


def test_diagnostic_overlapping_wires():
    # Element rejects the wiring; the parser must still say where
    err = _expect_error("spins 1\nmodes a b c\npbs a b -> c b\n", DiagnosticKind.ARITY_MISMATCH, 3)
    assert err.column == 1
    _expect_error("spins 1\nmodes a b c\nbs a a -> b c\n", DiagnosticKind.ARITY_MISMATCH, 3)


ARITY = DiagnosticKind.ARITY_MISMATCH
INVALID, SPIN_RANGE = DiagnosticKind.INVALID_TOKEN, DiagnosticKind.SPIN_RANGE
UNDECLARED, MISSING = DiagnosticKind.UNDECLARED_MODE, DiagnosticKind.MISSING_DECLARATION
DIAGNOSTIC_HEADER = "spins 2\nmodes a b c d\n"


# (element line, kind, column); the line is parsed as line 3 after
# DIAGNOSTIC_HEADER, or as line 2 after "modes a b c d" when it starts with "!"
# (a spin used before any spins declaration).
@pytest.mark.parametrize(
    "line, kind, column",
    [
        # too many operands
        ("pbs a b -> c d a", ARITY, 1),
        ("pbsfs a -> b c d", ARITY, 1),
        ("bs a b -> c d a", ARITY, 1),
        ("hwp a b", ARITY, 1),
        ("hwp a a", ARITY, 1),
        ("nv a spin_0 b", ARITY, 1),
        ("nv a spin_x b", ARITY, 1),
        ("spinh 0 1", ARITY, 1),
        ("  hwp a b", ARITY, 3),
        # too few operands
        ("pbs a b -> c", ARITY, 1),
        ("pbs a -> c d", ARITY, 1),
        ("pbsfs a -> b", ARITY, 1),
        ("bs a b c d", ARITY, 1),
        ("hwp", ARITY, 1),
        ("nv a", ARITY, 1),
        ("spinh", ARITY, 1),
        # a misplaced '->': blamed where the arrow should stand
        ("pbs a b c -> d", ARITY, 9),
        ("pbs a -> b c d", ARITY, 10),
        ("pbsfs a b -> c", ARITY, 9),
        ("bs a b c -> d", ARITY, 8),
        ("hwp ->", UNDECLARED, 5),
        ("nv -> spin_0", UNDECLARED, 4),
        # a bad spin_k token, a non-integer spinh
        ("nv a spin_x", INVALID, 6),
        ("nv a 0", INVALID, 6),
        ("nv a ->", INVALID, 6),
        ("spinh x", INVALID, 7),
        ("spinh spin_0", INVALID, 7),
        # a spin out of range, checked before the modes
        ("nv a spin_2", SPIN_RANGE, 6),
        ("nv a spin_-1", SPIN_RANGE, 6),
        ("nv q spin_9", SPIN_RANGE, 6),
        ("nv a spin_5", SPIN_RANGE, 6),
        ("spinh 2", SPIN_RANGE, 7),
        ("spinh 7", SPIN_RANGE, 7),
        ("spinh -1", SPIN_RANGE, 7),
        # an undeclared mode
        ("pbs a q -> c d", UNDECLARED, 7),
        ("pbsfs q -> b c", UNDECLARED, 7),
        ("bs a b -> c q", UNDECLARED, 13),
        ("hwp q", UNDECLARED, 5),
        ("hwp zz", UNDECLARED, 5),
        ("  hwp q", UNDECLARED, 7),
        ("nv q spin_0", UNDECLARED, 4),
        # overlapping wires, rejected by Element and located by the parser,
        # checked before the modes
        ("pbs a b -> c b", ARITY, 1),
        ("pbs a q -> c q", ARITY, 1),
        ("pbsfs a -> a b", ARITY, 1),
        ("bs a a -> b c", ARITY, 1),
        ("bs a b -> c c", ARITY, 1),
        # a spin used before `spins`
        ("!nv a spin_0", MISSING, 6),
        ("!spinh 0", MISSING, 7),
    ],
)
def test_element_diagnostics_table(line, kind, column):
    if line.startswith("!"):
        text, lineno = f"modes a b c d\n{line[1:]}\n", 2
    else:
        text, lineno = f"{DIAGNOSTIC_HEADER}{line}\n", 3
    err = _expect_error(text, kind, lineno)
    assert err.column == column, err


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("spins 40\nmodes a\ndetect a\n", 1, 7),
        ("spins 1000000000000000000000\nmodes a\n", 1, 7),  # 2**n is never evaluated
        ("spins 24\nmodes a\n", 1, 7),  # 2 * 1 * 2**24
        ("spins 23\nmodes a b\n", 1, 7),  # over the cap only once the modes are known
        ("modes a b c\nspins  22\n", 2, 8),
    ],
)
def test_state_size_capped_at_the_spin_count(text, line, column):
    assert MAX_AMPLITUDES == 2**24
    err = _expect_error(text, DiagnosticKind.SPIN_RANGE, line)
    assert err.column == column


def test_state_size_at_the_cap_accepted():
    assert parse_netlist("spins 23\nmodes a\n").n_spins == 23
    assert parse_netlist("spins 22\nmodes a b\n").n_spins == 22


def test_diagnostic_non_topological():
    text = "spins 1\nmodes in a b c d\nhwp c\npbs in a -> c d\n"
    err = _expect_error(text, DiagnosticKind.NON_TOPOLOGICAL, 3)
    assert "c" in err.detail


def test_diagnostic_unknown_outcome():
    text = SMALL + "feedforward Fnope: spin_0 Z\n"
    _expect_error(text, DiagnosticKind.UNKNOWN_OUTCOME, 12)


def test_diagnostic_duplicate_modes():
    _expect_error("spins 1\nmodes a a\n", DiagnosticKind.DUPLICATE_DECLARATION, 2)


def test_diagnostic_missing_spins():
    _expect_error("modes a\nhwp a\n", DiagnosticKind.MISSING_DECLARATION, 3)


def test_round_trip_small():
    net = parse_netlist(SMALL)
    assert parse_netlist(serialize_netlist(net)) == net


def test_round_trip_random_netlists(rng):
    for _ in range(20):
        net = random_netlist(rng)
        assert parse_netlist(serialize_netlist(net)) == net


def test_run_netlist_dimension_mismatch():
    net = parse_netlist(SMALL)
    other = parse_netlist("spins 1\nmodes in\nhwp in\ndetect in\n")
    state = balanced_product_input(other)
    with pytest.raises(DimensionMismatchError):
        run_netlist(net, state)


def test_run_netlist_zero_state_all_null():
    net = parse_netlist(SMALL)
    template = balanced_product_input(net)
    zero = HybridState(template.modes, template.n_spins, np.zeros_like(template.amps))
    for outcome in run_netlist(net, zero):
        assert outcome.probability == 0.0
        assert outcome.spins.is_null


def test_outcome_probabilities_sum_to_norm(rng):
    for _ in range(25):
        net = random_netlist(rng)
        state = random_hybrid_input(rng, net)
        pair = random_reflection(rng, resonant_cold=False)
        outcomes = run_netlist(net, state, pair)
        survived = sum(o.probability for o in outcomes)
        final_norm = 0.0
        for _, st in iter_element_states(net, state, pair):
            final_norm = st.norm2()
        assert survived == pytest.approx(final_norm, abs=1e-12)


def test_norm_monotone_through_elements(rng):
    for _ in range(25):
        net = random_netlist(rng)
        state = random_hybrid_input(rng, net)
        pair = random_reflection(rng, resonant_cold=False)
        prev = state.norm2()
        for _, st in iter_element_states(net, state, pair):
            now = st.norm2()
            assert now <= prev + 1e-12
            prev = now


def test_manual_feedforward_composition(rng):
    # dropping the table and applying the same ops per outcome is identical
    net = parse_netlist(SMALL)
    state = balanced_product_input(net)
    pair = random_reflection(rng)
    with_ff = run_netlist(net, state, pair)
    without = run_netlist(replace(net, feedforward=None), state, pair)
    table = net.feedforward_map
    for auto, raw in zip(with_ff, without):
        assert auto.probability == pytest.approx(raw.probability, abs=1e-15)
        manual = apply_spin_ops(raw.amps, table[raw.label])
        assert np.abs(auto.amps - manual).max() < 1e-15


def test_outcome_labels_and_ordering():
    net = parse_netlist(SMALL)
    outcomes = run_netlist(net, balanced_product_input(net))
    assert [o.label for o in outcomes] == ["Fout", "Sout"]
    assert [o.label[0] for o in outcomes] == ["F", "S"]


@pytest.mark.parametrize("source", GATE_NAMES + ("random",))
def test_outcome_amps_and_probability_match_oracle(rng, source):
    # unnormalized, feedforward-corrected amplitudes, pinned to the dense oracle
    nets = [random_netlist(rng) for _ in range(10)] if source == "random" else [build_gate_circuit(source)]
    for net in nets:
        pair = random_reflection(rng, resonant_cold=False)
        state = random_hybrid_input(rng, net)
        final = oracle.apply_circuit(net, state, pair).reshape(state.amps.shape)
        outcomes = run_netlist(net, state, pair)
        expected = oracle.detect(net, final)
        assert [o.label for o in outcomes] == [label for label, _, _ in expected]
        for o, (_, prob, spins) in zip(outcomes, expected):
            assert not o.amps.flags.writeable
            assert abs(o.probability - prob) < 1e-12
            assert np.abs(o.amps - spins).max() < 1e-12
