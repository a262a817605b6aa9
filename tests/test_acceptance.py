"""Acceptance suite: one test per criterion, each at its stated tolerance.

A PASS/FAIL line per criterion is printed in the terminal summary (see
conftest).  Criterion 5 asserts that the exact simulated efficiency equals
the closed-form expression; the two quantities genuinely differ for |r| < 1
(the closed form factorizes the cavity passes, the simulation correlates
them -- see test_criterion_5's docstring and the convention report), so that
test documents the discrepancy rather than hiding it.
"""

import math
import time

import numpy as np
import pytest

from nvgates.analysis import (
    efficiency_closed_form,
    efficiency_simulated,
    fidelity_closed_form,
    fidelity_convention_report,
    sweep,
)
from nvgates.cavity import IDEAL_PAIR, resonant_pair
from nvgates.gates import (
    GATE_NAMES,
    build_gate_circuit,
    ideal_gate_unitary,
)
from nvgates.netlist import (
    DiagnosticKind,
    NetlistError,
    apply_elements,
    iter_element_states,
    parse_netlist,
    product_input,
    run_netlist,
    serialize_netlist,
)
from nvgates.state import L, R

from conftest import (
    kron_pairs,
    mz_block,
    phase_aligned_deviation,
    random_hybrid_input,
    random_netlist,
    random_reflection,
    random_spin_pairs,
)


def test_criterion_1_ideal_gate_determinism():
    """200 random product inputs per gate, every outcome equals the ideal
    permutation gate up to global phase, deviation <= 1e-10, in < 5 s."""
    start = time.monotonic()
    rng = np.random.default_rng(1)
    worst = 0.0
    for gate in GATE_NAMES:
        net = build_gate_circuit(gate)
        target = ideal_gate_unitary(gate)
        for _ in range(200):
            pairs = random_spin_pairs(rng, net.n_spins)
            expected = target @ kron_pairs(pairs)
            for outcome in run_netlist(net, product_input(net, pairs)):
                worst = max(worst, phase_aligned_deviation(outcome.spins.amps, expected))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"max deviation {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


def _expected_cnot_after_control_block(net, c, t):
    amps = np.zeros((2, len(net.modes), 4), dtype=complex)
    m4 = net.modes.index("4")
    s = 1 / math.sqrt(2)
    amps[R, m4] = s * np.kron([c[0], c[1]], t)
    amps[L, m4] = s * np.kron([-c[0], c[1]], t)
    return amps


def _expected_cnot_after_photon_hadamard(net, c, t):
    amps = np.zeros((2, len(net.modes), 4), dtype=complex)
    m4 = net.modes.index("4")  # wire keeps its label through the in-place HWP
    amps[L, m4] = c[0] * np.kron([1, 0], t)
    amps[R, m4] = c[1] * np.kron([0, 1], t)
    return amps


def _expected_cnot_pre_detection(net, c, t):
    amps = np.zeros((2, len(net.modes), 4), dtype=complex)
    m9 = net.modes.index("9")
    # configs: ++ = 0, +- = 1, -+ = 2, -- = 3
    amps[L, m9, 0] = c[0] * t[0]
    amps[L, m9, 1] = c[0] * t[1]
    amps[R, m9, 3] = c[1] * t[0]
    amps[R, m9, 2] = c[1] * t[1]
    return amps


def _fs_deposit(amps, mode_index, f_bracket, s_bracket):
    s = 1 / math.sqrt(2)
    amps[R, mode_index] += (f_bracket + s_bracket) * 0.5 * s
    amps[L, mode_index] += (f_bracket - s_bracket) * 0.5 * s


def _expected_toffoli_pre_detection(net, c1, c2, t):
    t_keep = np.asarray(t, dtype=complex)
    t_flip = np.array([t[1], t[0]], dtype=complex)
    terms = {
        # (c1, c2) config -> product coefficient and target vector
        0: c1[0] * c2[0] * np.kron([1, 0, 0, 0], t_keep),
        1: c1[0] * c2[1] * np.kron([0, 1, 0, 0], t_keep),
        2: c1[1] * c2[0] * np.kron([0, 0, 1, 0], t_keep),
        3: c1[1] * c2[1] * np.kron([0, 0, 0, 1], t_flip),
    }
    brackets = {
        ("F", "12"): terms[0] + terms[1] + terms[2] + terms[3],
        ("S", "12"): terms[0] - terms[1] + terms[2] - terms[3],
        ("F", "13"): -terms[0] - terms[1] + terms[2] + terms[3],
        ("S", "13"): -terms[0] + terms[1] + terms[2] - terms[3],
    }
    amps = np.zeros((2, len(net.modes), 8), dtype=complex)
    for mode in ("12", "13"):
        _fs_deposit(amps, net.modes.index(mode), brackets[("F", mode)], brackets[("S", mode)])
    return amps


def _expected_fredkin_pre_detection(net, c, t1, t2):
    # In each bracket the control-minus term carries the targets with their
    # amplitudes exchanged; "minus" marks the sign-flipped beta components.
    def minus(v):
        return np.array([v[0], -v[1]], dtype=complex)

    def plus(v):
        return np.asarray(v, dtype=complex)

    amps = np.zeros((2, len(net.modes), 8), dtype=complex)
    b_f12 = c[0] * np.kron([1, 0], np.kron(minus(t1), minus(t2))) + c[1] * np.kron(
        [0, 1], np.kron(minus(t2), minus(t1))
    )
    b_s12 = -c[0] * np.kron([1, 0], np.kron(plus(t1), plus(t2))) + c[1] * np.kron(
        [0, 1], np.kron(plus(t2), plus(t1))
    )
    b_f13 = -c[0] * np.kron([1, 0], np.kron(minus(t1), minus(t2))) + c[1] * np.kron(
        [0, 1], np.kron(minus(t2), minus(t1))
    )
    b_s13 = c[0] * np.kron([1, 0], np.kron(plus(t1), plus(t2))) + c[1] * np.kron(
        [0, 1], np.kron(plus(t2), plus(t1))
    )
    _fs_deposit(amps, net.modes.index("12"), b_f12, b_s12)
    _fs_deposit(amps, net.modes.index("13"), b_f13, b_s13)
    return amps


def test_criterion_2_paper_traced_states():
    """Intermediate states match the traced expressions amplitude for
    amplitude (<= 1e-12) at three random amplitude settings."""
    rng = np.random.default_rng(2)
    for _ in range(3):
        # cnot traces: after the first recombination, after the HWP, final
        net = build_gate_circuit("cnot")
        c, t = random_spin_pairs(rng, 2)
        states = [st.amps for _, st in iter_element_states(net, product_input(net, [c, t]), IDEAL_PAIR)]
        got_control_block = states[2]  # after 3 elements
        assert np.abs(got_control_block - _expected_cnot_after_control_block(net, c, t)).max() <= 1e-12
        got_after_hadamard = states[3]  # after 4 elements
        assert np.abs(got_after_hadamard - _expected_cnot_after_photon_hadamard(net, c, t)).max() <= 1e-12
        got_pre_detection = states[-1]
        assert np.abs(got_pre_detection - _expected_cnot_pre_detection(net, c, t)).max() <= 1e-12

        net = build_gate_circuit("toffoli")
        c1, c2, t = random_spin_pairs(rng, 3)
        got_toffoli_out = apply_elements(net, product_input(net, [c1, c2, t]), IDEAL_PAIR).amps
        assert np.abs(got_toffoli_out - _expected_toffoli_pre_detection(net, c1, c2, t)).max() <= 1e-12

        net = build_gate_circuit("fredkin")
        c, t1, t2 = random_spin_pairs(rng, 3)
        got_fredkin_out = apply_elements(net, product_input(net, [c, t1, t2]), IDEAL_PAIR).amps
        assert np.abs(got_fredkin_out - _expected_fredkin_pre_detection(net, c, t1, t2)).max() <= 1e-12


def test_criterion_3_mz_block_matrices():
    """Ideal Mach-Zehnder blocks, run through the engine, equal their stated
    diagonals exactly."""

    def one_nv_block(routed):
        return mz_block(routed, IDEAL_PAIR)

    def two_nv_block(routed):
        return mz_block(routed, IDEAL_PAIR, IDEAL_PAIR)

    assert np.array_equal(one_nv_block("L"), np.diag([1, 1, -1, 1]).astype(complex))
    assert np.array_equal(one_nv_block("R"), np.diag([1, -1, 1, 1]).astype(complex))
    assert np.array_equal(
        two_nv_block("R"), np.diag([1, -1, -1, 1, 1, 1, 1, 1]).astype(complex)
    )
    assert np.array_equal(
        two_nv_block("L"), np.diag([1, 1, 1, 1, 1, -1, -1, 1]).astype(complex)
    )


def test_criterion_4_headline_numbers():
    """Closed-form efficiencies at coupling ratio 5 (r = 99/101) hit the
    quoted percentages within 5e-5; closed-form fidelities are exactly 1 at
    r = 1 (rational arithmetic)."""
    r = 99.0 / 101.0
    assert abs(efficiency_closed_form("cnot", r) - 0.9805) <= 5e-5
    assert abs(efficiency_closed_form("toffoli", r) - 0.9757) <= 5e-5
    assert abs(efficiency_closed_form("fredkin", r) - 0.9615) <= 5e-5
    from fractions import Fraction

    for gate in GATE_NAMES:
        assert fidelity_closed_form(gate, Fraction(1)) == Fraction(1), gate
        assert efficiency_closed_form(gate, Fraction(1)) == Fraction(1), gate


def test_criterion_5_efficiency_oracle_equivalence():
    """Simulated efficiency with balanced inputs vs the closed form on a
    101-point |r| grid, tolerance 1e-9, in < 30 s.

    KNOWN FAILURE, left red on purpose: the closed form is an
    independent-pass model (each cavity reflection attenuates by its
    ensemble-averaged branch weight; analysis.efficiency_factorized
    reproduces it to 1e-12 from the circuit structure), whereas the exact
    state-vector simulation keeps the photon-spin correlations created by
    earlier losses, giving e.g. 5/8 instead of 9/16 for the CNOT at r = 0.
    No simulation of the actual circuits can satisfy this criterion; the
    README's "Closed forms vs exact simulation" section has the full
    analysis.
    """
    start = time.monotonic()
    grid = np.linspace(0.0, 1.0, 101)
    worst = {}
    for gate in GATE_NAMES:
        worst[gate] = max(
            abs(
                efficiency_simulated(gate, resonant_pair(r), "balanced")
                - efficiency_closed_form(gate, r)
            )
            for r in grid
        )
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    assert all(v <= 1e-9 for v in worst.values()), (
        f"simulated efficiency deviates from the closed form: max residuals {worst}; "
        "the closed form factorizes the cavity passes (see "
        "analysis.efficiency_factorized, which matches it to 1e-12), while the "
        "exact simulation correlates them, so this equality cannot hold for |r| < 1"
    )


def test_criterion_6_fidelity_convention_report(tmp_path):
    """All four simulated-fidelity modes are exactly 1 at r = 1 and the
    report identifies the best-matching mode with its residual."""
    report = fidelity_convention_report(trials=12, seed=3)
    for res in report.residuals:
        assert res.fidelity_at_r1 == pytest.approx(1.0, abs=1e-12), res
        assert res.efficiency_at_r1 == pytest.approx(1.0, abs=1e-12), res
    assert report.best[0] in ("balanced", "random")
    assert report.best[1] in ("postselected", "unnormalized")
    assert report.best_max_residual >= 0.0
    text = report.render()
    assert "best-matching fidelity mode" in text
    out = tmp_path / "convention_report.txt"
    out.write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def test_criterion_7_probability_bookkeeping():
    """1000 random (circuit, state, reflection) triples: outcome
    probabilities sum to the pre-detection squared norm and the norm never
    grows through an element, to 1e-12."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        net = random_netlist(rng, n_elements=int(rng.integers(3, 9)))
        state = random_hybrid_input(rng, net)
        pair = random_reflection(rng, resonant_cold=bool(rng.integers(0, 2)))
        prev = state.norm2()
        final = prev
        for _, st in iter_element_states(net, state, pair):
            now = st.norm2()
            assert now <= prev + 1e-12
            prev = now
            final = now
        survived = sum(o.probability for o in run_netlist(net, state, pair))
        assert abs(survived - final) <= 1e-12


MALFORMED_FIXTURES = [
    ("spins 2\nmodes in a b\nmixer in -> a b\n", DiagnosticKind.UNKNOWN_DIRECTIVE, 3),
    ("spins 2\nmodes in a\nhwp missing\n", DiagnosticKind.UNDECLARED_MODE, 3),
    ("spins 2\nmodes in a b c\npbs in a -> b\n", DiagnosticKind.ARITY_MISMATCH, 3),
    ("spins 2\nmodes in a b c d\nhwp c\npbs in a -> c d\ndetect c\n", DiagnosticKind.NON_TOPOLOGICAL, 3),
    ("spins 3\nmodes m9\nnv m9 spin_5\n", DiagnosticKind.SPIN_RANGE, 3),
]


def test_criterion_8_netlist_round_trip_and_diagnostics():
    """parse(serialize(.)) is the identity on the three shipped circuits;
    five malformed fixtures produce their designated diagnostic kinds with
    correct line numbers."""
    for gate in GATE_NAMES:
        net = build_gate_circuit(gate)
        assert parse_netlist(serialize_netlist(net)) == net
    for text, kind, line in MALFORMED_FIXTURES:
        with pytest.raises(NetlistError) as err:
            parse_netlist(text)
        assert err.value.kind is kind, (text, err.value)
        assert err.value.line == line, (text, err.value)


def test_criterion_9_figure_shape_reproduction():
    """Closed-form fidelity and efficiency are monotone nondecreasing in the
    coupling ratio over [0.5, 10] and the efficiency ordering is
    cnot >= toffoli >= fredkin at every grid point."""
    ratios = np.linspace(0.5, 10.0, 96)
    records = sweep(GATE_NAMES, ratios, trials=2)
    by_gate = {g: [r for r in records if r.gate == g] for g in GATE_NAMES}
    for gate, rows in by_gate.items():
        rows.sort(key=lambda r: r.coupling_ratio)
        fids = [r.fidelity_closed for r in rows]
        etas = [r.efficiency_closed for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:])), gate
        assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:])), gate
    for i in range(len(ratios)):
        eta_c = by_gate["cnot"][i].efficiency_closed
        eta_t = by_gate["toffoli"][i].efficiency_closed
        eta_f = by_gate["fredkin"][i].efficiency_closed
        assert eta_c >= eta_t - 1e-12 >= eta_f - 2e-12
        assert eta_t >= eta_f - 1e-12
