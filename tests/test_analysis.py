"""Closed forms, simulated metrics, sweeps, and the convention report."""

import io
from fractions import Fraction

import numpy as np
import pytest

from nvgates import analysis
from nvgates.analysis import (
    CSV_HEADER,
    ConventionReport,
    ConventionResidual,
    SweepRecord,
    efficiency_closed_form,
    efficiency_factorized,
    efficiency_simulated,
    fidelity_closed_form,
    fidelity_convention_report,
    fidelity_simulated,
    sweep,
    write_sweep_csv,
)
from nvgates.cavity import IDEAL_PAIR, coupling_ratio_to_r, resonant_pair
from nvgates.gates import GATE_NAMES
from nvgates.state import kron_pairs


def test_fidelity_closed_form_endpoints_exact():
    for gate in GATE_NAMES:
        assert fidelity_closed_form(gate, Fraction(1)) == Fraction(1), gate
        assert efficiency_closed_form(gate, Fraction(1)) == Fraction(1), gate


def test_fidelity_closed_form_at_zero():
    assert fidelity_closed_form("cnot", 0.0) == pytest.approx(0.4, abs=1e-15)
    assert fidelity_closed_form("toffoli", 0.0) == pytest.approx(81 / 144, abs=1e-15)
    assert fidelity_closed_form("fredkin", 0.0) == pytest.approx(841 / 1896, abs=1e-12)


def test_fidelity_closed_form_exact_value_at_half():
    # (2 + 1/2 + 1/4)^2 / (2 * (5 - 1 + 1/2 + 1/4 + 1/16))
    exact = fidelity_closed_form("cnot", Fraction(1, 2))
    assert exact == Fraction(11, 4) ** 2 / (2 * Fraction(77, 16))
    assert float(exact) == pytest.approx(0.7857142857, abs=1e-9)


def test_efficiency_closed_form_values():
    assert efficiency_closed_form("cnot", 0.0) == pytest.approx(9 / 16, abs=1e-15)
    assert efficiency_closed_form("toffoli", 0.0) == pytest.approx(63 / 128, abs=1e-15)
    r = 99 / 101
    assert efficiency_closed_form("cnot", r) == pytest.approx(0.9805, abs=5e-5)
    assert efficiency_closed_form("toffoli", r) == pytest.approx(0.9757, abs=5e-5)
    assert efficiency_closed_form("fredkin", r) == pytest.approx(0.9615, abs=5e-5)


def test_closed_forms_reject_out_of_range():
    for r in (-1.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            fidelity_closed_form("cnot", r)
        with pytest.raises(ValueError):
            efficiency_closed_form("toffoli", r)
        with pytest.raises(ValueError):
            efficiency_factorized("fredkin", r)


def _balanced_overlap(gate: str, r: float) -> float:
    """|<psi_1|psi_r>|^2 / (|psi_1|^2 |psi_r|^2), psi the whole state after
    the gate's elements on the balanced input at r = 1 and at r."""
    from nvgates.gates import build_gate_circuit
    from nvgates.netlist import apply_elements, balanced_product_input
    from nvgates.state import overlap

    net = build_gate_circuit(gate)
    state = balanced_product_input(net)
    ideal, real = apply_elements(net, state, IDEAL_PAIR), apply_elements(net, state, resonant_pair(r))
    return abs(overlap(ideal, real)) ** 2 / (ideal.norm2() * real.norm2())


def test_closed_forms_hold_at_negative_r():
    # below coupling ratio 0.5 the resonant r is negative; the closed forms
    # are polynomials in the signed r and still equal what they model
    for gate in GATE_NAMES:
        for r in np.linspace(-1.0, 0.0, 21):
            assert fidelity_closed_form(gate, r) == pytest.approx(_balanced_overlap(gate, r), abs=1e-12), (gate, r)
            assert efficiency_factorized(gate, r) == pytest.approx(efficiency_closed_form(gate, r), abs=1e-12), (gate, r)
    exact = {gate: fidelity_closed_form(gate, Fraction(-1)) for gate in GATE_NAMES}
    assert exact == {"cnot": Fraction(1, 4), "toffoli": Fraction(1, 16), "fredkin": Fraction(1, 16)}


def test_sweep_closed_fidelity_is_the_overlap_at_the_simulated_r():
    for rec in sweep(GATE_NAMES, [0.0, 0.1, 0.25, 0.4, 0.49], trials=2):
        assert rec.r == coupling_ratio_to_r(rec.coupling_ratio) < 0
        assert rec.fidelity_closed == pytest.approx(_balanced_overlap(rec.gate, rec.r), abs=1e-12), rec


def test_simulated_ideal_is_one():
    for gate in GATE_NAMES:
        for normalization in ("postselected", "unnormalized"):
            f = fidelity_simulated(gate, IDEAL_PAIR, "balanced", normalization)
            assert f == pytest.approx(1.0, abs=1e-12), (gate, normalization)
        assert efficiency_simulated(gate, IDEAL_PAIR) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_simulated_finite_between_zero_and_one():
    f = fidelity_simulated("fredkin", resonant_pair(0.0))
    assert 0.0 < f < 1.0


def test_fidelity_simulated_full_loss_returns_nan(monkeypatch):
    import math

    from nvgates import analysis
    from nvgates.cavity import ReflectionPair
    from nvgates.netlist import parse_netlist

    # a circuit whose only element absorbs every branch when both reflection
    # amplitudes vanish: the photon is lost with certainty
    dead = parse_netlist("spins 2\nmodes in\nnv in spin_0\ndetect in\n")
    monkeypatch.setattr(analysis, "build_gate_circuit", lambda gate: dead)
    f = fidelity_simulated("cnot", ReflectionPair(0.0, 0.0))
    assert math.isnan(f)


def test_unknown_convention_and_normalization_refused():
    with pytest.raises(ValueError, match="unknown input convention 'uniform'"):
        analysis._spin_inputs(2, "uniform", 4, 0)
    with pytest.raises(ValueError, match="unknown normalization 'renormalized'"):
        fidelity_simulated("cnot", IDEAL_PAIR, "balanced", "renormalized")


def test_simulated_random_convention_deterministic():
    pair = resonant_pair(0.6)
    a = fidelity_simulated("cnot", pair, "random", "postselected", trials=8, seed=5)
    b = fidelity_simulated("cnot", pair, "random", "postselected", trials=8, seed=5)
    c = fidelity_simulated("cnot", pair, "random", "postselected", trials=8, seed=6)
    assert a == b
    assert a != c


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_inputs_equal_a_pair_by_pair_draw_bit_for_bit(n):
    # each trial draws, spin by spin, two normals for the real parts and two
    # for the imaginary parts, then divides the pair by its np.linalg.norm
    for trials in (1, 5, 16):
        for seed in (0, 1, 7, 20131001, 2**31 - 2):
            rng = np.random.default_rng(seed)
            expected = []
            for _ in range(trials):
                pairs = []
                for _ in range(n):
                    re, im = rng.normal(size=2), rng.normal(size=2)
                    pair = re + 1j * im
                    pairs.append(pair / np.linalg.norm(pair))
                expected.append(kron_pairs(pairs))
            got = analysis._spin_inputs(n, "random", trials, seed)
            assert got.dtype == complex and got.shape == (trials, 2**n)
            assert got.tobytes() == np.array(expected).tobytes(), (n, trials, seed)


def test_sweep_point_draws_its_inputs_once(monkeypatch):
    from nvgates import analysis

    draws, builds = [], []
    spin_inputs, build = analysis._spin_inputs, analysis.build_gate_circuit
    monkeypatch.setattr(analysis, "_spin_inputs", lambda *args: draws.append(args) or spin_inputs(*args))
    monkeypatch.setattr(analysis, "build_gate_circuit", lambda gate: builds.append(gate) or build(gate))
    pair = resonant_pair(coupling_ratio_to_r(3.0))
    for seed in (9, np.int64(9)):  # a numpy integer seed draws the same inputs every time too
        draws.clear()
        builds.clear()
        records = sweep(["cnot"], [2.0, 3.0], "random", trials=4, seed=seed)
        assert len(draws) == 2, seed  # one per point, for its fidelity and its efficiency
        assert len(builds) == 4, seed  # two per point: one evaluate call for each metric
        assert records[1].fidelity_sim == fidelity_simulated("cnot", pair, "random", trials=4, seed=9)
        assert records[1].efficiency_sim == efficiency_simulated("cnot", pair, "random", trials=4, seed=9)
    # a Generator seed draws new inputs on every call, so no result is kept
    rng = np.random.default_rng(1)
    first = fidelity_simulated("cnot", pair, "random", trials=4, seed=rng)
    assert fidelity_simulated("cnot", pair, "random", trials=4, seed=rng) != first


def test_evaluate_metrics_are_the_simulated_fidelity_and_efficiency_bit_for_bit():
    for gate in GATE_NAMES:
        for r_hot in (0.0, 0.45, 1.0):
            pair = resonant_pair(r_hot)
            for convention, seed in (("balanced", None), ("random", 3), ("random", 4)):
                # a Generator seeded alike draws the same inputs, and its run is never kept
                rng = None if seed is None else np.random.default_rng(seed)
                metrics = analysis.evaluate(gate, pair, convention, 8, rng).metrics
                assert metrics == (
                    fidelity_simulated(gate, pair, convention, "postselected", 8, seed),
                    fidelity_simulated(gate, pair, convention, "unnormalized", 8, seed),
                    efficiency_simulated(gate, pair, convention, 8, seed),
                ), (gate, r_hot, convention, seed)


def test_evaluate_keeps_its_last_run_for_an_integer_seed_only():
    pair = resonant_pair(0.3)
    kept = analysis.evaluate("toffoli", pair, "random", 4, 7)
    assert analysis.evaluate("toffoli", pair, "random", 4, 7) is kept
    assert analysis.evaluate("toffoli", pair, "random", 4, np.int64(7)) is kept
    assert analysis.evaluate("toffoli", pair, "random", 4, 8) is not kept
    for seed in (lambda: np.random.default_rng(7), lambda: None):
        first = analysis.evaluate("toffoli", pair, "random", 4, seed())
        assert analysis.evaluate("toffoli", pair, "random", 4, seed()) is not first


def test_evaluate_never_serves_a_run_kept_for_another_circuit(monkeypatch):
    import math

    from nvgates.cavity import ReflectionPair
    from nvgates.netlist import parse_netlist

    pair = ReflectionPair(0.0, 0.0)
    assert not math.isnan(analysis.evaluate("cnot", pair, "balanced", 32, 0).metrics[0])
    # the absorber of test_fidelity_simulated_full_loss_returns_nan, under the same gate name
    dead = parse_netlist("spins 2\nmodes in\nnv in spin_0\ndetect in\n")
    monkeypatch.setattr(analysis, "build_gate_circuit", lambda gate: dead)
    assert math.isnan(analysis.evaluate("cnot", pair, "balanced", 32, 0).metrics[0])


def test_max_deviation_is_the_phase_aligned_deviation_of_the_outcomes_that_click(monkeypatch):
    import math

    from nvgates.cavity import ReflectionPair
    from nvgates.gates import build_gate_circuit
    from nvgates.netlist import parse_netlist

    from conftest import phase_aligned_deviation

    for gate in GATE_NAMES:
        k = len(build_gate_circuit(gate).outcome_labels())  # the detector rows come first
        run = analysis.evaluate(gate, resonant_pair(0.3), "random", 12, 5)
        expected = max(phase_aligned_deviation(run.out[o, :, i] / math.sqrt(p), run.ideal[:, i])
                       for (o, i), p in np.ndenumerate(run.power[:k].sum(axis=1)) if p > 0.0)
        assert expected > 1e-3, gate
        assert run.max_deviation() == pytest.approx(expected, rel=0.0, abs=1e-12), gate
        assert analysis.evaluate(gate, IDEAL_PAIR, "random", 12, 5).max_deviation() <= 1e-10, gate
    # the absorber of test_fidelity_simulated_full_loss_returns_nan: no outcome clicks
    dead = parse_netlist("spins 2\nmodes in\nnv in spin_0\ndetect in\n")
    monkeypatch.setattr(analysis, "build_gate_circuit", lambda gate: dead)
    run = analysis.evaluate("cnot", ReflectionPair(0.0, 0.0), "random", 4, 0)
    assert not run.power.any()
    assert run.max_deviation() == 0.0


def test_factorized_matches_closed_form_exactly():
    # the independent-pass reconstruction IS the closed-form model
    for gate in GATE_NAMES:
        for r in np.linspace(0.0, 1.0, 101):  # criterion 5's grid
            assert efficiency_factorized(gate, r) == pytest.approx(
                efficiency_closed_form(gate, r), abs=1e-12
            ), (gate, r)


def test_simulated_efficiency_consistency(rng):
    # simulated efficiency equals the summed outcome probabilities
    from nvgates.gates import build_gate_circuit
    from nvgates.netlist import balanced_product_input, run_netlist

    for gate in GATE_NAMES:
        pair = resonant_pair(0.41)
        eta = efficiency_simulated(gate, pair)
        net = build_gate_circuit(gate)
        outs = run_netlist(net, balanced_product_input(net), pair)
        assert eta == pytest.approx(sum(o.probability for o in outs), abs=1e-12)
        assert 0.0 <= eta <= 1.0


def test_sweep_records_sorted_and_bounded():
    ratios = [2.0, 0.75, 5.0]
    records = sweep(GATE_NAMES, ratios, trials=4)
    assert [r.coupling_ratio for r in records] == sorted(r.coupling_ratio for r in records)
    ordered_pairs = [(r.coupling_ratio, r.gate) for r in records]
    assert ordered_pairs == sorted(ordered_pairs)
    for rec in records:
        for value in (
            rec.fidelity_closed,
            rec.fidelity_sim,
            rec.efficiency_closed,
            rec.efficiency_sim,
        ):
            assert -1e-9 <= value <= 1 + 1e-9
        assert rec.r == coupling_ratio_to_r(rec.coupling_ratio)


def test_sweep_headline_point():
    records = sweep(["cnot", "toffoli", "fredkin"], [5.0], trials=4)
    by_gate = {r.gate: r for r in records}
    assert by_gate["cnot"].efficiency_closed == pytest.approx(0.9805, abs=5e-5)
    assert by_gate["toffoli"].efficiency_closed == pytest.approx(0.9757, abs=5e-5)
    assert by_gate["fredkin"].efficiency_closed == pytest.approx(0.9615, abs=5e-5)
    for rec in records:
        assert rec.fidelity_closed < 1.0
        assert rec.fidelity_sim <= 1.0 + 1e-12


def test_csv_format():
    records = sweep(["cnot"], [0.5, 1.0], trials=2)
    buf = io.StringIO()
    write_sweep_csv(records, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[2] == "cnot"
    assert float(first[0]) == 0.5
    # 9 significant digits
    assert len(first[3].replace(".", "").replace("-", "").lstrip("0")) <= 9


def test_records_unpack_to_their_fields_in_order():
    rec = sweep(["toffoli"], [2.0], trials=2)[0]
    ratio, r, gate, f_closed, f_sim, eta_closed, eta_sim = rec
    assert (ratio, r, gate) == (rec.coupling_ratio, rec.r, rec.gate)
    assert (ratio, gate) == (2.0, "toffoli")
    assert (f_closed, f_sim, eta_closed, eta_sim) == (
        rec.fidelity_closed, rec.fidelity_sim, rec.efficiency_closed, rec.efficiency_sim)
    report = fidelity_convention_report(trials=2)
    r_grid, residuals, best, best_max = report
    assert (r_grid, residuals, best, best_max) == (report.r_grid, report.residuals, report.best, report.best_max_residual)
    res = residuals[0]
    gate, convention, normalization, max_f, max_eta, f_r1, eta_r1 = res
    assert (gate, convention, normalization) == (res.gate, res.convention, res.normalization)
    assert (max_f, max_eta, f_r1, eta_r1) == (
        res.max_fidelity_residual, res.max_efficiency_residual, res.fidelity_at_r1, res.efficiency_at_r1)
    for record in (rec, report, res):
        with pytest.raises(AttributeError):  # read-only, as a frozen dataclass was
            record.gate = "cnot"
    assert isinstance(report, ConventionReport) and isinstance(res, ConventionResidual)


def test_sweep_record_csv_row_is_its_fields_under_the_header():
    rec = SweepRecord(0.5, 1 / 3, "cnot", 0.25, 2 / 3, 1.0, 1e-20)
    buf = io.StringIO()
    write_sweep_csv([rec], buf)
    assert buf.getvalue() == ",".join(CSV_HEADER) + "\n0.5,0.333333333,cnot,0.25,0.666666667,1,1e-20\n"


def test_convention_report_structure():
    report = fidelity_convention_report(trials=4)
    assert isinstance(report, ConventionReport)
    assert report.r_grid == tuple(np.linspace(0.0, 1.0, 21))
    # four modes for each gate
    assert len(report.residuals) == 4 * len(GATE_NAMES)
    for res in report.residuals:
        assert res.fidelity_at_r1 == pytest.approx(1.0, abs=1e-12)
        assert res.efficiency_at_r1 == pytest.approx(1.0, abs=1e-12)
    assert report.best[0] in ("balanced", "random")
    assert report.best[1] in ("postselected", "unnormalized")
    text = report.render()
    assert "best-matching" in text
    for gate in GATE_NAMES:
        assert gate in text


def test_convention_report_skips_nan_residuals_and_names_the_first_best_mode(monkeypatch):
    # simulated fidelities off their closed form by 1/8 (postselected) or 1/16
    # (unnormalized) in both conventions, NaN at both ends of the grid, where
    # the efficiency is off by 1/2; the modes tie, so the first smallest wins
    def evaluate(gate, pair, convention, trials, seed):
        r_mag = abs(pair.r_hot)
        f, e = fidelity_closed_form(gate, r_mag), efficiency_closed_form(gate, r_mag)
        metrics = (np.nan, np.nan, e + 0.5) if r_mag in (0.0, 1.0) else (f - 0.125, f - 0.0625, e)
        return analysis.GateRun(None, None, None, None, metrics)

    monkeypatch.setattr(analysis, "evaluate", evaluate)
    report = fidelity_convention_report()
    assert [(r.convention, r.normalization, r.gate) for r in report.residuals] == [
        (c, n, g) for c in analysis.INPUT_CONVENTIONS for n in analysis.NORMALIZATIONS for g in GATE_NAMES]
    for res in report.residuals:
        expected = 0.125 if res.normalization == "postselected" else 0.0625
        assert res.max_fidelity_residual == pytest.approx(expected, abs=1e-15)
        assert res.max_efficiency_residual == pytest.approx(0.5, abs=1e-15)
        assert np.isnan(res.fidelity_at_r1) and res.efficiency_at_r1 == 1.5
    assert report.best == ("balanced", "unnormalized")
    assert report.best_max_residual == pytest.approx(0.0625, abs=1e-15)


def test_sweep_zero_ratio_edge():
    # g = 0 gives r_hot = -1: unit magnitude but NOT the ideal pair, so the
    # photon always survives while the gate logic breaks, in the closed
    # form as in the simulation
    records = sweep(["cnot"], [0.0], trials=2)
    rec = records[0]
    assert rec.r == -1.0
    assert rec.fidelity_closed == 0.25
    assert rec.efficiency_sim == pytest.approx(1.0, abs=1e-12)
    assert rec.fidelity_sim < 0.999


def test_overlap_fidelity_matches_dense_oracle():
    # squared overlap of ideal vs realistic circuit output over the real
    # state's norm, computed along two independent code paths
    from nvgates.gates import build_gate_circuit
    from nvgates.netlist import balanced_product_input, apply_elements
    from nvgates.state import overlap
    from oracle import apply_circuit

    net = build_gate_circuit("cnot")
    state = balanced_product_input(net)
    pair = resonant_pair(0.5)
    ideal_out = apply_elements(net, state, IDEAL_PAIR)
    real_out = apply_elements(net, state, pair)
    fast = abs(overlap(ideal_out, real_out)) ** 2 / real_out.norm2()

    ideal_vec = apply_circuit(net, state, IDEAL_PAIR)
    real_vec = apply_circuit(net, state, pair)
    slow = abs(np.vdot(ideal_vec, real_vec)) ** 2 / np.vdot(real_vec, real_vec).real
    assert fast == pytest.approx(slow, abs=1e-12)
    assert 0.0 < fast < 1.0


def test_simulated_vs_closed_form_discrepancy_documented():
    # the exact simulation differs from the closed-form efficiency away from
    # r = 1 (the closed form factorizes passes; the simulation correlates
    # them) -- pin the sign and size of the gap at r = 0 for cnot
    eta_sim = efficiency_simulated("cnot", resonant_pair(0.0))
    assert eta_sim == pytest.approx(5 / 8, abs=1e-12)  # hand-derived exact value
    assert efficiency_closed_form("cnot", 0.0) == pytest.approx(9 / 16, abs=1e-15)
    assert eta_sim > efficiency_closed_form("cnot", 0.0)
