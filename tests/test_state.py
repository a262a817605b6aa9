"""Hybrid-state construction, overlap, collapse, and global invariants."""

import math
import re

import numpy as np
import pytest

from nvgates.cavity import IDEAL_PAIR, scatter
from nvgates.elements import apply_hwp, apply_pbs_rl, apply_spin_hadamard
from nvgates.netlist import Netlist
from nvgates.state import (
    DimensionMismatchError,
    HybridState,
    L,
    MINUS,
    ModeError,
    NormalizationError,
    PLUS,
    R,
    StateError,
    kron_pairs as state_kron_pairs,
    make_product_state,
    overlap,
    partial_trace_photon_collapse,
    spin_config_bits,
    spin_config_index,
)

from conftest import BALANCED, random_amplitude_pair, random_spin_pairs, kron_pairs
from oracle import detect

MODES2 = ("in", "a", "b")
MODES_VAC = MODES2 + ("vac",)  # "vac": the second input port of a pbs


def test_spin_config_indexing_roundtrip():
    assert spin_config_index((PLUS, MINUS)) == 1
    assert spin_config_index((MINUS, PLUS)) == 2
    for idx in range(8):
        assert spin_config_index(spin_config_bits(idx, 3)) == idx


def test_kron_pairs_of_no_spins_is_a_new_unit_vector_on_each_call():
    first, second = state_kron_pairs(()), state_kron_pairs(())
    assert first.dtype == complex and first.tolist() == [1 + 0j]
    assert first.flags.writeable and not np.shares_memory(first, second)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: spin_config_index((PLUS, 2)), StateError, "spin basis value must be PLUS or MINUS, got 2"),
        (lambda: HybridState(MODES2, 1, np.zeros((2, 3, 4))), DimensionMismatchError,
         r"shape \(2, 3, 4\), expected \(2, 3, 2\)"),
        (lambda: make_product_state((1, 0), "in", [(1, 0, 0)], MODES2), DimensionMismatchError,
         r"spin 0 pair must be a pair of amplitudes, got shape \(3,\)"),
    ],
)
def test_state_helpers_refuse_bad_bits_and_shapes(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_product_state_basis():
    st = make_product_state((1, 0), "in", [(1, 0), (1, 0)], MODES2)
    assert st.amps[R, 0, spin_config_index((PLUS, PLUS))] == 1.0
    assert np.count_nonzero(st.amps) == 1
    assert st.norm2() == pytest.approx(1.0, abs=1e-15)


def test_product_state_matches_kron(rng):
    pairs = random_spin_pairs(rng, 2)
    pol = random_amplitude_pair(rng)
    st = make_product_state(pol, "a", pairs, MODES2)
    expected = np.zeros((2, 3, 4), dtype=complex)
    expected[R, 1] = pol[0] * kron_pairs(pairs)
    expected[L, 1] = pol[1] * kron_pairs(pairs)
    assert np.abs(st.amps - expected).max() < 1e-15


def test_product_state_uniform_three_spins():
    st = make_product_state(BALANCED, "in", [BALANCED] * 3, ("in",))
    nonzero = st.amps[np.abs(st.amps) > 0]
    assert nonzero.size == 16
    assert np.abs(nonzero - 0.25).max() < 1e-15


def test_product_state_rejects_unnormalized():
    with pytest.raises(NormalizationError):
        make_product_state((1, 1), "in", [(1, 0)], MODES2)
    with pytest.raises(NormalizationError):
        make_product_state((1, 0), "in", [(0.5, 0.5)], MODES2)
    # a NaN amplitude has no norm to compare, and must not pass the check
    with pytest.raises(NormalizationError):
        make_product_state((1, 0), "in", [(float("nan"), 1.0)], MODES2)
    with pytest.raises(NormalizationError):
        make_product_state((float("inf"), 0), "in", [(1, 0)], MODES2)


def test_product_state_label_errors_and_result():
    # the photon mode and the labels follow HybridState's rules and errors
    with pytest.raises(ModeError, match=r"unknown mode 'nope'; declared modes: \('in', 'a', 'b'\)"):
        make_product_state((1, 0), "nope", [(1, 0)], MODES2)
    with pytest.raises(StateError, match="duplicate mode labels"):
        make_product_state((1, 0), "in", [(1, 0)], ("in", "a", "in"))
    with pytest.raises(StateError, match=r"mode labels must be str, got \(1, '1'\)"):
        make_product_state((1, 0), "1", [(1, 0)], (1, "1"))
    with pytest.raises(ModeError, match="unknown mode 2"):  # a label is matched as given
        make_product_state((1, 0), 2, [(1, 0)], ("1", "2"))
    # the pairs are checked before the labels
    with pytest.raises(NormalizationError):
        make_product_state((1, 1), "nope", [(1, 0)], ("in", "in"))
    st = make_product_state((0, 1), "2", [(0, 1), (1, 0)], ("1", "2"))
    assert st.modes == ("1", "2") and st.n_spins == 2 and not st.amps.flags.writeable
    assert st.amps[L, 1, spin_config_index((MINUS, PLUS))] == 1.0 and np.count_nonzero(st.amps) == 1
    none = make_product_state(BALANCED, "in", [], ("in",))
    assert none.n_spins == 0 and none.amps.shape == (2, 1, 1)
    assert np.array_equal(none.amps[:, 0, 0], BALANCED)


def test_mode_index_contract():
    st = HybridState(("in", "3", "b"), 1, np.zeros((2, 3, 2)))
    assert [st.mode_index(m) for m in ("in", "3", "b")] == [0, 1, 2]
    for label in ("nope", 3, ["in"]):  # undeclared; a label is matched as given, not as it prints; unhashable
        with pytest.raises(ModeError, match="unknown mode"):
            st.mode_index(label)
    with pytest.raises(StateError, match="mode labels must be str"):
        HybridState(("in", 3, "b"), 1, np.zeros((2, 3, 2)))
    with pytest.raises(StateError, match="duplicate mode labels"):
        HybridState(("in", "3", "3"), 1, np.zeros((2, 3, 2)))
    # states made from a state keep its labels
    assert apply_hwp(st, "b").mode_index("b") == 2


def test_overlap_self_and_orthogonal(rng):
    pairs = random_spin_pairs(rng, 2)
    x = make_product_state(random_amplitude_pair(rng), "in", pairs, MODES2)
    assert overlap(x, x) == pytest.approx(1.0, abs=1e-12)
    a = make_product_state((1, 0), "in", [(1, 0), (1, 0)], MODES2)
    b = make_product_state((0, 1), "in", [(1, 0), (1, 0)], MODES2)
    assert overlap(a, b) == 0.0


def test_overlap_conjugate_linearity(rng):
    pairs = random_spin_pairs(rng, 2)
    x = make_product_state(random_amplitude_pair(rng), "in", pairs, MODES2)
    y = make_product_state(random_amplitude_pair(rng), "a", random_spin_pairs(rng, 2), MODES2)
    z = 0.3 - 0.7j
    scaled = HybridState(x.modes, x.n_spins, z * x.amps)
    assert overlap(scaled, y) == pytest.approx(np.conj(z) * overlap(x, y), abs=1e-12)
    assert overlap(y, scaled) == pytest.approx(z * overlap(y, x), abs=1e-12)


def test_overlap_dimension_mismatch():
    a = make_product_state((1, 0), "in", [(1, 0)], MODES2)
    b = make_product_state((1, 0), "in", [(1, 0), (1, 0)], MODES2)
    with pytest.raises(DimensionMismatchError):
        overlap(a, b)


def test_collapse_basic_fs_split():
    # photon |R> = (|F>+|S>)/sqrt2: each outcome has probability 1/2
    st = make_product_state((1, 0), "in", [(1, 0)], MODES2)
    rows = partial_trace_photon_collapse(st, ["in"])
    assert rows.shape == (1, 2, 2)
    (f, s), = rows
    assert np.sum(np.abs(f) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert np.sum(np.abs(s) ** 2) == pytest.approx(0.5, abs=1e-12)
    assert f[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert s[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_collapse_pre_detection_gate_state():
    # photon carries L on the control-|+> branches and R on the
    # control-|-> (target-flipped) branches; detecting F yields the
    # target-flipped register with probability 1/2 and no correction needed
    rng = np.random.default_rng(11)
    (ac, bc), (at, bt) = random_spin_pairs(rng, 2)
    amps = np.zeros((2, 3, 4), dtype=complex)
    m = 1
    amps[L, m, 0] = ac * at
    amps[L, m, 1] = ac * bt
    amps[R, m, 3] = bc * at
    amps[R, m, 2] = bc * bt
    st = HybridState(MODES2, 2, amps)
    f = partial_trace_photon_collapse(st, ["a"])[0, 0]
    assert np.sum(np.abs(f) ** 2) == pytest.approx(0.5, abs=1e-12)
    expected = np.array([ac * at, ac * bt, bc * bt, bc * at]) * math.sqrt(0.5)
    assert np.abs(f - expected).max() < 1e-12


def test_collapse_zero_norm_flags_null():
    # the projection is linear: a zero state gives zero rows, not an error
    st = make_product_state((1, 0), "in", [(1, 0)], MODES2)
    zero = HybridState(st.modes, st.n_spins, np.zeros_like(st.amps))
    rows = partial_trace_photon_collapse(zero, MODES2)
    assert rows.shape == (3, 2, 2)
    assert not np.any(rows)


def test_collapse_unknown_mode():
    st = make_product_state((1, 0), "in", [(1, 0)], MODES2)
    with pytest.raises(ModeError):
        partial_trace_photon_collapse(st, ["in", "nope"])


@pytest.mark.parametrize(
    "order",
    [
        list(range(31)),  # every mode in declared order: the usual all-modes detection
        list(range(30, -1, -1)),  # every mode in reverse order
        [30, 0, 1, 2, 9, 3, 27, 28, 29, 14],
        [5],
        [],
    ],
)
def test_collapse_matches_oracle_in_any_mode_order(rng, order):
    modes = tuple(f"w{i}" for i in range(31))
    amps = rng.normal(size=(2, 31, 8)) + 1j * rng.normal(size=(2, 31, 8))
    detectors = tuple(modes[i] for i in order)
    rows = partial_trace_photon_collapse(HybridState(modes, 3, amps), detectors)
    expected = [spins for _, _, spins in detect(Netlist(3, modes, (), detectors), amps)]
    assert rows.shape == (len(order), 2, 8)
    assert np.abs(rows.reshape(-1, 8) - np.reshape(expected, (-1, 8))).max(initial=0.0) < 1e-12


def test_collapse_outcome_completeness(rng):
    # squared norms of the F/S rows over every mode sum to the squared norm
    for _ in range(20):
        amps = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        amps *= 0.3  # subnormalized
        st = HybridState(MODES2, 2, amps)
        rows = partial_trace_photon_collapse(st, MODES2)
        assert np.sum(np.abs(rows) ** 2) == pytest.approx(st.norm2(), abs=1e-12)


def test_collapse_is_hwp_then_rl_readout_bit_for_bit(rng):
    # F/S detection is the half-wave plate followed by reading R as F and L
    # as S: one change of basis, so the rows agree to the last bit, down to
    # the sign of a zero (``nvgates run`` prints it, as in -0.000000j).
    # Ideal circuits hold exact and signed zeros, so half the states are
    # drawn from {-1, -0.0, 0.0, 1}.
    for trial in range(40):
        amps = np.empty((2, 3, 4), dtype=complex)
        for part in (amps.real, amps.imag):
            part[...] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=part.shape) if trial % 2 else rng.normal(size=part.shape)
        st = HybridState(MODES2, 2, amps)
        rows = partial_trace_photon_collapse(st, ("b", "in"))
        for row, mode in zip(rows, ("b", "in")):
            after = apply_hwp(st, mode).amps[:, st.mode_index(mode)]
            assert row[0].tobytes() == after[R].tobytes() and row[1].tobytes() == after[L].tobytes()


def test_linearity_of_elements(rng):
    for _ in range(10):
        a = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        b = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        x = HybridState(MODES_VAC, 2, a)
        y = HybridState(MODES_VAC, 2, b)
        za, zb = 0.6 - 0.2j, -0.1 + 0.9j
        combo = HybridState(MODES_VAC, 2, za * a + zb * b)
        for op in (
            lambda s: apply_hwp(s, "a"),
            lambda s: apply_pbs_rl(s, ("in", "vac"), ("a", "b")),
            lambda s: apply_spin_hadamard(s, 1),
            lambda s: scatter(s, 0, "in", IDEAL_PAIR),
        ):
            lhs = op(combo).amps
            rhs = za * op(x).amps + zb * op(y).amps
            assert np.abs(lhs - rhs).max() < 1e-12


def test_norm_monotonic_under_scatter(rng):
    from conftest import random_reflection

    for _ in range(50):
        amps = rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4))
        amps /= np.linalg.norm(amps)
        st = HybridState(MODES2, 2, amps)
        pair = random_reflection(rng, resonant_cold=False)
        after = scatter(st, int(rng.integers(0, 2)), "a", pair)
        assert after.norm2() <= st.norm2() + 1e-12


def test_ideal_unitarity_norm_preserved(rng):
    st = make_product_state(BALANCED, "in", random_spin_pairs(rng, 2), MODES_VAC)
    st = apply_pbs_rl(st, ("in", "vac"), ("a", "b"))
    st = scatter(st, 0, "a", IDEAL_PAIR)
    st = apply_hwp(st, "a")
    st = apply_spin_hadamard(st, 1)
    assert st.norm2() == pytest.approx(1.0, abs=1e-12)


def test_states_are_immutable():
    st = make_product_state((1, 0), "in", [(1, 0)], MODES2)
    with pytest.raises(ValueError):
        st.amps[0, 0, 0] = 5.0


@pytest.mark.parametrize("modes, n_spins", [(("a",), 2.0), (("a",), True), (("a",), np.int64(2)), (("a",), -1), ((), 1)])
def test_state_refuses_the_fields_a_netlist_refuses(modes, n_spins):
    # a float or bool count once built, and failed later in a kernel (1 << 2.0, a bare TypeError)
    match = "a state needs at least one mode" if not modes else f"spin count must be an int >= 0, got {n_spins!r}"
    shape = (2, len(modes), 4 if n_spins == 2 else 2)
    with pytest.raises(StateError, match=f"^{re.escape(match)}$"):
        HybridState(modes, n_spins, np.zeros(shape, dtype=complex))
    assert HybridState(("a",), 0, np.ones((2, 1, 1))).n_spins == 0  # no spin is a count too
