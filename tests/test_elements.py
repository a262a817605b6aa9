"""Optical and spin element semantics, checked against the brute-force oracle."""

import math

import numpy as np
import pytest

from nvgates.cavity import IDEAL_PAIR, ReflectionPair, resonant_pair, scatter
from nvgates.elements import (
    Element,
    Kind,
    apply_bs,
    apply_hwp,
    apply_pbs_fs,
    apply_pbs_rl,
    apply_spin_hadamard,
)
from nvgates.netlist import DiagnosticKind, Netlist, NetlistError, apply_elements, parse_netlist, serialize_netlist
from nvgates.state import HybridState, L, MINUS, PLUS, R, StateError, make_product_state, spin_axis

from conftest import BALANCED, random_reflection, random_spin_pairs
from oracle import element_matrix

SQ2 = 1.0 / math.sqrt(2.0)
MODES = ("in", "1", "2", "3")


def _photon(pol_pair, mode="in", n_spins=1):
    return make_product_state(pol_pair, mode, [(1, 0)] * n_spins, MODES)


def _apply(st, element, pair=IDEAL_PAIR):
    """``element`` applied to ``st``, through the one-element Netlist that checks it."""
    return apply_elements(Netlist(st.n_spins, st.modes, (element,), ()), st, pair)


def test_pbs_transmits_r():
    out = apply_pbs_rl(_photon((1, 0)), ("in", "3"), ("1", "2"))
    assert out.amps[R, MODES.index("1"), 0] == 1.0
    assert np.count_nonzero(out.amps) == 1


def test_pbs_reflects_l():
    out = apply_pbs_rl(_photon((0, 1)), ("in", "3"), ("1", "2"))
    assert out.amps[L, MODES.index("2"), 0] == 1.0
    assert np.count_nonzero(out.amps) == 1


def test_pbs_splits_superposition_keeping_norm():
    out = apply_pbs_rl(_photon(BALANCED), ("in", "3"), ("1", "2"))
    assert out.amps[R, MODES.index("1"), 0] == pytest.approx(SQ2)
    assert out.amps[L, MODES.index("2"), 0] == pytest.approx(SQ2)
    assert out.norm2() == pytest.approx(1.0, abs=1e-12)


def test_pbs_single_input_rejected():
    # pbs takes exactly two inputs; an unused port is a never-occupied mode
    with pytest.raises(NetlistError, match="^element 0: pbs takes") as err:
        Netlist(1, MODES, (Element(Kind.PBS_RL, ("in",), ("1", "2")),), ())
    assert err.value.kind is DiagnosticKind.ARITY_MISMATCH


@pytest.mark.parametrize(
    "kind, in_modes, out_modes, spin",
    [
        (Kind.HWP, ("a",), ("a",), 0),  # a spin the form has no place for
        (Kind.PBS_FS, ("a",), ("b", "c"), 1),
        (Kind.NV_SCATTER, ("a",), ("a",), None),  # a missing spin
        (Kind.SPIN_H, (), (), None),
        (Kind.SPIN_H, ("a",), ("a",), 0),  # modes on a spin-only kind
        (Kind.HWP, ("a",), ("b",), None),  # an in-place kind moving its wire
        (Kind.BS5050, ("a", "b", "c"), ("d",), None),
    ],
)
def test_element_rejects_operands_outside_its_form(kind, in_modes, out_modes, spin):
    # an Element is a plain record; the Netlist that holds it checks its form
    el = Element(kind, in_modes, out_modes, spin)
    with pytest.raises(NetlistError) as err:
        Netlist(2, ("a", "b", "c", "d"), (el,), ())
    assert err.value.kind is DiagnosticKind.ARITY_MISMATCH


def test_hwp_maps_r_to_f():
    out = apply_hwp(_photon((1, 0)), "in")
    assert out.amps[R, 0, 0] == pytest.approx(SQ2)
    assert out.amps[L, 0, 0] == pytest.approx(SQ2)


def test_hwp_involution(rng):
    amps = rng.normal(size=(2, 4, 2)) + 1j * rng.normal(size=(2, 4, 2))
    st = HybridState(MODES, 1, amps)
    twice = apply_hwp(apply_hwp(st, "2"), "2")
    assert np.abs(twice.amps - st.amps).max() < 1e-12


def test_bs_eq_maps():
    # second input port splits with two plus signs
    st = _photon((1, 0), mode="2")
    out = apply_bs(st, ("1", "2"), ("3", "in"))
    assert out.amps[R, MODES.index("3"), 0] == pytest.approx(SQ2)
    assert out.amps[R, MODES.index("in"), 0] == pytest.approx(SQ2)
    # first input port carries the minus on the second output
    st = _photon((0, 1), mode="1")
    out = apply_bs(st, ("1", "2"), ("3", "in"))
    assert out.amps[L, MODES.index("3"), 0] == pytest.approx(SQ2)
    assert out.amps[L, MODES.index("in"), 0] == pytest.approx(-SQ2)


def test_bs_constructive_port():
    # equal same-phase amplitude on both inputs leaves one output dark
    amps = np.zeros((2, 4, 2), dtype=complex)
    amps[R, MODES.index("1"), 0] = SQ2
    amps[R, MODES.index("2"), 0] = SQ2
    st = HybridState(MODES, 1, amps)
    out = apply_bs(st, ("1", "2"), ("3", "in"))
    assert out.amps[R, MODES.index("3"), 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(out.amps[R, MODES.index("in"), 0]) < 1e-12


def test_pbs_fs_routes_eigenstates():
    st = _photon(BALANCED)  # |F>
    out = apply_pbs_fs(st, "in", ("1", "2"))
    f_idx, s_idx = MODES.index("1"), MODES.index("2")
    assert np.sum(np.abs(out.amps[:, f_idx, :]) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(np.abs(out.amps[:, s_idx, :]) ** 2) == pytest.approx(0.0, abs=1e-12)
    # photon in the F arm is still polarized (|R>+|L>)/sqrt2
    assert out.amps[R, f_idx, 0] == pytest.approx(SQ2)
    assert out.amps[L, f_idx, 0] == pytest.approx(SQ2)


def test_pbs_fs_splits_r_evenly():
    out = apply_pbs_fs(_photon((1, 0)), "in", ("1", "2"))
    for mode in ("1", "2"):
        weight = np.sum(np.abs(out.amps[:, MODES.index(mode), :]) ** 2)
        assert weight == pytest.approx(0.5, abs=1e-12)


def test_pbs_fs_equals_hwp_pbs_hwp(rng):
    # HWP -> PBS(R/L) -> HWP on both outputs gives the same operator
    for _ in range(5):
        amps = np.zeros((2, 4, 2), dtype=complex)
        blob = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        amps[:, 0, :] = blob / np.linalg.norm(blob)
        st = HybridState(MODES, 1, amps)
        direct = apply_pbs_fs(st, "in", ("1", "2"))
        composed = apply_hwp(st, "in")
        composed = apply_pbs_rl(composed, ("in", "3"), ("1", "2"))
        composed = apply_hwp(composed, "1")
        composed = apply_hwp(composed, "2")
        assert np.abs(direct.amps - composed.amps).max() < 1e-12


def test_spin_hadamard_action_and_involution(rng):
    st = make_product_state((1, 0), "in", [(1, 0), (0, 1)], MODES)
    out = apply_spin_hadamard(st, 0)
    view = out.amps.reshape(2, len(MODES), 2, 2)  # (pol, mode, spin 0, spin 1)
    assert view[R, 0, PLUS, MINUS] == pytest.approx(SQ2)
    assert view[R, 0, MINUS, MINUS] == pytest.approx(SQ2)
    st2 = make_product_state(BALANCED, "1", random_spin_pairs(rng, 2), MODES)
    twice = apply_spin_hadamard(apply_spin_hadamard(st2, 1), 1)
    assert np.abs(twice.amps - st2.amps).max() < 1e-12


def test_spin_hadamard_spin_out_of_range():
    st = make_product_state((1, 0), "in", [(1, 0), (0, 1)], MODES)
    for spin in (-1, 2):
        with pytest.raises(StateError, match=f"spin index {spin} out of range for 2 spins"):
            apply_spin_hadamard(st, spin)


def test_photon_spin_operations_commute(rng):
    st = make_product_state(BALANCED, "in", random_spin_pairs(rng, 2), MODES)
    a = apply_spin_hadamard(apply_hwp(st, "in"), 0)
    b = apply_hwp(apply_spin_hadamard(st, 0), "in")
    assert np.abs(a.amps - b.amps).max() < 1e-12


@pytest.mark.parametrize(
    "element",
    [
        Element(Kind.PBS_RL, ("in", "1"), ("2", "3")),
        Element(Kind.PBS_FS, ("in",), ("1", "2")),
        Element(Kind.HWP, ("2",), ("2",)),
        Element(Kind.BS5050, ("in", "1"), ("2", "3")),
        Element(Kind.SPIN_H, spin=1),
    ],
)
def test_non_nv_elements_unitary_on_random_states(rng, element):
    for _ in range(5):
        amps = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        amps /= np.linalg.norm(amps)
        st = HybridState(MODES, 2, amps)
        out = _apply(st, element)
        assert out.norm2() == pytest.approx(1.0, abs=1e-12)


WIDE_MODES = tuple(f"w{i}" for i in range(31))


@pytest.mark.parametrize(
    "element, modes, n_spins",
    [
        pytest.param(el, MODES, 2, id=f"element{i}")
        for i, el in enumerate([
            Element(Kind.PBS_RL, ("in", "1"), ("2", "3")),
            Element(Kind.PBS_FS, ("in",), ("1", "2")),
            Element(Kind.HWP, ("2",), ("2",)),
            Element(Kind.BS5050, ("1", "2"), ("3", "in")),
            Element(Kind.NV_SCATTER, ("1",), ("1",), spin=0),
            Element(Kind.SPIN_H, spin=1),
        ])
    ]
    # 31 modes and 3 spins, wires out of order: row offsets that only go
    # wrong where modes are many and unordered
    + [
        pytest.param(el, WIDE_MODES, 3, id=f"wide-{el.kind.value}-{i}")
        for i, el in enumerate([
            Element(Kind.PBS_RL, ("w27", "w3"), ("w9", "w30")),
            Element(Kind.PBS_FS, ("w14",), ("w30", "w2")),
            Element(Kind.PBS_FS, ("w30",), ("w0", "w29")),
            Element(Kind.HWP, ("w17",), ("w17",)),
            Element(Kind.BS5050, ("w27", "w3"), ("w30", "w9")),
            Element(Kind.BS5050, ("w0", "w30"), ("w1", "w29")),
            Element(Kind.NV_SCATTER, ("w5",), ("w5",), spin=1),
            Element(Kind.SPIN_H, spin=0),
            Element(Kind.SPIN_H, spin=1),
            Element(Kind.SPIN_H, spin=2),
        ])
    ],
)
def test_elements_match_oracle_matrices(rng, element, modes, n_spins):
    # full random states: the output wires are occupied too, so the
    # backward routing is compared as well
    pair = random_reflection(rng)
    mat = element_matrix(element, modes, n_spins, pair)
    shape = (2, len(modes), 2**n_spins)
    for _ in range(3):
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        amps /= np.linalg.norm(amps)
        st = HybridState(modes, n_spins, amps)
        fast = _apply(st, element, pair).amps.reshape(-1)
        slow = mat @ amps.reshape(-1)
        assert np.abs(fast - slow).max() < 1e-12


def test_element_stores_operands_as_tuples_of_str():
    # a plain record keeps what it is given; a Netlist takes tuples of declared str labels only
    el = Element(Kind.PBS_RL, ("a", "b"), ("c", "d"))
    assert (el.kind, el.in_modes, el.out_modes, el.spin) == (Kind.PBS_RL, ("a", "b"), ("c", "d"), None)
    assert Element(Kind.SPIN_H, spin=1).in_modes == ()
    modes = ("a", "b", "c", "d", "2")
    assert Netlist(1, modes, (el,), ()).elements == (el,)
    for wires in (("a", 2), ["a", "b"]):  # a label is matched as given, not as it prints
        with pytest.raises(ValueError):
            Netlist(1, modes, (el._replace(in_modes=wires),), ())


def test_element_replace_checks_the_wiring_again():
    # _replace makes a new record, checked again by the Netlist that holds it
    el = Element(Kind.PBS_RL, ("a", "b"), ("c", "d"))
    moved = el._replace(out_modes=("e", "d"))
    assert Netlist(1, tuple("abcde"), (moved,), ()).elements == (Element(Kind.PBS_RL, ("a", "b"), ("e", "d")),)
    for bad in (el._replace(out_modes=("c", "b")), el._replace(spin=0)):
        with pytest.raises(NetlistError) as err:
            Netlist(1, tuple("abcde"), (bad,), ())
        assert err.value.kind is DiagnosticKind.ARITY_MISMATCH
    with pytest.raises(AttributeError):
        el.in_modes = ("x", "y")


def test_element_equality_hash_and_repr():
    el = Element(Kind.PBS_RL, ("a", "b"), ("c", "3"))
    same = Element(Kind.PBS_RL, ("a", "b"), ("c", "3"))
    assert el == same and hash(el) == hash(same) and len({el, same}) == 1
    assert el != Element(Kind.BS5050, ("a", "b"), ("c", "3"))
    assert el != Element(Kind.PBS_RL, ("b", "a"), ("c", "3"))
    assert repr(el) == "Element(kind=<Kind.PBS_RL: 'pbs'>, in_modes=('a', 'b'), out_modes=('c', '3'), spin=None)"
    # a netlist's lines are not compared: the parsed netlist equals the one built in code
    parsed = parse_netlist("spins 1\nmodes a b c 3\n\npbs a b -> c 3\n")
    built = Netlist(1, ("a", "b", "c", "3"), (el,), ())
    assert (parsed.lines, built.lines) == ((4,), ()) and parsed == built and hash(parsed) == hash(built)


def test_parsed_elements_round_trip_and_overlap_is_located():
    text = "spins 2\nmodes a b c d e f\npbs a b -> c d\nnv c spin_1\npbsfs d -> e f\nspinh 0\ndetect c\n"
    net = parse_netlist(text)
    assert net.lines == (3, 4, 5, 6)
    assert parse_netlist(serialize_netlist(net)) == net
    with pytest.raises(NetlistError) as info:
        parse_netlist("spins 1\nmodes a b c\n  pbs a b -> c b\n")
    assert (info.value.kind, info.value.line, info.value.column) == (DiagnosticKind.ARITY_MISMATCH, 3, 3)


# The spinh and nv kernels as they were first written: the butterfly and the
# four reflections on strided spin_axis views, (pol, mode, higher, spin, lower).
def _spinh_on_views(amps, n, k):
    out = np.empty_like(amps)
    a, b = spin_axis(amps, n, k), spin_axis(out, n, k)
    np.multiply(a[..., 0, :] + a[..., 1, :], SQ2, out=b[..., 0, :])
    np.multiply(a[..., 0, :] - a[..., 1, :], SQ2, out=b[..., 1, :])
    return out


def _scatter_on_views(amps, n, k, mi, r):
    a = amps.copy()
    view = spin_axis(a, n, k)
    view[R, mi, :, PLUS] *= r.r_hot
    view[L, mi, :, MINUS] *= r.r_hot
    view[R, mi, :, MINUS] *= r.r_cold
    view[L, mi, :, PLUS] *= r.r_cold
    return a


@pytest.mark.parametrize("n_spins", [1, 2, 3, 4, 5])
def test_spin_kernels_match_the_view_formulas_bit_for_bit(n_spins):
    # every spin k, inputs with every sign of zero, lossy and complex pairs
    rng = np.random.default_rng(20131001 + n_spins)
    modes = tuple(f"w{i}" for i in range(7))
    pairs = (resonant_pair(0.6 * np.exp(0.7j)), ReflectionPair(0.3 - 0.4j, -0.8 + 0.1j), resonant_pair(0.8), IDEAL_PAIR)
    for trial in range(4):
        amps = np.empty((2, len(modes), 2**n_spins), dtype=complex)
        for part in (amps.real, amps.imag):
            part[...] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=part.shape) if trial % 2 else rng.normal(size=part.shape)
        state = HybridState(modes, n_spins, amps)
        for k in range(n_spins):
            got = apply_spin_hadamard(state, k).amps
            assert got.tobytes() == _spinh_on_views(state.amps, n_spins, k).tobytes(), (k, trial)
            for mi, pair in zip((0, 3, 6, 2), pairs):
                got = scatter(state, k, modes[mi], pair).amps
                want = _scatter_on_views(state.amps, n_spins, k, mi, pair)
                if n_spins == 1 and (pair.r_hot.imag or pair.r_cold.imag):
                    # numpy multiplies the one-amplitude views one by one and
                    # a 2-amplitude row with its fused multiply-add loop, so a
                    # product with a non-real factor may round differently
                    np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
                else:
                    assert got.tobytes() == want.tobytes(), (k, mi, trial)
