"""A circuit run rewrites one private copy of its input in place.

``apply_elements`` copies the caller's state once and hands that writable
copy to every element kernel, which rewrites it; ``state.in_place`` gives
each kernel value semantics on the read-only states callers hold.  These
tests pin the in-place run to a fold of the kernels over read-only states,
where every element copies, byte for byte, and check that no caller ever
receives a writable array or sees its own state change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nvgates
from nvgates.cavity import IDEAL_PAIR, ReflectionPair, resonant_pair, scatter
from nvgates.elements import (
    _apply_element,
    apply_bs,
    apply_hwp,
    apply_pbs_fs,
    apply_pbs_rl,
    apply_spin_hadamard,
)
from nvgates.netlist import Netlist, apply_elements, iter_element_states, parse_netlist, run_netlist
from nvgates.state import HybridState, butterfly, working_copy

from test_netlist_properties import netlists

PAIRS = (IDEAL_PAIR, resonant_pair(0.6), ReflectionPair(r_hot=0.4 + 0.5j, r_cold=-0.7 + 0.2j))
MODES = ("a", "b", "c", "d")
KERNELS = {
    "pbs": lambda s: apply_pbs_rl(s, ("a", "b"), ("c", "d")),
    "pbsfs": lambda s: apply_pbs_fs(s, "b", ("d", "a")),
    "hwp": lambda s: apply_hwp(s, "c"),
    "bs": lambda s: apply_bs(s, ("d", "a"), ("b", "c")),
    "nv": lambda s: scatter(s, 1, "a", PAIRS[2]),
    "nvgates.scatter": lambda s: nvgates.scatter(s, 0, "d", PAIRS[1]),
    "spinh": lambda s: apply_spin_hadamard(s, 1),
}


def _dense_state(rng: np.random.Generator, modes, n_spins: int) -> HybridState:
    """A state with amplitude on every slot, so every wire of a kernel carries some."""
    shape = (2, len(modes), 2**n_spins)
    return HybridState(tuple(modes), n_spins, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _copying_fold(net: Netlist, state: HybridState, pair: ReflectionPair) -> list[HybridState]:
    """The state after each element, every kernel given a read-only state, so each copies."""
    states = []
    for el in net.elements:
        state = _apply_element(state, el, pair)
        assert not state.amps.flags.writeable
        states.append(state)
    return states


@settings(max_examples=150, deadline=None)
@given(netlists(), st.sampled_from(PAIRS), st.integers(0, 2**32 - 1))
def test_an_in_place_run_is_the_copying_fold_and_leaves_its_input_alone(net, pair, seed):
    start = _dense_state(np.random.default_rng(seed), net.modes, net.n_spins)
    before = start.amps.tobytes()
    fold = _copying_fold(net, start, pair)
    out = apply_elements(net, start, pair)
    assert not out.amps.flags.writeable
    assert out.amps.tobytes() == (fold[-1] if fold else start).amps.tobytes()
    assert start.amps.tobytes() == before
    for outcome in run_netlist(net, start, pair):
        assert not outcome.amps.flags.writeable
    assert start.amps.tobytes() == before

    snapshots = list(iter_element_states(net, start, pair))
    assert [el for el, _ in snapshots] == list(net.elements)
    assert start.amps.tobytes() == before
    arrays = [start.amps] + [s.amps for _, s in snapshots]
    for k, (_, snap) in enumerate(snapshots):  # read after the iteration has ended
        assert not snap.amps.flags.writeable
        assert snap.amps.tobytes() == fold[k].amps.tobytes()
        assert not any(np.shares_memory(snap.amps, other) for other in arrays[: k + 1])


@pytest.mark.parametrize("name", list(KERNELS))
def test_a_kernel_given_a_read_only_state_returns_a_new_read_only_one(rng, name):
    st0 = _dense_state(rng, MODES, 2)
    before = st0.amps.tobytes()
    out = KERNELS[name](st0)
    assert out is not st0 and not np.shares_memory(out.amps, st0.amps)
    assert not out.amps.flags.writeable
    assert (out.modes, out.n_spins) == (st0.modes, st0.n_spins)
    assert st0.amps.tobytes() == before


@pytest.mark.parametrize("name", list(KERNELS))
def test_a_kernel_given_a_writable_state_rewrites_it_to_the_same_bytes(rng, name):
    st0 = _dense_state(rng, MODES, 2)
    work = working_copy(st0)
    assert work.amps.flags.writeable and not np.shares_memory(work.amps, st0.amps)
    array = work.amps
    assert KERNELS[name](work) is work
    assert work.amps is array and work.amps.flags.writeable
    assert work.amps.tobytes() == KERNELS[name](st0).amps.tobytes()


def test_public_scatter_takes_its_arguments_by_keyword(rng):
    st0 = _dense_state(rng, MODES, 2)
    by_position = nvgates.scatter(st0, 0, "d", PAIRS[2]).amps.tobytes()
    for out in (
        nvgates.scatter(st0, 0, "d", r=PAIRS[2]),
        nvgates.scatter(state=st0, nv_index=0, mode="d", r=PAIRS[2]),
    ):
        assert not out.amps.flags.writeable and out.amps.tobytes() == by_position
    work = working_copy(st0)
    assert nvgates.scatter(state=work, nv_index=0, mode="d", r=PAIRS[2]) is work
    assert work.amps.tobytes() == by_position


def test_a_run_of_no_element_returns_a_read_only_state(rng):
    st0 = _dense_state(rng, MODES, 1)
    out = apply_elements(Netlist(1, MODES, (), ()), st0)
    assert not out.amps.flags.writeable
    assert out.amps.tobytes() == st0.amps.tobytes()
    assert list(iter_element_states(Netlist(1, MODES, (), ()), st0)) == []


def test_each_state_yielded_stays_as_it_was_while_the_iteration_goes_on(rng):
    net = parse_netlist(
        "spins 2\nmodes a b c d e f g h\nhwp a\nnv a spin_0\npbs a b -> c d\nspinh 1\nbs c d -> e f\npbsfs e -> g h\n"
    )
    seen = []
    for _, state in iter_element_states(net, _dense_state(rng, net.modes, 2), PAIRS[2]):
        seen.append((state, state.amps.tobytes()))
        assert all(s.amps.tobytes() == b for s, b in seen)
    assert len({id(s) for s, _ in seen}) == len(net.elements) == 6


def test_butterfly_onto_its_own_inputs_matches_fresh_outputs_bit_for_bit(rng):
    a = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
    u, v = np.empty((2, 8), dtype=complex), np.empty((2, 8), dtype=complex)
    butterfly(a[0:2], a[2:4], u, v)
    same = a.copy()
    butterfly(same[0:2], same[2:4], same[0:2], same[2:4])
    assert same[0:2].tobytes() == u.tobytes() and same[2:4].tobytes() == v.tobytes()
    # outputs that overlap the inputs in reversed order, as the beam splitter writes them
    crossed = a.copy()
    butterfly(crossed[0:2], crossed[2:4], crossed[1::-1], crossed[3:1:-1])
    assert crossed[1::-1].tobytes() == u.tobytes() and crossed[3:1:-1].tobytes() == v.tobytes()
