"""Property tests over generated netlists (``netlists()`` of
``test_netlist_properties``): every element keeps the norm at the ideal pair,
and at a lossy pair the outcome probabilities plus the norm left on
undetected modes equal the norm before detection.

States fill every mode, wires an element writes included, so the elements'
backward routing is exercised as well as the forward one.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from nvgates.cavity import IDEAL_PAIR
from nvgates.netlist import Netlist, apply_elements, iter_element_states, run_netlist
from nvgates.state import HybridState

from conftest import random_reflection
from test_netlist_properties import SETTINGS, netlists


def _random_state(net: Netlist, seed: int) -> HybridState:
    """A unit-norm state over every mode of ``net``, occupied wires included."""
    rng = np.random.default_rng(seed)
    shape = (2, len(net.modes), 2**net.n_spins)
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return HybridState(net.modes, net.n_spins, amps / np.linalg.norm(amps))


SEEDS = st.integers(0, 2**32 - 1)


@SETTINGS
@given(netlists(), SEEDS)
def test_every_element_keeps_the_norm_at_the_ideal_pair(net, seed):
    for el, state in iter_element_states(net, _random_state(net, seed), IDEAL_PAIR):
        assert abs(state.norm2() - 1.0) <= 1e-12, el


@SETTINGS
@given(netlists(), SEEDS, st.booleans())
def test_outcomes_and_undetected_modes_hold_the_pre_detection_norm(net, seed, resonant_cold):
    # at a lossy pair: what detection finds plus what stays on undetected modes
    state = _random_state(net, seed)
    pair = random_reflection(np.random.default_rng(seed), resonant_cold)
    before = apply_elements(net, state, pair)
    undetected = [before.mode_index(m) for m in net.modes if m not in net.detectors]
    left = float((abs(before.amps[:, undetected]) ** 2).sum())
    found = sum(o.probability for o in run_netlist(net, state, pair))
    assert abs(found + left - before.norm2()) <= 1e-12
    assert before.norm2() <= 1.0 + 1e-12
