"""Simulator for photon-mediated quantum gates on cavity-coupled NV-center spins.

A single photon, prepared in an equal R/L polarization superposition, is
routed through polarizing interferometers enclosing NV-cavity reflections,
measured in the F/S basis, and outcome-conditioned single-spin corrections
complete a deterministic CNOT, Toffoli, or Fredkin gate on the electron
spins.  The package simulates both the ideal regime and lossy cavities,
parses circuits from a small netlist format, and reproduces the closed-form
fidelity/efficiency curves of the scheme.
"""

from .cavity import (
    CavityParams,
    IDEAL_PAIR,
    ParameterError,
    ReflectionPair,
    coupling_ratio_to_r,
    quality_factor_conversions,
    reflection_at_ratio,
    reflection_coefficient,
    resonant_pair,
    scatter,
)
from .elements import Element, Kind, Pauli
from .gates import GATE_NAMES, build_gate_circuit, ideal_gate_unitary
from .netlist import (
    DiagnosticKind,
    Netlist,
    NetlistError,
    Outcome,
    apply_elements,
    balanced_product_input,
    iter_element_states,
    load_netlist,
    max_nv_path_depth,
    parse_netlist,
    product_input,
    run_netlist,
    serialize_netlist,
)
from .state import (
    HybridState,
    L,
    MINUS,
    PLUS,
    R,
    StateError,
    overlap,
    spin_config_bits,
    spin_config_index,
)

__version__ = "0.1.0"
