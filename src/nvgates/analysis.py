"""Gate fidelity and efficiency: closed forms, full simulation, and sweeps.

Fidelity is the squared overlap of a realistic gate output with the ideal
gate output; efficiency is the probability that the photon survives the
circuit (pre-detection squared norm).  Both are available two ways:

- closed forms in the signed resonant hot reflection r in [-1, 1] (the
  r of :func:`resonant_pair`, negative below coupling ratio 0.5), and
- direct simulation of the gate circuits at an arbitrary reflection pair,
  evaluated from each circuit's exact polynomial in r_hot
  (:func:`compile_circuit`).

The closed-form fidelity is the squared overlap of the whole photon-spin
state before detection with its ideal (r = 1) counterpart, balanced
input, so it keeps the photon-spin correlations between cavity passes.
The closed-form efficiency does NOT: it treats every pass as an independent
branch-averaged attenuation, whereas in an exact simulation the loss at one
pass reweights the branches seen by later passes.
:func:`efficiency_factorized` reconstructs that independent-pass model from
the circuit structure itself and matches the closed-form efficiency to
machine precision; :func:`fidelity_convention_report` quantifies the
residuals of the simulated quantities against the closed forms for every
input/normalization convention.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair, coupling_ratio_to_r, resonant_pair, scatter
from .elements import Pauli
from .gates import GATE_NAMES, _canon, build_gate_circuit, ideal_gate_unitary
from .netlist import (
    Netlist,
    apply_elements,  # noqa: F401 -- unused here, but perfbench/tracing.py wraps it at this name
    iter_element_states,
    nv_element_count,
    nv_runs,
    product_input,
    run_netlist,
)
from .state import _SQRT1_2, HybridState, kron_pairs, phase_aligned_deviation

INPUT_CONVENTIONS = ("balanced", "random")
NORMALIZATIONS = ("postselected", "unnormalized")


def _check_r(r) -> None:
    if not -1 <= r <= 1:
        raise ValueError(f"resonant hot reflection must lie in [-1, 1], got {r}")


def fidelity_closed_form(gate: str, r):
    """Closed-form gate fidelity at the signed resonant hot reflection r.

    Accepts floats or :class:`fractions.Fraction` (exact arithmetic for
    endpoint checks).  Equals 1 at r = 1 for all gates, and 1/4 (CNOT) or
    1/16 (Toffoli, Fredkin) at r = -1, where the spins are uncoupled.
    """
    _check_r(r)
    x = r
    gate = _canon(gate)
    if gate == "cnot":
        return (2 + x + x**2) ** 2 / (2 * (5 - 2 * x + 2 * x**2 + 2 * x**3 + x**4))
    if gate == "toffoli":
        return (3 + x) ** 4 / (16 * (3 + x**2) ** 2)
    zeta = (29 + 19 * x + 8 * x**2 + 4 * x**3 + 3 * x**4 + x**5) ** 2  # fredkin
    xi = 8 * (
        237
        - 10 * x
        + 165 * x**2
        - 8 * x**3
        + 66 * x**4
        - 12 * x**5
        + 26 * x**6
        + x**7 * (3 + x) * (8 + 3 * x + x**2)
    )
    return zeta / xi


def efficiency_closed_form(gate: str, r):
    """Closed-form photon yield at the signed resonant hot reflection r.

    Accepts floats or Fractions.  Even in r: equals 1 at r = 1 and at
    r = -1 for all gates.
    """
    _check_r(r)
    x2 = r * r
    gate = _canon(gate)
    if gate == "cnot":
        return ((3 + x2) ** 2) / 16
    if gate == "toffoli":
        return (3 + x2) ** 2 * (7 + x2) / 128
    return (3 + x2) * (4 + (1 + x2) ** 2) * (12 + (1 + x2) ** 2) / 512  # fredkin


def _spin_inputs(n: int, convention: str, trials: int, seed) -> np.ndarray:
    """Spin input vectors of one convention, shape (inputs, 2**n).

    ``balanced`` is the one input with every spin (|+>+|->)/sqrt2.
    ``random`` draws ``trials`` product inputs from
    ``np.random.default_rng(seed)``: each spin's pair takes two
    standard-normal draws for its real parts and two for its imaginary
    parts, trial by trial and spin by spin, and is normalized as by
    ``np.linalg.norm`` (two dot products) and a complex division (times
    1/norm), so the pairs equal a pair-by-pair draw bit for bit.
    """
    if convention == "balanced":
        return kron_pairs(np.full((n, 2), _SQRT1_2, dtype=complex))[None, :]
    if convention != "random":
        raise ValueError(f"unknown input convention {convention!r}")
    if trials < 1:
        raise ValueError(f"the random convention needs at least 1 trial, got {trials}")
    draws = np.random.default_rng(seed).normal(size=(trials, n, 2, 1, 2))
    re, im = draws[:, :, 0], draws[:, :, 1]  # (trials, n, 1, 2)
    scale = 1.0 / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))
    pairs = np.empty((trials, n, 1, 2), dtype=complex)
    np.multiply(re, scale, out=pairs.real)
    np.multiply(im, scale, out=pairs.imag)
    return kron_pairs(pairs[:, :, 0].swapaxes(0, 1))


def _basis_run(net: Netlist, extra: int = 0) -> tuple[Netlist, HybridState]:
    """``net`` widened to run every spin-basis input at once, and its start state.

    The netlist has 2n + ``extra`` spins: the circuit's n, n idle ancillas,
    then ``extra`` idle spins for a coefficient register.  Elements keep
    their spins, each feedforward rule gets ``I`` on the idle spins, and
    every mode is detected: the circuit's detectors, then its undetected
    modes in declaration order.  The state is sum_c |input_c>|c>, of squared
    norm 2**n: ancilla configuration c carries ``product_input(net, basis
    config c)``, the same photon amplitudes at circuit configuration c, and
    the ``extra`` spins are |+...+>.  The circuit is linear and leaves the
    ancillas idle, so after any run the amplitudes at ancilla configuration
    c are its response to basis input c.
    """
    n, dim, idle = net.n_spins, 2**net.n_spins, net.n_spins + extra
    undetected = tuple(m for m in net.modes if m not in net.detectors)
    feedforward = tuple((label, ops + (Pauli.I,) * idle) for label, ops in net.feedforward)
    wide = replace(net, n_spins=n + idle, detectors=net.detectors + undetected, feedforward=feedforward)
    photon = product_input(net, [(1.0, 0.0)] * n).amps[:, :, :1]
    amps = np.zeros((2, len(net.modes), dim, dim, 1 << extra), dtype=complex)
    amps[:, :, range(dim), range(dim), 0] = photon
    return wide, HybridState(net.modes, wide.n_spins, amps.reshape(2, len(net.modes), -1))


class _FormalHot:
    """A reflection pair whose r_hot is a formal variable, at a numeric
    ``r_cold``.  The last log2(slots) spin bits are a coefficient register:
    entry j of each run of ``slots`` entries along the last axis holds the
    coefficient of r_hot**j."""

    def __init__(self, slots: int, r_cold: complex):
        self.slots, self.r_cold = slots, r_cold

    def times_hot(self, x: np.ndarray) -> np.ndarray:
        """``x`` with each coefficient one entry up, a new array; raises
        rather than drop an occupied top entry."""
        coeffs = x.reshape(x.shape[:-1] + (-1, self.slots))
        if np.any(coeffs[..., -1]):
            raise OverflowError(f"an r_hot**{self.slots} term does not fit the {self.slots}-slot coefficient register")
        shifted = np.zeros_like(coeffs)
        shifted[..., 1:] = coeffs[..., :-1]
        return shifted.reshape(x.shape)


class CompiledCircuit:
    """A circuit's detection rows as exact polynomials in r_hot at one r_cold.

    ``coefficients[j, row]`` is the r_hot**j coefficient of the row's 2**n x
    2**n map from a spin input vector to its unnormalized, feedforward-
    corrected spin output; a row is one (mode, F or S) pair.  The first
    ``n_outcomes`` rows are the detectors', in ``outcome_labels`` order; the
    rest are undetected modes the photon reaches, so all rows together hold
    the pre-detection norm.
    """

    def __init__(self, n_outcomes: int, coefficients: np.ndarray):
        self.n_outcomes = n_outcomes
        self.coefficients = coefficients  # (degree + 1, rows, 2**n, 2**n), read-only
        self.last = None  # (arguments, metrics) of the last int-seeded _simulate call

    def maps(self, r_hot) -> np.ndarray:
        """Every row's map at ``r_hot``, shape (rows, 2**n, 2**n)."""
        powers = np.empty(len(self.coefficients), dtype=complex)
        powers[0], powers[1:] = 1.0, r_hot
        return (powers.cumprod() @ self.coefficients.reshape(len(powers), -1)).reshape(self.coefficients.shape[1:])


def compile_circuit(net: Netlist, r_cold: complex) -> CompiledCircuit:
    """``net``'s detection rows as polynomials in r_hot, from one run.

    The run is :func:`run_netlist` on ``_basis_run(net, extra)``, every
    mode detected, r_hot the formal variable of :class:`_FormalHot`.  The
    ``extra`` spins hold K = 2**extra coefficients, K the smallest power
    of two above the NV count, which bounds the degree.  The run makes the interpreter's own float
    operations, so exact zeros stay exact; all-zero undetected rows and
    slots above the degree are dropped.  Compiled on first use and kept on
    ``net``, for the last r_cold only.  An r_cold no passive cavity gives
    raises :class:`ParameterError`, as in :class:`ReflectionPair`.
    """
    memo = net._compiled
    compiled = memo.get(r_cold)
    if compiled is None:
        ReflectionPair(0.0, r_cold)  # refuses |r_cold| > 1 + NORM_ATOL, NaN and inf
        extra = nv_element_count(net).bit_length()
        outcomes = run_netlist(*_basis_run(net, extra), _FormalHot(1 << extra, r_cold))
        dim, n_outcomes = 2**net.n_spins, 2 * len(net.detectors)
        coefficients = np.moveaxis(np.stack([o.amps for o in outcomes]).reshape(-1, dim, dim, 1 << extra), -1, 0)
        reached = np.any(coefficients, axis=(0, 2, 3))
        reached[:n_outcomes] = True
        degree = max(np.flatnonzero(np.any(coefficients, axis=(1, 2, 3))), default=0)
        coefficients = np.ascontiguousarray(coefficients[: degree + 1, reached])
        coefficients.setflags(write=False)
        memo.clear()
        compiled = memo[r_cold] = CompiledCircuit(n_outcomes, coefficients)
    return compiled


class GateRun(NamedTuple):
    """One gate's outputs on one set of spin inputs: the one product that
    every simulated gate number is read from (:func:`evaluate`)."""

    out: np.ndarray  # (row, 2**n, input): each compiled row's unnormalized output
    power: np.ndarray  # abs(out)**2
    ideal: np.ndarray  # (2**n, input): the ideal gate's outputs
    overlap: np.ndarray  # (outcome, input): <ideal|out> on each detector row

    def metrics(self) -> tuple[float, float, float]:
        """The fidelity in each of :data:`NORMALIZATIONS`, then the efficiency,
        averaged over the inputs; NaN fidelities if some input loses the photon."""
        inputs = self.out.shape[-1]
        weighted = (abs(self.overlap) ** 2).sum(axis=0)  # p_o F_o = |<ideal|unnormalized outcome state>|^2
        total = self.power[: len(self.overlap)].sum(axis=(0, 1))
        efficiency = float(self.power.sum(axis=(0, 1)).sum() / inputs)
        if (total > 0.0).all():
            return float((weighted / total).sum() / inputs), float(weighted.sum() / inputs), efficiency
        return math.nan, math.nan, efficiency

    def max_deviation(self) -> float:
        """:func:`state.phase_aligned_deviation` of every clicking outcome's
        renormalized spin state from the ideal output; 0.0 if none clicks."""
        probs = self.power[: len(self.overlap)].sum(axis=1)  # (outcome, input)
        o, i = (probs > 0.0).nonzero()
        states = self.out[o, :, i] / np.sqrt(probs[o, i])[:, None]
        return phase_aligned_deviation(states, self.ideal[:, i].T) if o.size else 0.0


def evaluate(gate: str, r: ReflectionPair, convention: str, trials: int, seed: int | None) -> GateRun:
    """``gate``'s :class:`GateRun` at ``r``: the inputs of ``convention`` drawn once,
    :func:`compile_circuit` evaluated once at r_hot, and one product of the two."""
    net = build_gate_circuit(gate)
    compiled = compile_circuit(net, r.r_cold)
    inputs = _spin_inputs(net.n_spins, convention, trials, seed).T
    out = compiled.maps(r.r_hot) @ inputs
    ideal = ideal_gate_unitary(gate) @ inputs
    return GateRun(out, abs(out) ** 2, ideal, (ideal.conj() * out[: compiled.n_outcomes]).sum(axis=1))


def basis_outcomes(gate: str, r: ReflectionPair) -> tuple[np.ndarray, np.ndarray]:
    """Each outcome's probability on each spin-basis input, and its most likely
    output configuration, both shape (input, outcome), from the compiled maps."""
    compiled = compile_circuit(build_gate_circuit(gate), r.r_cold)
    mags = abs(compiled.maps(r.r_hot)[: compiled.n_outcomes].transpose(2, 0, 1))  # (input, outcome, output)
    return (mags**2).sum(axis=-1), mags.argmax(axis=-1)


def _simulate(gate: str, r: ReflectionPair, convention: str, trials: int, seed: int | None) -> tuple:
    """:meth:`GateRun.metrics` of :func:`evaluate`.  The result of the last call
    with an ``int`` or ``np.integer`` seed, which draws the same inputs every
    time, is kept on the compiled circuit, so the fidelity and efficiency of
    one sweep point make one product."""
    compiled = compile_circuit(build_gate_circuit(gate), r.r_cold)
    key = (gate, r.r_hot, convention, trials, seed) if isinstance(seed, (int, np.integer)) else None
    if key is not None and compiled.last is not None and compiled.last[0] == key:
        return compiled.last[1]
    metrics = evaluate(gate, r, convention, trials, seed).metrics()
    compiled.last = None if key is None else (key, metrics)
    return metrics


def fidelity_simulated(
    gate: str,
    r: ReflectionPair,
    convention: str = "balanced",
    normalization: str = "postselected",
    trials: int = 32,
    seed: int | None = 0,
) -> float:
    """Gate fidelity from full circuit simulation.

    Per detector outcome o with probability p_o, let F_o be the squared
    overlap of the feedforward-corrected, renormalized spin state with the
    ideal gate output.  ``postselected`` returns sum_o p_o F_o / sum_o p_o
    (loss is accounted separately, in the efficiency); ``unnormalized``
    returns sum_o p_o F_o (loss counts as infidelity).  Returns NaN if the
    photon is lost with certainty.  Read from :func:`_simulate`.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    return _simulate(gate, r, convention, trials, seed)[NORMALIZATIONS.index(normalization)]


def efficiency_simulated(
    gate: str,
    r: ReflectionPair,
    convention: str = "balanced",
    trials: int = 32,
    seed: int | None = 0,
) -> float:
    """Photon survival probability from full circuit simulation: the
    pre-detection squared norm, averaged over the input convention, read
    from every row of the gate's compiled circuit by :func:`_simulate`."""
    return _simulate(gate, r, convention, trials, seed)[-1]


def efficiency_factorized(gate: str, r: float) -> float:
    """Independent-pass reconstruction of the closed-form efficiency.

    The circuit's NV runs are those of :func:`nv_runs`.  Runs at the same
    depth are parallel alternatives of one physical *pass*; passes at
    increasing depth are traversed in sequence.

    The model takes every state from one pass of the *ideal* circuit over
    all spin basis inputs at once (:func:`_basis_run`, photon balanced).
    Each run's reflections are applied, at ``resonant_pair(r)``, to
    the ideal state before the run; the norm they remove, over the 2**n
    inputs, is the run's loss.  A pass loses the sum over its runs, and the
    pass survivals multiply.  Matches :func:`efficiency_closed_form` to
    machine precision for all three gates, which identifies the modeling
    assumption behind the closed-form efficiencies; an exact simulation
    deviates because loss correlates the photon with the spins between
    passes.
    """
    _check_r(r)
    net = build_gate_circuit(gate)
    pair = resonant_pair(r)
    wide, start = _basis_run(net)
    before = [start] + [state for _, state in iter_element_states(wide, start, IDEAL_PAIR)]
    pass_loss: dict[int, float] = {}
    for d, pos, nvs in nv_runs(net)[0]:
        lossy = before[pos]
        for el in nvs:
            lossy = scatter(lossy, el.spin, el.in_modes[0], pair)
        pass_loss[d] = pass_loss.get(d, 0.0) + (before[pos].norm2() - lossy.norm2()) / 2**net.n_spins
    return math.prod((1.0 - pass_loss[d] for d in sorted(pass_loss)), start=1.0)


class SweepRecord(NamedTuple):
    """One (coupling ratio, gate) row of a figure-reproduction sweep."""

    coupling_ratio: float
    r: float
    gate: str
    fidelity_closed: float
    fidelity_sim: float
    efficiency_closed: float
    efficiency_sim: float


def sweep(
    gates,
    coupling_ratios,
    convention: str = "balanced",
    trials: int = 16,
    seed: int | None = 0,
) -> list[SweepRecord]:
    """Closed-form and simulated metrics over a grid of coupling ratios.

    Each ratio's signed resonant r feeds the closed forms, the simulation
    and the record alike; records are sorted by ratio, then gate name.
    Deterministic for fixed inputs.  With an int seed, each point's
    fidelity and efficiency come from one product of :func:`_simulate`.
    """
    gates = [_canon(gate) for gate in gates]
    records = []
    for ratio in coupling_ratios:
        r = coupling_ratio_to_r(ratio)
        pair = resonant_pair(r)
        for gate in gates:
            records.append(
                SweepRecord(
                    coupling_ratio=float(ratio),
                    r=r,
                    gate=gate,
                    fidelity_closed=float(fidelity_closed_form(gate, r)),
                    fidelity_sim=fidelity_simulated(gate, pair, convention, "postselected", trials, seed),
                    efficiency_closed=float(efficiency_closed_form(gate, r)),
                    efficiency_sim=efficiency_simulated(gate, pair, convention, trials, seed),
                )
            )
    records.sort(key=lambda rec: (rec.coupling_ratio, rec.gate))
    return records


CSV_HEADER = ("ratio", "r", "gate", "fidelity_closed", "fidelity_sim", "efficiency_closed", "efficiency_sim")


def write_sweep_csv(records, fh) -> None:
    """CSV with 9-significant-digit floats, one row per (ratio, gate): each
    record's fields in field order, under :data:`CSV_HEADER`."""
    import csv  # here, not at the top: only a sweep CSV needs it
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rec in records:
        writer.writerow([f"{v:.9g}" if isinstance(v, float) else v for v in rec])


class ConventionResidual(NamedTuple):
    """Worst-case |simulated - closed-form| for one gate and mode."""

    gate: str
    convention: str
    normalization: str
    max_fidelity_residual: float
    max_efficiency_residual: float
    fidelity_at_r1: float
    efficiency_at_r1: float


class ConventionReport(NamedTuple):
    """Comparison of simulated metrics against the closed forms.

    ``best`` names the (convention, normalization) pair whose simulated
    fidelity tracks the closed form most closely over the grid.
    """

    r_grid: tuple[float, ...]
    residuals: tuple[ConventionResidual, ...]
    best: tuple[str, str]
    best_max_residual: float

    def render(self) -> str:
        lines = [
            "Fidelity/efficiency convention report",
            f"grid: {len(self.r_grid)} points over |r| in [{self.r_grid[0]:g}, {self.r_grid[-1]:g}]",
            "",
            f"{'gate':<8} {'inputs':<9} {'normalization':<13} {'max |dF|':>12} {'max |dEta|':>12} {'F(r=1)':>10} {'Eta(r=1)':>10}",
        ]
        for res in self.residuals:
            lines.append(
                f"{res.gate:<8} {res.convention:<9} {res.normalization:<13} "
                f"{res.max_fidelity_residual:>12.3e} {res.max_efficiency_residual:>12.3e} "
                f"{res.fidelity_at_r1:>10.8f} {res.efficiency_at_r1:>10.8f}"
            )
        lines += [
            "",
            f"best-matching fidelity mode: inputs={self.best[0]}, normalization={self.best[1]} "
            f"(max residual {self.best_max_residual:.3e})",
            "",
            "The closed-form fidelity is the overlap of the whole state before",
            "detection (balanced input) with its |r| = 1 counterpart, which no",
            "mode above computes: each of them reads the detected, feedforward-",
            "corrected spin states.  The closed-form efficiency models each NV",
            "reflection as an independent branch-averaged attenuation (see",
            "efficiency_factorized, which reproduces it exactly); the exact",
            "simulation retains photon-spin correlations between passes.  So",
            "nonzero residuals at |r| < 1 are expected and are a property of",
            "the models, not a bug.",
        ]
        return "\n".join(lines)


def fidelity_convention_report(trials: int = 16, seed: int | None = 0) -> ConventionReport:
    """Compare simulated fidelity/efficiency to the closed forms for every
    gate and every input convention x normalization mode, on 21 points of
    r from 0 to exactly 1."""
    r_grid = tuple(float(x) for x in np.linspace(0.0, 1.0, 21))
    # (convention, gate, r, metric): each fidelity of NORMALIZATIONS, then the efficiency
    sim = np.array([[[_simulate(gate, resonant_pair(r), convention, trials, seed) for r in r_grid]
                     for gate in GATE_NAMES] for convention in INPUT_CONVENTIONS])
    closed = np.array([[(fidelity_closed_form(gate, r), efficiency_closed_form(gate, r)) for r in r_grid]
                       for gate in GATE_NAMES])[..., [0, 0, 1]]
    worst = np.fmax.reduce(abs(sim - closed), axis=2, initial=0.0)  # over r, a NaN residual skipped
    worst_f = worst[..., :-1].max(axis=1)  # (convention, normalization), over every gate
    c, k = np.unravel_index(np.argmin(worst_f), worst_f.shape)  # the first mode with the smallest
    residuals = tuple(  # at_r1: the last grid point, r = 1
        ConventionResidual(gate, convention, normalization, w[j], w[-1], at_r1[j], at_r1[-1])
        for convention, worst_c, at_r1_c in zip(INPUT_CONVENTIONS, worst.tolist(), sim[:, :, -1].tolist())
        for j, normalization in enumerate(NORMALIZATIONS)
        for gate, w, at_r1 in zip(GATE_NAMES, worst_c, at_r1_c)
    )
    return ConventionReport(r_grid, residuals, (INPUT_CONVENTIONS[c], NORMALIZATIONS[k]), float(worst_f[c, k]))
