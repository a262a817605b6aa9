"""Command-line front end.

Subcommands: ``run`` a netlist file, ``verify`` a gate against its ideal
unitary, ``truth-table`` a gate over basis inputs, ``sweep`` metrics over a
coupling-ratio grid into CSV, and ``params`` for cavity-parameter
diagnostics.  Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error.

The default output directory for relative paths can be set with the
``NVGATES_OUT_DIR`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .cavity import (
    CavityParams,
    IDEAL_PAIR,
    ParameterError,
    ReflectionPair,
    kappa_from_quality_factor,
    quality_factor_conversions,
    reflection_at_ratio,
    reflection_coefficient,
    resonant_pair,
)
from .gates import GATE_NAMES, build_gate_circuit, ideal_gate_unitary
from .netlist import (
    balanced_product_input,
    load_netlist,
    product_input,
    run_netlist,
)
from .state import phase_aligned_deviation, spin_config_bits

IDEAL_TOLERANCE = 1e-10


class UsageError(Exception):
    pass


def _resolve_out(path: str) -> Path:
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get("NVGATES_OUT_DIR")
        if base:
            p = Path(base) / p
    return p


def _reflection_from_args(args) -> ReflectionPair:
    # the regime flags exclude one another; none, or --ideal, is ideal
    if args.r_hot is not None:
        return resonant_pair(args.r_hot)
    if args.ratio is not None:
        return reflection_at_ratio(args.ratio)
    return IDEAL_PAIR


def _regime_label(reflection: ReflectionPair) -> str:
    return "ideal" if reflection == IDEAL_PAIR else f"r_hot={reflection.r_hot:.6g}"


def _ket(index: int, n: int) -> str:
    return "".join("+" if b == 0 else "-" for b in spin_config_bits(index, n))


def _fmt_spin_state(spins) -> str:
    parts = []
    for idx, amp in enumerate(spins.amps):
        if abs(amp) < 1e-9:
            continue
        parts.append(f"({amp.real:+.6f}{amp.imag:+.6f}j)|{_ket(idx, spins.n_spins)}>")
    return " ".join(parts) if parts else "(null)"


def cmd_run(args) -> int:
    net = load_netlist(args.netlist)
    reflection = _reflection_from_args(args)
    if args.input == "balanced":
        state = balanced_product_input(net)
    else:
        usage = (f"--input needs {2 * net.n_spins} comma-separated amplitudes "
                 f"(alpha,beta per spin) or 'balanced'")
        try:
            amps = [complex(tok) for tok in args.input.split(",")]
        except ValueError:
            raise UsageError(f"{usage}, got {args.input!r}") from None
        if len(amps) != 2 * net.n_spins:
            raise UsageError(usage)
        pairs = [np.array(amps[2 * k : 2 * k + 2]) for k in range(net.n_spins)]
        norms = [np.linalg.norm(p) for p in pairs]
        if not all(0 < nrm < math.inf for nrm in norms):
            raise UsageError("--input: every spin's (alpha,beta) pair needs a finite, nonzero norm")
        pairs = [p / nrm for p, nrm in zip(pairs, norms)]
        state = product_input(net, pairs)
    outcomes = run_netlist(net, state, reflection)
    survival = sum(o.probability for o in outcomes)
    print(f"netlist: {args.netlist}  spins: {net.n_spins}  modes: {len(net.modes)}")
    print(f"photon survival probability: {survival:.9f}")
    for o in outcomes:
        print(f"  outcome {o.label:<6} p = {o.probability:.9f}  spins: {_fmt_spin_state(o.spins)}")
    return 0


def _outcome_maps(net, reflection) -> np.ndarray:
    """Per-outcome spin maps of ``net``, from its compiled circuit."""
    compiled = analysis.compile_circuit(net, reflection.r_cold)
    return compiled.maps(reflection.r_hot)[: compiled.n_outcomes]


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    net = build_gate_circuit(args.gate)
    reflection = _reflection_from_args(args)
    target = ideal_gate_unitary(args.gate)
    print(f"verify {args.gate}: trials={args.trials} seed={args.seed} regime={_regime_label(reflection)}")
    inputs = analysis._spin_inputs(net.n_spins, "random", args.trials, args.seed)
    # (outcome, trial, config): the unnormalized output of every input on every outcome
    out = np.swapaxes(_outcome_maps(net, reflection) @ inputs.T, 1, 2)
    probs = np.sum(np.abs(out) ** 2, axis=-1)
    seen = probs > 0.0
    states = out[seen] / np.sqrt(probs[seen])[:, None]
    expected = np.broadcast_to(inputs @ target.unitary.T, out.shape)[seen]
    max_dev = phase_aligned_deviation(states, expected) if states.size else 0.0
    fids = np.abs(np.sum(expected.conj() * states, axis=-1)) ** 2
    avg_fid = float(np.mean(fids)) if fids.size else math.nan
    print(f"max deviation from ideal gate (per outcome, up to global phase): {max_dev:.3e}")
    print(f"mean post-selected outcome fidelity: {avg_fid:.9f}")
    if reflection == IDEAL_PAIR:
        ok = max_dev <= IDEAL_TOLERANCE
        print(f"ideal-regime check: {'PASS' if ok else 'FAIL'} (tolerance {IDEAL_TOLERANCE:g})")
        return 0 if ok else 1
    return 0


def cmd_truth_table(args) -> int:
    net = build_gate_circuit(args.gate)
    reflection = _reflection_from_args(args)
    n = net.n_spins
    labels = net.outcome_labels()
    # column c of each map is the outcome's output for basis input c
    maps = _outcome_maps(net, reflection)
    print(f"truth table for {args.gate} ({_regime_label(reflection)})")
    for cfg in range(2**n):
        cells = []
        for label, column in zip(labels, maps[:, :, cfg]):
            prob = float(np.sum(np.abs(column) ** 2))
            if prob < 1e-12:
                continue
            top = int(np.argmax(np.abs(column)))
            cells.append(f"{label}: |{_ket(top, n)}> p={prob:.6f}")
        print(f"  |{_ket(cfg, n)}> -> " + " ; ".join(cells))
    return 0


def cmd_sweep(args) -> int:
    for flag, value in (("--min", args.min), ("--max", args.max)):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.min < 0:
        raise UsageError("--min must be nonnegative")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.max <= args.min:
        raise UsageError("--max must exceed --min (steps over zero range are rejected)")
    gates = args.gates.split(",") if args.gates else list(GATE_NAMES)
    for g in gates:
        if g.lower() not in GATE_NAMES:
            raise UsageError(f"unknown gate {g!r}")
    ratios = np.linspace(args.min, args.max, args.steps)
    print(f"sweep: gates={','.join(gates)} ratios=[{args.min},{args.max}] "
          f"steps={args.steps} convention={args.convention} seed={args.seed}")
    records = analysis.sweep(gates, ratios, args.convention, trials=args.trials, seed=args.seed)
    out = _resolve_out(args.out)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        analysis.write_sweep_csv(records, fh)
    print(f"wrote {len(records)} rows to {out}")
    if args.fidelity_report:
        report = analysis.fidelity_convention_report(trials=args.trials, seed=args.seed)
        rp = _resolve_out(args.fidelity_report)
        rp.write_text(report.render() + "\n", encoding="utf-8")
        print(f"wrote convention report to {rp}")
    return 0


def cmd_params(args) -> int:
    if args.q is not None:
        wavelength = args.wavelength
        conv = quality_factor_conversions(args.q, wavelength)
        print(f"Q = {args.q:g}, wavelength = {wavelength:g} m")
        print(f"  kappa = c/(lambda*Q)          = {conv['ordinary']:.6g} Hz")
        print(f"  kappa = 2*pi*c/(lambda*Q)     = {conv['angular']:.6g} rad/s")
        print(f"  kappa = c/(lambda*Q)/(2*pi)   = {conv['mixed']:.6g} Hz")
        print("  (the conventions differ by 2*pi; pick the one your Q definition uses)")
    if args.ratio is not None:
        pair = reflection_at_ratio(args.ratio)
        print(f"coupling ratio g/sqrt(kappa*gamma) = {args.ratio:g}")
        print(f"  r_hot  = {pair.r_hot.real:+.9f}{pair.r_hot.imag:+.9f}j")
        print(f"  r_cold = {pair.r_cold.real:+.9f}{pair.r_cold.imag:+.9f}j")
    if args.g is not None:
        kappa = args.kappa
        if kappa is None:
            kappa = kappa_from_quality_factor(args.q, args.wavelength) if args.q else 1.0
        params = CavityParams(
            g=args.g,
            kappa=kappa,
            gamma=args.gamma,
            omega_c=args.omega_c,
            omega_0=args.omega_0,
            omega_p=args.omega_p,
        )
        pair = reflection_coefficient(params)
        print(f"g={params.g:g} kappa={params.kappa:g} gamma={params.gamma:g} "
              f"detunings: c-p={params.omega_c - params.omega_p:g} 0-p={params.omega_0 - params.omega_p:g}")
        print(f"  coupling ratio = {params.coupling_ratio:.6g}")
        print(f"  r_hot  = {pair.r_hot:.9g}")
        print(f"  r_cold = {pair.r_cold:.9g}")
    if args.q is None and args.ratio is None and args.g is None:
        raise UsageError("params needs at least one of --q, --ratio, --g")
    return 0


@functools.cache  # built once per process, shared by every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvgates",
        description="Simulate photon-mediated CNOT/Toffoli/Fredkin gates on cavity-coupled NV spins.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_regime(p):
        regime = p.add_mutually_exclusive_group()
        regime.add_argument("--ideal", action="store_true", help="ideal reflection pair (r=1, r0=-1)")
        regime.add_argument("--ratio", type=float, help="coupling ratio g/sqrt(kappa*gamma), resonant")
        regime.add_argument("--r-hot", dest="r_hot", type=float, help="explicit hot reflection amplitude")

    p_run = sub.add_parser("run", help="run a netlist file and print detector outcomes")
    p_run.add_argument("netlist", help="path to a .nv circuit file")
    p_run.add_argument("--input", default="balanced",
                       help="'balanced' or comma-separated alpha,beta per spin")
    add_regime(p_run)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check a gate against its ideal unitary")
    p_verify.add_argument("gate", choices=GATE_NAMES)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    add_regime(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_tt = sub.add_parser("truth-table", help="print the gate action on all basis inputs")
    p_tt.add_argument("gate", choices=GATE_NAMES)
    add_regime(p_tt)
    p_tt.set_defaults(func=cmd_truth_table)

    p_sweep = sub.add_parser("sweep", help="write fidelity/efficiency CSV over a ratio grid")
    p_sweep.add_argument("--gates", default=None, help="comma-separated subset (default: all)")
    p_sweep.add_argument("--min", type=float, default=0.5)
    p_sweep.add_argument("--max", type=float, default=10.0)
    p_sweep.add_argument("--steps", type=int, default=96, help="number of grid points")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.add_argument("--convention", choices=analysis.INPUT_CONVENTIONS, default="balanced")
    p_sweep.add_argument("--trials", type=int, default=16, help="random-convention sample count")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--fidelity-report", dest="fidelity_report", default=None,
                         help="also write the convention-comparison report to this path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_par = sub.add_parser("params", help="cavity parameter diagnostics")
    p_par.add_argument("--q", type=float, help="quality factor")
    p_par.add_argument("--wavelength", type=float, default=637e-9, help="meters (default 637 nm)")
    p_par.add_argument("--ratio", type=float, help="coupling ratio")
    p_par.add_argument("--g", type=float)
    p_par.add_argument("--kappa", type=float)
    p_par.add_argument("--gamma", type=float, default=1.0)
    p_par.add_argument("--omega-c", type=float, default=0.0)
    p_par.add_argument("--omega-0", type=float, default=0.0)
    p_par.add_argument("--omega-p", type=float, default=0.0)
    p_par.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
