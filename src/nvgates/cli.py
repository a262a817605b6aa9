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
import re
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .cavity import (
    CavityParams,
    IDEAL_PAIR,
    ParameterError,
    ReflectionPair,
    quality_factor_conversions,
    reflection_at_ratio,
    reflection_coefficient,
    resonant_pair,
)
# ideal_gate_unitary is unused here, but perfbench/tracing.py wraps it at this name
from .gates import GATE_NAMES, _canon, build_gate_circuit, ideal_gate_unitary  # noqa: F401
from .netlist import (
    MAX_AMPLITUDES,
    _every_mode_detected,
    balanced_product_input,
    load_netlist,
    product_input,
    run_netlist,
)
from .state import spin_config_bits

IDEAL_TOLERANCE = 1e-10
MAX_SWEEP_STEPS = 2**16  # sweep --steps cap: analysis.sweep keeps steps x gates records in memory


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


def _fmt_spin_state(amps, n: int) -> str:
    parts = []
    for idx, amp in enumerate(amps):
        if abs(amp) < 1e-9:
            continue
        parts.append(f"({amp.real:+.6f}{amp.imag:+.6f}j)|{_ket(idx, n)}>")
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
            amps = np.array([complex(tok) for tok in args.input.split(",")])
        except ValueError:
            raise UsageError(f"{usage}, got {args.input!r}") from None
        if len(amps) != 2 * net.n_spins:
            raise UsageError(usage)
        # each spin's 4 parts over their largest in real division (complex takes 1/s), so no norm under- or overflows
        parts = amps.view(float).reshape(net.n_spins, 4)
        scales = abs(parts).max(axis=1, keepdims=True)
        if not (np.isfinite(scales).all() and scales.all()):
            raise UsageError("--input: every spin's (alpha,beta) pair needs a finite, nonzero norm")
        parts = parts / scales
        state = product_input(net, (parts / np.sqrt((parts**2).sum(axis=1, keepdims=True))).view(complex))
    # one run, with a detector added on each undetected mode: its outcomes, after the circuit's, hold the norm there
    outcomes = run_netlist(_every_mode_detected(net), state, reflection)
    own = 2 * len(net.detectors)
    outcomes, left = outcomes[:own], sum(o.probability for o in outcomes[own:])
    print(f"netlist: {args.netlist}  spins: {net.n_spins}  modes: {len(net.modes)}")
    print(f"photon survival probability: {sum(o.probability for o in outcomes) + left:.9f}")
    if left:
        print(f"  of which on undetected modes: {left:.9f}")
    for o in outcomes:
        print(f"  outcome {o.label:<6} p = {o.probability:.9f}  spins: {_fmt_spin_state(o.spins.amps, net.n_spins)}")
    return 0


def _check_sampling(args, nets) -> None:
    """Refuse ``--trials`` and ``--seed`` before anything is printed or drawn;
    ``nets`` are the circuits evaluated on ``--trials`` random inputs, each
    in one array of trials x 2**n x the rows of its compiled circuit."""
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    for net in nets:
        # every CLI regime is resonant (r_cold = -1), so this is the compile the command then reads
        rows, dim = analysis.compile_circuit(net, IDEAL_PAIR.r_cold).coefficients.shape[1:3]
        if args.trials > MAX_AMPLITUDES // (rows * dim):
            raise UsageError(
                f"--trials {args.trials} x 2**{net.n_spins} x {rows} rows exceeds the cap of "
                f"{MAX_AMPLITUDES} amplitudes; at most {MAX_AMPLITUDES // (rows * dim)} trials fit"
            )


def cmd_verify(args) -> int:
    _check_sampling(args, [build_gate_circuit(args.gate)])
    reflection = _reflection_from_args(args)
    print(f"verify {args.gate}: trials={args.trials} seed={args.seed} regime={_regime_label(reflection)}")
    run = analysis.evaluate(args.gate, reflection, "random", args.trials, args.seed)
    max_dev = run.max_deviation()
    print(f"max deviation from ideal gate (per outcome, up to global phase): {max_dev:.3e}")
    print(f"post-selected fidelity, outcomes weighted by probability: {run.metrics[0]:.9f}")
    if reflection == IDEAL_PAIR:
        ok = max_dev <= IDEAL_TOLERANCE
        print(f"ideal-regime check: {'PASS' if ok else 'FAIL'} (tolerance {IDEAL_TOLERANCE:g})")
        return 0 if ok else 1
    return 0


def cmd_truth_table(args) -> int:
    net = build_gate_circuit(args.gate)
    reflection = _reflection_from_args(args)
    n, labels = net.n_spins, net.outcome_labels()
    probs, tops = (a.tolist() for a in analysis.basis_outcomes(args.gate, reflection))
    print(f"truth table for {args.gate} ({_regime_label(reflection)})")
    for cfg in range(len(probs)):  # each spin-basis input
        cells = [f"{label}: |{_ket(top, n)}> p={prob:.6f}"
                 for label, prob, top in zip(labels, probs[cfg], tops[cfg]) if prob >= 1e-12]
        print(f"  |{_ket(cfg, n)}> -> " + " ; ".join(cells))
    return 0


def cmd_sweep(args) -> int:
    for flag, value in (("--min", args.min), ("--max", args.max)):
        if not math.isfinite(value):
            raise UsageError(f"{flag} must be finite, got {value}")
    for flag, path in (("--out", args.out), ("--fidelity-report", args.fidelity_report)):
        if path == "":  # Path("") is the current directory
            raise UsageError(f"{flag} needs a file path, got ''")
    gates = args.gates.split(",") if args.gates is not None else list(GATE_NAMES)  # "" names no gate
    try:
        names = [_canon(g) for g in gates]
    except ValueError as exc:
        raise UsageError(exc) from None
    if twice := [name for name in GATE_NAMES if names.count(name) > 1]:  # each would give its rows twice
        raise UsageError(f"--gates names the gate {twice[0]!r} twice")
    # the random convention samples the chosen gates, the convention report every gate
    sampled = (names if args.convention == "random" else []) + (list(GATE_NAMES) if args.fidelity_report else [])
    _check_sampling(args, [build_gate_circuit(name) for name in dict.fromkeys(sampled)])
    if args.min < 0:
        raise UsageError("--min must be nonnegative")
    if args.steps < 2:
        raise UsageError("--steps must be at least 2")
    if args.steps > MAX_SWEEP_STEPS:
        raise UsageError(f"--steps must be at most {MAX_SWEEP_STEPS}, got {args.steps}")
    if args.max <= args.min:
        raise UsageError("--max must exceed --min (steps over zero range are rejected)")
    ratios = np.linspace(args.min, args.max, args.steps)
    # an output that cannot be written is refused before anything is printed or computed
    out = _resolve_out(args.out)
    rp = _resolve_out(args.fidelity_report) if args.fidelity_report else None
    if rp is not None and rp.resolve() == out.resolve():
        raise UsageError(f"--out and --fidelity-report both name {str(out)!r}")
    if rp is not None and not rp.parent.is_dir():
        raise FileNotFoundError(f"--fidelity-report: no directory {str(rp.parent)!r}")
    if rp is not None and rp.is_dir():
        raise IsADirectoryError(f"--fidelity-report: {str(rp)!r} is a directory")
    with open(out, "a", encoding="utf-8", newline="") as fh:  # emptied once the rows are ready, not if interrupted
        print(f"sweep: gates={','.join(gates)} ratios=[{args.min},{args.max}] "
              f"steps={args.steps} convention={args.convention} seed={args.seed}")
        records = analysis.sweep(names, ratios, args.convention, trials=args.trials, seed=args.seed)
        fh.truncate(0)
        analysis.write_sweep_csv(records, fh)
    print(f"wrote {len(records)} rows to {out}")
    if rp is not None:
        report = analysis.fidelity_convention_report(trials=args.trials, seed=args.seed)
        rp.write_text(report.render() + "\n", encoding="utf-8")
        print(f"wrote convention report to {rp}")
    return 0


def cmd_params(args) -> int:
    lines = []  # printed once every flag has passed its checks
    if args.q is not None:
        wavelength = args.wavelength
        conv = quality_factor_conversions(args.q, wavelength)
        lines.append(f"Q = {args.q:g}, wavelength = {wavelength:g} m")
        lines.append(f"  kappa = c/(lambda*Q)          = {conv['ordinary']:.6g} Hz")
        lines.append(f"  kappa = 2*pi*c/(lambda*Q)     = {conv['angular']:.6g} rad/s")
        lines.append(f"  kappa = c/(lambda*Q)/(2*pi)   = {conv['mixed']:.6g} Hz")
        lines.append("  (the conventions differ by 2*pi; pick the one your Q definition uses)")
    if args.ratio is not None:
        pair = reflection_at_ratio(args.ratio)
        lines.append(f"coupling ratio g/sqrt(kappa*gamma) = {args.ratio:g}")
        lines.append(f"  r_hot  = {pair.r_hot.real:+.9f}{pair.r_hot.imag:+.9f}j")
        lines.append(f"  r_cold = {pair.r_cold.real:+.9f}{pair.r_cold.imag:+.9f}j")
    if args.g is not None:
        kappa = args.kappa
        if kappa is None:
            kappa = conv["ordinary"] if args.q else 1.0
        params = CavityParams(
            g=args.g,
            kappa=kappa,
            gamma=args.gamma,
            omega_c=args.omega_c,
            omega_0=args.omega_0,
            omega_p=args.omega_p,
        )
        pair = reflection_coefficient(params)
        lines.append(f"g={params.g:g} kappa={params.kappa:g} gamma={params.gamma:g} "
                     f"detunings: c-p={params.omega_c - params.omega_p:g} 0-p={params.omega_0 - params.omega_p:g}")
        lines.append(f"  coupling ratio = {params.coupling_ratio:.6g}")
        lines.append(f"  r_hot  = {pair.r_hot:.9g}")
        lines.append(f"  r_cold = {pair.r_cold:.9g}")
    if not lines:
        raise UsageError("params needs at least one of --q, --ratio, --g")
    print(*lines, sep="\n")
    return 0


def _gate_name(name: str) -> str:
    """``name`` in the one spelling of :func:`gates._canon`, for argparse."""
    try:
        return _canon(name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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

    p_verify = sub.add_parser("verify", help="check a gate against its ideal unitary")
    p_verify.add_argument("gate", type=_gate_name, choices=GATE_NAMES)
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    add_regime(p_verify)

    p_tt = sub.add_parser("truth-table", help="print the gate action on all basis inputs")
    p_tt.add_argument("gate", type=_gate_name, choices=GATE_NAMES)
    add_regime(p_tt)

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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a word that starts with one "-" for a flag unless it is "-", digits and one "." at most,
    # so "--flag -5e-1" (or -1j, -0.6,0.8, which name no flag) is joined as "--flag=-5e-1"; "--" ends the flags
    if "\0-" in "\0".join(argv).replace("\0--", "\0"):  # some word after the first starts with one "-"
        for i in range((argv + ["--"]).index("--") - 1, 0, -1):
            if argv[i - 1][:2] == "--" and re.fullmatch(r"-\.?\d[\d.]*[^\d.\s]\S*", argv[i]):
                argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    try:
        if argv and argv[0] in commands:  # what the subparsers action does, without the top-level pass over argv
            args, extra = commands[argv[0]].parse_known_args(argv[1:])
            if extra:
                parser.error(f"unrecognized arguments: {' '.join(extra)}")
            args.command = argv[0]
        else:  # help, no command or an unknown one
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:  # looked up now, so the current cmd_<command> runs
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # so a reader that has gone fails here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader has gone: nothing on stderr, exit 1, and the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
