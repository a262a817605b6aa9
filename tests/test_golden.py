"""Golden outputs: CLI text and CSV files compared byte for byte.

Each case runs ``cli.main`` in process and compares what it wrote with a file
under ``tests/golden/``.  The files pin every printed digit, including the
signed zeros that ``nvgates run`` prints, so a refactor that claims to leave
the numbers unchanged is checked rather than eyeballed.  Nine printed digits
cannot see a change in the last bit, so ``simulate_bits.txt`` also pins the
exact floats (``float.hex``) of the simulated metrics, among them the
fidelity that ``nvgates verify`` prints, ``factorized_bits.txt`` those of
:func:`analysis.efficiency_factorized`, and ``interpreter_bits.txt`` pins
the element interpreter: the bytes of every kernel's output on full states
(output wires occupied, so the backward routing counts too) and of every
outcome of ``run_netlist`` on generated circuits at a lossy pair.
``parse_bits.txt`` pins the parser: what it returns or the diagnostic it
raises for each of 2,265 seeded circuit texts, valid and broken.

To rewrite the files from the current code (only on purpose, when an output
is meant to change), run ``PYTHONPATH=src python tests/test_golden.py
--rewrite``.  Without ``--rewrite`` the script writes nothing and exits 2, so
a stray run cannot hide a changed bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from nvgates import analysis
from nvgates.cavity import reflection_at_ratio, resonant_pair, scatter
from nvgates.cli import main
from nvgates.elements import Pauli, apply_bs, apply_hwp, apply_pbs_fs, apply_pbs_rl, apply_spin_hadamard
from nvgates.gates import GATE_NAMES, build_gate_circuit, shipped_circuit_text
from nvgates.netlist import (
    DiagnosticKind,
    NetlistError,
    balanced_product_input,
    parse_netlist,
    run_netlist,
    serialize_netlist,
)
from nvgates.state import HybridState, partial_trace_photon_collapse

from conftest import mutate_netlist_text, random_hybrid_input, random_netlist, random_reflection

GOLDEN = Path(__file__).with_name("golden")

_RANDOM_SWEEP = ["--convention", "random", "--steps", "12", "--seed", "4", "--trials", "5"]


def _circuit(gate: str) -> str:
    return str(resources.files("nvgates").joinpath(f"circuits/{gate}.nv"))


def _cases() -> dict[str, tuple[list[str], str]]:
    """Golden case name -> (argv, what is compared).

    ``stdout`` compares the printed text, ``run`` the same without its
    first line (the netlist path), and ``files`` the CSV and report that
    ``sweep`` writes; their paths are appended to argv at run time.
    """
    cases = {
        "sweep_default": (["sweep"], "files"),
        "sweep_random": (["sweep", *_RANDOM_SWEEP], "files"),
        "sweep_below_half": (["sweep", "--min", "0", "--max", "0.5", "--steps", "3"], "files"),
        "params_ratio2": (["params", "--ratio", "2"], "stdout"),
        "run_cnot_input": (["run", _circuit("cnot"), "--input", "3,4j,1,1", "--ratio", "0.7"], "run"),
        "truth_table_toffoli_rhot0": (["truth-table", "toffoli", "--r-hot", "0"], "stdout"),
    }
    for gate in GATE_NAMES:
        cases[f"verify_{gate}_ratio2"] = (
            ["verify", gate, "--trials", "20", "--seed", "3", "--ratio", "2"], "stdout")
        cases[f"truth_table_{gate}_ratio2"] = (["truth-table", gate, "--ratio", "2"], "stdout")
        cases[f"run_{gate}_ratio0.7"] = (["run", _circuit(gate), "--ratio", "0.7"], "run")
    return cases


def _outputs(name: str, argv: list[str], compare: str, tmp: Path) -> dict[str, bytes]:
    """Golden file name -> bytes produced by one case."""
    if compare == "files":
        csv, report = tmp / f"{name}.csv", tmp / f"{name}_report.txt"
        argv = [*argv, "--out", str(csv)]
        if name == "sweep_random":
            argv += ["--fidelity-report", str(report)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), f"{name}: exit {code}, stderr {err.getvalue()!r}"
    text = out.getvalue()
    if compare == "stdout":
        return {f"{name}.txt": text.encode()}
    if compare == "run":
        first, rest = text.split("\n", 1)
        assert first.startswith("netlist: ")
        return {f"{name}.txt": rest.encode()}
    produced = {csv.name: csv.read_bytes()}
    if report.exists():
        produced[report.name] = report.read_bytes()
    return produced


@pytest.mark.parametrize("name", sorted(_cases()))
def test_output_matches_golden(name, tmp_path):
    argv, compare = _cases()[name]
    for fname, data in _outputs(name, argv, compare, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), f"{fname} differs from its golden file"


BITS_R_HOT = (0.0, 0.3, 0.8, 1.0)
BITS_INPUTS = (("balanced", None), ("random", 0), ("random", 1), ("random", 2))
BITS_TRIALS = 16
VERIFY_ARGS = ["--trials", "20", "--seed", "3", "--ratio", "2"]


def simulate_bits() -> str:
    """One line per evaluated point: its arguments, then ``float.hex`` of
    each :func:`analysis.evaluate` metric, or of the post-selected
    fidelity that ``nvgates verify`` prints with those arguments."""
    lines = []
    for gate in GATE_NAMES:
        for r_hot in BITS_R_HOT:
            for convention, seed in BITS_INPUTS:
                metrics = analysis.evaluate(gate, resonant_pair(r_hot), convention, BITS_TRIALS, seed).metrics
                lines.append(f"simulate {gate} r_hot={r_hot} {convention} seed={seed} "
                             + " ".join(float.hex(m) for m in metrics))
    for gate in GATE_NAMES:
        fidelity = analysis.fidelity_simulated(gate, reflection_at_ratio(2), "random", "postselected", 20, 3)
        lines.append(f"verify {gate} {' '.join(VERIFY_ARGS)} {float.hex(fidelity)}")
    return "\n".join(lines) + "\n"


def test_simulated_metrics_match_golden_bits():
    assert simulate_bits() == (GOLDEN / "simulate_bits.txt").read_text()


FACTORIZED_R = tuple(i / 40 for i in range(41))


def factorized_bits() -> str:
    """One line per gate and |r| of :data:`FACTORIZED_R`: ``float.hex`` of
    :func:`analysis.efficiency_factorized`, the walk of the circuit's NV runs."""
    lines = [f"factorized {gate} r={r} {float.hex(analysis.efficiency_factorized(gate, r))}"
             for gate in GATE_NAMES for r in FACTORIZED_R]
    return "\n".join(lines) + "\n"


def test_factorized_efficiency_matches_golden_bits():
    assert factorized_bits() == (GOLDEN / "factorized_bits.txt").read_text()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _kernel_cases():
    """(name, modes, spins, kernel call) per case: every kernel at 4 modes
    and 2 spins, and at 31 modes and 3 spins with its wires out of order."""
    small, wide = ("in", "1", "2", "3"), tuple(f"w{i}" for i in range(31))
    lossy = resonant_pair(0.6 * np.exp(0.7j))
    return [
        ("pbs in 3 -> 1 2", small, 2, lambda s: apply_pbs_rl(s, ("in", "3"), ("1", "2"))),
        ("pbsfs in -> 1 2", small, 2, lambda s: apply_pbs_fs(s, "in", ("1", "2"))),
        ("hwp 2", small, 2, lambda s: apply_hwp(s, "2")),
        ("bs 1 2 -> 3 in", small, 2, lambda s: apply_bs(s, ("1", "2"), ("3", "in"))),
        ("nv 1 spin_0", small, 2, lambda s: scatter(s, 0, "1", lossy)),
        ("spinh 0", small, 2, lambda s: apply_spin_hadamard(s, 0)),
        ("spinh 1", small, 2, lambda s: apply_spin_hadamard(s, 1)),
        ("collapse 2 in 3", small, 2, lambda s: partial_trace_photon_collapse(s, ("2", "in", "3"))),
        ("pbs w27 w3 -> w9 w30", wide, 3, lambda s: apply_pbs_rl(s, ("w27", "w3"), ("w9", "w30"))),
        ("pbsfs w14 -> w30 w2", wide, 3, lambda s: apply_pbs_fs(s, "w14", ("w30", "w2"))),
        ("hwp w17", wide, 3, lambda s: apply_hwp(s, "w17")),
        ("bs w27 w3 -> w30 w9", wide, 3, lambda s: apply_bs(s, ("w27", "w3"), ("w30", "w9"))),
        ("nv w5 spin_1", wide, 3, lambda s: scatter(s, 1, "w5", lossy)),
        ("spinh 0", wide, 3, lambda s: apply_spin_hadamard(s, 0)),
        ("spinh 1", wide, 3, lambda s: apply_spin_hadamard(s, 1)),
        ("spinh 2", wide, 3, lambda s: apply_spin_hadamard(s, 2)),
        ("collapse w30 w0 w9 w3 w27", wide, 3,
         lambda s: partial_trace_photon_collapse(s, ("w30", "w0", "w9", "w3", "w27"))),
    ]


def interpreter_bits() -> str:
    """One line per kernel case and seeded input state, with the sha256 of
    the output amplitudes' bytes, then one line per ``run_netlist`` outcome
    of seeded generated circuits and of the shipped gates at a lossy pair:
    its label, ``float.hex`` of its probability and the sha256 of its amps.
    Half of the kernel inputs are drawn from {-1, -0.0, 0.0, 1}, so the sign
    of every zero is pinned as well."""
    lines = []
    for name, modes, n_spins, kernel in _kernel_cases():
        rng = np.random.default_rng(20131001)
        for trial in range(4):
            amps = np.empty((2, len(modes), 2**n_spins), dtype=complex)
            for part in (amps.real, amps.imag):
                part[...] = (rng.choice([-1.0, -0.0, 0.0, 1.0], size=part.shape) if trial % 2
                             else rng.normal(size=part.shape))
            out = kernel(HybridState(modes, n_spins, amps))
            lines.append(f"kernel {len(modes)} modes: {name} #{trial} {_sha(getattr(out, 'amps', out).tobytes())}")
    rng = np.random.default_rng(20130423)
    runs = []
    for i in range(6):
        net = random_netlist(rng, n_elements=6 + 4 * i)
        pair = random_reflection(rng, resonant_cold=bool(i % 2))
        runs.append((f"random #{i}", net, random_hybrid_input(rng, net), pair))
    for gate in GATE_NAMES:
        net = build_gate_circuit(gate)
        runs.append((gate, net, balanced_product_input(net), resonant_pair(0.8)))
    for name, net, state, pair in runs:
        for o in run_netlist(net, state, pair):
            lines.append(f"run {name} {o.label} {float.hex(o.probability)} {_sha(o.amps.tobytes())}")
    return "\n".join(lines) + "\n"


def test_interpreter_matches_golden_bits():
    assert interpreter_bits() == (GOLDEN / "interpreter_bits.txt").read_text()


PARSE_MUTANTS = 150  # mutated texts per base text


def _parse_texts() -> list[str]:
    """The shipped circuits and 12 generated ones with feedforward tables,
    serialized, then :data:`PARSE_MUTANTS` seeded mutations of each."""
    bases = [shipped_circuit_text(gate) for gate in GATE_NAMES]
    rng, nrng = random.Random(20131001), np.random.default_rng(20131001)
    for i in range(12):
        net = random_netlist(nrng, n_elements=1 + 2 * i)
        labels = rng.sample(net.outcome_labels(), k=min(3, i))
        table = tuple((label, tuple(rng.choices(list(Pauli), k=net.n_spins))) for label in labels)
        bases.append(serialize_netlist(replace(net, feedforward=table)))
    return bases + [mutate_netlist_text(rng, base) for base in bases for _ in range(PARSE_MUTANTS)]


def parse_bits() -> str:
    """One line per text of :func:`_parse_texts`: the sha256 of the text, then
    ``ok``, the sha256 of its serialization and each element's line, or
    ``err``, the diagnostic's kind, line, column and the sha256 of its message."""
    lines = []
    for text in _parse_texts():
        try:
            net = parse_netlist(text)
        except NetlistError as exc:
            result = f"err {exc.kind.value} {exc.line} {exc.column} {_sha(str(exc).encode())}"
        else:
            result = " ".join(["ok", _sha(serialize_netlist(net).encode()), *map(str, net.lines)])
        lines.append(f"{_sha(text.encode())} {result}")
    return "\n".join(lines) + "\n"


def test_parser_matches_golden_bits():
    bits = parse_bits()
    assert bits == (GOLDEN / "parse_bits.txt").read_text()
    kinds = {line.split()[2] for line in bits.splitlines() if line.split()[1] == "err"}
    assert kinds == {kind.value for kind in DiagnosticKind}
    assert bits.count("\n") >= 2000


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    written = (("simulate_bits.txt", simulate_bits()), ("factorized_bits.txt", factorized_bits()),
               ("interpreter_bits.txt", interpreter_bits()), ("parse_bits.txt", parse_bits()))
    for fname, text in written:
        (GOLDEN / fname).write_text(text)
        print(f"wrote {GOLDEN / fname}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, compare) in _cases().items():
            for fname, data in _outputs(name, argv, compare, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {GOLDEN / fname}", file=sys.stderr)


def script(argv: list[str]) -> int:
    """The command line of this file: rewrite the golden files, given ``--rewrite`` only."""
    if argv != ["--rewrite"]:
        print("usage: PYTHONPATH=src python tests/test_golden.py --rewrite\n"
              "rewrites every file under tests/golden/ from the current code; nothing was written",
              file=sys.stderr)
        return 2
    write_golden()
    return 0


def test_rewrite_needs_its_flag(monkeypatch, capsys):
    def refuse():
        raise AssertionError("golden files written")

    monkeypatch.setattr(sys.modules[__name__], "write_golden", refuse)
    for argv in ([], ["--rewrite", "x"], ["rewrite"], ["-q"]):
        assert script(argv) == 2, argv
        assert "nothing was written" in capsys.readouterr().err
    with pytest.raises(AssertionError, match="golden files written"):
        script(["--rewrite"])


if __name__ == "__main__":
    sys.exit(script(sys.argv[1:]))
