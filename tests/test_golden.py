"""Golden outputs: CLI text and CSV files compared byte for byte.

Each case runs ``cli.main`` in process and compares what it wrote with a file
under ``tests/golden/``.  The files pin every printed digit, including the
signed zeros that ``nvgates run`` prints, so a refactor that claims to leave
the numbers unchanged is checked rather than eyeballed.  Nine printed digits
cannot see a change in the last bit, so ``simulate_bits.txt`` also pins the
exact floats (``float.hex``) of the simulated metrics and of the mean
fidelity that ``nvgates verify`` prints.

To rewrite the files from the current code (only on purpose, when an output
is meant to change), run ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from nvgates import analysis, cli
from nvgates.cavity import resonant_pair
from nvgates.cli import main
from nvgates.gates import GATE_NAMES

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
        "params_ratio2": (["params", "--ratio", "2"], "stdout"),
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


def _verify_mean_fidelity(gate: str) -> float:
    """The mean fidelity ``nvgates verify`` prints for ``gate``, as the float
    before rounding: ``cmd_verify`` makes it with its one ``float()`` call,
    which a module-level ``float`` in ``cli`` records.  The parser is built
    first, so its ``type=float`` options keep the builtin."""
    cli.build_parser()
    seen = []

    def record(x):
        seen.append(builtins.float(x))
        return seen[-1]

    cli.float = record
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify", gate, *VERIFY_ARGS])
    finally:
        del cli.float
    assert code == 0 and len(seen) == 1, (code, seen)
    return seen[0]


def simulate_bits() -> str:
    """One line per evaluated point: its arguments, then ``float.hex`` of
    each :func:`analysis._simulate` metric, or of verify's mean fidelity."""
    lines = []
    for gate in GATE_NAMES:
        for r_hot in BITS_R_HOT:
            for convention, seed in BITS_INPUTS:
                metrics = analysis._simulate(gate, resonant_pair(r_hot), convention, BITS_TRIALS, seed)
                lines.append(f"simulate {gate} r_hot={r_hot} {convention} seed={seed} "
                             + " ".join(float.hex(m) for m in metrics))
    for gate in GATE_NAMES:
        lines.append(f"verify {gate} {' '.join(VERIFY_ARGS)} {float.hex(_verify_mean_fidelity(gate))}")
    return "\n".join(lines) + "\n"


def test_simulated_metrics_match_golden_bits():
    assert simulate_bits() == (GOLDEN / "simulate_bits.txt").read_text()


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "simulate_bits.txt").write_text(simulate_bits())
    print(f"wrote {GOLDEN / 'simulate_bits.txt'}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, compare) in _cases().items():
            for fname, data in _outputs(name, argv, compare, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {GOLDEN / fname}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
