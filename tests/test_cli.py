"""Command-line interface: exit codes, determinism, output formats."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nvgates import analysis, cli
from nvgates.cavity import IDEAL_PAIR, reflection_at_ratio
from nvgates.cli import build_parser, main
from nvgates.gates import GATE_NAMES, build_gate_circuit
from nvgates.elements import apply_hwp
from nvgates.netlist import MAX_AMPLITUDES, run_netlist

from conftest import run_cli


def test_every_command_has_a_handler_and_every_handler_a_command():
    # main dispatches to cmd_<command>, "-" read as "_"; a command without one would end in a KeyError traceback
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert {"cmd_" + c.replace("-", "_") for c in commands} == {name for name in vars(cli) if name.startswith("cmd_")}


def test_verify_ideal_exits_zero(capsys):
    assert main(["verify", "cnot", "--ideal", "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "seed=0" in out


def test_verify_fredkin_ideal(capsys):
    assert main(["verify", "fredkin", "--ideal", "--trials", "10"]) == 0


def test_verify_realistic_exits_zero_with_report(capsys):
    assert main(["verify", "cnot", "--ratio", "2", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "post-selected fidelity, outcomes weighted by probability" in out


@pytest.mark.parametrize("gate", GATE_NAMES)
@pytest.mark.parametrize("regime", [["--ratio", "2"], ["--ratio", "6"], ["--ideal"]], ids=" ".join)
def test_verify_prints_the_library_post_selected_fidelity(capsys, gate, regime):
    # verify reads the product fidelity_simulated reads, so it prints that number at the same inputs
    assert main(["verify", gate, "--trials", "7", "--seed", "11", *regime]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    pair = reflection_at_ratio(float(regime[1])) if regime[0] == "--ratio" else IDEAL_PAIR
    expected = analysis.fidelity_simulated(gate, pair, "random", "postselected", 7, 11)
    assert line == f"post-selected fidelity, outcomes weighted by probability: {expected:.9f}"


def test_cli_formats_and_leaves_the_gate_arithmetic_to_analysis():
    # one evaluation path: cli reads analysis's public functions, and verify and truth-table only format
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "analysis" and node.attr.startswith("_")]
    private += [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "analysis" for alias in node.names if alias.name.startswith("_")]
    assert private == []
    for func in (node for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name in ("cmd_verify", "cmd_truth_table")):
        for node in ast.walk(func):
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.MatMult, ast.Pow))), func.name
            assert not (isinstance(node, ast.Name) and node.id == "np"), func.name


def test_verify_unknown_gate_usage_error():
    assert main(["verify", "hadamard"]) == 2


def test_gate_names_follow_one_rule_on_every_command(capsys):
    # verify and truth-table take a gate in any letter case, as sweep --gates and build_gate_circuit do
    for command in (["verify", "{}", "--trials", "2"], ["truth-table", "{}", "--ratio", "2"]):
        outputs = []
        for gate in ("cnot", "CNOT", "CNot"):
            assert main([word.format(gate) for word in command]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2] == outputs[0]
    assert main(["truth-table", "hadamard"]) == 2
    assert "unknown gate 'hadamard'; expected one of ('cnot', 'toffoli', 'fredkin')" in capsys.readouterr().err


def test_verify_rejects_zero_trials(capsys):
    assert main(["verify", "cnot", "--trials", "0"]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_gain_reflection_is_usage_error(capsys):
    # |r_hot| > 1 would be an optical gain, which a passive cavity cannot give
    assert main(["verify", "cnot", "--r-hot", "2"]) == 2
    assert main(["truth-table", "cnot", "--r-hot", "-1.5"]) == 2
    assert "|r_hot| <= 1" in capsys.readouterr().err


def test_truth_table_toffoli(capsys):
    assert main(["truth-table", "toffoli", "--ideal"]) == 0
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.strip().startswith("|")]
    assert len(rows) == 8
    assert any("|--+> -> " in r and "|---" in r for r in rows)
    assert any("|---> -> " in r and "|--+" in r for r in rows)


def test_regime_header_names_the_simulated_regime(capsys):
    assert main(["truth-table", "cnot", "--r-hot", "0.5"]) == 0
    assert main(["verify", "cnot", "--r-hot", "0.5", "--trials", "2"]) == 0
    header_tt, header_verify = (line for line in capsys.readouterr().out.splitlines()
                                if line.startswith(("truth table", "verify")))
    assert header_tt == "truth table for cnot (r_hot=0.5+0j)"
    assert header_verify.endswith("regime=r_hot=0.5+0j")
    assert main(["truth-table", "cnot"]) == 0
    assert capsys.readouterr().out.startswith("truth table for cnot (ideal)")


def test_truth_table_cnot_matches_unitary(capsys):
    from nvgates.gates import ideal_gate_unitary
    from nvgates.state import spin_config_bits

    assert main(["truth-table", "cnot", "--ideal"]) == 0
    out = capsys.readouterr().out
    u = ideal_gate_unitary("cnot")
    for src in range(4):
        dst = int(np.argmax(np.abs(u[:, src])))
        ket_in = "".join("+" if b == 0 else "-" for b in spin_config_bits(src, 2))
        ket_out = "".join("+" if b == 0 else "-" for b in spin_config_bits(dst, 2))
        row = next(line for line in out.splitlines() if line.strip().startswith(f"|{ket_in}> ->"))
        assert f"|{ket_out}>" in row


def test_truth_table_fredkin_swap_row(capsys):
    assert main(["truth-table", "fredkin", "--ideal"]) == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.strip().startswith("|-+->"))
    assert "|--+>" in row


def test_run_shipped_netlist(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    assert main(["run", str(path), "--ideal"]) == 0
    out = capsys.readouterr().out
    assert "photon survival probability: 1.000000000" in out
    assert "outcome F9" in out and "outcome S9" in out


def test_run_reads_a_file_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    plain, bom = tmp_path / "cnot.nv", tmp_path / "cnot_bom.nv"
    plain.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    bom.write_text(shipped_circuit_text("cnot"), encoding="utf-8-sig")  # as Windows editors save it
    assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    printed = []
    for path in (plain, bom):
        assert main(["run", str(path), "--ratio", "0.7"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        first, rest = captured.out.split("\n", 1)
        assert first.startswith("netlist: ")
        printed.append(rest)
    assert printed[1] == printed[0]


def test_run_with_explicit_input(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    assert main(["run", str(path), "--input", "0,1,1,0"]) == 0
    out = capsys.readouterr().out
    assert "|-->" in out  # control |-> flips target |+> -> |->


def test_run_rejects_bad_input_amplitudes(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    for bad in ("abc", "0,0,1,0", "1,0,nan,1", "1,0"):
        assert main(["run", str(path), "--input", bad]) == 2, bad
    out = capsys.readouterr().out
    assert "nan" not in out


def test_run_input_pairs_of_tiny_or_huge_amplitudes_are_normalized(tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    code, expected, err = run_cli(["run", str(path), "--input", "1,1,1,0"])
    assert (code, err) == (0, "")
    # each pair's squared norm underflows to a subnormal, to 0, or overflows; 1/1e-310 overflows too
    for scale in ("1e-160", "1e-200", "1e-310", "1e154", "1e300"):
        assert run_cli(["run", str(path), "--input", f"{scale},{scale},1,0"]) == (0, expected, ""), scale
    for bad in ("0,0,1,0", "1,0,nan,1", "inf,1,1,0", "1,0,-infj,1", "1e-400,0,1,0"):
        code, out, err = run_cli(["run", str(path), "--input", bad])
        assert (code, out) == (2, ""), bad
        assert err.startswith("error: --input") and err.count("\n") == 1, (bad, err)


def test_sweep_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    out1.write_text("an older, longer file\n" * 1000)  # replaced whole
    args = ["sweep", "--min", "0.5", "--max", "2.0", "--steps", "4", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * len(GATE_NAMES)


def test_sweep_ratio_column_strictly_increasing(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--min", "0.5", "--max", "3", "--steps", "6", "--out", str(out)]) == 0
    ratios = [float(line.split(",")[0]) for line in out.read_text().strip().splitlines()[1:]]
    per_gate = ratios[:: len(GATE_NAMES)]
    assert all(b > a for a, b in zip(per_gate, per_gate[1:]))


def test_sweep_96_steps_headline_row(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["sweep", "--min", "0.5", "--max", "10", "--steps", "96", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    at5 = {row[2]: row for row in rows if abs(float(row[0]) - 5.0) < 1e-9}
    assert set(at5) == set(GATE_NAMES)
    assert abs(float(at5["cnot"][5]) - 0.9805) <= 5e-5
    assert abs(float(at5["toffoli"][5]) - 0.9757) <= 5e-5
    assert abs(float(at5["fredkin"][5]) - 0.9615) <= 5e-5


def test_sweep_rejects_zero_range(tmp_path, capsys):
    code = main(["sweep", "--min", "1", "--max", "1", "--steps", "2", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_sweep_rejects_bad_steps(tmp_path):
    assert main(["sweep", "--min", "0.5", "--max", "2", "--steps", "1", "--out", str(tmp_path / "x.csv")]) == 2


def test_sweep_unwritable_path_runtime_error():
    assert main(["sweep", "--min", "0.5", "--max", "1", "--steps", "2",
                 "--out", "/nonexistent-dir/x.csv"]) == 1


def test_sweep_refuses_an_unwritable_output_before_it_prints_or_runs(tmp_path, monkeypatch):
    # the header line and the whole sweep used to come before the refusal
    monkeypatch.setattr(analysis, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    args = ["sweep", "--min", "0.5", "--max", "1", "--steps", "2"]
    csv, report, folder = str(tmp_path / "x.csv"), str(tmp_path / "r.txt"), tmp_path / "existing-dir"
    folder.mkdir()
    for outputs, named in ((["--out", "/nonexistent-dir/x.csv"], "nonexistent-dir"),
                           (["--out", csv, "--fidelity-report", "/nonexistent-dir/r.txt"], "nonexistent-dir"),
                           (["--out", "/nonexistent-dir/x.csv", "--fidelity-report", report], "nonexistent-dir"),
                           (["--out", csv, "--fidelity-report", str(folder)], "existing-dir")):
        code, out, err = run_cli(args + outputs)
        assert (code, out) == (1, ""), err
        assert named in err
        assert list(tmp_path.rglob("*")) == [folder]


def test_sweep_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("NVGATES_OUT_DIR", str(tmp_path))
    assert main(["sweep", "--min", "0.5", "--max", "1", "--steps", "2", "--out", "env.csv"]) == 0
    assert (tmp_path / "env.csv").exists()


def test_params_q_conversions(capsys):
    assert main(["params", "--q", "1e5"]) == 0
    out = capsys.readouterr().out
    assert "4.70633e+09" in out or "4.7063" in out
    assert "rad/s" in out
    assert "2*pi" in out


def test_params_ratio(capsys):
    assert main(["params", "--ratio", "5"]) == 0
    out = capsys.readouterr().out
    assert "+0.980198020" in out
    assert "-1.000000000" in out


def test_params_g_prints_the_reflection_pair(capsys):
    assert main(["params", "--g", "2"]) == 0
    assert capsys.readouterr().out == (
        "g=2 kappa=1 gamma=1 detunings: c-p=0 0-p=0\n"
        "  coupling ratio = 2\n"
        "  r_hot  = 0.882352941+0j\n"
        "  r_cold = -1+0j\n"
    )
    assert main(["params", "--g", "2", "--kappa", "1", "--omega-c", "0.3"]) == 0
    assert capsys.readouterr().out == (
        "g=2 kappa=1 gamma=1 detunings: c-p=0.3 0-p=0\n"
        "  coupling ratio = 2\n"
        "  r_hot  = 0.882499309+0.00414708322j\n"
        "  r_cold = -0.470588235+0.882352941j\n"
    )


def test_params_quality_factor_underflow_and_overflow_refused_before_any_output(capsys):
    for argv, message in (
        (["params", "--q", "1e-300", "--wavelength", "1e-300"], "wavelength*Q underflows to 0"),
        (["params", "--q", "1e-10", "--wavelength", "1e-300"], "kappa = c/(lambda*Q) overflows"),
        (["params", "--g", "1", "--q", "1e-10", "--wavelength", "1e-300"], "kappa = c/(lambda*Q) overflows"),
        (["params", "--q", "1e-300", "--wavelength", "2"], "kappa = 2*pi*c/(lambda*Q) overflows"),
        (["params", "--q", "1e300", "--wavelength", "1e10"], "wavelength*Q overflows"),
        (["params", "--g", "1", "--q", "1e300", "--wavelength", "1e10"], "wavelength*Q overflows"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message} (Q = ")
        assert captured.err.count("\n") == 1


def test_params_checks_every_flag_before_any_output(capsys):
    # the --q block is valid, and a later flag is not
    for argv, message in (
        (["params", "--q", "1e5", "--ratio", "nan"], "coupling ratio must be finite and nonnegative, got nan"),
        (["params", "--q", "1e5", "--g", "-1"], "coupling rate must be nonnegative, got -1.0"),
        (["params", "--q", "1e5", "--ratio", "2", "--g", "1", "--gamma", "0"], "NV decay rate must be positive, got 0.0"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_params_without_arguments_usage_error(capsys):
    assert main(["params"]) == 2


def test_run_missing_file_runtime_error():
    assert main(["run", "/no/such/file.nv"]) == 1


def test_run_rejects_oversized_state(capsys, tmp_path):
    # 2 * 1 mode * 2**40 amplitudes: refused at parse time, never allocated
    path = tmp_path / "big.nv"
    path.write_text("spins 40\nmodes a\ndetect a\n", encoding="utf-8")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line 1, col 7" in err and "[spin-range]" in err


def test_non_finite_ratio_is_usage_error(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    for bad in ("nan", "inf"):
        for argv in (
            ["run", str(path), "--ratio", bad],
            ["verify", "cnot", "--ratio", bad, "--trials", "2"],
            ["truth-table", "cnot", "--ratio", bad],
            ["params", "--ratio", bad],
        ):
            assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "nan" not in captured.out.lower()


def test_huge_ratio_is_the_limit_not_nan(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    assert main(["params", "--ratio", "1e200"]) == 0
    assert "r_hot  = +1.000000000+0.000000000j" in capsys.readouterr().out
    assert main(["run", str(path), "--ratio", "1e308"]) == 0
    assert "photon survival probability: 1.000000000" in capsys.readouterr().out


def test_negative_seed_is_usage_error_before_any_output(capsys, tmp_path):
    out = tmp_path / "x.csv"
    for argv in (
        ["verify", "cnot", "--seed", "-1"],
        ["sweep", "--convention", "random", "--seed", "-1", "--out", str(out)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: --seed must be non-negative\n")
    assert not out.exists()


def test_params_overflow_is_usage_error(capsys):
    for argv in (
        ["params", "--g", "1e200", "--kappa", "1e-200"],
        ["params", "--g", "1e-200", "--kappa", "1e200", "--gamma", "1e200"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "overflow" in captured.err


def test_params_underflow_is_usage_error(capsys):
    for argv, name in (
        (["params", "--g", "0", "--kappa", "1e-200", "--gamma", "1e-200"], "r_hot"),
        (["params", "--g", "1", "--kappa", "1e-200", "--gamma", "1e-200"], "r_cold"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} steady-state denominator underflows to 0")
        assert captured.err.count("\n") == 1


def test_trials_over_the_amplitude_cap_refused_before_anything_runs(capsys, monkeypatch, tmp_path):
    # trials x 2**n x compiled rows may not exceed MAX_AMPLITUDES; the check
    # comes before any output, and before any input is drawn
    monkeypatch.setattr(analysis, "_spin_inputs", lambda *args: pytest.fail("inputs drawn"))

    def cap(gates):
        sizes = [analysis.compile_circuit(build_gate_circuit(g), -1.0).coefficients.shape[1:3] for g in gates]
        return min(MAX_AMPLITUDES // (rows * dim) for rows, dim in sizes)

    out = tmp_path / "x.csv"
    for argv, gates in (
        (["verify", "cnot"], ["cnot"]),
        (["verify", "fredkin", "--ratio", "2"], ["fredkin"]),
        (["sweep", "--convention", "random", "--out", str(out)], GATE_NAMES),
        (["sweep", "--gates", "cnot", "--convention", "random", "--out", str(out)], ["cnot"]),
    ):
        for trials in (cap(gates) + 1, 10**15):
            assert main(argv + ["--trials", str(trials)]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: --trials {trials} x 2**")
            assert captured.err.count("\n") == 1
    assert not out.exists()


def test_sweep_steps_over_the_cap_refused_before_anything_runs(capsys, monkeypatch, tmp_path):
    # analysis.sweep keeps steps x gates records, so the grid is capped at 2**16 steps
    monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("grid allocated"))
    monkeypatch.setattr(analysis, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    out = tmp_path / "x.csv"
    for convention in ("balanced", "random"):
        for steps in (2**16 + 1, 10**15):
            assert main(["sweep", "--steps", str(steps), "--convention", convention, "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", f"error: --steps must be at most 65536, got {steps}\n")
    assert not out.exists()


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "nvgates", "verify", "cnot", "--ideal", "--trials", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "ideal-regime check: PASS (tolerance 1e-10)" in done.stdout.splitlines()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_has_gone_ends_the_command_quietly(unbuffered):
    # the read end is closed before the child writes, so every write fails with EPIPE: buffered, in the
    # flush at exit, which printed "Exception ignored ... BrokenPipeError" and exited 120; unbuffered, in
    # print, which printed "error: [Errno 32] Broken pipe"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "nvgates", "truth-table", "fredkin", "--r-hot", "0"],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_csv_is_imported_only_to_write_a_sweep_csv():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = (
        "import io, sys\n"
        "from nvgates import analysis, cli\n"
        "seen = ['csv' in sys.modules]\n"
        "cli.main(['verify', 'cnot', '--ideal', '--trials', '2']), cli.main(['truth-table', 'cnot'])\n"
        "seen.append('csv' in sys.modules)\n"
        "analysis.write_sweep_csv([], io.StringIO())\n"
        "print(*seen, 'csv' in sys.modules, file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "False False True\n")


def test_run_applies_the_circuit_once(tmp_path, monkeypatch):
    # the norm on undetected modes comes from the one run, which detects them too, on a netlist not checked again
    from nvgates import cli, elements, netlist

    calls = []
    check = netlist.Netlist.__post_init__
    monkeypatch.setattr(netlist.Netlist, "__post_init__", lambda net: calls.append("check") or check(net))
    monkeypatch.setattr(cli, "run_netlist", lambda *args: calls.append(args[0].detectors) or run_netlist(*args))
    monkeypatch.setattr(elements, "apply_hwp", lambda *args: calls.append("hwp") or apply_hwp(*args))
    path = tmp_path / "hwp.nv"
    path.write_text("spins 1\nmodes a b c d\npbs a b -> c d\nhwp d\ndetect c\n", encoding="utf-8")
    code, out, err = run_cli(["run", str(path)])
    assert (code, err) == (0, "")
    assert calls == [("c", "a", "b", "d"), "hwp"]
    assert out.splitlines()[1:3] == ["photon survival probability: 1.000000000", "  of which on undetected modes: 0.500000000"]
    for gate in GATE_NAMES:  # each shipped gate, most of whose modes no detector reads
        calls.clear()
        assert run_cli(["run", str(Path(cli.__file__).parent / "circuits" / f"{gate}.nv")])[0] == 0
        assert "check" not in calls, gate


def test_run_survival_counts_the_photon_on_undetected_modes(tmp_path):
    # a lossless pbs sends half the photon to d, which no detector reads: it still survives
    path = tmp_path / "half.nv"
    for detect, left in (("detect c\n", "0.500000000"), ("", "1.000000000")):
        path.write_text("spins 1\nmodes a b c d\npbs a b -> c d\n" + detect, encoding="utf-8")
        code, out, err = run_cli(["run", str(path)])
        assert (code, err) == (0, "")
        assert out.splitlines()[1:3] == ["photon survival probability: 1.000000000", f"  of which on undetected modes: {left}"]


def test_negative_flag_values_with_an_exponent_are_values(tmp_path):
    # argparse alone reads -5e-1, -1e3 and -0.6,0.8 as flags and exits 2, "expected one argument"
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    for flag, value, rest in (
        ("--r-hot", "-5e-1", ["verify", "cnot", "--trials", "3"]),
        ("--omega-c", "-1e3", ["params", "--g", "1"]),
        ("--input", "-0.6,0.8,1,0", ["run", str(path)]),
    ):
        spaced = run_cli(rest + [flag, value])
        assert spaced[0] == 0 and spaced == run_cli(rest + [f"{flag}={value}"])
    # after "--" every token is positional, so -1e3 is the netlist path
    code, _, err = run_cli(["run", "--ideal", "--", "-1e3"])
    assert code == 1 and "-1e3" in err


def test_sweep_near_the_float_limit_warns_nothing(tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = run_cli(["sweep", "--min", "1e308", "--max", "1.7e308", "--steps", "3", "--out", str(out)])
    assert (code, err) == (0, "")
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 9 and all(row.split(",")[1] == "1" for row in rows)


def test_sweep_rejects_non_finite_bounds(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--max", "inf", "--out", out]) == 2
    assert "--max" in capsys.readouterr().err
    assert main(["sweep", "--min", "nan", "--out", out]) == 2
    assert "--min" in capsys.readouterr().err
    assert main(["sweep", "--min", "-1", "--out", out]) == 2
    assert capsys.readouterr() == ("", "error: --min must be nonnegative\n")
    assert not (tmp_path / "x.csv").exists()


def test_sweep_rejects_zero_trials(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--convention", "random", "--trials", "0", "--out", str(out)]) == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_unknown_gate_is_usage_error_with_gate_rule_message(tmp_path, capsys):
    # --gates is checked by the one gate-name rule, which lists the known names
    out = tmp_path / "x.csv"
    assert main(["sweep", "--gates", "CNOT,foo", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown gate 'foo'; expected one of {GATE_NAMES}\n"
    assert captured.out == ""
    assert not out.exists()


def test_sweep_refuses_a_gate_named_twice_before_it_prints_or_runs(tmp_path, capsys, monkeypatch):
    # cnot,CNOT used to write every (ratio, cnot) row twice
    monkeypatch.setattr(analysis, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    out = tmp_path / "x.csv"
    for gates in ("cnot,CNOT", "toffoli,cnot,Toffoli", "fredkin,fredkin"):
        assert main(["sweep", "--gates", gates, "--steps", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        name = gates.split(",")[0].lower()
        assert captured.err == f"error: --gates names the gate {name!r} twice\n"
        assert captured.out == ""
        assert not out.exists()


def test_sweep_refuses_an_empty_gate_list_before_it_prints_or_runs(tmp_path, monkeypatch):
    # --gates "" used to sweep every gate and exit 0; an explicit empty value names no gate, as --gates , does
    monkeypatch.setattr(analysis, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    out = tmp_path / "x.csv"
    for gates in ("", ","):
        assert run_cli(["sweep", "--gates", gates, "--steps", "2", "--out", str(out)]) == (
            2, "", f"error: unknown gate ''; expected one of {GATE_NAMES}\n")
        assert not out.exists()


def test_sweep_refuses_an_empty_output_path_before_it_prints_or_runs(tmp_path, monkeypatch):
    # --fidelity-report "" used to write the CSV, no report, and exit 0; --out "" ended in
    # "[Errno 21] Is a directory: '.'" (exit 1)
    monkeypatch.setattr(analysis, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    monkeypatch.delenv("NVGATES_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for outputs, flag in ((["--fidelity-report", ""], "--fidelity-report"), (["--out", ""], "--out"),
                          (["--out", "", "--fidelity-report", "r.txt"], "--out"),
                          (["--out", "x.csv", "--fidelity-report", ""], "--fidelity-report")):
        assert run_cli(["sweep", "--steps", "2", *outputs]) == (2, "", f"error: {flag} needs a file path, got ''\n")
        assert list(tmp_path.iterdir()) == []


def test_sweep_refuses_one_path_for_both_outputs_before_it_prints_or_runs(tmp_path, monkeypatch):
    # --out r.txt --fidelity-report r.txt used to write the CSV, then overwrite it with the report, and exit 0
    monkeypatch.setattr(analysis, "sweep", lambda *args, **kwargs: pytest.fail("sweep ran"))
    monkeypatch.setenv("NVGATES_OUT_DIR", str(tmp_path))
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(tmp_path / "r.txt")
    for out, report in (("r.txt", "r.txt"), ("r.txt", str(tmp_path / "r.txt")), ("sub/../r.txt", "link.txt")):
        code, stdout, err = run_cli(["sweep", "--steps", "2", "--out", out, "--fidelity-report", report])
        assert (code, stdout) == (2, ""), err
        assert "--out and --fidelity-report both name" in err
        assert not (tmp_path / "r.txt").exists()


def test_sweep_header_keeps_gate_names_as_given(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "--gates", "CNOT,Fredkin", "--steps", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("sweep: gates=CNOT,Fredkin ratios=[0.5,10.0] steps=2")
    assert [row.split(",")[2] for row in out.read_text().splitlines()[1:3]] == ["cnot", "fredkin"]


def test_regime_flags_exclude_one_another(capsys, tmp_path):
    from nvgates.gates import shipped_circuit_text

    path = tmp_path / "cnot.nv"
    path.write_text(shipped_circuit_text("cnot"), encoding="utf-8")
    pairs = (["--ratio", "2", "--r-hot", "0.5"], ["--ideal", "--r-hot", "0.5"], ["--ideal", "--ratio", "2"])
    for command in (["run", str(path)], ["verify", "cnot", "--trials", "2"], ["truth-table", "cnot"]):
        for flags in pairs:
            assert main(command + flags) == 2, command + flags
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_repeated_main_calls_agree(capsys):
    # the parser is built once per process and shared by every call
    argvs = (["verify", "toffoli", "--ratio", "2", "--trials", "5", "--seed", "1"],
             ["truth-table", "cnot", "--r-hot", "0.5"], ["verify", "cnot", "--trials", "0"], ["verify"])
    runs = []
    for _ in range(2):
        codes = [main(argv) for argv in argvs]
        runs.append((codes, capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == [0, 0, 2, 2]


def test_subcommand_function_is_looked_up_when_main_runs(capsys, monkeypatch):
    # the cached parser must not keep the cmd_* functions of its first build
    from nvgates import cli

    assert main(["verify", "cnot", "--trials", "1"]) == 0
    calls = []
    verify = cli.cmd_verify

    def recording(args):
        calls.append(args.gate)
        return verify(args)

    monkeypatch.setattr(cli, "cmd_verify", recording)
    assert main(["verify", "cnot", "--trials", "1"]) == 0
    assert calls == ["cnot"]
    capsys.readouterr()
