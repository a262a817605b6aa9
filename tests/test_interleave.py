"""``tools/interleave.py``, the in-process A/B timing of two source trees, runs.

The tool times each tree with the item runner of ``perfbench/worker.py``'s
``prepare``, each run right after the benchmark's reference task; these
tests run it end to end on this checkout's ``src`` against itself and
against the ``src`` of its last commit, and check that loading a tree
leaves the names it borrows as it found them.
"""

import importlib.util
import os
import pathlib
import pickle
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["netlist-oneshot", "sweep-random", "verify-cli"])
def test_interleave_runs_a_tree_against_itself(workload):
    argv = [sys.executable, "tools/interleave.py", "src", "src", "--workload", workload, "--items", "2", "--rounds", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "differs from old on 0 of 2 items" in done.stdout
    last = done.stdout.splitlines()[-1]
    assert re.fullmatch(r"median new/old \d\.\d{4} \(rounds [\d.-]+\), A/A \d\.\d{4} \(rounds [\d.-]+\)", last), last


def test_interleave_takes_a_git_revision_for_a_tree():
    # HEAD's src is unpacked with git archive; its outputs are this src's
    git = ["git", "-C", str(ROOT), "rev-parse", "--is-inside-work-tree"]
    if shutil.which("git") is None or subprocess.run(git, capture_output=True, text=True).stdout.strip() != "true":
        pytest.skip("not in a git work tree")
    argv = [sys.executable, "tools/interleave.py", "HEAD", "src", "--items", "2", "--rounds", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "differs from old on 0 of 2 items" in done.stdout


@pytest.mark.parametrize("unbuffered", [False, True])
def test_interleave_ends_quietly_when_its_reader_has_gone(unbuffered):
    # the read end is closed before the tool writes, as when piped into "head -1" that has exited
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        argv = [sys.executable, "tools/interleave.py", "src", "src", "--items", "2", "--rounds", "1"]
        done = subprocess.run(argv, cwd=ROOT, stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_loading_a_tree_restores_the_names_it_borrows(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # the tool sets it on import
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("interleave", ROOT / "tools" / "interleave.py")
    interleave = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(interleave)
    import nvgates
    import worker

    guard = worker.import_nvgates
    run = interleave.load_tree(ROOT / "src", "nvgates_interleave_test", tmp_path, "netlist-oneshot")
    assert sys.modules["nvgates"] is nvgates and worker.import_nvgates is guard
    (item,) = interleave.load_items("netlist-oneshot", 11, 1)
    assert pickle.dumps(run(item)) == pickle.dumps(worker.prepare("netlist-oneshot")(item))
