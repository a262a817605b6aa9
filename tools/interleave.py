"""Time two nvgates source trees against each other in one process.

    python3 tools/interleave.py OLD_SRC NEW_SRC [--workload W] [--seed S] [--items N] [--rounds R]

OLD_SRC and NEW_SRC are ``src`` directories, each holding an ``nvgates``
package, or git revisions of this checkout: an argument that is not an
existing path is unpacked with ``git archive <rev> src`` into a temporary
directory, so ``tools/interleave.py HEAD src`` times the working tree
against its last commit.  Each tree is copied into a temporary directory under
a package name of its own, which works because every import inside the
package is relative; OLD_SRC is copied twice, and the second copy, timed
like the others, gives the A/A ratio that shows the noise floor.

The items are the first N of the stream of one of the benchmark's
workloads, ``perfbench/items.py``'s ``STREAMS[W]`` (default
``netlist-oneshot``), and each tree runs them through the runner that
``perfbench/worker.py``'s ``prepare`` returns for it.  While ``prepare``
runs, the name ``nvgates`` points at the tree and ``worker.import_nvgates``,
which ties the worker to this checkout's ``src``, stands aside; both are
restored afterwards.  For ``sweep-random`` and ``verify-cli`` each tree also builds
the three gates while that name is in place, since a tree may read its
circuit files through it; they are cached, so no item reads a file.
A first, untimed pass compares the trees' outputs by their pickled bytes,
so arrays match to the last bit, a NaN matches a NaN and -0.0 differs from
0.0.  Each round then runs every item once per tree, one tree after
another, the order rotating from item to item, and times each run by
``worker.cpu_seconds`` right after a call of ``perfbench/reference.py``'s
``reference_task``, as ``worker.serve`` runs an item after the last one's
reference task.  The header line also gives each tree's ``nvgates/*.py``
line count (newlines, as ``wc -l`` counts them), so a size and a timing
come from one run.  One line per round gives the microseconds per item of
each tree and the ratios new/old and A/A (old copy / old); the last line
gives their medians over the rounds.
If the reader of the output goes away, the tool stops with exit status 1
and nothing on stderr.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/ or in the trees read

ROOT = Path(__file__).resolve().parents[1]
TREES = ("old", "new", "aa")


def _perfbench(module: str):
    """``perfbench/<module>.py``, imported with perfbench on ``sys.path``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module(module)
    finally:
        sys.path.pop(0)


def load_items(workload: str, seed: int, n: int) -> list[tuple]:
    """The first ``n`` items of ``workload``'s stream of ``seed``, read from perfbench."""
    stream = _perfbench("items").STREAMS[workload](seed)
    return [next(stream) for _ in range(n)]


def line_count(src: Path) -> int:
    """Lines of the ``nvgates/*.py`` files under ``src``."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "nvgates").glob("*.py"))


def resolve_src(arg: str, tmp: Path) -> Path | None:
    """``arg`` if it is an existing path, else the ``src`` of git revision
    ``arg`` unpacked under ``tmp``, or None if git cannot archive it."""
    if Path(arg).exists():
        return Path(arg)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", arg, "src"], capture_output=True)
    if archive.returncode != 0:
        return None
    dest = Path(tempfile.mkdtemp(dir=tmp))
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def load_tree(src: Path, name: str, tmp: Path, workload: str):
    """``worker.prepare``'s runner of one ``workload`` item on the nvgates package under ``src``, imported as ``name``."""
    shutil.copytree(src / "nvgates", tmp / name)
    worker = _perfbench("worker")
    alias, guard = sys.modules.get("nvgates"), worker.import_nvgates
    sys.modules["nvgates"], worker.import_nvgates = importlib.import_module(name), lambda: None
    try:
        if workload != "netlist-oneshot":
            gates = importlib.import_module(f"{name}.gates")
            for gate in gates.GATE_NAMES:
                gates.build_gate_circuit(gate)
        return worker.prepare(workload)
    finally:
        if alias is None:
            del sys.modules["nvgates"]
        else:
            sys.modules["nvgates"] = alias
        worker.import_nvgates = guard


def load_runs(old_src: Path, new_src: Path, tmp: Path, workload: str, tag: str = "") -> dict:
    """Each tree's runner of ``workload`` items: OLD_SRC as ``old`` and again
    as ``aa``, NEW_SRC as ``new``, each imported as ``nvgates_<tree><tag>``
    from ``tmp``, which must be on ``sys.path``."""
    srcs = {"old": old_src, "new": new_src, "aa": old_src}
    return {tree: load_tree(srcs[tree], f"nvgates_{tree}{tag}", tmp, workload) for tree in TREES}


def outputs_differ(runs: dict, items: list) -> int:
    """The untimed first pass: how many items the new tree's output differs
    from the old tree's on, by pickled bytes; the A/A tree runs them too."""
    differ = sum(pickle.dumps(runs["old"](item)) != pickle.dumps(runs["new"](item)) for item in items)
    for item in items:
        runs["aa"](item)
    return differ


def time_pass(runs: dict, items: list, rnd: int) -> dict:
    """Microseconds per item of each tree over one pass of ``items`` in round
    ``rnd``, each run timed by ``worker.cpu_seconds`` right after ``worker.reference_task()``."""
    worker = _perfbench("worker")
    spent = dict.fromkeys(TREES, 0.0)
    for i, item in enumerate(items):
        k = (i + rnd) % len(TREES)
        for tree in TREES[k:] + TREES[:k]:
            worker.reference_task()
            start = worker.cpu_seconds()
            runs[tree](item)
            spent[tree] += worker.cpu_seconds() - start
    return {tree: 1e6 * spent[tree] / len(items) for tree in TREES}


def main(argv=None) -> int:
    try:
        code = interleave(argv)
        sys.stdout.flush()  # so a reader that has gone fails here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader has gone: nothing on stderr, exit 1, and the flush at exit writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def interleave(argv=None) -> int:
    parser = argparse.ArgumentParser(description="In-process A/B timing of two nvgates source trees.")
    parser.add_argument("old_src", help="a src directory, or a git revision")
    parser.add_argument("new_src", help="a src directory, or a git revision")
    parser.add_argument("--workload", choices=sorted(_perfbench("items").STREAMS), default="netlist-oneshot")
    parser.add_argument("--seed", type=int, default=20131001)
    parser.add_argument("--items", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    if args.items < 1 or args.rounds < 1:
        parser.error("--items and --rounds must be at least 1")

    items = load_items(args.workload, args.seed, args.items)
    with tempfile.TemporaryDirectory() as tmp:
        old_src, new_src = (resolve_src(arg, Path(tmp)) for arg in (args.old_src, args.new_src))
        for arg, src in ((args.old_src, old_src), (args.new_src, new_src)):
            if src is None or not (src / "nvgates" / "__init__.py").is_file():
                parser.error(f"{arg} is neither a src directory holding an nvgates package nor a git revision")
        sys.path.insert(0, tmp)
        runs = load_runs(old_src, new_src, Path(tmp), args.workload)
        differ = outputs_differ(runs, items)
        print(f"{args.workload} seed={args.seed} items={args.items} rounds={args.rounds}: "
              f"new output differs from old on {differ} of {args.items} items; "
              f"nvgates/*.py lines old {line_count(old_src)}, new {line_count(new_src)}")
        print(f"{'round':>5} {'old us':>9} {'new us':>9} {'aa us':>9} {'new/old':>8} {'aa/old':>8}")
        ratios = []
        for rnd in range(args.rounds):
            us = time_pass(runs, items, rnd)
            ratios.append((us["new"] / us["old"], us["aa"] / us["old"]))
            print(f"{rnd + 1:>5} {us['old']:>9.1f} {us['new']:>9.1f} {us['aa']:>9.1f} "
                  f"{ratios[-1][0]:>8.4f} {ratios[-1][1]:>8.4f}")
    new, aa = (f"{statistics.median(r):.4f} (rounds {min(r):.4f}-{max(r):.4f})" for r in zip(*ratios))
    print(f"median new/old {new}, A/A {aa}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
