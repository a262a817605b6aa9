"""Write a before/after record of two nvgates source trees as ``BENCH_<n>.json``.

    python3 tools/bench.py BASE NEW [--out PATH] [--workload W ...] [--seed S ...]
                           [--items N] [--rounds R] [--count-items C]

BASE and NEW are ``src`` directories or git revisions of this checkout, read
as ``tools/interleave.py`` reads them.  The record holds, for every workload
(default: all three) and seed (default: the held-out 20131001, then 11):

- ``in_process``: the ``tools/interleave.py`` pair, N items (default 300) ×
  R rounds (default 5), with the number of items whose outputs differ, each
  round's microseconds per item and ratios, and the medians new/old and A/A
  (a second copy of BASE against BASE, the noise floor);
- ``calls_per_item``: Python calls per item of each tree, for every workload,
  on the first seed.  The first C items (default 200) run once to warm the
  tree, then again under cProfile, and the count is the sum of every
  profiler entry's call count over C.  It is taken twice per tree, each
  time on a fresh import, and ``repeat_equal`` says whether the two agree.
  Each entry is summed on its own: ``pstats`` keys functions by file, line
  and name, so entries that share them (every NamedTuple's ``__new__`` is
  ``<string>:1(<lambda>)``) overwrite one another there and the total
  falls short by the calls of all but the surviving one.  cProfile sees
  Python functions and built-in functions and methods, but not ufunc
  loops or calls of a type such as ``tuple(...)``, so the count is a lower
  bound on dispatches;
- ``provenance``: each tree's argument, commit (None for a directory),
  ``nvgates`` digest (``perfbench/run.py``'s ``src_sha256``) and
  ``nvgates/*.py`` line count; the CPU model, CPUs usable, Python, numpy,
  ``PYTHONDONTWRITEBYTECODE``, ``PYTHONHASHSEED``, the UTC date and the run
  lengths.

Without ``--out`` the file is ``BENCH_<n>.json`` at the checkout's root,
``n`` one more than the largest already there.  The path written is printed.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import interleave

ROOT = interleave.ROOT
WORKLOADS = sorted(interleave._perfbench("items").STREAMS)
SEEDS = (20131001, 11)  # the held-out seed first


def digest(src: Path) -> str:
    """``perfbench/run.py``'s ``src_sha256`` of the nvgates package under ``src``."""
    h = hashlib.sha256()
    for path in sorted((src / "nvgates").rglob("*")):
        if path.suffix in (".py", ".nv"):
            h.update(str(path.relative_to(src.parent)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tree_record(arg: str, src: Path) -> dict:
    """Where a tree came from: its argument, commit and content."""
    commit = None
    if not Path(arg).exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", f"{arg}^{{commit}}"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"arg": arg, "commit": commit, "nvgates_sha256": digest(src), "nvgates_py_lines": interleave.line_count(src)}


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or platform.machine()
    found = re.search(r"^model name\s*:\s*(.*)$", text, re.MULTILINE)
    return found.group(1).strip() if found else platform.machine()


def in_process(srcs: dict, workload: str, seed: int, n_items: int, rounds: int, tmp: Path, tag: str) -> dict:
    """One ``tools/interleave.py`` pair of BASE and NEW."""
    items = interleave.load_items(workload, seed, n_items)
    runs = interleave.load_runs(srcs["base"], srcs["new"], tmp, workload, tag)
    differ = interleave.outputs_differ(runs, items)
    passes = [interleave.time_pass(runs, items, rnd) for rnd in range(rounds)]
    rows = [{"old_us": us["old"], "new_us": us["new"], "aa_us": us["aa"],
             "new_old": us["new"] / us["old"], "aa_old": us["aa"] / us["old"]} for us in passes]
    return {"workload": workload, "seed": seed, "items": n_items, "rounds": rows, "outputs_differ": differ,
            "median_new_old": statistics.median(row["new_old"] for row in rows),
            "median_aa_old": statistics.median(row["aa_old"] for row in rows)}


def calls_per_item(src: Path, workload: str, items: list, tmp: Path, name: str) -> float:
    """Python calls per warm item of the tree under ``src``, as cProfile counts them."""
    run = interleave.load_tree(src, name, tmp, workload)
    for item in items:
        run(item)
    prof = cProfile.Profile()
    prof.enable()
    for item in items:
        run(item)
    prof.disable()
    return sum(entry.callcount for entry in prof.getstats()) / len(items)


def next_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Before/after record of two nvgates source trees.")
    parser.add_argument("base", help="a src directory, or a git revision")
    parser.add_argument("new", help="a src directory, or a git revision")
    parser.add_argument("--out", type=Path, help="the file to write (default: the next BENCH_<n>.json at the root)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run; repeat for more (default: all)")
    parser.add_argument("--seed", action="append", type=int, help="a seed; repeat for more (default: 20131001 and 11)")
    parser.add_argument("--items", type=int, default=300)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--count-items", type=int, default=200)
    args = parser.parse_args(argv)
    if min(args.items, args.rounds, args.count_items) < 1:
        parser.error("--items, --rounds and --count-items must be at least 1")
    workloads = args.workload or WORKLOADS
    seeds = args.seed or list(SEEDS)

    with tempfile.TemporaryDirectory() as tmp:
        srcs = {side: interleave.resolve_src(getattr(args, side), Path(tmp)) for side in ("base", "new")}
        for side, src in srcs.items():
            if src is None or not (src / "nvgates" / "__init__.py").is_file():
                parser.error(f"{getattr(args, side)} is neither a src directory holding an nvgates package nor a git revision")
        sys.path.insert(0, tmp)
        record = {
            "provenance": {
                "base": tree_record(args.base, srcs["base"]),
                "new": tree_record(args.new, srcs["new"]),
                "cpu_model": cpu_model(),
                "cpus_usable": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": __import__("numpy").__version__,
                "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
                "date_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
                "workloads": workloads,
                "seeds": seeds,
                "in_process_items": args.items,
                "in_process_rounds": args.rounds,
                "count_items": args.count_items,
                "count_seed": seeds[0],
            },
            "in_process": [],
            "calls_per_item": {},
        }
        for i, (workload, seed) in enumerate((w, s) for w in workloads for s in seeds):
            record["in_process"].append(in_process(srcs, workload, seed, args.items, args.rounds, Path(tmp), f"_{i}"))
        for workload in workloads:
            items = interleave.load_items(workload, seeds[0], args.count_items)
            counts = {side: [calls_per_item(srcs[side], workload, items, Path(tmp), f"nvgates_count_{workload}_{side}_{k}")
                             for k in ("a", "b")] for side in ("base", "new")}
            record["calls_per_item"][workload] = {
                "base": counts["base"][0], "new": counts["new"][0],
                "repeat_equal": all(first == again for first, again in counts.values()),
            }
    out = args.out or next_path()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
