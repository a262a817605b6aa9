"""nvgates benchmark: end-to-end rates and a traced per-layer breakdown.

    python3 perfbench/run.py --workload sweep-random --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One run serves one workload (see
``items.py``) in a closed loop, one item at a time, for ``--seconds`` of
wall time, and checks every item's output (``checks.py``) outside the timed
region.  Item and set-up times are CPU time of the process that runs
nvgates (``worker.py`` says why), scaled to a fixed machine speed by a
reference task timed after every item (``reference.py``); raw CPU and
wall-clock figures are reported too.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each item
untraced and traced and reports the per-layer metrics (``tracing.py``) and
the layer -> metric -> workload predictions.

Everything printed before the last line is a report for people (metrics
with units and sample counts, provenance, failures); the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
nvgates runs pinned to one CPU, with BLAS/OpenMP threads capped at 1.
Exits with code 2 and no result when the checkout lacks ``src/nvgates`` or
``tests/oracle.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 20131001  # keep for confirming a claim; do not tune on it
SETUP_REPEATS = 16  # fresh interpreters, spread evenly over the run's items
REF_WINDOW = 3  # items either side whose reference times scale an item's time
# String hashing is salted per process unless fixed, and the salt alone moves
# an item's time by up to 10% from one worker process to the next.
WORKER_HASH_SEED = "0"
WORKER_CPU = 0  # set by pin_and_cap_threads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_and_cap_threads() -> tuple[int, int, int]:
    """Choose the CPU for nvgates and cap every BLAS/OpenMP pool at one
    thread; must run before numpy loads.  Returns (CPUs available, the CPU
    the worker and set-up probes are pinned to, the thread cap).

    On a shared VM the CPUs run at different speeds from moment to moment,
    and a fresh interpreter started on another CPU than the items' took
    twice as long to set up; on one CPU, items, the reference task and
    set-up all see the same machine.  This harness keeps to another CPU, if
    there is one, so that checking an output does not evict the worker's
    caches.
    """
    global WORKER_CPU
    cpus = sorted(os.sched_getaffinity(0))
    WORKER_CPU = cpus[-1]
    os.sched_setaffinity(0, {cpus[0]})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(cpus), WORKER_CPU, 1


def pin_to_worker_cpu() -> None:
    os.sched_setaffinity(0, {WORKER_CPU})


def worker_env() -> dict:
    return {**os.environ, "PYTHONHASHSEED": WORKER_HASH_SEED}


def git_sha() -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nvgates").rglob("*")):
        if path.suffix in (".py", ".nv"):
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def probe_setup(workload: str) -> float:
    """Set-up CPU time of a fresh interpreter, import nvgates -> first item ready."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--probe-setup", workload],
        capture_output=True, text=True, timeout=120, check=True, env=worker_env(),
        preexec_fn=pin_to_worker_cpu,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def local_median(values: list[float], i: int) -> float:
    """Median of ``values`` over the REF_WINDOW items either side of item ``i``."""
    return statistics.median(values[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])


def p95(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 95th percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.95 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def serve_items(workload: str, seed: int, seconds: float, trace: bool):
    """Drive a worker process through the workload's items for ``seconds``.

    Untraced, it also measures set-up SETUP_REPEATS times between items,
    evenly over the run, so that set-up sees the same machine speed as the
    items around it.  Returns (per-item timings, failure reasons, worker's
    final report, the checker, set-up probes as (CPU s, index of the next
    item)).  The worker is always stopped and waited for.
    """
    import items
    from checks import Checker
    from worker import import_nvgates, recv, send

    import_nvgates()
    checker = Checker(seed)
    stream = items.STREAMS[workload](seed)
    cmd = [sys.executable, str(HERE / "worker.py"), workload] + (["--trace"] if trace else [])
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=worker_env(),
                            preexec_fn=pin_to_worker_cpu)
    timings, failures, setups = [], [], []
    try:
        if recv(proc.stdout) != "ready":
            raise RuntimeError("worker did not start")
        start = perf_counter()
        deadline = start + seconds
        probe_at = [] if trace else [start + (k + 0.5) * seconds / SETUP_REPEATS
                                     for k in range(SETUP_REPEATS)]
        while not timings or perf_counter() < deadline:
            while probe_at and perf_counter() >= probe_at[0]:
                probe_at.pop(0)
                setups.append((probe_setup(workload), len(timings)))
            item = next(stream)
            send(proc.stdin, item)
            elapsed, out = recv(proc.stdout)
            timings.append(elapsed)
            reason = checker.check(item, out)
            if reason is not None:
                failures.append(reason)
        for _ in probe_at:  # items ran past the deadline; finish the probes
            setups.append((probe_setup(workload), len(timings) - 1))
        send(proc.stdin, None)
        final = recv(proc.stdout)
        proc.stdin.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return timings, failures, final, checker, setups


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(timings, failures, final, setups) -> tuple[dict, list[str]]:
    """Item and set-up times are CPU times at the reference machine's speed:
    each is scaled by REF_MS / the reference task's CPU time around it
    (``reference.py``), for a set-up probe that of the items next to it."""
    from reference import REF_MS

    ref = [r for _, _, r in timings]
    ref_ms = statistics.median(ref) * 1e3
    cpu = [c * REF_MS / (local_median(ref, i) * 1e3) for i, (c, _, _) in enumerate(timings)]
    setup = [c * REF_MS / (local_median(ref, i) * 1e3) for c, i in setups]
    wall = [w for _, w, _ in timings]
    n = len(cpu)
    p95_s, beyond = p95(cpu)
    metrics = {
        "items_per_s": metric(n / sum(cpu), "1/s"),
        "item_ms_p50": metric(statistics.median(cpu) * 1e3, "ms"),
        "item_ms_p95": metric(p95_s * 1e3, "ms"),
        "peak_rss_mb": metric(final["maxrss_kb"] / 1024.0, "MB"),
        "ok_frac": metric((n - len(failures)) / n, "frac"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    notes = {
        "items_per_s": f"{n} items / {sum(cpu):.3f} s",
        "item_ms_p50": f"n={n}",
        "item_ms_p95": f"n={n}, {beyond} samples beyond",
        "peak_rss_mb": "worker process ru_maxrss",
        "ok_frac": f"1 - fail_frac, {len(failures)} failed of {n}",
        "setup_s": f"median of {len(setup)} fresh interpreters",
    }
    raw_cpu = [c for c, _, _ in timings]
    lines = [f"  {k:<14} {v['value']:>12.6g} {v['unit']:<5} ({notes[k]})" for k, v in metrics.items()]
    lines += [
        f"  times above are CPU time x {REF_MS} ms / the reference task's CPU time around the item or probe "
        f"(median of {2 * REF_WINDOW + 1}); the task took {ref_ms:.4f} ms (median) in this run",
        f"  raw CPU (not gated): {n / sum(raw_cpu):.6g} items/s, p50 {statistics.median(raw_cpu) * 1e3:.6g} ms, "
        f"p95 {p95(raw_cpu)[0] * 1e3:.6g} ms, setup {statistics.median(c for c, _ in setups):.6g} s",
        f"  wall clock (not gated): {n / sum(wall):.6g} items/s, "
        f"p50 {statistics.median(wall) * 1e3:.6g} ms, p95 {p95(wall)[0] * 1e3:.6g} ms",
    ]
    return metrics, lines


def per_layer(workload, timings, final, known_defects) -> tuple[dict, list[str]]:
    from tracing import NONZERO, PREDICTIONS

    n = len(timings)
    traced = sum(t for t, _ in timings)
    untraced = sum(u for _, u in timings)
    metrics, lines = {}, [f"  {'layer':<22} {'calls':>9} {'self_s':>10} {'us/call':>9} {'share':>7}"]
    for layer, (calls, self_s) in final["layers"].items():
        metrics[f"{layer}.calls"] = metric(calls / n, "calls/item")
        metrics[f"{layer}.self_s"] = metric(self_s / n, "s/item")
        per_call = f"{self_s / calls * 1e6:9.1f}" if calls else f"{'-':>9}"
        lines.append(f"  {layer:<22} {calls:>9} {self_s:>10.4f} {per_call} {self_s / traced:>7.1%}")
    metrics["elements.amps_touched"] = metric(final["amps_touched"] / n, "amps/item")
    metrics["netlist.apply.unique_ratio"] = metric(final["apply_unique"] / final["apply_calls"], "frac")
    metrics["trace.overhead_frac"] = metric((traced - untraced) / untraced, "frac")
    metrics["netlist.parse.known_defect_frac"] = metric(known_defects / n, "frac")
    lines += [
        f"  traced {traced:.4f} CPU s, untraced {untraced:.4f} CPU s over the same {n} items, "
        f"{final['spans']} spans",
        f"  elements.amps_touched is computed (sum of state amplitudes over element calls), "
        f"not timed: {final['amps_touched']}",
        f"  netlist.apply.unique_ratio = {final['apply_unique']} distinct (circuit, reflection, input) "
        f"/ {final['apply_calls']} apply_elements calls, distinct within each item",
        "  predictions (layer metrics -> end-to-end metrics they should move -> workloads):",
    ]
    for layer_metrics, e2e, moves, still in PREDICTIONS:
        tail = f"; no change on {', '.join(still)}" if still else ""
        lines.append(f"    {layer_metrics} -> {e2e} -> {', '.join(moves)}{tail}")
    silent = sorted(layer for layer in NONZERO[workload] if final["layers"][layer][0] == 0)
    if silent:
        raise RuntimeError(f"layers predicted to be busy recorded no calls: {', '.join(silent)}")
    return metrics, lines


def main(argv=None) -> int:
    nproc, cpu, blas_cap = pin_and_cap_threads()
    sys.path.insert(0, str(HERE))
    import numpy

    import items

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=items.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "nvgates" / "__init__.py", ROOT / "tests" / "oracle.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from an nvgates checkout",
                  file=sys.stderr)
            return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    provenance = {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": items.WORKLOAD_PARAMS[args.workload],
        "nproc": nproc,
        "worker_cpu": cpu,
        "blas_threads": blas_cap,
        "worker_hash_seed": WORKER_HASH_SEED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    try:
        if args.trace:
            timings, failures, final, checker, _ = serve_items(
                args.workload, args.seed, args.seconds, trace=True)
            metrics, lines = per_layer(args.workload, timings, final, checker.known_defects)
        else:
            timings, failures, final, checker, setups = serve_items(
                args.workload, args.seed, args.seconds, trace=False)
            metrics, lines = end_to_end(timings, failures, final, setups)
    except (RuntimeError, OSError, EOFError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n = len(timings)
    defects = checker.known_defects
    print(f"# nvgates benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, closed loop, 1 client")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(*lines, sep="\n")
    print(f"  checks: attempted {n}, failed {len(failures)}, fail_frac {len(failures) / n:.6f}, "
          f"oracle-compared {checker.oracle_checked}")
    print(f"  known defect, not counted as failed: {defects} items ({defects / n:.6f}) are overlapping-wire "
          f"texts rejected by a bare WiringError with no line or column")
    for reason in sorted(set(failures)):
        print(f"  failure x{failures.count(reason)}: {reason}")
    result = {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
