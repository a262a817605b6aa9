"""The process that runs nvgates for one benchmark run.

``run.py`` starts it, sends it one item at a time over stdin and reads the
item's cost and output back from stdout (length-prefixed pickles), so the
worker holds nothing but nvgates and the item being run: its peak RSS is the
workload's, and the correctness checks run in the parent while the worker
waits.  The timed region is the nvgates call alone.

Item and set-up times are CPU seconds of the worker (all its threads, plus
any children it waited for), the measure the gated metrics use.  On a shared
VM, wall time also counts the time the host gives the CPU to other guests
(the steal column of /proc/stat), which spreads wall-time tails several
times wider than CPU-time tails for the same work.  Wall time is sent along
and reported ungated.  After each item the worker also times the fixed
reference task (``reference.py``), outside the item's timed region, so
that ``run.py`` can correct for the machine's current speed.

    python3 worker.py WORKLOAD [--trace]     serve items
    python3 worker.py --probe-setup WORKLOAD print one set-up CPU time in seconds
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import resource
import struct
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

from reference import reference_task

ROOT = Path(__file__).resolve().parent.parent
_LEN = struct.Struct("<I")


def cpu_seconds() -> float:
    """CPU time of this process's threads and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def send(fh, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(_LEN.pack(len(data)) + data)
    fh.flush()


def recv(fh):
    head = fh.read(_LEN.size)
    if len(head) < _LEN.size:
        raise EOFError("peer closed the pipe")
    (size,) = _LEN.unpack(head)
    return pickle.loads(fh.read(size))


def import_nvgates():
    """Import nvgates from this checkout's ``src/``, never from elsewhere."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import nvgates

    if Path(nvgates.__file__).resolve().parent != ROOT / "src" / "nvgates":
        raise RuntimeError(f"nvgates imported from {nvgates.__file__}, not from this checkout")


def prepare(workload: str):
    """Import nvgates and build what the workload needs before its first
    item; returns a function that runs one item and returns its output."""
    import_nvgates()
    if workload == "sweep-random":
        from nvgates import analysis, gates

        for gate in gates.GATE_NAMES:
            gates.build_gate_circuit(gate)

        def run(item):
            _, gate, ratio, trials, seed = item
            (rec,) = analysis.sweep([gate], [ratio], "random", trials=trials, seed=seed)
            return rec.fidelity_sim, rec.efficiency_sim

    elif workload == "verify-cli":
        from nvgates import cli

        def run(item):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(item[1])
            return code, out.getvalue(), err.getvalue()

    elif workload == "netlist-oneshot":
        from nvgates import cavity, netlist

        def run(item):
            _, text, r_hot, _ = item
            try:
                net = netlist.parse_netlist(text)
            except Exception as exc:  # the checker decides which errors are right
                return ("error", type(exc).__name__, getattr(exc, "line", None),
                        getattr(exc, "column", None), getattr(getattr(exc, "kind", None), "value", None))
            state = netlist.balanced_product_input(net)
            outcomes = netlist.run_netlist(net, state, cavity.resonant_pair(r_hot))
            return ("ok", [(o.label, o.probability, o.spins.amps) for o in outcomes])

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


def serve(workload: str, trace: bool) -> None:
    # Keep the protocol on a private copy of stdout; stray prints go to stderr.
    proto_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    proto_in = sys.stdin.buffer
    tracer = None
    if trace:
        from tracing import Tracer

        import_nvgates()
        tracer = Tracer()
        tracer.install()  # set-up is traced too: gates.build happens there
    run = prepare(workload)
    send(proto_out, "ready")

    def run_reporting(item):
        # An exception is an output like any other: the checker fails the item.
        try:
            return run(item)
        except Exception:
            return ("exception", traceback.format_exc())

    n = 0
    while (item := recv(proto_in)) is not None:
        if tracer is None:
            c0, w0 = cpu_seconds(), perf_counter()
            out = run_reporting(item)
            c1, w1 = cpu_seconds(), perf_counter()
            reference_task()
            c2 = cpu_seconds()
            send(proto_out, ((c1 - c0, w1 - w0, c2 - c1), out))
        else:
            # The same item untraced and traced, alternating which goes first.
            times, outs = {}, {}
            for traced in ((False, True) if n % 2 else (True, False)):
                if traced:
                    tracer.install()
                    tracer.start_item(n)
                else:
                    tracer.uninstall()
                c0 = cpu_seconds()
                outs[traced] = run_reporting(item)
                times[traced] = cpu_seconds() - c0
            tracer.uninstall()
            send(proto_out, ((times[True], times[False]), outs[True]))
        n += 1
    final = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final.update(tracer.summary())
    send(proto_out, final)


def probe_setup(workload: str) -> None:
    # numpy is already loaded (``reference`` imports it): set-up is nvgates'
    # own import and preparation, not that of its dependency.
    c0 = cpu_seconds()
    prepare(workload)
    print(repr(cpu_seconds() - c0))


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    if sys.argv[1] == "--probe-setup":
        probe_setup(sys.argv[2])
    else:
        serve(sys.argv[1], trace="--trace" in sys.argv[2:])
