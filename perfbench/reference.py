"""A fixed reference task that measures how fast the machine is right now.

The gated times are CPU time, yet on a shared VM the CPU itself switches
between a fast and a slow speed (up to 1.7 times slower) every few seconds,
as other guests load the shared cores, caches and memory; CPU time does not
remove that.  So the worker runs this task after every item, and ``run.py``
expresses item times at a fixed machine speed: measured CPU time x
``REF_MS`` / (median CPU time of this task over the items around it,
``run.REF_WINDOW`` either side).  A faster or slower nvgates leaves this
task unchanged, because it uses no nvgates code: only Python objects, dict
lookups and complex numpy arrays, small and large, the mix nvgates' work is
made of.

``REF_MS`` is about the task's median CPU time on the machine the bounds
were set on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4, where it took 1.5 ms
in the host's quiet spells and 2.5 ms in its busy ones), so the gated item
times read as milliseconds of that machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REF_MS = 2.0  # CPU ms of ``reference_task`` on the reference machine
_S = 1.0 / math.sqrt(2.0)
_MODES = tuple(f"w{i}" for i in range(12))
_INDEX = {m: i for i, m in enumerate(_MODES)}
_AMPS = (np.arange(2 * len(_MODES) * 16) * (0.01 + 0.02j)).reshape(2, len(_MODES), 16)
_BIG = np.arange(8192) * (1e-4 + 0.5e-4j)


@dataclass(frozen=True)
class _Step:
    a: str
    b: str

    def __post_init__(self):
        object.__setattr__(self, "a", str(self.a))
        if self.a == self.b:
            raise ValueError("a step needs two distinct modes")


def reference_task(steps: int = 100, sweeps: int = 24) -> float:
    """A fixed amount of work; returns a checksum so none of it is skipped.

    ``steps`` small element-like updates (interpreter-bound) and ``sweeps``
    passes over a 128 KiB complex array (bandwidth-bound).  When the shared
    host slowed this VM down, the items slowed by 1.4-1.6 times, the
    interpreter-bound part alone by 1.7 and the array part by 1.3; the two
    are mixed about evenly so that the whole slows roughly as the items do.
    """
    amps = _AMPS.copy()
    n = len(_MODES)
    for k in range(steps):
        step = _Step(_MODES[k % n], _MODES[(5 * k + 1) % n])
        i, j = _INDEX[step.a], _INDEX[step.b]
        a, b = amps[:, i, :].copy(), amps[:, j, :].copy()
        amps[:, i, :] = (a + b) * _S
        amps[:, j, :] = (b - a) * _S
        amps[0, i], amps[1, i] = amps[1, i].copy(), amps[0, i].copy()
    big = _BIG.copy()
    for _ in range(sweeps):
        big = big * 0.7 + big[::-1] * 0.3
        big[::2] += np.abs(big[1::2])
    return float(np.sum(np.abs(amps) ** 2)) + float(big.real.sum())
