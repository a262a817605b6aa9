"""Independent brute-force evaluator used as a test oracle.

Builds explicit dense matrices for each circuit element by direct index
arithmetic on the flattened (polarization, mode, spin-config) basis, with no
code shared with the package's element implementations.  Intentionally slow
and literal.
"""

from __future__ import annotations

import math

import numpy as np

from nvgates.elements import Kind, Pauli
from nvgates.netlist import Netlist

SQ2 = 1.0 / math.sqrt(2.0)


def dim(n_modes: int, n_spins: int) -> int:
    return 2 * n_modes * (2**n_spins)


def flat(pol: int, mode: int, cfg: int, n_modes: int, n_cfg: int) -> int:
    return (pol * n_modes + mode) * n_cfg + cfg


def element_matrix(el, modes, n_spins: int, reflection) -> np.ndarray:
    """Dense matrix of one element on the full hybrid space."""
    n_modes = len(modes)
    n_cfg = 2**n_spins
    d = dim(n_modes, n_spins)
    idx = {m: i for i, m in enumerate(modes)}
    mat = np.zeros((d, d), dtype=complex)

    if el.kind is Kind.PBS_RL:
        ins = [idx[m] for m in el.in_modes]
        outs = [idx[m] for m in el.out_modes]
        routed = {}
        for k, mi in enumerate(ins):
            routed[(0, mi)] = (0, outs[k])        # R transmits
            routed[(1, mi)] = (1, outs[1 - k])    # L reflects
            routed[(0, outs[k])] = (0, mi)        # backward direction
            routed[(1, outs[1 - k])] = (1, mi)
        for pol in (0, 1):
            for mi in range(n_modes):
                tgt = routed.get((pol, mi), (pol, mi))
                for cfg in range(n_cfg):
                    mat[flat(tgt[0], tgt[1], cfg, n_modes, n_cfg), flat(pol, mi, cfg, n_modes, n_cfg)] = 1.0

    elif el.kind is Kind.HWP:
        m = idx[el.in_modes[0]]
        for pol in (0, 1):
            for mi in range(n_modes):
                for cfg in range(n_cfg):
                    src = flat(pol, mi, cfg, n_modes, n_cfg)
                    if mi != m:
                        mat[src, src] = 1.0
                    elif pol == 0:  # R -> (R+L)/sqrt2
                        mat[flat(0, m, cfg, n_modes, n_cfg), src] += SQ2
                        mat[flat(1, m, cfg, n_modes, n_cfg), src] += SQ2
                    else:           # L -> (R-L)/sqrt2
                        mat[flat(0, m, cfg, n_modes, n_cfg), src] += SQ2
                        mat[flat(1, m, cfg, n_modes, n_cfg), src] -= SQ2

    elif el.kind is Kind.BS5050:
        a, b = (idx[m] for m in el.in_modes)
        c, dd = (idx[m] for m in el.out_modes)
        for pol in (0, 1):
            for mi in range(n_modes):
                for cfg in range(n_cfg):
                    src = flat(pol, mi, cfg, n_modes, n_cfg)
                    if mi == a:  # minus on the second output
                        mat[flat(pol, c, cfg, n_modes, n_cfg), src] += SQ2
                        mat[flat(pol, dd, cfg, n_modes, n_cfg), src] -= SQ2
                    elif mi == b:
                        mat[flat(pol, c, cfg, n_modes, n_cfg), src] += SQ2
                        mat[flat(pol, dd, cfg, n_modes, n_cfg), src] += SQ2
                    elif mi == c:  # backward: Hermitian completion
                        mat[flat(pol, a, cfg, n_modes, n_cfg), src] += SQ2
                        mat[flat(pol, b, cfg, n_modes, n_cfg), src] += SQ2
                    elif mi == dd:
                        mat[flat(pol, a, cfg, n_modes, n_cfg), src] -= SQ2
                        mat[flat(pol, b, cfg, n_modes, n_cfg), src] += SQ2
                    else:
                        mat[src, src] = 1.0

    elif el.kind is Kind.PBS_FS:
        m = idx[el.in_modes[0]]
        of, os_ = (idx[x] for x in el.out_modes)
        for pol in (0, 1):
            for mi in range(n_modes):
                for cfg in range(n_cfg):
                    src = flat(pol, mi, cfg, n_modes, n_cfg)
                    # |R> = (|F>+|S>)/sqrt2, |L> = (|F>-|S>)/sqrt2; the F
                    # output keeps polarization (R+L)/sqrt2, S keeps (R-L)/sqrt2.
                    # Backward: F of the F-output and S of the S-output swap
                    # back to the input wire; S of F-output and F of S-output
                    # stay put.
                    s_sign = 1.0 if pol == 0 else -1.0
                    if mi == m:
                        mat[flat(0, of, cfg, n_modes, n_cfg), src] += 0.5
                        mat[flat(1, of, cfg, n_modes, n_cfg), src] += 0.5
                        mat[flat(0, os_, cfg, n_modes, n_cfg), src] += 0.5 * s_sign
                        mat[flat(1, os_, cfg, n_modes, n_cfg), src] -= 0.5 * s_sign
                    elif mi == of:
                        # F component -> input wire; S component stays on of
                        mat[flat(0, m, cfg, n_modes, n_cfg), src] += 0.5
                        mat[flat(1, m, cfg, n_modes, n_cfg), src] += 0.5
                        mat[flat(0, of, cfg, n_modes, n_cfg), src] += 0.5 * s_sign
                        mat[flat(1, of, cfg, n_modes, n_cfg), src] -= 0.5 * s_sign
                    elif mi == os_:
                        # S component -> input wire; F component stays on os
                        mat[flat(0, m, cfg, n_modes, n_cfg), src] += 0.5 * s_sign
                        mat[flat(1, m, cfg, n_modes, n_cfg), src] -= 0.5 * s_sign
                        mat[flat(0, os_, cfg, n_modes, n_cfg), src] += 0.5
                        mat[flat(1, os_, cfg, n_modes, n_cfg), src] += 0.5
                    else:
                        mat[src, src] = 1.0

    elif el.kind is Kind.NV_SCATTER:
        m = idx[el.in_modes[0]]
        bit_shift = n_spins - 1 - el.spin
        for pol in (0, 1):
            for mi in range(n_modes):
                for cfg in range(n_cfg):
                    src = flat(pol, mi, cfg, n_modes, n_cfg)
                    if mi != m:
                        mat[src, src] = 1.0
                        continue
                    spin_bit = (cfg >> bit_shift) & 1
                    hot = (pol == 0 and spin_bit == 0) or (pol == 1 and spin_bit == 1)
                    mat[src, src] = reflection.r_hot if hot else reflection.r_cold
    elif el.kind is Kind.SPIN_H:
        bit_shift = n_spins - 1 - el.spin
        for pol in (0, 1):
            for mi in range(n_modes):
                for cfg in range(n_cfg):
                    src = flat(pol, mi, cfg, n_modes, n_cfg)
                    spin_bit = (cfg >> bit_shift) & 1
                    flipped = cfg ^ (1 << bit_shift)
                    # columns of H: |+> -> (|+>+|->)/sqrt2, |-> -> (|+>-|->)/sqrt2
                    mat[flat(pol, mi, cfg if spin_bit == 0 else flipped, n_modes, n_cfg), src] += SQ2
                    sign = 1.0 if spin_bit == 0 else -1.0
                    mat[flat(pol, mi, flipped if spin_bit == 0 else cfg, n_modes, n_cfg), src] += sign * SQ2

    else:
        raise ValueError(f"no oracle matrix for {el.kind}")

    return mat


def circuit_matrix(net: Netlist, reflection) -> np.ndarray:
    """Product of all element matrices in application order."""
    d = dim(len(net.modes), net.n_spins)
    total = np.eye(d, dtype=complex)
    for el in net.elements:
        total = element_matrix(el, net.modes, net.n_spins, reflection) @ total
    return total


def apply_circuit(net: Netlist, state, reflection) -> np.ndarray:
    """Flattened output amplitudes of the whole circuit, oracle route."""
    return circuit_matrix(net, reflection) @ state.amps.reshape(-1)


def detect(net: Netlist, amps) -> list[tuple[str, float, np.ndarray]]:
    """(label, probability, spin amplitudes) of every detector outcome of the
    final amplitudes ``amps``, shape (2, modes, 2**n), from the definitions:
    F = (R+L)/sqrt2 and S = (R-L)/sqrt2 projected out of the detector's mode,
    then the outcome's feedforward operators, with Z = diag(1, -1) and
    -Z = diag(-1, 1) on their spin.  The spin amplitudes stay unnormalized,
    so their squared norm is the probability."""
    n = net.n_spins
    feedforward = dict(net.feedforward or ())
    bits = (np.arange(2**n)[:, None] >> (n - 1 - np.arange(n))) & 1
    outcomes = []
    for mode in net.detectors:
        mi = net.modes.index(mode)
        for basis, sign in (("F", 1.0), ("S", -1.0)):
            label = f"{basis}{mode}"
            spins = (amps[0, mi] + sign * amps[1, mi]) * SQ2
            for k, op in enumerate(feedforward.get(label, ())):
                if op is Pauli.Z:
                    spins = spins * (1 - 2 * bits[:, k])
                elif op is Pauli.MINUS_Z:
                    spins = spins * (2 * bits[:, k] - 1)
            outcomes.append((label, float(np.sum(np.abs(spins) ** 2)), spins))
    return outcomes
