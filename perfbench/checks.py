"""Correctness checks on every item's output, run outside the timed region.

The dense reference is the repository's test oracle (``tests/oracle.py``),
which builds each element's matrix by index arithmetic with no code shared
with nvgates.  Its element matrices are applied one at a time to the input
vectors, which is ``oracle.apply_circuit`` evaluated right to left.  Inputs,
collapse, feedforward and the ideal gate action are rebuilt here from their
definitions in the README rather than taken from nvgates.

``Checker.check`` returns ``None`` for a correct output, else a short
reason.  The one known defect, an overlapping-wire netlist that raises a
bare ``WiringError`` instead of a located ``NetlistError``, is counted in
``Checker.known_defects`` and not as a failure: the text is still rejected,
only its diagnostic lacks a line and column.  The count is reported with
every run and as the per-layer metric ``netlist.parse.known_defect_frac``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from worker import ROOT

TOL = 1e-12
ORACLE_MAX_AMPS = 512
SWEEP_ORACLE_SHARE = 1 / 12
_B = 1.0 / math.sqrt(2.0)
# Ideal gate action as a map on spin-configuration bits (spin 0 is the most
# significant bit, bit 1 is |->): CNOT flips spin 1 if spin 0 is |->,
# Toffoli flips spin 2 if spins 0 and 1 are |->, Fredkin swaps spins 1 and 2
# if spin 0 is |->.
_IDEAL = {
    "cnot": (2, lambda c: c ^ 0b01 if c & 0b10 else c),
    "toffoli": (3, lambda c: c ^ 0b001 if (c & 0b110) == 0b110 else c),
    "fredkin": (3, lambda c: (c & 0b100) | ((c & 1) << 1) | ((c >> 1) & 1) if c & 0b100 else c),
}


def _in_unit_interval(x) -> bool:
    return isinstance(x, float) and -TOL <= x <= 1.0 + TOL


class Checker:
    def __init__(self, seed: int):
        sys.path.insert(0, str(ROOT / "tests"))
        import oracle
        from nvgates import cavity, gates, netlist

        self.oracle, self.cavity, self.gates, self.netlist = oracle, cavity, gates, netlist
        self.rng = np.random.default_rng([seed, 1])  # picks the sweep oracle subset
        self.oracle_checked = 0
        self.known_defects = 0  # overlap texts rejected by a bare WiringError
        self._circuits: dict = {}

    def check(self, item, out):
        if isinstance(out, tuple) and out and out[0] == "exception":
            return "exception: " + out[1].strip().splitlines()[-1]
        return getattr(self, "_" + item[0])(item, out)

    # -- sweep-random -----------------------------------------------------
    def _sweep(self, item, out):
        _, gate, ratio, trials, seed = item
        fid, eff = out
        if not (_in_unit_interval(fid) and _in_unit_interval(eff)):
            return f"value outside [0, 1]: fidelity {fid!r}, efficiency {eff!r}"
        if self.rng.random() >= SWEEP_ORACLE_SHARE:
            return None
        self.oracle_checked += 1
        ref_fid, ref_eff = self._sweep_reference(gate, ratio, trials, seed)
        if abs(fid - ref_fid) > TOL or abs(eff - ref_eff) > TOL:
            return f"oracle mismatch: fidelity {fid!r} vs {ref_fid!r}, efficiency {eff!r} vs {ref_eff!r}"
        return None

    def _sweep_reference(self, gate: str, ratio: float, trials: int, seed: int):
        net = self._circuits.get(gate)
        if net is None:
            net = self._circuits[gate] = self.gates.build_gate_circuit(gate)
        x = ratio * ratio
        pair = self.cavity.ReflectionPair(r_hot=complex((x - 0.25) / (x + 0.25)), r_cold=-1.0 + 0j)
        n_spins, ideal_map = _IDEAL[gate]
        n_cfg = 2**n_spins
        rng = np.random.default_rng(seed)  # the draw order of analysis' random inputs
        vectors, ideals = [], []
        for _ in range(trials):
            spin = np.ones(1, dtype=complex)
            for _ in range(n_spins):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                spin = np.kron(spin, v / np.linalg.norm(v))
            vectors.append(self._photon_at_input(net, spin))
            ideal = np.zeros(n_cfg, dtype=complex)
            for c in range(n_cfg):
                ideal[ideal_map(c)] = spin[c]
            ideals.append(ideal)
        final = self._oracle_apply(net, np.stack(vectors, axis=1), pair)
        fids, effs = [], []
        ff = dict(net.feedforward or ())
        for t in range(trials):
            amps = final[:, t].reshape(2, len(net.modes), n_cfg)
            effs.append(float(np.sum(np.abs(amps) ** 2)))
            weighted = total = 0.0
            for label, p, spin in self._collapse(net, amps):
                if p == 0.0:
                    continue
                for k, op in enumerate(ff.get(label, ())):
                    if op.value != "I":
                        bit = (np.arange(n_cfg) >> (n_spins - 1 - k)) & 1
                        sign = 1 - 2 * bit if op.value == "Z" else 2 * bit - 1
                        spin = spin * sign
                weighted += abs(np.vdot(ideals[t], spin)) ** 2
                total += p
            fids.append(weighted / total)
        return float(np.mean(fids)), float(np.mean(effs))

    # -- verify-cli -------------------------------------------------------
    def _verify(self, item, out):
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        if item[2] and "ideal-regime check: PASS" not in stdout:
            return "--ideal run did not print PASS"
        return None

    # -- netlist-oneshot --------------------------------------------------
    def _netlist(self, item, out):
        _, text, r_hot, expect = item
        if expect is not None:
            cls, kind, line = expect
            if out[0] != "error":
                return f"malformed ({cls}) text was accepted"
            _, etype, eline, ecol, ekind = out
            if cls == "overlap" and etype == "WiringError":
                self.known_defects += 1
                return None
            if etype != "NetlistError":
                return f"malformed ({cls}) text raised {etype}"
            if eline != line or not (isinstance(ecol, int) and ecol >= 1):
                return f"malformed ({cls}) text blamed line {eline} col {ecol}, expected line {line}"
            if kind is not None and ekind != kind:
                return f"malformed ({cls}) text gave diagnostic {ekind}, expected {kind}"
            return None
        if out[0] != "ok":
            return f"valid text raised {out[1]} at line {out[2]}"
        outcomes = out[1]
        nl = self.netlist
        net = nl.parse_netlist(text)
        if nl.parse_netlist(nl.serialize_netlist(net)) != net:
            return "parse(serialize(net)) != net"
        if [o[0] for o in outcomes] != [f"{b}{m}" for m in net.detectors for b in "FS"]:
            return "outcome labels do not follow the detectors"
        pair = self.cavity.ReflectionPair(r_hot=complex(r_hot), r_cold=-1.0 + 0j)
        n_cfg = 2**net.n_spins
        n_amps = 2 * len(net.modes) * n_cfg
        if n_amps <= ORACLE_MAX_AMPS:
            self.oracle_checked += 1
            spin = np.full(n_cfg, _B**net.n_spins, dtype=complex)
            final = self._oracle_apply(net, self._photon_at_input(net, spin)[:, None], pair)
            amps = final[:, 0].reshape(2, len(net.modes), n_cfg)
            norm = float(np.sum(np.abs(amps) ** 2))
            for (label, p, spins), (_, ref_p, ref_spin) in zip(outcomes, self._collapse(net, amps)):
                if abs(p - ref_p) > TOL or np.max(np.abs(spins * math.sqrt(p) - ref_spin)) > TOL:
                    return f"outcome {label} differs from the oracle"
        else:
            state = nl.apply_elements(net, nl.balanced_product_input(net), pair)
            norm = state.norm2()
        total = sum(o[1] for o in outcomes)
        if abs(total - norm) > TOL:
            return f"outcome probabilities sum to {total!r}, pre-detection norm is {norm!r}"
        if norm > 1.0 + TOL:
            return f"pre-detection norm {norm!r} exceeds 1"
        return None

    # -- shared dense helpers ---------------------------------------------
    def _oracle_apply(self, net, vectors, pair):
        for el in net.elements:
            vectors = self.oracle.element_matrix(el, net.modes, net.n_spins, pair) @ vectors
        return vectors

    @staticmethod
    def _photon_at_input(net, spin) -> np.ndarray:
        """Flattened state: photon (|R>+|L>)/sqrt2 on the first mode."""
        amps = np.zeros((2, len(net.modes), spin.size), dtype=complex)
        amps[:, 0, :] = _B * spin
        return amps.reshape(-1)

    @staticmethod
    def _collapse(net, amps):
        """(label, probability, unnormalized spin vector) per F/S outcome."""
        for mode in net.detectors:
            mi = net.modes.index(mode)
            for basis, sign in (("F", 1.0), ("S", -1.0)):
                spin = (amps[0, mi] + sign * amps[1, mi]) * _B
                yield f"{basis}{mode}", float(np.sum(np.abs(spin) ** 2)), spin
