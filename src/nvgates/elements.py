"""Passive linear-optical elements and single-spin operations.

Conventions (all sign choices matter for the downstream interference).  The
only mixing is the butterfly (x, y) -> ((x+y)/sqrt2, (x-y)/sqrt2) of
:func:`nvgates.state.butterfly` on pairs of amplitude slots; the rest moves
amplitudes between slots.

- HWP at 22.5 degrees (photon Hadamard): the butterfly on a mode's (R, L)
  slots, |R> -> |F> = (|R>+|L>)/sqrt2, |L> -> |S> = (|R>-|L>)/sqrt2; the F/S
  change of basis that detection uses.
- Spin Hadamard: the butterfly on a spin's (|+>, |->) slots, on whole rows
  paired by :func:`nvgates.state.spin_flip`, which NV scattering reads too.
- 50:50 BS, inputs (a, b), outputs (c, d): the butterfly of (b, a) onto
  (c, d), for both polarizations: b -> (c + d)/sqrt2, a -> (c - d)/sqrt2.
- PBS (R/L basis): slot moves, R transmits and L reflects with no phase:
  R@a -> c, L@a -> d, R@b -> d, L@b -> c.
- PBS in the F/S basis: HWP on its three wires, the input's F slot swapped
  with the F output's and its S slot with the S output's, then HWP back.
- Spin Paulis (feedforward corrections) in the {|+>, |->} basis:
  Z = |+><+| - |-><-| and -Z = -|+><+| + |-><-| (Z up to global phase; the
  distinction matters for feedforward bookkeeping).

Every routing element is realized as a genuine unitary on the whole mode
space: besides the forward routing above, content already sitting on an
output wire routes back to the matching input wire (a lossless device is
bidirectional).  In a well-formed feed-forward circuit output wires are
vacuum, so the backward direction never carries amplitude; the completion
matters only for norm preservation on arbitrary states.  The routing is
well defined only when an element's wires fit its form and its input and
output wires are one wire in place or all distinct; the kernels leave this
to the :class:`nvgates.netlist.Netlist` holding the element, which checks it.
Each rewrites a run's writable state in place and copies a read-only one first.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .cavity import ReflectionPair, scatter
from .state import L, PLUS, R, HybridState, butterfly, in_place, spin_flip


class Kind(Enum):
    """Element kinds; each value is the kind's ``.nv`` directive."""

    PBS_RL = "pbs"
    PBS_FS = "pbsfs"
    HWP = "hwp"
    BS5050 = "bs"
    NV_SCATTER = "nv"
    SPIN_H = "spinh"

    # Members compare by identity, so they may hash by it too; Enum's own
    # __hash__ is Python code, paid on every LAYOUTS lookup.
    __hash__ = object.__hash__


class Pauli(Enum):
    I = "I"
    Z = "Z"
    MINUS_Z = "-Z"


# Operand form of each kind's directive: ``in``/``out`` an input/output
# wire, ``m`` one wire rewritten in place, ``spin_k`` or ``k`` a spin index.
FORMS = {
    Kind.PBS_RL: "in in -> out out",
    Kind.PBS_FS: "in -> out out",
    Kind.HWP: "m",
    Kind.BS5050: "in in -> out out",
    Kind.NV_SCATTER: "m spin_k",
    Kind.SPIN_H: "k",
}


class _Layout(NamedTuple):
    """A form taken apart once, its tokens numbered along the whole line from
    the directive, token 0: token count, index of ``->``, ranges of the
    input and output wires, whether they are one wire rewritten in place,
    spin token index and prefix, an Element's (inputs, outputs, no spin)
    shape, and a ``format(*in_modes, *out_modes, spin)`` template."""

    n_tokens: int
    arrow: int | None
    ins: range
    outs: range
    in_place: bool  # also true of a kind without wires
    spin: int | None
    spin_prefix: str
    shape: tuple[int, int, bool]
    template: str


def _span(positions) -> range:
    return range(positions[0], positions[-1] + 1) if positions else range(0)


def _layout(kind: Kind, form: str) -> _Layout:
    toks = [kind.value, *form.split()]
    ins = [i for i, tok in enumerate(toks) if tok in ("in", "m")]
    outs = [i for i, tok in enumerate(toks) if tok in ("out", "m")]
    spin = next((i for i, tok in enumerate(toks) if tok in ("k", "spin_k")), None)
    prefix = "" if spin is None else toks[spin][:-1]
    fields = {i: f"{{{j}}}" for j, i in enumerate(ins + outs)}  # an m takes its output field
    if spin is not None:
        fields[spin] = f"{prefix}{{{len(ins) + len(outs)}}}"
    return _Layout(
        len(toks),
        toks.index("->") if "->" in toks else None,
        _span(ins),
        _span(outs),
        ins == outs,
        spin,
        prefix,
        (len(ins), len(outs), spin is None),
        " ".join(fields.get(i, tok) for i, tok in enumerate(toks)),
    )


LAYOUTS = {kind: _layout(kind, form) for kind, form in FORMS.items()}


class Element(NamedTuple):
    """One circuit component: its kind, input and output wire labels, and
    spin target, shaped as the kind's entry in :data:`FORMS`.  A plain
    record: :class:`nvgates.netlist.Netlist` checks it against its circuit."""

    kind: Kind
    in_modes: tuple[str, ...] = ()
    out_modes: tuple[str, ...] = ()
    spin: int | None = None


_PAULI_DIAG = {
    Pauli.Z: np.array([1.0, -1.0], dtype=complex),
    Pauli.MINUS_Z: np.array([-1.0, 1.0], dtype=complex),
}


def _rows(amps: np.ndarray, i: int, j: int) -> np.ndarray:
    """Modes ``i`` and ``j`` (distinct) of ``amps``, in that order, as one basic-slice view."""
    return amps[:, i :: j - i][:, :2]


@in_place
def apply_pbs_rl(state: HybridState, in_modes, out_modes) -> HybridState:
    """Route R to the same-index output and L to the opposite one.

    An input port that no photon reaches is a declared, never-occupied mode
    (a vacuum port).  The routing is a permutation of (polarization, wire)
    slots, swapping each input slot with its destination, so the operation
    is exactly unitary.
    """
    i0, i1, o0, o1 = map(state.mode_index, (*in_modes, *out_modes))
    a = state.amps
    rows = a.take((o0, o1, i0, i1), axis=1)  # R swaps i0, o0 and i1, o1; L swaps i0, o1 and i1, o0
    a[R, i0], a[R, i1], a[R, o0], a[R, o1] = rows[R, 0], rows[R, 1], rows[R, 2], rows[R, 3]
    a[L, i0], a[L, i1], a[L, o1], a[L, o0] = rows[L, 1], rows[L, 0], rows[L, 2], rows[L, 3]
    return state


@in_place
def apply_hwp(state: HybridState, mode) -> HybridState:
    """Photon Hadamard on one mode (half-wave plate at 22.5 degrees)."""
    mi = state.mode_index(mode)
    a = state.amps
    butterfly(a[R, mi], a[L, mi], a[R, mi], a[L, mi])
    return state


@in_place
def apply_bs(state: HybridState, in_modes, out_modes) -> HybridState:
    """Polarization-independent 50:50 beam splitter.

    Forward: in0 -> (out0 - out1)/sqrt2, in1 -> (out0 + out1)/sqrt2.  The
    backward direction is the Hermitian completion, making the element an
    involutory unitary on the four wires.
    """
    i0, i1, o0, o1 = map(state.mode_index, (*in_modes, *out_modes))
    a = state.amps
    # forward (i1, i0) -> (o0, o1) and backward (o0, o1) -> (i1, i0) at once
    butterfly(_rows(a, i1, o0), _rows(a, i0, o1), _rows(a, o0, i1), _rows(a, o1, i0))
    return state


@in_place
def apply_pbs_fs(state: HybridState, in_mode, out_modes) -> HybridState:
    """Split one mode into its F and S polarization components.

    The F output carries polarization (|R>+|L>)/sqrt2, the S output
    (|R>-|L>)/sqrt2.  Unitary completion: the F component of the F output
    and the S component of the S output swap back to the input wire.
    """
    i, f, s = map(state.mode_index, (in_mode, *out_modes))
    a = state.amps
    # (S out, F out, in, S out) in F/S: the new F of (in, F out, S out) is
    # the F of rows 1:4 and the new S is the S of rows 0:3
    rows = a.take((s, f, i, s), axis=1)
    butterfly(rows[R], rows[L], rows[R], rows[L])
    butterfly(rows[R, 1:], rows[L, :3], rows[R, :3], rows[L, :3])
    a[:, i], a[:, f], a[:, s] = rows[:, 0], rows[:, 1], rows[:, 2]
    return state


@in_place
def apply_spin_hadamard(state: HybridState, spin_index: int) -> HybridState:
    """Hadamard on one electron spin: (a+ + a-)/sqrt2 at |+>, (a+ - a-)/sqrt2 at |->."""
    partner, spin_is = spin_flip(state.n_spins, spin_index)
    a = state.amps
    u = a.take(partner, axis=-1)
    butterfly(u, a, u, a)  # u is right where spin k is |+>, a where |->
    np.copyto(a, u, where=spin_is[PLUS])
    return state


_PBS_RL, _PBS_FS, _HWP, _BS5050, _NV_SCATTER, _SPIN_H = Kind  # in definition order; cheaper than Kind.* lookups


def _apply_element(state: HybridState, el: Element, reflection: ReflectionPair) -> HybridState:
    """Dispatch one element of a checked :class:`nvgates.netlist.Netlist`, in place
    on a writable ``state``; NV scattering uses the given reflection pair."""
    kind = el.kind
    if kind is _PBS_RL:
        return apply_pbs_rl(state, el.in_modes, el.out_modes)
    if kind is _PBS_FS:
        return apply_pbs_fs(state, el.in_modes[0], el.out_modes)
    if kind is _HWP:
        return apply_hwp(state, el.in_modes[0])
    if kind is _BS5050:
        return apply_bs(state, el.in_modes, el.out_modes)
    if kind is _NV_SCATTER:
        return scatter(state, el.spin, el.in_modes[0], reflection)
    return apply_spin_hadamard(state, el.spin)  # _SPIN_H: a Netlist holds no other kind
