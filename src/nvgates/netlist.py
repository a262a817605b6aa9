"""Line-oriented circuit description format (.nv) and its interpreter.

One directive per line, ``#`` starts a comment, UTF-8 with LF or CRLF line
endings, ASCII identifiers:

    spins N
    modes m1 m2 ...
    pbs in1 in2 -> out1 out2
    pbsfs in -> outF outS
    hwp m
    bs in1 in2 -> out1 out2
    nv m spin_k
    spinh k
    detect m
    feedforward OUTCOME: spin_k OP ...

Elements execute in file order.  The photon's path must be feed-forward: no
directive may read a mode whose only writers appear later in the file (PBS
and BS write their outputs; hwp and nv read and rewrite their mode in place,
so a wire keeps its label through them).  ``detect m`` declares an F/S
measurement station (a PBS in the F/S basis feeding two ideal detectors) on
mode ``m``; outcome labels are ``F<m>`` and ``S<m>``, and these labels key
the feedforward table.  Pauli tokens are ``I``, ``Z`` and ``-Z``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair
from .elements import _PAULI_DIAG, Element, Kind, Pauli, WiringError, apply_element
from .state import (
    DimensionMismatchError,
    HybridState,
    SpinState,
    make_product_state,
    partial_trace_photon_collapse,
)


class DiagnosticKind(Enum):
    UNKNOWN_DIRECTIVE = "unknown-directive"
    UNDECLARED_MODE = "undeclared-mode"
    ARITY_MISMATCH = "arity-mismatch"
    NON_TOPOLOGICAL = "non-topological"
    SPIN_RANGE = "spin-range"
    INVALID_TOKEN = "invalid-token"
    DUPLICATE_DECLARATION = "duplicate-declaration"
    MISSING_DECLARATION = "missing-declaration"
    UNKNOWN_OUTCOME = "unknown-outcome"


class NetlistError(ValueError):
    """Parse or validation failure with a diagnostic kind and location."""

    def __init__(self, kind: DiagnosticKind, line: int, column: int, message: str):
        super().__init__(f"line {line}, col {column}: {message} [{kind.value}]")
        self.kind = kind
        self.line = line
        self.column = column
        self.detail = message


FeedforwardRule = tuple[str, tuple[Pauli, ...]]


@dataclass(frozen=True)
class Netlist:
    """A validated circuit: spins, declared modes, ordered elements,
    F/S detector stations, and an optional feedforward table."""

    n_spins: int
    modes: tuple[str, ...]
    elements: tuple[Element, ...]
    detectors: tuple[str, ...]
    feedforward: tuple[FeedforwardRule, ...] | None = None

    @property
    def feedforward_map(self) -> dict[str, tuple[Pauli, ...]]:
        return dict(self.feedforward or ())

    @property
    def input_mode(self) -> str:
        """By convention the first declared mode is the circuit input."""
        return self.modes[0]

    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(f"{basis}{mode}" for mode in self.detectors for basis in ("F", "S"))


@dataclass(frozen=True)
class Outcome:
    """One detector result: its label, mode, basis state, probability and
    the (feedforward-corrected, renormalized) spin register state."""

    label: str
    mode: str
    basis: str
    probability: float
    spins: SpinState


def _tokenize(raw: str) -> list[tuple[str, int]]:
    """Split a source line into (token, 1-based column) pairs, dropping comments."""
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _parse_spin_token(tok: str, line: int, col: int) -> int:
    if not tok.startswith("spin_"):
        raise NetlistError(
            DiagnosticKind.INVALID_TOKEN, line, col, f"expected spin_<k>, got {tok!r}"
        )
    try:
        return int(tok[5:])
    except ValueError:
        raise NetlistError(
            DiagnosticKind.INVALID_TOKEN, line, col, f"bad spin index in {tok!r}"
        ) from None


def _parse_int(tok: str, line: int, col: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise NetlistError(
            DiagnosticKind.INVALID_TOKEN, line, col, f"{what} must be an integer, got {tok!r}"
        ) from None


def _expect_arrow(toks, pos: int, line: int, directive: str):
    if pos >= len(toks) or toks[pos][0] != "->":
        col = toks[pos][1] if pos < len(toks) else toks[-1][1] + len(toks[-1][0])
        raise NetlistError(
            DiagnosticKind.ARITY_MISMATCH, line, col, f"{directive} expects '->' here"
        )


# routing directive -> (element kind, input count, operand form); each writes
# two outputs.  pbs takes two inputs here although Element allows one:
# serialize_netlist writes every pbs in the two-input form.
_ROUTERS = {
    "pbs": (Kind.PBS_RL, 2, "in1 in2 -> out1 out2"),
    "bs": (Kind.BS5050, 2, "in1 in2 -> out1 out2"),
    "pbsfs": (Kind.PBS_FS, 1, "in -> outF outS"),
}


class _Parser:
    def __init__(self):
        self.n_spins: int | None = None
        self.modes: list[str] = []
        self.mode_set: set[str] = set()
        self.elements: list[Element] = []
        self.detectors: list[str] = []
        self.feedforward: list[FeedforwardRule] = []
        # (reader position, mode, line, col); elements and detect lines share
        # one position counter so the ordering check covers both.
        self.reads: list[tuple[int, str, int, int]] = []
        self.writes: dict[str, int] = {}  # mode -> first writer position
        self.position = 0
        self.ff_locations: list[tuple[str, int, int]] = []

    def require_modes(self, toks, line):
        for tok, col in toks:
            if tok not in self.mode_set:
                raise NetlistError(
                    DiagnosticKind.UNDECLARED_MODE, line, col, f"mode {tok!r} is not declared"
                )

    def require_spin(self, k: int, line: int, col: int):
        if self.n_spins is None:
            raise NetlistError(
                DiagnosticKind.MISSING_DECLARATION, line, col, "spins must be declared first"
            )
        if not 0 <= k < self.n_spins:
            raise NetlistError(
                DiagnosticKind.SPIN_RANGE,
                line,
                col,
                f"spin index {k} out of range for spins {self.n_spins}",
            )

    def record_reads(self, toks, line):
        for tok, col in toks:
            self.reads.append((self.position, tok, line, col))

    def record_writes(self, toks):
        for tok, _ in toks:
            self.writes.setdefault(tok, self.position)

    def add_element(self, el: Element, read_toks, write_toks, line):
        self.require_modes(read_toks + write_toks, line)
        self.record_reads(read_toks, line)
        self.record_writes(write_toks)
        self.elements.append(el)
        self.position += 1

    def finish(self, last_line: int) -> Netlist:
        if self.n_spins is None:
            raise NetlistError(
                DiagnosticKind.MISSING_DECLARATION, last_line, 1, "missing spins declaration"
            )
        if not self.modes:
            raise NetlistError(
                DiagnosticKind.MISSING_DECLARATION, last_line, 1, "missing modes declaration"
            )
        for pos, mode, line, col in self.reads:
            first_write = self.writes.get(mode)
            if first_write is not None and first_write > pos:
                raise NetlistError(
                    DiagnosticKind.NON_TOPOLOGICAL,
                    line,
                    col,
                    f"mode {mode!r} is read here but only written later",
                )
        labels = {f"{b}{m}" for m in self.detectors for b in ("F", "S")}
        for label, line, col in self.ff_locations:
            if label not in labels:
                raise NetlistError(
                    DiagnosticKind.UNKNOWN_OUTCOME,
                    line,
                    col,
                    f"feedforward outcome {label!r} matches no detector",
                )
        return Netlist(
            n_spins=self.n_spins,
            modes=tuple(self.modes),
            elements=tuple(self.elements),
            detectors=tuple(self.detectors),
            feedforward=tuple(self.feedforward) if self.feedforward else None,
        )


def parse_netlist(text: str) -> Netlist:
    """Parse and validate a netlist; raises :class:`NetlistError` with a
    diagnostic kind and line/column on the first problem found."""
    p = _Parser()
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last_line = lineno
        toks = _tokenize(raw)
        if not toks:
            continue
        (head, head_col), args = toks[0], toks[1:]

        if head == "spins":
            if len(args) != 1:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, "spins takes one count"
                )
            if p.n_spins is not None:
                raise NetlistError(
                    DiagnosticKind.DUPLICATE_DECLARATION, lineno, head_col, "spins already declared"
                )
            n = _parse_int(args[0][0], lineno, args[0][1], "spin count")
            if n <= 0:
                raise NetlistError(
                    DiagnosticKind.INVALID_TOKEN, lineno, args[0][1], "spin count must be positive"
                )
            p.n_spins = n

        elif head == "modes":
            if not args:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, "modes needs at least one label"
                )
            for tok, col in args:
                if tok in p.mode_set:
                    raise NetlistError(
                        DiagnosticKind.DUPLICATE_DECLARATION, lineno, col, f"mode {tok!r} redeclared"
                    )
                p.modes.append(tok)
                p.mode_set.add(tok)

        elif head in _ROUTERS:
            kind, n_in, form = _ROUTERS[head]
            if len(args) != n_in + 3:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, f"{head} expects: {head} {form}"
                )
            _expect_arrow(toks, n_in + 1, lineno, head)
            ins, outs = args[:n_in], args[n_in + 1 :]
            names, _ = zip(*args)
            try:
                el = Element(kind, names[:n_in], names[n_in + 1 :], line=lineno)
            except WiringError as exc:
                raise NetlistError(DiagnosticKind.ARITY_MISMATCH, lineno, head_col, str(exc)) from None
            p.add_element(el, ins, outs, lineno)

        elif head == "hwp":
            if len(args) != 1:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, "hwp expects: hwp m"
                )
            el = Element(Kind.HWP, (args[0][0],), (args[0][0],), line=lineno)
            # in-place: transforms the wire's content, introduces nothing,
            # so it does not count as a writer for the ordering check
            p.add_element(el, args, [], lineno)

        elif head == "nv":
            if len(args) != 2:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, "nv expects: nv m spin_k"
                )
            k = _parse_spin_token(args[1][0], lineno, args[1][1])
            p.require_spin(k, lineno, args[1][1])
            el = Element(Kind.NV_SCATTER, (args[0][0],), (args[0][0],), spin=k, line=lineno)
            p.add_element(el, args[:1], [], lineno)  # in-place, like hwp

        elif head == "spinh":
            if len(args) != 1:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, "spinh expects: spinh k"
                )
            k = _parse_int(args[0][0], lineno, args[0][1], "spin index")
            p.require_spin(k, lineno, args[0][1])
            p.elements.append(Element(Kind.SPIN_H, spin=k, line=lineno))
            p.position += 1

        elif head == "detect":
            if len(args) != 1:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, "detect expects: detect m"
                )
            tok, col = args[0]
            p.require_modes(args, lineno)
            if tok in p.detectors:
                raise NetlistError(
                    DiagnosticKind.DUPLICATE_DECLARATION, lineno, col, f"detector on {tok!r} redeclared"
                )
            p.record_reads(args, lineno)
            p.detectors.append(tok)
            p.position += 1

        elif head == "feedforward":
            if not args or not args[0][0].endswith(":"):
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH,
                    lineno,
                    head_col,
                    "feedforward expects: feedforward OUTCOME: spin_k OP ...",
                )
            label, label_col = args[0][0][:-1], args[0][1]
            if not label or label[0] not in ("F", "S"):
                raise NetlistError(
                    DiagnosticKind.INVALID_TOKEN, lineno, label_col, f"bad outcome label {label!r}"
                )
            body = args[1:]
            if len(body) % 2 != 0:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH,
                    lineno,
                    head_col,
                    "feedforward body must be spin/operator pairs",
                )
            if p.n_spins is None:
                raise NetlistError(
                    DiagnosticKind.MISSING_DECLARATION, lineno, head_col, "spins must be declared first"
                )
            ops = [Pauli.I] * p.n_spins
            seen: set[int] = set()
            for (sp_tok, sp_col), (op_tok, op_col) in zip(body[0::2], body[1::2]):
                k = _parse_spin_token(sp_tok, lineno, sp_col)
                p.require_spin(k, lineno, sp_col)
                if k in seen:
                    raise NetlistError(
                        DiagnosticKind.DUPLICATE_DECLARATION, lineno, sp_col, f"spin_{k} listed twice"
                    )
                seen.add(k)
                try:
                    ops[k] = Pauli(op_tok)
                except ValueError:
                    raise NetlistError(
                        DiagnosticKind.INVALID_TOKEN, lineno, op_col, f"unknown operator {op_tok!r}"
                    ) from None
            if any(label == existing for existing, _ in p.feedforward):
                raise NetlistError(
                    DiagnosticKind.DUPLICATE_DECLARATION, lineno, label_col, f"outcome {label!r} listed twice"
                )
            p.feedforward.append((label, tuple(ops)))
            p.ff_locations.append((label, lineno, label_col))

        else:
            raise NetlistError(
                DiagnosticKind.UNKNOWN_DIRECTIVE, lineno, head_col, f"unknown directive {head!r}"
            )

    return p.finish(last_line + 1)


def serialize_netlist(net: Netlist) -> str:
    """Canonical text form; ``parse_netlist(serialize_netlist(n)) == n``."""
    lines = [f"spins {net.n_spins}", "modes " + " ".join(net.modes)]
    for el in net.elements:
        if el.kind is Kind.PBS_RL:
            lines.append(f"pbs {el.in_modes[0]} {el.in_modes[1]} -> {el.out_modes[0]} {el.out_modes[1]}")
        elif el.kind is Kind.BS5050:
            lines.append(f"bs {el.in_modes[0]} {el.in_modes[1]} -> {el.out_modes[0]} {el.out_modes[1]}")
        elif el.kind is Kind.PBS_FS:
            lines.append(f"pbsfs {el.in_modes[0]} -> {el.out_modes[0]} {el.out_modes[1]}")
        elif el.kind is Kind.HWP:
            lines.append(f"hwp {el.in_modes[0]}")
        elif el.kind is Kind.NV_SCATTER:
            lines.append(f"nv {el.in_modes[0]} spin_{el.spin}")
        elif el.kind is Kind.SPIN_H:
            lines.append(f"spinh {el.spin}")
        else:
            raise ValueError(f"element kind {el.kind} has no netlist form")
    for mode in net.detectors:
        lines.append(f"detect {mode}")
    for label, ops in net.feedforward or ():
        body = " ".join(f"spin_{k} {op.value}" for k, op in enumerate(ops))
        lines.append(f"feedforward {label}: {body}")
    return "\n".join(lines) + "\n"


def load_netlist(path) -> Netlist:
    with open(path, encoding="utf-8") as fh:
        return parse_netlist(fh.read())


def _check_dimensions(net: Netlist, state: HybridState):
    if state.modes != net.modes or state.n_spins != net.n_spins:
        raise DimensionMismatchError(
            f"state on (modes={state.modes}, spins={state.n_spins}) does not match "
            f"netlist (modes={net.modes}, spins={net.n_spins})"
        )


def iter_element_states(net: Netlist, state: HybridState, reflection: ReflectionPair = IDEAL_PAIR):
    """Yield (element, state-after-element) while applying the circuit."""
    _check_dimensions(net, state)
    for el in net.elements:
        state = apply_element(state, el, reflection)
        yield el, state


def apply_elements(
    net: Netlist,
    state: HybridState,
    reflection: ReflectionPair = IDEAL_PAIR,
    upto: int | None = None,
) -> HybridState:
    """Apply the first ``upto`` elements (all, if None) and return the state."""
    _check_dimensions(net, state)
    elements = net.elements if upto is None else net.elements[:upto]
    for el in elements:
        state = apply_element(state, el, reflection)
    return state


def apply_spin_ops(spins: SpinState, ops) -> SpinState:
    """Apply per-spin Pauli corrections (I, Z, -Z) to a spin register state."""
    n = spins.n_spins
    ops = tuple(Pauli(op) for op in ops)
    if len(ops) != n:
        raise DimensionMismatchError(f"{len(ops)} operators for {n} spins")
    a = spins.amps
    for k, op in enumerate(ops):
        if op is not Pauli.I:
            a = (a.reshape(-1, 2, 1 << (n - 1 - k)) * _PAULI_DIAG[op][:, None]).reshape(-1)
    return SpinState(a)


def run_netlist(
    net: Netlist,
    state: HybridState,
    reflection: ReflectionPair = IDEAL_PAIR,
    apply_feedforward: bool = True,
) -> list[Outcome]:
    """Apply all elements, then enumerate every detector outcome.

    Each detector station measures its mode in the F/S basis; the returned
    spin states are renormalized and, when the netlist carries a feedforward
    table, corrected by the outcome's single-spin operations.  Outcome
    probabilities sum to the pre-detection squared norm when the detectors
    cover all occupied modes.
    """
    state = apply_elements(net, state, reflection)
    table = net.feedforward_map if apply_feedforward else {}
    outcomes = []
    for mode in net.detectors:
        for basis in ("F", "S"):
            prob, spins = partial_trace_photon_collapse(state, basis, mode)
            label = f"{basis}{mode}"
            ops = table.get(label)
            if ops is not None and not spins.is_null:
                spins = apply_spin_ops(spins, ops)
            outcomes.append(Outcome(label=label, mode=mode, basis=basis, probability=prob, spins=spins))
    return outcomes


def iter_nv_depths(net: Netlist):
    """Yield (position, element, depth) for each element in file order.

    ``depth`` maps each mode to the number of NV reflections on the photon
    path reaching it just before the element acts.  An NV element increments
    its mode's counter; PBS/BS outputs take the max over their inputs, whose
    counters reset because the amplitude has left them.  It is one dict,
    updated in place, so after the walk it holds the counts at the end of
    the circuit.
    """
    depth = dict.fromkeys(net.modes, 0)
    for pos, el in enumerate(net.elements):
        yield pos, el, depth
        if el.kind is Kind.NV_SCATTER:
            depth[el.in_modes[0]] += 1
        elif el.kind in (Kind.PBS_RL, Kind.BS5050, Kind.PBS_FS):
            d = max(depth[m] for m in el.in_modes)
            for m in el.in_modes:
                depth[m] = 0
            for m in el.out_modes:
                depth[m] = max(depth[m], d)


def max_nv_path_depth(net: Netlist) -> int:
    """Largest number of NV reflections along any single photon path that
    reaches a detector (any mode, if the circuit declares no detector)."""
    depth = dict.fromkeys(net.modes, 0)
    for _, _, depth in iter_nv_depths(net):
        pass
    return max(depth[m] for m in net.detectors or net.modes)


def nv_element_count(net: Netlist) -> int:
    return sum(1 for el in net.elements if el.kind is Kind.NV_SCATTER)


def balanced_product_input(net: Netlist, photon_mode: str | None = None) -> HybridState:
    """Photon (|R>+|L>)/sqrt2 at the input mode, every spin (|+>+|->)/sqrt2."""
    b = 1.0 / math.sqrt(2.0)
    return product_input(net, [(b, b)] * net.n_spins, photon_mode)


def product_input(net: Netlist, spin_pairs, photon_mode: str | None = None) -> HybridState:
    """Photon (|R>+|L>)/sqrt2 at the input mode with the given spin pairs."""
    b = 1.0 / math.sqrt(2.0)
    return make_product_state(
        (b, b),
        photon_mode if photon_mode is not None else net.input_mode,
        spin_pairs,
        net.modes,
    )


def widen(net: Netlist) -> Netlist:
    """``net`` on 2n spins, where spins n..2n-1 are idle ancillas.

    Elements keep their spin indices, and every feedforward rule gets ``I``
    on the ancillas, so no operation touches them.  See
    :func:`basis_response_input` for the state that makes this useful.
    """
    n = net.n_spins
    feedforward = None if net.feedforward is None else tuple(
        (label, ops + (Pauli.I,) * n) for label, ops in net.feedforward
    )
    return replace(net, n_spins=2 * n, feedforward=feedforward)


def basis_response_input(net: Netlist) -> HybridState:
    """Start state of ``widen(net)`` that runs every spin-basis input at once.

    Ancilla configuration c carries ``product_input(net, basis config c)``,
    so the state is sum_c |input_c>|c>, with squared norm 2**n.  The circuit
    is linear and leaves the ancillas idle, so after any run the amplitudes
    at ancilla configuration c are its response to basis input c, and its
    response to a spin input vector v is the contraction with v over the
    ancilla axis (the last axis of ``amps.reshape(..., 2**n)``).

    Every basis input holds the same photon amplitudes, at its own spin
    configuration, so they are taken from the all-|+> input and put on the
    diagonal (circuit configuration c, ancilla configuration c).
    """
    dim = 2**net.n_spins
    photon = product_input(net, [(1.0, 0.0)] * net.n_spins).amps[:, :, :1]
    amps = np.zeros((2, len(net.modes), dim, dim), dtype=complex)
    amps[:, :, range(dim), range(dim)] = photon
    return HybridState(net.modes, 2 * net.n_spins, amps.reshape(2, len(net.modes), dim * dim))


def outcome_maps(outcomes, n_spins: int) -> np.ndarray:
    """Per-outcome spin maps of a widened run, shape (outcomes, 2**n, 2**n).

    ``outcomes`` is ``run_netlist(widen(net), basis_response_input(net), ...)``;
    map o takes a spin input vector of the n circuit spins to outcome o's
    unnormalized, feedforward-corrected spin output, whose squared norm is
    the outcome's probability for that input.
    """
    dim = 2**n_spins
    return np.stack([math.sqrt(o.probability) * o.spins.amps.reshape(dim, dim) for o in outcomes])
