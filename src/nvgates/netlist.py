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

Element operands follow the kind's form in :data:`nvgates.elements.FORMS`,
which the parser and :func:`serialize_netlist` both read; ``pbs`` and ``bs``
take two inputs, so an unused port is a declared mode nothing occupies.  A
state of more than :data:`MAX_AMPLITUDES` (2 * |modes| * 2**N) amplitudes
is rejected at the spin count.

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
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair
from .elements import _PAULI_DIAG, FORMS, LAYOUTS, Element, Kind, Pauli, WiringError, apply_element
from .state import (
    DimensionMismatchError,
    HybridState,
    SpinState,
    make_product_state,
    partial_trace_photon_collapse,
)

MAX_AMPLITUDES = 2**24  # largest state (2 * |modes| * 2**spins) a netlist may declare


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
    # memo of nvgates.analysis.compile_circuit, keyed by r_cold; one entry at most
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def feedforward_map(self) -> dict[str, tuple[Pauli, ...]]:
        return dict(self.feedforward or ())

    @property
    def input_mode(self) -> str:
        """By convention the first declared mode is the circuit input."""
        return self.modes[0]

    def outcome_labels(self) -> tuple[str, ...]:
        return tuple(f"{basis}{mode}" for mode in self.detectors for basis in ("F", "S"))


@dataclass(frozen=True, eq=False)
class Outcome:
    """One detector result: its label (F or S, then the mode), probability,
    and read-only, feedforward-corrected spin ``amps``, unnormalized."""

    label: str
    probability: float
    amps: np.ndarray

    @property
    def spins(self) -> SpinState:
        """The renormalized spin state; null when the probability is 0."""
        if self.probability <= 0.0:
            return SpinState(np.zeros_like(self.amps))
        return SpinState(self.amps / math.sqrt(self.probability))


def _tokenize(raw: str) -> list[tuple[str, int]]:
    """Split a source line into (token, 1-based column) pairs, dropping comments."""
    code = raw.split("#", 1)[0]
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _parse_int(tok: str, line: int, col: int, prefix: str = "") -> int:
    """Integer k of a ``<prefix><k>`` token, such as ``3`` or ``spin_3``."""
    try:
        if tok.startswith(prefix):
            return int(tok[len(prefix) :])
    except ValueError:
        pass
    raise NetlistError(DiagnosticKind.INVALID_TOKEN, line, col, f"expected {prefix}<integer>, got {tok!r}")


_DIRECTIVES = {kind.value: (kind, layout) for kind, layout in LAYOUTS.items()}


class _Parser:
    def __init__(self):
        self.n_spins: int | None = None
        self.spins_at = (0, 0)  # line and column of the spin count
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

    def spin_index(self, token, line: int, prefix: str) -> int:
        """The spin a ``(<prefix><k>, column)`` token names, after ``spins``."""
        tok, col = token
        k = _parse_int(tok, line, col, prefix)
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
        return k

    def check_size(self):
        n, modes = self.n_spins, max(len(self.modes), 1)
        # an n that exceeds the cap alone is refused before 2**n is formed
        if n is not None and (n >= MAX_AMPLITUDES.bit_length() or 2 * modes << n > MAX_AMPLITUDES):
            raise NetlistError(
                DiagnosticKind.SPIN_RANGE, *self.spins_at,
                f"spins {n} with {modes} modes exceeds the cap of {MAX_AMPLITUDES} amplitudes (2*modes*2**spins)",
            )

    def record_reads(self, toks, line):
        for tok, col in toks:
            self.reads.append((self.position, tok, line, col))

    def add_element(self, el: Element, read_toks, write_toks, line):
        self.require_modes(read_toks + write_toks, line)
        self.record_reads(read_toks, line)
        for tok, _ in write_toks:
            self.writes.setdefault(tok, self.position)
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
        net = Netlist(
            self.n_spins, tuple(self.modes), tuple(self.elements), tuple(self.detectors), tuple(self.feedforward) or None
        )
        labels = set(net.outcome_labels())
        for label, line, col in self.ff_locations:
            if label not in labels:
                raise NetlistError(
                    DiagnosticKind.UNKNOWN_OUTCOME,
                    line,
                    col,
                    f"feedforward outcome {label!r} matches no detector",
                )
        return net


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
            n = _parse_int(args[0][0], lineno, args[0][1])
            if n <= 0:
                raise NetlistError(
                    DiagnosticKind.INVALID_TOKEN, lineno, args[0][1], "spin count must be positive"
                )
            p.n_spins = n
            p.spins_at = (lineno, args[0][1])
            p.check_size()

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
            p.check_size()

        elif head in _DIRECTIVES:
            kind, lay = _DIRECTIVES[head]
            if len(args) != lay.n_ops:
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, head_col, f"{head} expects: {head} {FORMS[kind]}"
                )
            if lay.arrow is not None and args[lay.arrow][0] != "->":
                raise NetlistError(
                    DiagnosticKind.ARITY_MISMATCH, lineno, args[lay.arrow][1], f"{head} expects '->' here"
                )
            spin = None if lay.spin is None else p.spin_index(args[lay.spin], lineno, lay.spin_prefix)
            names, _ = zip(*args)
            try:
                el = Element(kind, names[lay.ins], names[lay.outs], spin, line=lineno)
            except WiringError as exc:
                raise NetlistError(DiagnosticKind.ARITY_MISMATCH, lineno, head_col, str(exc)) from None
            # an in-place element introduces nothing: its wire is not written
            p.add_element(el, args[lay.ins], [] if lay.in_place else args[lay.outs], lineno)

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
                k = p.spin_index((sp_tok, sp_col), lineno, "spin_")
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
    lines += [LAYOUTS[el.kind].template.format(*el.in_modes, *el.out_modes, el.spin) for el in net.elements]
    lines += [f"detect {mode}" for mode in net.detectors]
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


def iter_element_states(
    net: Netlist,
    state: HybridState,
    reflection: ReflectionPair = IDEAL_PAIR,
    upto: int | None = None,
):
    """Yield (element, state-after-element) while applying the first
    ``upto`` elements (all, if None)."""
    _check_dimensions(net, state)
    for el in net.elements[:upto]:
        state = apply_element(state, el, reflection)
        yield el, state


def apply_elements(
    net: Netlist,
    state: HybridState,
    reflection: ReflectionPair = IDEAL_PAIR,
    upto: int | None = None,
) -> HybridState:
    """Apply the first ``upto`` elements (all, if None) and return the state."""
    for _, state in iter_element_states(net, state, reflection, upto):
        pass
    return state


def apply_spin_ops(amps: np.ndarray, ops) -> np.ndarray:
    """Apply per-spin Pauli corrections (I, Z, -Z) to spin register
    amplitudes of shape (..., 2**n), one operator per spin."""
    ops = tuple(Pauli(op) for op in ops)
    n = len(ops)
    if amps.shape[-1] != 1 << n:
        raise DimensionMismatchError(f"{n} operators for {amps.shape[-1]} spin amplitudes")
    for k, op in enumerate(ops):
        if op is not Pauli.I:
            amps = (amps.reshape(-1, 2, 1 << (n - 1 - k)) * _PAULI_DIAG[op][:, None]).reshape(amps.shape)
    return amps


def run_netlist(
    net: Netlist,
    state: HybridState,
    reflection: ReflectionPair = IDEAL_PAIR,
    apply_feedforward: bool = True,
) -> list[Outcome]:
    """Apply all elements, then enumerate every detector outcome.

    Detection is one linear map: one F/S projection of every detector mode,
    then each outcome's feedforward rule, with nothing renormalized (see
    :attr:`Outcome.spins`).  Outcome probabilities sum to the pre-detection
    squared norm when the detectors cover all occupied modes.
    """
    state = apply_elements(net, state, reflection)
    table = net.feedforward_map if apply_feedforward else {}
    amps = partial_trace_photon_collapse(state, net.detectors).reshape(-1, 2**net.n_spins)
    probs = np.sum(np.abs(amps) ** 2, axis=-1).tolist()
    outcomes = []
    for label, a, prob in zip(net.outcome_labels(), amps, probs):
        ops = table.get(label)
        if ops is not None:
            a = apply_spin_ops(a, ops)
        a.setflags(write=False)
        outcomes.append(Outcome(label, prob, a))
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


def widen(net: Netlist, extra: int = 0) -> Netlist:
    """``net`` on 2n + ``extra`` spins, where spins n.. are idle ancillas.

    Elements keep their spin indices, and every feedforward rule gets ``I``
    on the ancillas, so no operation touches them.  See
    :func:`basis_response_input` for the state that makes this useful.
    """
    idle = net.n_spins + extra
    feedforward = None if net.feedforward is None else tuple(
        (label, ops + (Pauli.I,) * idle) for label, ops in net.feedforward
    )
    return replace(net, n_spins=net.n_spins + idle, feedforward=feedforward)


def basis_response_input(net: Netlist, extra: int = 0) -> HybridState:
    """Start state of ``widen(net, extra)`` that runs every spin-basis input at once.

    Ancilla configuration c carries ``product_input(net, basis config c)``,
    so the state is sum_c |input_c>|c>, with squared norm 2**n.  The circuit
    is linear and leaves the ancillas idle, so after any run the amplitudes
    at ancilla configuration c are its response to basis input c, and its
    response to a spin input vector v is the contraction with v over the
    ancilla axis (the last axis of ``amps.reshape(..., 2**n)`` when
    ``extra`` is 0).  The ``extra`` idle spins start in |+...+>.

    Every basis input holds the same photon amplitudes, at its own spin
    configuration, so they are taken from the all-|+> input and put on the
    diagonal (circuit configuration c, ancilla configuration c).
    """
    dim = 2**net.n_spins
    photon = product_input(net, [(1.0, 0.0)] * net.n_spins).amps[:, :, :1]
    amps = np.zeros((2, len(net.modes), dim, dim, 1 << extra), dtype=complex)
    amps[:, :, range(dim), range(dim), 0] = photon
    return HybridState(net.modes, 2 * net.n_spins + extra, amps.reshape(2, len(net.modes), -1))
