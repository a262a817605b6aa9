"""Line-oriented circuit description format (.nv) and its interpreter.

One directive per line, ``#`` starts a comment, UTF-8; :func:`load_netlist`
ignores a leading byte-order mark (BOM), as Windows editors write it.  Only
LF ends a line, so diagnostics count LF lines; CRLF is accepted, its CR
being whitespace.  Tokens are separated by whitespace, as ``str.split()``
finds it, and a mode label may be any token: ``modes α ->`` declares the
two modes ``α`` and ``->``.  The directives:

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

An integer k, in ``spins N``, ``spinh k`` or ``spin_k``, is ASCII digits
with an optional leading ``-``: no ``+``, ``_`` separators or other digits.
Element operands follow the kind's form in :data:`nvgates.elements.FORMS`,
which the parser and :func:`serialize_netlist` both read; ``pbs`` and ``bs``
take two inputs, so an unused port is a declared mode nothing occupies.  A
state of more than :data:`MAX_AMPLITUDES` (2 * |modes| * 2**N) amplitudes
is rejected at the spin count.

Elements execute in file order.  The photon's path must be feed-forward: no
directive may read a mode whose only writers appear later in the file (PBS
and BS write their outputs; hwp and nv read and rewrite their mode in place,
so a wire keeps its label through them; ``detect m`` reads ``m``).  This
rule, and that each feedforward outcome names a detector, run after every
line has passed its own checks; the ordering diagnostic blames the earliest
read, in file order, of a mode whose first writer comes later.  The parser
is the one checker of these facts: a :class:`Netlist` built in code is
checked by parsing its own text.

``detect m`` declares an F/S measurement station (a PBS in the F/S basis
feeding two ideal detectors) on mode ``m``; outcome labels are ``F<m>`` and
``S<m>``, and these labels key the feedforward table.  Pauli tokens are
``I``, ``Z`` and ``-Z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .cavity import IDEAL_PAIR, ReflectionPair
from .elements import _PAULI_DIAG, FORMS, LAYOUTS, Element, Kind, Pauli, _apply_element
from .state import (
    _SQRT1_2,
    DimensionMismatchError,
    HybridState,
    make_product_state,
    partial_trace_photon_collapse,
    spin_axis,
    working_copy,
)

MAX_AMPLITUDES = 2**24  # largest state (2 * |modes| * 2**spins) a netlist may declare


def _too_large(n_spins: int, n_modes: int) -> str | None:
    """The refusal of a netlist whose 2 * n_modes * 2**n_spins amplitudes exceed MAX_AMPLITUDES, None if
    they fit; a huge n_spins is refused without forming 2**n."""
    if n_spins >= MAX_AMPLITUDES.bit_length() or 2 * n_modes << n_spins > MAX_AMPLITUDES:
        return f"Netlist of {n_spins} spins and {n_modes} modes exceeds {MAX_AMPLITUDES} amplitudes"
    return None


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
    """Parse or validation failure with a diagnostic kind and location, None for a netlist built in code."""

    def __init__(self, kind: DiagnosticKind, line: int | None, column: int | None, message: str):
        super().__init__(("" if line is None else f"line {line}, col {column}: ") + f"{message} [{kind.value}]")
        self.kind, self.line, self.column, self.detail = kind, line, column, message


FeedforwardRule = tuple[str, tuple[Pauli, ...]]
# An element's fault is a function because an element has two callers: the parser, on an element line that fails
# its own tests, and Netlist.__post_init__, on each element before it writes the netlist's text, which a malformed
# element cannot have.  It is the one check of an element's form and wiring, which the element kernels trust, and it
# alone orders and words an element fault; every other circuit fact is checked in parse_netlist alone.  An element's
# operands are (kind, *in_modes, *out_modes, spin).
Fault = tuple[int, DiagnosticKind, str]  # (operand position, kind, message)


def _element_fault(el: Element, n_spins: int | None, modes) -> Fault | None:
    """An element's spin in range, then its form and overlap, then its wires declared, inputs first."""
    kind, ins, outs, spin = el
    if spin is not None and not 0 <= spin < n_spins:
        return 1 + len(ins) + len(outs), DiagnosticKind.SPIN_RANGE, f"spin index {spin} out of range for spins {n_spins}"
    lay = LAYOUTS[kind]
    if (len(ins), len(outs), spin is None) != lay.shape:
        return 0, DiagnosticKind.ARITY_MISMATCH, f"{kind.value} takes: {kind.value} {FORMS[kind]}; got {ins} -> {outs}, spin {spin}"
    if (outs != ins) if lay.in_place else (len({*ins, *outs}) != len(ins) + len(outs)):
        return 0, DiagnosticKind.ARITY_MISMATCH, (f"{kind.value} wires {ins} -> {outs} must be one wire in place, "
                                                  "or distinct: a shared wire would merge occupied modes")
    for pos, mode in enumerate(ins + outs, 1):
        if mode not in modes:
            return pos, DiagnosticKind.UNDECLARED_MODE, f"mode {mode!r} is not declared"
    return None


def _check_tokens(part: str, labels) -> None:
    """Raise ValueError for a label a ``.nv`` text cannot hold as one token."""
    for m in labels:
        if not isinstance(m, str) or m.split() != [m] or "#" in m:
            raise ValueError(f"Netlist {part} {m!r} is not one .nv token: empty, or with whitespace or '#'")


@dataclass(frozen=True)
class Netlist:
    """A checked circuit: spins, declared modes (the first is the input; each
    one ``.nv`` token without ``#``), elements in feed-forward order, F/S
    detector stations, and a feedforward table of (outcome label, one Pauli
    per spin) rules, ``()`` for none.  All are tuples.  ``lines``, set only by
    :func:`parse_netlist` and not compared, holds each element's source line;
    it is ``()`` for a netlist built in code or by ``dataclasses.replace``.
    Construction raises ValueError for a bad field or a label that is not one
    ``.nv`` token, then :class:`NetlistError` for a malformed element, then
    whatever :func:`parse_netlist` raises on the netlist's own text, with no
    line and the part named by position."""

    n_spins: int
    modes: tuple[str, ...]
    elements: tuple[Element, ...]
    detectors: tuple[str, ...]
    feedforward: tuple[FeedforwardRule, ...] = ()
    lines: tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)
    # memo of nvgates.analysis.compile_circuit, keyed by r_cold; one entry at most
    _compiled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("modes", "elements", "detectors", "feedforward"):
            if not isinstance(getattr(self, name), tuple):
                raise ValueError(f"Netlist.{name} must be a tuple, got {getattr(self, name)!r}")
        n, modes = self.n_spins, set(self.modes)
        if not (type(n) is int and n > 0):  # not a bool either
            raise ValueError(f"Netlist.n_spins must be a positive int, got {n!r}")
        if not (self.modes and all(isinstance(m, str) for m in self.modes) and len(modes) == len(self.modes)):
            raise ValueError(f"Netlist.modes must be a non-empty tuple of distinct str, got {self.modes!r}")
        _check_tokens("mode", self.modes)
        if refusal := _too_large(n, len(modes)):
            raise ValueError(refusal)
        for el in self.elements:
            kind, ins, outs, spin = el if type(el) is Element else (None,) * 4
            if type(kind) is not Kind or type(ins) is not tuple or type(outs) is not tuple or not (spin is None or type(spin) is int):
                raise ValueError(f"Netlist element {el!r} is not an Element with a Kind, tuples of wires and an int spin or None")
        for rule in self.feedforward:
            label, ops = rule if isinstance(rule, tuple) and len(rule) == 2 else (None, None)
            if not (isinstance(label, str) and isinstance(ops, tuple) and len(ops) == n and all(isinstance(o, Pauli) for o in ops)):
                raise ValueError(f"Netlist.feedforward rule {rule!r} is not (outcome label, {n}-tuple of Pauli)")
        _check_tokens("detector", self.detectors)
        _check_tokens("outcome label", [label for label, _ in self.feedforward])
        for i, el in enumerate(self.elements):
            if fault := _element_fault(el, n, modes):
                raise NetlistError(fault[1], None, None, f"element {i}: {fault[2]}")
        try:
            parse_netlist(serialize_netlist(self))
        except NetlistError as exc:  # lines 1 and 2 are the spins and modes, which pass, as checked above
            at = exc.line - 3
            for part, items in (("element", self.elements), ("detector", self.detectors), ("rule", self.feedforward)):
                if at < len(items):
                    break
                at -= len(items)
            raise NetlistError(exc.kind, None, None, f"{part} {at}: {exc.detail}") from None

    def outcome_labels(self) -> tuple[str, ...]:
        return tuple([basis + mode for mode in self.detectors for basis in ("F", "S")])


class Outcome(NamedTuple):
    """One detector result: its label (F or S, then the mode), probability,
    and read-only, feedforward-corrected spin ``amps``, unnormalized."""

    label: str
    probability: float
    amps: np.ndarray

    @property
    def spins(self) -> Outcome:
        """This outcome given its click: probability 1, amps renormalized and
        read-only.  An outcome of probability 0 never clicks, so it is itself."""
        if self.probability <= 0.0:
            return self
        amps = self.amps / math.sqrt(self.probability)
        amps.setflags(write=False)
        return Outcome(self.label, 1.0, amps)


def _tokens(raw: str) -> list[str]:
    """The whitespace-separated tokens of a source line, comment dropped."""
    return raw.split("#", 1)[0].split()


def _column(raw: str, index: int) -> int:
    """1-based column of token ``index`` of :func:`_tokens` in ``raw``.

    Only diagnostics need columns, so one is found only when a diagnostic is
    raised: each token is looked up with ``str.index`` just past the one
    before it.  ``str.split()`` splits on the same whitespace as the pattern
    ``\\S+``, so this is the start of the index-th ``\\S+`` match, plus 1.
    """
    end = 0
    for tok in _tokens(raw)[: index + 1]:
        start = raw.index(tok, end)
        end = start + len(tok)
    return start + 1


# directive -> (kind, layout, slices of its input and output wire tokens, its number of distinct wires, the token
# of each element operand)
_DIRECTIVES = {
    kind.value: (kind, lay, slice(lay.ins.start, lay.ins.stop), slice(lay.outs.start, lay.outs.stop),
                 len(lay.ins) + (0 if lay.in_place else len(lay.outs)), (0, *lay.ins, *lay.outs, lay.spin))
    for kind, lay in LAYOUTS.items()
}


def parse_netlist(text: str) -> Netlist:
    """Parse and validate a netlist; raises :class:`NetlistError` with a
    diagnostic kind and line/column on the first problem found."""
    lines = text.split("\n")  # LF ends a line; str.split() drops the \r of CRLF
    if not lines[-1]:
        del lines[-1]
    n_spins: int | None = None
    spins_line = 0  # line of the spin count, token 1
    modes: dict[str, None] = {}  # in declaration order, like detectors
    elements: list[Element] = []
    element_lines: list[int] = []
    detectors: dict[str, None] = {}
    feedforward: dict[str, tuple[tuple[Pauli, ...], int]] = {}  # label -> (ops, line); the label is token 1
    first_read: dict[str, tuple[int, int]] = {}  # mode -> (line, token) of its first read before any line writes it
    written: set[str] = set()  # modes written by the element lines read so far

    def error(kind: DiagnosticKind, line: int, index: int, message: str) -> NetlistError:
        """A diagnostic at token ``index`` of ``line``; its column is found here."""
        return NetlistError(kind, line, _column(lines[line - 1], index), message)

    def int_at(toks, i: int, line: int, prefix: str = "") -> int:
        """Integer k of a ``<prefix><k>`` token ``toks[i]``, such as ``3`` or ``spin_3``."""
        tok = toks[i]
        digits = tok[len(prefix) :].removeprefix("-")
        if tok.startswith(prefix) and digits.isascii() and digits.isdigit():
            return int(tok[len(prefix) :])
        raise error(DiagnosticKind.INVALID_TOKEN, line, i, f"expected {prefix}<integer>, got {tok!r}")

    def check_size():
        n, n_modes = n_spins, max(len(modes), 1)
        if n is not None and _too_large(n, n_modes):
            raise error(DiagnosticKind.SPIN_RANGE, spins_line, 1,
                        f"spins {n} with {n_modes} modes exceeds the cap of {MAX_AMPLITUDES} amplitudes (2*modes*2**spins)")

    declared = modes.keys()  # a live view: it sees every later modes line
    for lineno, raw in enumerate(lines, 1):
        toks = raw.split("#", 1)[0].split()  # _tokens(raw), without a call per line
        if not toks:
            continue
        head = toks[0]

        if head == "detect":  # tested first: a circuit has a detect line per mode
            if len(toks) != 2:
                raise error(DiagnosticKind.ARITY_MISMATCH, lineno, 0, "detect expects: detect m")
            tok = toks[1]
            if tok not in modes:
                raise error(DiagnosticKind.UNDECLARED_MODE, lineno, 1, f"mode {tok!r} is not declared")
            if tok in detectors:
                raise error(DiagnosticKind.DUPLICATE_DECLARATION, lineno, 1, f"detector on {tok!r} redeclared")
            if tok not in written and tok not in first_read:
                first_read[tok] = lineno, 1
            detectors[tok] = None

        elif head in _DIRECTIVES:
            kind, lay, ins, outs, n_wires, at = _DIRECTIVES[head]
            if len(toks) != lay.n_tokens:
                raise error(DiagnosticKind.ARITY_MISMATCH, lineno, 0, f"{head} expects: {head} {FORMS[kind]}")
            if lay.arrow is not None and toks[lay.arrow] != "->":
                raise error(DiagnosticKind.ARITY_MISMATCH, lineno, lay.arrow, f"{head} expects '->' here")
            spin = None if lay.spin is None else int_at(toks, lay.spin, lineno, lay.spin_prefix)
            if spin is not None and n_spins is None:
                raise error(DiagnosticKind.MISSING_DECLARATION, lineno, lay.spin, "spins must be declared first")
            in_modes = tuple(toks[ins])
            out_modes = in_modes if lay.in_place else tuple(toks[outs])  # an in-place kind has one wire, or none
            wires = {*in_modes, *out_modes}
            # The token count has fixed the element's form, so only its spin range, a shared wire and an
            # undeclared wire are left to test; _element_fault finds and words the first fault.
            if (spin is not None and not 0 <= spin < n_spins) or len(wires) != n_wires or not declared >= wires:
                fault = _element_fault(Element(kind, in_modes, out_modes, spin), n_spins, modes)
                raise error(fault[1], lineno, at[fault[0]], fault[2])
            for pos, mode in enumerate(in_modes, 1):  # inputs are read before the outputs are written
                if mode not in written and mode not in first_read:
                    first_read[mode] = lineno, at[pos]
            if not lay.in_place:  # an in-place element rewrites its wire, so it writes nothing new
                written.update(out_modes)
            elements.append(tuple.__new__(Element, (kind, in_modes, out_modes, spin)))  # checked: no __new__ call
            element_lines.append(lineno)

        elif head == "spins":
            if len(toks) != 2:
                raise error(DiagnosticKind.ARITY_MISMATCH, lineno, 0, "spins takes one count")
            if n_spins is not None:
                raise error(DiagnosticKind.DUPLICATE_DECLARATION, lineno, 0, "spins already declared")
            n = int_at(toks, 1, lineno)
            if n <= 0:
                raise error(DiagnosticKind.INVALID_TOKEN, lineno, 1, "spin count must be positive")
            n_spins, spins_line = n, lineno
            check_size()

        elif head == "modes":
            if len(toks) == 1:
                raise error(DiagnosticKind.ARITY_MISMATCH, lineno, 0, "modes needs at least one label")
            for i, tok in enumerate(toks[1:], 1):
                if tok in modes:
                    raise error(DiagnosticKind.DUPLICATE_DECLARATION, lineno, i, f"mode {tok!r} redeclared")
                modes[tok] = None
            check_size()

        elif head == "feedforward":
            if len(toks) == 1 or not toks[1].endswith(":"):
                raise error(
                    DiagnosticKind.ARITY_MISMATCH, lineno, 0, "feedforward expects: feedforward OUTCOME: spin_k OP ..."
                )
            label = toks[1][:-1]
            if not label or label[0] not in ("F", "S"):
                raise error(DiagnosticKind.INVALID_TOKEN, lineno, 1, f"bad outcome label {label!r}")
            if len(toks) % 2 != 0:  # the body after the label is spin/operator pairs
                raise error(DiagnosticKind.ARITY_MISMATCH, lineno, 0, "feedforward body must be spin/operator pairs")
            if n_spins is None:
                raise error(DiagnosticKind.MISSING_DECLARATION, lineno, 0, "spins must be declared first")
            ops = [Pauli.I] * n_spins
            seen: set[int] = set()
            for i in range(2, len(toks), 2):
                k = int_at(toks, i, lineno, "spin_")
                if not 0 <= k < n_spins:
                    raise error(DiagnosticKind.SPIN_RANGE, lineno, i, f"spin index {k} out of range for spins {n_spins}")
                if k in seen:
                    raise error(DiagnosticKind.DUPLICATE_DECLARATION, lineno, i, f"spin_{k} listed twice")
                seen.add(k)
                try:
                    ops[k] = Pauli(toks[i + 1])
                except ValueError:
                    raise error(
                        DiagnosticKind.INVALID_TOKEN, lineno, i + 1, f"unknown operator {toks[i + 1]!r}"
                    ) from None
            if label in feedforward:
                raise error(DiagnosticKind.DUPLICATE_DECLARATION, lineno, 1, f"outcome {label!r} listed twice")
            feedforward[label] = (tuple(ops), lineno)

        else:
            raise error(DiagnosticKind.UNKNOWN_DIRECTIVE, lineno, 0, f"unknown directive {head!r}")

    last_line = len(lines) + 1
    if n_spins is None:
        raise NetlistError(
            DiagnosticKind.MISSING_DECLARATION, last_line, 1, "missing spins declaration"
        )
    if not modes:
        raise NetlistError(
            DiagnosticKind.MISSING_DECLARATION, last_line, 1, "missing modes declaration"
        )
    # every line is checked first; then the feed-forward order, then the outcomes
    for mode, (line, index) in first_read.items():  # in file order, so the earliest read is blamed
        if mode in written:
            raise error(DiagnosticKind.NON_TOPOLOGICAL, line, index, f"mode {mode!r} is read here but only written later")
    for label, (_, line) in feedforward.items():
        if label[1:] not in detectors:  # its F or S is checked on its line
            raise error(DiagnosticKind.UNKNOWN_OUTCOME, line, 1, f"feedforward outcome {label!r} matches no detector")
    # every fact and field is checked above, so not again by Netlist.__post_init__
    return _checked_netlist(n_spins, tuple(modes), tuple(elements), tuple(detectors),
                            tuple((label, ops) for label, (ops, _) in feedforward.items()), tuple(element_lines))


def _checked_netlist(n_spins, modes, elements, detectors, feedforward, lines=()) -> Netlist:
    """A :class:`Netlist` of fields checked, or derived from a checked one's, made without ``__post_init__``."""
    net = object.__new__(Netlist)
    vars(net).update(n_spins=n_spins, modes=modes, elements=elements, detectors=detectors,
                     feedforward=feedforward, lines=lines, _compiled={})
    return net


def _every_mode_detected(net: Netlist, idle: int = 0) -> Netlist:
    """Checked ``net`` on ``idle`` more spins, each feedforward rule given ``I`` on them, with every mode
    detected: its own detectors, then its undetected modes in declaration order.  Made from ``net``'s
    facts, not checked again, save the one that more spins can break: the amplitude cap."""
    n = net.n_spins + idle
    if refusal := _too_large(n, len(net.modes)):
        raise ValueError(refusal)
    undetected = tuple(m for m in net.modes if m not in net.detectors)
    feedforward = tuple((label, ops + (Pauli.I,) * idle) for label, ops in net.feedforward)
    return _checked_netlist(n, net.modes, net.elements, net.detectors + undetected, feedforward)


def serialize_netlist(net: Netlist) -> str:
    """Canonical text form; ``parse_netlist(serialize_netlist(n)) == n`` for
    every ``Netlist``, whose labels are single tokens without ``#`` and whose
    elements are in feed-forward order."""
    lines = [f"spins {net.n_spins}", "modes " + " ".join(net.modes)]
    lines += [LAYOUTS[el.kind].template.format(*el.in_modes, *el.out_modes, el.spin) for el in net.elements]
    lines += [f"detect {mode}" for mode in net.detectors]
    for label, ops in net.feedforward:
        body = " ".join(f"spin_{k} {op.value}" for k, op in enumerate(ops))
        lines.append(f"feedforward {label}: {body}")
    return "\n".join(lines) + "\n"


def load_netlist(path) -> Netlist:
    with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
        return parse_netlist(fh.read())


def _run_in_place(net: Netlist, state: HybridState, reflection: ReflectionPair):
    """The one element loop: each element of ``net`` and the writable ``state`` it has rewritten."""
    if state.modes != net.modes or state.n_spins != net.n_spins:
        raise DimensionMismatchError(
            f"state on (modes={state.modes}, spins={state.n_spins}) does not match "
            f"netlist (modes={net.modes}, spins={net.n_spins})"
        )
    for el in net.elements:
        yield el, _apply_element(state, el, reflection)


def iter_element_states(net: Netlist, state: HybridState, reflection: ReflectionPair = IDEAL_PAIR):
    """Yield (element, a read-only copy of the state after it), running on one copy of ``state``."""
    for el, work in _run_in_place(net, working_copy(state), reflection):
        yield el, HybridState(work.modes, work.n_spins, work.amps)  # which copies the array read-only


def apply_elements(net: Netlist, state: HybridState, reflection: ReflectionPair = IDEAL_PAIR) -> HybridState:
    """Apply every element in place to one writable copy of ``state``, returned read-only."""
    work = working_copy(state)
    for _ in _run_in_place(net, work, reflection):
        pass
    work.amps.setflags(write=False)
    return work


def apply_spin_ops(amps: np.ndarray, ops: tuple[Pauli, ...]) -> np.ndarray:
    """Apply a checked feedforward rule, one Pauli correction (I, Z, -Z) per
    spin, to spin register amplitudes of shape (..., 2**n)."""
    n = len(ops)
    for k, op in enumerate(ops):
        if op is not Pauli.I:
            amps = (spin_axis(amps, n, k) * _PAULI_DIAG[op][:, None]).reshape(amps.shape)
    return amps


def run_netlist(net: Netlist, state: HybridState, reflection: ReflectionPair = IDEAL_PAIR) -> list[Outcome]:
    """Apply all elements, then enumerate every detector outcome.

    Detection is one linear map: one F/S projection of every detector mode,
    then each outcome's feedforward rule, with nothing renormalized (see
    :attr:`Outcome.spins`).  Outcome probabilities sum to the pre-detection
    squared norm when the detectors cover all occupied modes.
    """
    state = apply_elements(net, state, reflection)
    labels = net.outcome_labels()
    amps = partial_trace_photon_collapse(state, net.detectors).reshape(-1, 2**net.n_spins)
    for label, ops in net.feedforward:
        row = labels.index(label)
        amps[row] = apply_spin_ops(amps[row], ops)
    amps.setflags(write=False)
    probs = (abs(amps) ** 2).sum(axis=-1).tolist()
    return list(map(Outcome._make, zip(labels, probs, amps)))  # each amps a read-only row view


def nv_runs(net: Netlist) -> tuple[list[tuple[int, int, tuple[Element, ...]]], dict[str, int]]:
    """The circuit's NV runs in file order, and each mode's depth at its end.

    A mode's *depth* is the number of NV reflections on the photon path
    reaching it.  An ``nv`` element adds one to its mode; a ``pbs``, ``bs``
    or ``pbsfs`` gives each output the max of its own depth and its inputs',
    and resets its inputs, which the amplitude has left.  A *run* is a
    maximal sequence of ``nv`` elements on one wire with no other element on
    that wire between them (``spinh`` has no wire, so it does not end a
    run), given as (its wire's depth before the run, the position of its
    first element, its ``nv`` elements).
    """
    depth = dict.fromkeys(net.modes, 0)
    runs, open_runs = [], {}  # open_runs: mode -> nv elements of the run open on it
    for pos, el in enumerate(net.elements):
        if el.kind is Kind.NV_SCATTER:
            m = el.in_modes[0]
            if m not in open_runs:
                open_runs[m] = []
                runs.append((depth[m], pos, open_runs[m]))
            open_runs[m].append(el)
            depth[m] += 1
            continue
        for m in el.in_modes + el.out_modes:
            open_runs.pop(m, None)
        if el.kind in (Kind.PBS_RL, Kind.BS5050, Kind.PBS_FS):
            d = max(depth[m] for m in el.in_modes)
            for m in el.in_modes:
                depth[m] = 0
            for m in el.out_modes:
                depth[m] = max(depth[m], d)
    return [(d, pos, tuple(nvs)) for d, pos, nvs in runs], depth


def max_nv_path_depth(net: Netlist) -> int:
    """Largest number of NV reflections along any single photon path that
    reaches a detector (any mode, if the circuit declares no detector)."""
    _, depth = nv_runs(net)
    return max(depth[m] for m in net.detectors or net.modes)


def nv_element_count(net: Netlist) -> int:
    return sum(1 for el in net.elements if el.kind is Kind.NV_SCATTER)


def balanced_product_input(net: Netlist) -> HybridState:
    """Photon (|R>+|L>)/sqrt2 at the input mode, every spin (|+>+|->)/sqrt2."""
    return product_input(net, [(_SQRT1_2, _SQRT1_2)] * net.n_spins)


def product_input(net: Netlist, spin_pairs) -> HybridState:
    """Photon (|R>+|L>)/sqrt2 at the input mode, modes[0], with the given spin pairs."""
    return make_product_state((_SQRT1_2, _SQRT1_2), net.modes[0], spin_pairs, net.modes)

