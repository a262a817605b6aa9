"""Netlist grammar, diagnostics, round-trip, and interpreter semantics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nvgates import netlist
from nvgates.elements import LAYOUTS, Element, Kind, Pauli
from nvgates.gates import GATE_NAMES, build_gate_circuit, shipped_circuit_text
from nvgates.netlist import (
    MAX_AMPLITUDES,
    DiagnosticKind,
    Netlist,
    NetlistError,
    Outcome,
    apply_spin_ops,
    balanced_product_input,
    iter_element_states,
    load_netlist,
    nv_runs,
    parse_netlist,
    run_netlist,
    serialize_netlist,
)
from nvgates.state import DimensionMismatchError, HybridState

import oracle
from conftest import random_hybrid_input, random_netlist, random_reflection, text_refusal

SMALL = """\
# toy circuit
spins 2
modes in a b out vac waste
pbs in vac -> a b
nv b spin_0
hwp a
pbs a b -> out waste
spinh 1
detect out
feedforward Fout: spin_0 I spin_1 Z
feedforward Sout: spin_0 -Z spin_1 I
"""


def test_parse_small_circuit():
    net = parse_netlist(SMALL)
    assert net.n_spins == 2
    assert net.modes == ("in", "a", "b", "out", "vac", "waste")
    kinds = [el.kind for el in net.elements]
    assert kinds == [Kind.PBS_RL, Kind.NV_SCATTER, Kind.HWP, Kind.PBS_RL, Kind.SPIN_H]
    assert net.detectors == ("out",)
    assert dict(net.feedforward)["Sout"] == (Pauli.MINUS_Z, Pauli.I)
    assert net.lines[0] == 4


def test_parse_repeated_hwp_lines():
    net = parse_netlist("spins 1\nmodes 3\nhwp 3\nhwp 3\n")
    assert [el.kind for el in net.elements] == [Kind.HWP, Kind.HWP]
    assert net.elements[0].in_modes == ("3",)


def test_parse_accepts_crlf_and_comments():
    net = parse_netlist("spins 1\r\nmodes a b # trailing\r\nhwp a\r\n")
    assert net.modes == ("a", "b")


def _expect_error(text, kind, line):
    with pytest.raises(NetlistError) as err:
        parse_netlist(text)
    assert err.value.kind is kind, err.value
    assert err.value.line == line, err.value
    return err.value


def test_diagnostic_unknown_directive():
    err = _expect_error("spins 1\nmodes a\nwibble a\n", DiagnosticKind.UNKNOWN_DIRECTIVE, 3)
    assert err.column == 1


def test_diagnostic_undeclared_mode():
    _expect_error("spins 1\nmodes a\nhwp q\n", DiagnosticKind.UNDECLARED_MODE, 3)


def test_diagnostic_overlapping_wires():
    # the wiring check rejects it; the parser must still say where
    err = _expect_error("spins 1\nmodes a b c\npbs a b -> c b\n", DiagnosticKind.ARITY_MISMATCH, 3)
    assert err.column == 1
    _expect_error("spins 1\nmodes a b c\nbs a a -> b c\n", DiagnosticKind.ARITY_MISMATCH, 3)


ARITY = DiagnosticKind.ARITY_MISMATCH
INVALID, SPIN_RANGE = DiagnosticKind.INVALID_TOKEN, DiagnosticKind.SPIN_RANGE
UNDECLARED, MISSING = DiagnosticKind.UNDECLARED_MODE, DiagnosticKind.MISSING_DECLARATION
DIAGNOSTIC_HEADER = "spins 2\nmodes a b c d\n"


# (element line, kind, column); the line is parsed as line 3 after
# DIAGNOSTIC_HEADER, or as line 2 after "modes a b c d" when it starts with "!"
# (a spin used before any spins declaration).
@pytest.mark.parametrize(
    "line, kind, column",
    [
        # too many operands
        ("pbs a b -> c d a", ARITY, 1),
        ("pbsfs a -> b c d", ARITY, 1),
        ("bs a b -> c d a", ARITY, 1),
        ("hwp a b", ARITY, 1),
        ("hwp a a", ARITY, 1),
        ("nv a spin_0 b", ARITY, 1),
        ("nv a spin_x b", ARITY, 1),
        ("spinh 0 1", ARITY, 1),
        ("  hwp a b", ARITY, 3),
        # too few operands
        ("pbs a b -> c", ARITY, 1),
        ("pbs a -> c d", ARITY, 1),
        ("pbsfs a -> b", ARITY, 1),
        ("bs a b c d", ARITY, 1),
        ("hwp", ARITY, 1),
        ("nv a", ARITY, 1),
        ("spinh", ARITY, 1),
        # a misplaced '->': blamed where the arrow should stand
        ("pbs a b c -> d", ARITY, 9),
        ("pbs a -> b c d", ARITY, 10),
        ("pbsfs a b -> c", ARITY, 9),
        ("bs a b c -> d", ARITY, 8),
        ("hwp ->", UNDECLARED, 5),
        ("nv -> spin_0", UNDECLARED, 4),
        # a bad spin_k token, a non-integer spinh
        ("nv a spin_x", INVALID, 6),
        ("nv a 0", INVALID, 6),
        ("nv a ->", INVALID, 6),
        ("spinh x", INVALID, 7),
        ("spinh spin_0", INVALID, 7),
        # a spin out of range, checked before the modes
        ("nv a spin_2", SPIN_RANGE, 6),
        ("nv a spin_-1", SPIN_RANGE, 6),
        ("nv q spin_9", SPIN_RANGE, 6),
        ("nv a spin_5", SPIN_RANGE, 6),
        ("spinh 2", SPIN_RANGE, 7),
        ("spinh 7", SPIN_RANGE, 7),
        ("spinh -1", SPIN_RANGE, 7),
        # an undeclared mode
        ("pbs a q -> c d", UNDECLARED, 7),
        ("pbsfs q -> b c", UNDECLARED, 7),
        ("bs a b -> c q", UNDECLARED, 13),
        ("hwp q", UNDECLARED, 5),
        ("hwp zz", UNDECLARED, 5),
        ("  hwp q", UNDECLARED, 7),
        ("nv q spin_0", UNDECLARED, 4),
        # overlapping wires, rejected by the wiring check and located by the parser,
        # checked before the modes
        ("pbs a b -> c b", ARITY, 1),
        ("pbs a q -> c q", ARITY, 1),
        ("pbsfs a -> a b", ARITY, 1),
        ("bs a a -> b c", ARITY, 1),
        ("bs a b -> c c", ARITY, 1),
        # a spin used before `spins`
        ("!nv a spin_0", MISSING, 6),
        ("!spinh 0", MISSING, 7),
        # tabs, runs of spaces, indentation, trailing comments, CRLF endings
        ("pbs\ta  q -> c d", UNDECLARED, 8),
        ("\tnv a\t\tspin_7", SPIN_RANGE, 8),
        ("    bs a b -> c q  # trailing q", UNDECLARED, 17),
        ("hwp a b # comment -> x", ARITY, 1),
        ("nv  a   spin_x  # spin_0", INVALID, 9),
        ("nv q spin_0#glued", UNDECLARED, 4),
        ("pbs a b c -> d # note\r", ARITY, 9),
        ("  spinh  x\r", INVALID, 10),
        ("pbsfs a\t->  b\tq\r", UNDECLARED, 15),
        ("hwp\t\tq # q\r", UNDECLARED, 6),
        ("bs   a b c d\r", ARITY, 1),
        ("\t wibble a", DiagnosticKind.UNKNOWN_DIRECTIVE, 3),
    ],
)
def test_element_diagnostics_table(line, kind, column):
    if line.startswith("!"):
        text, lineno = f"modes a b c d\n{line[1:]}\n", 2
    else:
        text, lineno = f"{DIAGNOSTIC_HEADER}{line}\n", 3
    err = _expect_error(text, kind, lineno)
    assert err.column == column, err


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("spins 1_0\nmodes a\n", 1, 7),
        ("spins +2\nmodes a\n", 1, 7),
        (f"{DIAGNOSTIC_HEADER}spinh \u0662\n", 3, 7),
        (f"{DIAGNOSTIC_HEADER}nv a spin_+1\n", 3, 6),
        (f"{DIAGNOSTIC_HEADER}detect a\nfeedforward F9: spin_\u0660 Z\n", 4, 17),
    ],
)
def test_integers_are_ascii_digits(text, line, column):
    # int() would read these as 10, 2, 2, 1 and 0; a .nv integer is [-]digits
    err = _expect_error(text, INVALID, line)
    assert err.column == column, err


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_only_lf_ends_a_line(sep):
    # str.splitlines() also breaks at these; the parser splits tokens at them
    err = _expect_error(f"spins 1{sep}modes a\nhwp zz\n", ARITY, 1)
    assert err.column == 1
    assert parse_netlist(f"spins 1\nmodes a{sep}b\nhwp b\n").modes == ("a", "b")
    err = _expect_error(f"spins 1\nmodes a{sep}b\nhwp zz\n", UNDECLARED, 3)
    assert err.column == 5


@pytest.mark.parametrize(
    "text, line", [("", 1), ("\n", 2), ("modes a", 2), ("modes a\n", 2), ("modes a\r\n\n", 3), ("spins 1\n", 2)]
)
def test_missing_declaration_after_the_last_line(text, line):
    _expect_error(text, MISSING, line)


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("spins 40\nmodes a\ndetect a\n", 1, 7),
        ("spins 1000000000000000000000\nmodes a\n", 1, 7),  # 2**n is never evaluated
        ("spins 24\nmodes a\n", 1, 7),  # 2 * 1 * 2**24
        ("spins 23\nmodes a b\n", 1, 7),  # over the cap only once the modes are known
        ("modes a b c\nspins  22\n", 2, 8),
    ],
)
def test_state_size_capped_at_the_spin_count(text, line, column):
    assert MAX_AMPLITUDES == 2**24
    err = _expect_error(text, DiagnosticKind.SPIN_RANGE, line)
    assert err.column == column


def test_state_size_at_the_cap_accepted():
    assert parse_netlist("spins 23\nmodes a\n").n_spins == 23
    assert parse_netlist("spins 22\nmodes a b\n").n_spins == 22


def test_diagnostic_non_topological():
    # the column points at the mode read too early, on any input of the reader
    readers = [("hwp c", 5), ("\t hwp  c # x c", 8), ("  nv  c\tspin_0", 7),
               ("bs b c -> x y", 6), (" bs\tb  c -> x y", 8), ("pbsfs c -> x y", 7), ("pbsfs\t c ->  x y # c", 8)]
    for reader, column in readers:
        for eol in ("\n", "\r\n"):
            text = eol.join(["spins 1", "modes in a b c d x y", reader, "pbs in a -> c d", ""])
            err = _expect_error(text, DiagnosticKind.NON_TOPOLOGICAL, 3)
            assert "c" in err.detail
            assert err.column == column, (reader, err)


def test_diagnostic_unknown_outcome():
    # the column points at the outcome label
    for rule, column in [("feedforward Fnope: spin_0 Z\n", 13), ("\tfeedforward   Snope:\tspin_0 Z # Fout:\r\n", 16)]:
        err = _expect_error(SMALL + rule, DiagnosticKind.UNKNOWN_OUTCOME, 12)
        assert err.column == column, (rule, err)


def test_non_topological_blames_the_earliest_read():
    # c is read before e, but e's writer comes first: the read of c is blamed
    text = "spins 1\nmodes in a b c d e f\nhwp c\nhwp e\npbs in a -> e f\npbs f b -> c d\n"
    err = _expect_error(text, DiagnosticKind.NON_TOPOLOGICAL, 3)
    assert (err.column, err.detail) == (5, "mode 'c' is read here but only written later")


def test_non_topological_blames_an_early_detector():
    err = _expect_error("spins 1\nmodes in a b c\ndetect b\npbs in a -> b c\n", DiagnosticKind.NON_TOPOLOGICAL, 3)
    assert err.column == 8


def test_mode_written_then_read_is_accepted():
    net = parse_netlist("spins 1\nmodes in a b c\npbs in a -> b c\nhwp b\nnv b spin_0\ndetect b\ndetect c\n")
    assert net.lines == (3, 4, 5)
    assert net.detectors == ("b", "c")


def test_ordering_is_checked_after_every_line():
    # a line-level error on a later line wins over an earlier non-topological read
    _expect_error("spins 1\nmodes in a b c\nhwp b\npbs in a -> b c\nhwp zz\n", DiagnosticKind.UNDECLARED_MODE, 5)


@pytest.mark.parametrize(
    "rule, kind, column, detail",
    [
        ("feedforward Xout: spin_0 Z", INVALID, 13, "bad outcome label 'Xout'"),
        ("feedforward : spin_0 Z", INVALID, 13, "bad outcome label ''"),
        ("feedforward Fout: spin_1 Z spin_1 I", DiagnosticKind.DUPLICATE_DECLARATION, 28, "spin_1 listed twice"),
    ],
)
def test_feedforward_rule_diagnostics(rule, kind, column, detail):
    err = _expect_error(SMALL.replace("feedforward Fout: spin_0 I spin_1 Z", rule), kind, 10)
    assert (err.column, err.detail) == (column, detail)


def test_feedforward_outcome_listed_twice():
    # blamed at the second rule's line, at its label
    err = _expect_error(SMALL + "  feedforward\tFout: spin_0 Z spin_1 Z\n", DiagnosticKind.DUPLICATE_DECLARATION, 12)
    assert (err.column, err.detail) == (15, "outcome 'Fout' listed twice")


def test_parsing_the_shipped_circuits_computes_no_column(monkeypatch):
    calls = []
    column = netlist._column
    monkeypatch.setattr(netlist, "_column", lambda raw, index: calls.append(index) or column(raw, index))
    for gate in GATE_NAMES:
        parse_netlist(shipped_circuit_text(gate))
    assert calls == []
    # the counter does see the column of a diagnostic
    _expect_error("spins 1\nmodes a\nhwp q\n", DiagnosticKind.UNDECLARED_MODE, 3)
    assert calls == [1]


def test_diagnostic_duplicate_modes():
    _expect_error("spins 1\nmodes a a\n", DiagnosticKind.DUPLICATE_DECLARATION, 2)


def test_diagnostic_missing_spins():
    _expect_error("modes a\nhwp a\n", DiagnosticKind.MISSING_DECLARATION, 3)


def test_round_trip_small():
    net = parse_netlist(SMALL)
    assert parse_netlist(serialize_netlist(net)) == net


def test_round_trip_random_netlists(rng):
    for _ in range(20):
        net = random_netlist(rng)
        assert parse_netlist(serialize_netlist(net)) == net


def test_run_netlist_dimension_mismatch():
    net = parse_netlist(SMALL)
    other = parse_netlist("spins 1\nmodes in\nhwp in\ndetect in\n")
    state = balanced_product_input(other)
    with pytest.raises(DimensionMismatchError):
        run_netlist(net, state)


def test_netlist_fields_checked_when_built():
    # a bad field is refused at construction, naming the field, not on a later run
    net = build_gate_circuit("cnot")
    with pytest.raises(ValueError, match="Netlist.feedforward must be a tuple"):
        replace(net, feedforward=None)
    for name in ("modes", "elements", "detectors", "feedforward"):
        with pytest.raises(ValueError, match=f"Netlist.{name} must be a tuple"):
            replace(net, **{name: list(getattr(net, name))})
    label, ops = net.feedforward[0]
    for rule in ((label, ops[:-1]), (label, ops + (Pauli.I,)), (label, list(ops)), (label, ("I",) * 2), (label,)):
        with pytest.raises(ValueError, match="Netlist.feedforward rule"):
            replace(net, feedforward=(rule,))
    assert replace(net, feedforward=net.feedforward) == net


def test_netlist_lines_are_set_by_the_parser_only():
    # source lines belong to the parsed text: a replaced or hand-built netlist has none
    net = build_gate_circuit("cnot")
    assert net.lines == (11, 12, 13, 17, 18, 19, 20, 21, 22)
    swapped = net.elements[:3] + net.elements[4:2:-1] + net.elements[5:]  # hwp 4 and spinh 1: still feed-forward
    assert replace(net, elements=swapped).lines == ()
    assert replace(net, elements=net.elements[:-1]).lines == ()
    el = Element(Kind.HWP, ("a",), ("a",))
    assert Netlist(1, ("a",), (el,), ("a",)).lines == ()
    with pytest.raises(TypeError, match="lines"):
        Netlist(1, ("a",), (el,), ("a",), lines=(7,))
    with pytest.raises(ValueError, match="lines"):
        replace(net, lines=(7,))


@pytest.mark.parametrize(
    "n_spins, modes, match",
    [
        (2.0, ("a",), "Netlist.n_spins must be a positive int, got 2.0"),  # 2.0 * [pair] fails at run time
        (0, ("a",), "Netlist.n_spins must be a positive int, got 0"),  # the parser refuses spins 0
        (1, (), r"Netlist.modes must be a non-empty tuple of distinct str, got \(\)"),  # no input mode
        (1, (0, 1), r"Netlist.modes must be a non-empty tuple of distinct str, got \(0, 1\)"),  # no state matches
        (True, ("a",), "Netlist.n_spins must be a positive int, got True"),  # would run as one spin
        (1, ("a", "a"), r"Netlist.modes must be a non-empty tuple of distinct str, got \('a', 'a'\)"),
        # a label the text format cannot carry: two tokens, a comment, no token at all
        (1, ("a b",), "Netlist mode 'a b' is not one .nv token"),
        (1, ("in", "a#b"), "Netlist mode 'a#b' is not one .nv token"),
        (1, ("",), "Netlist mode '' is not one .nv token"),
        (1, ("a\xa0b",), r"Netlist mode 'a\\xa0b' is not one .nv token"),  # str.split() splits at U+00A0
    ],
    ids=["float-spins", "zero-spins", "no-modes", "int-modes", "bool-spins", "duplicate-modes",
         "spaced-mode", "comment-mode", "empty-mode", "nbsp-mode"],
)
def test_netlist_refuses_a_spin_count_or_modes_that_cannot_run(n_spins, modes, match):
    with pytest.raises(ValueError, match=match):
        Netlist(n_spins, modes, (), modes[:1], ())


@pytest.mark.parametrize(
    "detectors, feedforward, match",
    [
        # the detector or label would be split, or run into the next line, when its text is written
        (("a b",), (), "Netlist detector 'a b' is not one .nv token"),
        (("a\ndetect b",), (), r"Netlist detector 'a\\ndetect b' is not one .nv token"),
        ((1,), (), "Netlist detector 1 is not one .nv token"),
        (("a",), (("", (Pauli.Z,)),), "Netlist outcome label '' is not one .nv token"),
        (("a",), (("F a", (Pauli.Z,)),), "Netlist outcome label 'F a' is not one .nv token"),
        (("a",), (("Fa: spin_0 I\nfeedforward Sa", (Pauli.Z,)),),
         r"Netlist outcome label 'Fa: spin_0 I\\nfeedforward Sa' is not one .nv token"),
    ],
    ids=["spaced-detector", "newline-detector", "int-detector", "empty-label", "spaced-label", "newline-label"],
)
def test_netlist_refuses_a_detector_or_outcome_label_that_is_not_a_token(detectors, feedforward, match):
    with pytest.raises(ValueError, match=match) as err:
        Netlist(1, ("a", "b"), (), detectors, feedforward)
    assert not isinstance(err.value, NetlistError)


def test_netlist_refuses_an_element_order_that_is_not_feed_forward():
    # the reversed CNOT reads wire 7 at element 1, while only element 3 writes it
    net = build_gate_circuit("cnot")
    with pytest.raises(NetlistError, match=r"^element 1: mode '7' is read here but only written later") as err:
        replace(net, elements=net.elements[::-1])
    assert (err.value.kind, err.value.line, err.value.column) == (DiagnosticKind.NON_TOPOLOGICAL, None, None)
    fields = (1, ("a", "b", "c", "d"), (Element(Kind.HWP, ("c",), ("c",)), Element(Kind.PBS_RL, ("a", "b"), ("c", "d"))),
              ("c", "d"))
    with pytest.raises(NetlistError, match=r"^element 0: mode 'c' is read here but only written later") as err:
        Netlist(*fields)
    assert err.value.kind is text_refusal(*fields).kind is DiagnosticKind.NON_TOPOLOGICAL


def test_feedforward_label_must_name_an_outcome():
    # a rule that matches no outcome would never be applied by run_netlist;
    # a label that is not F or S then a mode is refused as its text is, a bad token
    net = build_gate_circuit("cnot")
    lowered = tuple((label.lower(), ops) for label, ops in net.feedforward)
    with pytest.raises(NetlistError, match=r"^rule 0: bad outcome label 'f9'") as err:
        replace(net, feedforward=lowered)
    assert (err.value.kind, err.value.line, err.value.column) == (DiagnosticKind.INVALID_TOKEN, None, None)
    with pytest.raises(NetlistError, match=r"^rule 0: feedforward outcome 'F9' matches no detector") as err:
        replace(net, feedforward=net.feedforward, detectors=net.detectors[1:])
    assert err.value.kind is DiagnosticKind.UNKNOWN_OUTCOME
    assert replace(net, feedforward=net.feedforward[1:]).feedforward == net.feedforward[1:]


def test_netlist_refuses_two_rules_for_one_outcome():
    # run_netlist could keep only one of them, and the parser refuses the text
    net = build_gate_circuit("cnot")
    twice = (("S9", (Pauli.MINUS_Z, Pauli.I)), ("S9", (Pauli.I, Pauli.I)))
    with pytest.raises(NetlistError, match=r"^rule 1: outcome 'S9' listed twice") as err:
        replace(net, feedforward=twice)
    assert err.value.kind is DiagnosticKind.DUPLICATE_DECLARATION
    assert replace(net, feedforward=twice[:1]).feedforward == twice[:1]


def test_netlist_refuses_a_detector_named_twice():
    # run_netlist would count its outcomes twice, and the parser refuses the text
    net = build_gate_circuit("cnot")
    with pytest.raises(NetlistError, match=r"^detector 1: detector on '9' redeclared") as err:
        replace(net, detectors=("9", "9"))
    assert err.value.kind is DiagnosticKind.DUPLICATE_DECLARATION
    assert replace(net, detectors=net.detectors) == net


HWP_X, NV_3 = Element(Kind.HWP, ("x",), ("x",)), Element(Kind.NV_SCATTER, ("a",), ("a",), 3)
OVERLAP = Element(Kind.PBS_RL, ("a", "b"), ("c", "b"))
FA, FB = ("Fa", (Pauli.Z,)), ("Fb", (Pauli.Z,))


@pytest.mark.parametrize(
    "fields, kind, where",
    [
        ((1, ("a", "b"), (HWP_X,), ("a",)), UNDECLARED, "element 0"),
        ((1, ("a",), (Element(Kind.HWP, ("a",), ("a",)), NV_3), ()), SPIN_RANGE, "element 1"),
        ((1, tuple("abc"), (OVERLAP,), ()), ARITY, "element 0"),
        ((1, ("a",), (), ("x",)), UNDECLARED, "detector 0"),
        ((1, ("a", "b"), (), ("a", "b", "a")), DiagnosticKind.DUPLICATE_DECLARATION, "detector 2"),
        ((1, ("a", "b"), (), ("a",), (FB,)), DiagnosticKind.UNKNOWN_OUTCOME, "rule 0"),
        ((1, ("a",), (), ("a",), (FA, FA)), DiagnosticKind.DUPLICATE_DECLARATION, "rule 1"),
        ((1, ("a",), (), ("a",), (("Xa", (Pauli.Z,)),)), DiagnosticKind.INVALID_TOKEN, "rule 0"),
    ],
    ids=["undeclared-wire", "spin-range", "overlap", "undeclared-detector", "detector-twice", "no-outcome", "rule-twice",
         "not-f-or-s"],
)
def test_a_fault_built_in_code_fails_as_its_text_does(fields, kind, where):
    # one rule per fact: the Netlist and the parser call the same check, so
    # both refuse with one kind; the Netlist names the part by its position
    with pytest.raises(NetlistError, match=f"^{where}: ") as built:
        Netlist(*fields)
    assert (built.value.kind, built.value.line, built.value.column) == (kind, None, None)
    assert str(built.value) == f"{built.value.detail} [{kind.value}]"  # no line or column
    parsed = text_refusal(*fields)
    assert parsed.kind is kind and parsed.detail == built.value.detail.removeprefix(f"{where}: "), parsed


def test_a_well_formed_element_line_is_never_sent_to_the_fault_finder(monkeypatch, rng):
    # the parser tests only what a line's token count leaves open, and calls
    # _element_fault only when one of those tests fails
    texts = [shipped_circuit_text(gate) for gate in GATE_NAMES]
    texts += [serialize_netlist(random_netlist(rng, int(rng.integers(1, 30)))) for _ in range(60)]

    def refuse(*args):
        raise AssertionError(f"_element_fault{args} called on a well-formed line")

    with monkeypatch.context() as patched:
        patched.setattr(netlist, "_element_fault", refuse)
        for text in texts:
            parse_netlist(text)
    # a malformed element built in code still gets _element_fault's wording
    el = Element(Kind.BS5050, ("a", "a"), ("b", "c"))
    fault = netlist._element_fault(el, 1, {"a", "b", "c"})
    with pytest.raises(NetlistError) as built:
        Netlist(1, ("a", "b", "c"), (el,), ())
    assert (built.value.kind, built.value.detail) == (fault[1], f"element 0: {fault[2]}")


def _element_of(line: str) -> Element:
    """The unchecked Element whose operands are ``line``'s tokens, placed by its kind's layout."""
    toks = line.split()
    kind = Kind(toks[0])
    lay = LAYOUTS[kind]
    ins = tuple(toks[lay.ins.start : lay.ins.stop])
    outs = ins if lay.in_place else tuple(toks[lay.outs.start : lay.outs.stop])
    return Element(kind, ins, outs, None if lay.spin is None else int(toks[lay.spin].removeprefix(lay.spin_prefix)))


SHARED = "must be one wire in place, or distinct: a shared wire would merge occupied modes"
Q_UNDECLARED = "mode 'q' is not declared"


# (element line, kind, column, message): each as the parser gave it when every element line went through
# _element_fault; the line follows "hwp a", so it is line 4 of the text and element 1 of a Netlist built in code
@pytest.mark.parametrize(
    "line, kind, column, detail",
    [
        # spin k = n and k = -1
        ("nv a spin_2", SPIN_RANGE, 6, "spin index 2 out of range for spins 2"),
        ("nv a spin_-1", SPIN_RANGE, 6, "spin index -1 out of range for spins 2"),
        ("spinh 2", SPIN_RANGE, 7, "spin index 2 out of range for spins 2"),
        ("spinh -1", SPIN_RANGE, 7, "spin index -1 out of range for spins 2"),
        # a wire given twice as input, a wire both input and output, a wire given twice as output
        ("pbs a a -> c d", ARITY, 1, f"pbs wires ('a', 'a') -> ('c', 'd') {SHARED}"),
        ("pbs a b -> c a", ARITY, 1, f"pbs wires ('a', 'b') -> ('c', 'a') {SHARED}"),
        ("pbs a b -> c c", ARITY, 1, f"pbs wires ('a', 'b') -> ('c', 'c') {SHARED}"),
        ("bs a a -> c d", ARITY, 1, f"bs wires ('a', 'a') -> ('c', 'd') {SHARED}"),
        ("bs a b -> b d", ARITY, 1, f"bs wires ('a', 'b') -> ('b', 'd') {SHARED}"),
        ("bs a b -> c c", ARITY, 1, f"bs wires ('a', 'b') -> ('c', 'c') {SHARED}"),
        ("pbsfs a -> a b", ARITY, 1, f"pbsfs wires ('a',) -> ('a', 'b') {SHARED}"),
        ("pbsfs a -> b b", ARITY, 1, f"pbsfs wires ('a',) -> ('b', 'b') {SHARED}"),
        # an undeclared wire at each operand position
        ("pbs q b -> c d", UNDECLARED, 5, Q_UNDECLARED),
        ("pbs a q -> c d", UNDECLARED, 7, Q_UNDECLARED),
        ("pbs a b -> q d", UNDECLARED, 12, Q_UNDECLARED),
        ("pbs a b -> c q", UNDECLARED, 14, Q_UNDECLARED),
        ("bs q b -> c d", UNDECLARED, 4, Q_UNDECLARED),
        ("bs a q -> c d", UNDECLARED, 6, Q_UNDECLARED),
        ("bs a b -> q d", UNDECLARED, 11, Q_UNDECLARED),
        ("bs a b -> c q", UNDECLARED, 13, Q_UNDECLARED),
        ("pbsfs q -> b c", UNDECLARED, 7, Q_UNDECLARED),
        ("pbsfs a -> q c", UNDECLARED, 12, Q_UNDECLARED),
        ("pbsfs a -> b q", UNDECLARED, 14, Q_UNDECLARED),
        ("hwp q", UNDECLARED, 5, Q_UNDECLARED),
        ("nv q spin_0", UNDECLARED, 4, Q_UNDECLARED),
        # two faults on one line: the spin before the wires, a shared wire before an undeclared one
        ("nv q spin_9", SPIN_RANGE, 6, "spin index 9 out of range for spins 2"),
        ("pbs a q -> c q", ARITY, 1, f"pbs wires ('a', 'q') -> ('c', 'q') {SHARED}"),
        ("bs q q -> c d", ARITY, 1, f"bs wires ('q', 'q') -> ('c', 'd') {SHARED}"),
        ("pbsfs q -> q b", ARITY, 1, f"pbsfs wires ('q',) -> ('q', 'b') {SHARED}"),
    ],
)
def test_an_element_fault_is_located_and_worded_as_the_one_fault_finder_words_it(line, kind, column, detail):
    err = _expect_error(f"{DIAGNOSTIC_HEADER}hwp a\n{line}\n", kind, 4)
    assert (err.column, err.detail) == (column, detail), err
    with pytest.raises(NetlistError) as built:
        Netlist(2, ("a", "b", "c", "d"), (Element(Kind.HWP, ("a",), ("a",)), _element_of(line)), ())
    assert (built.value.kind, built.value.line, built.value.column) == (kind, None, None)
    assert built.value.detail == f"element 1: {detail}"


def test_apply_spin_ops_needs_one_operator_per_spin():
    with pytest.raises(DimensionMismatchError, match="1 operators for 4 spin amplitudes"):
        apply_spin_ops(np.ones(4, dtype=complex), (Pauli.Z,))


def test_load_netlist_reads_the_shipped_files_with_or_without_a_bom(tmp_path):
    for name in GATE_NAMES:
        for encoding in ("utf-8", "utf-8-sig"):
            path = tmp_path / f"{name}.nv"
            path.write_text(shipped_circuit_text(name), encoding=encoding)
            assert load_netlist(path) == build_gate_circuit(name)


def test_run_netlist_zero_state_all_null():
    net = parse_netlist(SMALL)
    template = balanced_product_input(net)
    zero = HybridState(template.modes, template.n_spins, np.zeros_like(template.amps))
    for outcome in run_netlist(net, zero):
        assert outcome.probability == 0.0
        assert not outcome.spins.amps.any()


def test_null_outcome_spins_shared_and_read_only():
    # the photon never reaches b, so both of its outcomes have p = 0 and never click
    net = parse_netlist("spins 2\nmodes a b\nhwp a\ndetect a\ndetect b\n")
    outcomes = run_netlist(net, balanced_product_input(net))
    assert [o.probability for o in outcomes[2:]] == [0.0, 0.0]
    for null in outcomes[2:]:
        assert null.spins is null
        assert not null.amps.flags.writeable
        with pytest.raises(ValueError):
            null.amps[0] = 1.0


def test_outcome_and_spin_state_are_plain_records():
    net = parse_netlist("spins 2\nmodes a b\nhwp a\ndetect a\ndetect b\n")
    outcome = run_netlist(net, balanced_product_input(net))[0]
    assert type(outcome) is Outcome and type(outcome.spins) is Outcome
    label, probability, amps = outcome
    assert label == "Fa" and probability == outcome.probability and amps is outcome.amps
    assert 0.0 < probability < 1.0
    label, probability, spin_amps = outcome.spins
    assert (label, probability) == (outcome.label, 1.0)
    assert np.array_equal(spin_amps, outcome.amps / math.sqrt(outcome.probability))
    assert not spin_amps.flags.writeable
    with pytest.raises(ValueError):
        spin_amps[0] = 1.0


def test_outcome_probabilities_sum_to_norm(rng):
    for _ in range(25):
        net = random_netlist(rng)
        state = random_hybrid_input(rng, net)
        pair = random_reflection(rng, resonant_cold=False)
        outcomes = run_netlist(net, state, pair)
        survived = sum(o.probability for o in outcomes)
        final_norm = 0.0
        for _, st in iter_element_states(net, state, pair):
            final_norm = st.norm2()
        assert survived == pytest.approx(final_norm, abs=1e-12)


def test_norm_monotone_through_elements(rng):
    for _ in range(25):
        net = random_netlist(rng)
        state = random_hybrid_input(rng, net)
        pair = random_reflection(rng, resonant_cold=False)
        prev = state.norm2()
        for _, st in iter_element_states(net, state, pair):
            now = st.norm2()
            assert now <= prev + 1e-12
            prev = now


def test_manual_feedforward_composition(rng):
    # dropping the table and applying the same ops per outcome is identical
    net = parse_netlist(SMALL)
    state = balanced_product_input(net)
    pair = random_reflection(rng)
    with_ff = run_netlist(net, state, pair)
    without = run_netlist(replace(net, feedforward=()), state, pair)
    table = dict(net.feedforward)
    for auto, raw in zip(with_ff, without):
        assert auto.probability == pytest.approx(raw.probability, abs=1e-15)
        manual = apply_spin_ops(raw.amps, table[raw.label])
        assert np.abs(auto.amps - manual).max() < 1e-15


def test_outcome_labels_and_ordering():
    net = parse_netlist(SMALL)
    outcomes = run_netlist(net, balanced_product_input(net))
    assert [o.label for o in outcomes] == ["Fout", "Sout"]
    assert [o.label[0] for o in outcomes] == ["F", "S"]


@pytest.mark.parametrize("source", GATE_NAMES + ("random",))
def test_outcome_amps_and_probability_match_oracle(rng, source):
    # unnormalized, feedforward-corrected amplitudes, pinned to the dense oracle
    nets = [random_netlist(rng) for _ in range(10)] if source == "random" else [build_gate_circuit(source)]
    for net in nets:
        pair = random_reflection(rng, resonant_cold=False)
        state = random_hybrid_input(rng, net)
        final = oracle.apply_circuit(net, state, pair).reshape(state.amps.shape)
        outcomes = run_netlist(net, state, pair)
        expected = oracle.detect(net, final)
        assert [o.label for o in outcomes] == [label for label, _, _ in expected]
        for o, (_, prob, spins) in zip(outcomes, expected):
            assert not o.amps.flags.writeable
            with pytest.raises(ValueError):
                o.amps[0] = 1.0
            assert abs(o.probability - prob) < 1e-12
            assert np.abs(o.amps - spins).max() < 1e-12


def _runs(net):
    """``nv_runs(net)``'s runs as (depth, position, number of ``nv`` elements)."""
    return [(depth, pos, len(nvs)) for depth, pos, nvs in nv_runs(net)[0]]


@pytest.mark.parametrize("gate, runs", [
    ("cnot", [(0, 1, 1), (1, 6, 1)]),
    ("toffoli", [(0, 1, 1), (1, 7, 1), (1, 12, 1), (2, 17, 1)]),
    ("fredkin", [(0, 1, 1), (1, 7, 2), (1, 13, 2), (3, 20, 2)]),
])
def test_nv_runs_of_the_shipped_gates(gate, runs):
    net = build_gate_circuit(gate)
    assert _runs(net) == runs
    for _, pos, nvs in nv_runs(net)[0]:  # each shipped run is consecutive lines
        assert nvs == net.elements[pos : pos + len(nvs)]
        assert all(el.kind is Kind.NV_SCATTER for el in nvs)


_ONE_WIRE = "spins 2\nmodes a\nnv a spin_0\n{}\nnv a spin_1\n"


def test_spinh_does_not_end_an_nv_run():
    net = parse_netlist(_ONE_WIRE.format("spinh 1"))
    assert _runs(net) == [(0, 0, 2)]
    assert nv_runs(net)[1] == {"a": 2}


def test_hwp_splits_an_nv_run_into_two_passes():
    net = parse_netlist(_ONE_WIRE.format("hwp a"))
    assert _runs(net) == [(0, 0, 1), (1, 2, 1)]
    assert nv_runs(net)[1] == {"a": 2}


def test_pbs_resets_its_inputs_and_gives_each_output_their_max():
    net = parse_netlist(
        "spins 1\nmodes a b c d\n"
        "nv a spin_0\nnv a spin_0\nnv b spin_0\n"
        "pbs a b -> c d\nnv c spin_0\nnv a spin_0\n"
    )
    assert _runs(net) == [(0, 0, 2), (0, 2, 1), (2, 4, 1), (0, 5, 1)]
    assert nv_runs(net)[1] == {"a": 1, "b": 0, "c": 3, "d": 2}


def test_nv_runs_result_keeps_its_values():
    net = build_gate_circuit("cnot")
    runs, depth = nv_runs(net)
    assert depth["7"] == 0  # wire 7 has left through the last pbs
    assert [d for d, _, _ in runs] == [0, 1]  # the nv on wire 7 saw depth 1
    nv_runs(net)
    assert [d for d, _, _ in runs] == [0, 1] and depth["7"] == 0 and depth["9"] == 2
