"""Property tests: serializing a netlist and parsing the text gives it back,
the parser's tokens and columns are those of the pattern ``\\S+``, a
mutated circuit text parses or raises a located diagnostic, never anything
else, and a netlist built in code is refused when it is made, with the
diagnostic kind its text gets, or is the parse of its text and runs.

Generated netlists use every element kind, declared modes that nothing
occupies (vacuum ports), detectors in any order and feedforward tables of
``I``/``Z``/``-Z`` keyed by the detectors' outcome labels.  Mode labels are
identifiers.
"""

import random
import re
import string

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvgates.cavity import resonant_pair
from nvgates.elements import LAYOUTS, Element, Kind, Pauli
from nvgates.gates import GATE_NAMES, shipped_circuit_text
from nvgates.netlist import (
    DiagnosticKind,
    Netlist,
    NetlistError,
    _column,
    _tokens,
    apply_elements,
    balanced_product_input,
    parse_netlist,
    run_netlist,
    serialize_netlist,
)

from conftest import mutate_netlist_text, random_netlist, text_refusal

_HEAD = string.ascii_letters + "_"
LABELS = st.builds(str.__add__, st.sampled_from(_HEAD), st.text(_HEAD + string.digits, max_size=5))
SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def netlists(draw):
    n_spins = draw(st.integers(1, 3))
    modes: list[str] = []

    def new_mode():
        label = draw(LABELS)
        while label in modes:
            label += "_"
        modes.append(label)
        return label

    def read():
        # a wire already declared, or a new one that nothing occupies
        return draw(st.sampled_from(modes)) if modes and draw(st.booleans()) else new_mode()

    spins = st.integers(0, n_spins - 1)
    elements = []
    for kind in draw(st.lists(st.sampled_from(list(Kind)), max_size=10)):
        if kind is Kind.SPIN_H:
            elements.append(Element(kind, spin=draw(spins)))
        elif kind in (Kind.HWP, Kind.NV_SCATTER):
            m = (read(),)
            elements.append(Element(kind, m, m, draw(spins) if kind is Kind.NV_SCATTER else None))
        else:
            ins = [read()]
            if kind is not Kind.PBS_FS:
                second = read()
                ins.append(second if second != ins[0] else new_mode())
            # outputs are new wires, so no wire is read before it is written
            elements.append(Element(kind, tuple(ins), (new_mode(), new_mode())))
    for _ in range(draw(st.integers(int(not modes), 2))):  # at least one mode
        new_mode()
    detectors = tuple(draw(st.lists(st.sampled_from(modes), unique=True)))
    net = Netlist(n_spins, tuple(modes), tuple(elements), detectors)
    ops = st.tuples(*[st.sampled_from(list(Pauli))] * n_spins)
    table = draw(st.dictionaries(st.sampled_from(net.outcome_labels()), ops)) if detectors else {}
    return Netlist(n_spins, net.modes, net.elements, detectors, tuple(table.items()))


@SETTINGS
@given(netlists())
def test_parse_of_serialized_netlist_gives_it_back(net):
    text = serialize_netlist(net)
    assert parse_netlist(text) == net
    assert serialize_netlist(parse_netlist(text)) == text


# no form takes more than two wires on a side; distinct labels, since a
# repeated wire is always rejected
WIRES = st.lists(st.sampled_from("abcdef"), max_size=2, unique=True).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(Kind)), WIRES, WIRES, st.none() | st.integers(0, 2))
def test_every_element_a_netlist_accepts_serializes(kind, in_modes, out_modes, spin):
    try:
        net = Netlist(3, tuple("abcdef"), (Element(kind, in_modes, out_modes, spin),), ())
    except NetlistError as exc:
        assert exc.kind is DiagnosticKind.ARITY_MISMATCH, exc
        return
    assert parse_netlist(serialize_netlist(net)) == net


DECLARED = tuple("abcdefg")
NON_TOKENS = ("a b", "a#b", "", "a\xa0b")  # labels that a .nv text cannot hold as one mode


@st.composite
def code_built(draw):
    """(n_spins, modes, elements, detectors, feedforward) of a netlist built
    in code: any kinds, with wires in the kind's form, detectors, and rules
    of one Pauli per spin labelled ``F``, ``S``, ``f`` or ``X`` and then a
    detector or the undeclared ``z``.  Half of them may also name
    undeclared labels ``x`` and ``y``, and spins -1, n and True, so that the
    other half mostly runs.  Some also declare one of :data:`NON_TOKENS`,
    and some detect one or label a rule with one."""
    n_spins = draw(st.integers(1, 3))
    stray = draw(st.booleans())
    declared = DECLARED + ((draw(st.sampled_from(NON_TOKENS)),) if draw(st.integers(0, 4)) == 0 else ())
    labels = st.sampled_from(declared + ("x", "y") if stray else declared)
    spins = st.integers(-1, n_spins) | st.just(True) if stray else st.integers(0, n_spins - 1)
    elements = []
    for kind in draw(st.lists(st.sampled_from(list(Kind)), max_size=5)):
        lay = LAYOUTS[kind]
        ins = tuple(draw(st.lists(labels, min_size=len(lay.ins), max_size=len(lay.ins))))
        outs = ins if lay.in_place else tuple(draw(st.lists(labels, min_size=len(lay.outs), max_size=len(lay.outs))))
        elements.append(Element(kind, ins, outs, None if lay.spin is None else draw(spins)))
    detectors = draw(st.lists(labels, unique=True, max_size=3))
    # mostly outcome labels; z is never declared
    outcome = st.builds(str.__add__, st.sampled_from(("F", "S") * 3 + ("f", "X")), st.sampled_from(detectors + ["z"]))
    feedforward = draw(st.lists(st.tuples(outcome, st.tuples(*[st.sampled_from(list(Pauli))] * n_spins)), max_size=2))
    part = draw(st.sampled_from((None,) * 4 + ("detector", "rule")))  # a non-token there in about one draw in five
    if part == "detector":
        detectors.append(draw(st.sampled_from(NON_TOKENS)))
    elif part == "rule":
        feedforward.append((draw(st.sampled_from(NON_TOKENS)), (Pauli.I,) * n_spins))
    return n_spins, declared, tuple(elements), tuple(detectors), tuple(feedforward)


@settings(max_examples=150, deadline=None)
@given(code_built())
@example((1, ("a", "b"), (Element(Kind.HWP, ("x",), ("x",)),), ("a",)))  # an undeclared wire
@example((1, ("a", "b"), (), ("x",)))  # a detector on an undeclared mode
@example((1, ("a",), (Element(Kind.NV_SCATTER, ("a",), ("a",), 3),), ("a",)))  # spin 3 of 1
@example((1, ("a", "a"), (), ("a",)))  # a mode declared twice
@example((True, ("a",), (Element(Kind.SPIN_H, spin=0),), ("a",)))  # a bool spin count
@example((1, ("a", "b", "c", "d"), (Element(Kind.HWP, ("c",), ("c",)), Element(Kind.PBS_RL, ("a", "b"), ("c", "d"))),
          ("c",)))  # c read before its writer
@example((1, ("a", "a b"), (), ("a",)))  # a label of two tokens
def test_a_netlist_built_in_code_is_refused_when_made_or_runs(fields):
    n_spins, modes, elements, detectors, feedforward = (*fields, ())[:5]  # an example may leave out feedforward
    bad_fields = (  # (drawn bad, the start of its message), in the order Netlist checks them
        (type(n_spins) is not int, "Netlist.n_spins must be a positive int"),
        (len(set(modes)) < len(modes) or not all(isinstance(m, str) for m in modes), "Netlist.modes must be"),
        (set(modes) & set(NON_TOKENS), "Netlist mode .* is not one .nv token"),
        (any(type(el.spin) is bool for el in elements), "Netlist element .* is not an Element"),
        (set(detectors) & set(NON_TOKENS), "Netlist detector .* is not one .nv token"),
        (any(label in NON_TOKENS for label, _ in feedforward), "Netlist outcome label .* is not one .nv token"),
    )
    message = next((message for drawn, message in bad_fields if drawn), None)
    if message is not None:  # a malformed field: refused as that field, before any circuit fact is checked
        with pytest.raises(ValueError, match=f"^{message}") as err:
            Netlist(*fields)
        assert type(err.value) is ValueError
        return
    try:
        net = Netlist(*fields)
    except NetlistError as exc:  # a circuit fact: its text is refused with the same kind
        assert text_refusal(*fields).kind is exc.kind, exc
        return
    # the text format expresses it, and a run finds on the detectors all the norm that reaches them
    assert parse_netlist(serialize_netlist(net)) == net
    state, pair = balanced_product_input(net), resonant_pair(0.6)
    before = apply_elements(net, state, pair)
    detected = [before.mode_index(m) for m in net.detectors]
    found = sum(o.probability for o in run_netlist(net, state, pair))
    assert abs(found - float((abs(before.amps[:, detected]) ** 2).sum())) <= 1e-12


def test_a_netlist_over_the_amplitude_cap_is_refused_when_made():
    # 2 * 1 mode * 2**24 configurations; never run, which would allocate it
    with pytest.raises(ValueError, match="exceeds"):
        Netlist(24, ("a",), (), ("a",))


def test_generator_reaches_every_kind():
    seen = set()

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(netlists())
    def collect(net):
        seen.update(el.kind for el in net.elements)

    collect()
    assert seen == set(Kind)


# arbitrary text, with whitespace of every kind and comment marks drawn often
SOURCE_LINES = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u2003\u3000#ab->") | st.characters())


@settings(max_examples=300, deadline=None)
@given(SOURCE_LINES)
def test_columns_agree_with_the_regular_expression(line):
    matches = list(re.finditer(r"\S+", line.split("#", 1)[0]))
    assert _tokens(line) == [m.group() for m in matches]
    assert [_column(line, i) for i in range(len(matches))] == [m.start() + 1 for m in matches]


# the shipped circuits and generated ones of 0 to 10 elements
TEXTS = [shipped_circuit_text(gate) for gate in GATE_NAMES] + [
    serialize_netlist(random_netlist(np.random.default_rng(seed), n_elements=seed)) for seed in range(11)
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TEXTS), st.integers(0, 2**32))
def test_a_mutated_text_parses_or_raises_a_located_diagnostic(text, seed):
    text = mutate_netlist_text(random.Random(seed), text)
    try:
        assert isinstance(parse_netlist(text), Netlist)
    except NetlistError as exc:
        assert 1 <= exc.line <= len(text.splitlines()) + 1 and exc.column >= 1, exc
