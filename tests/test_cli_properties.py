"""Property tests: any command line built from the parser's own subcommands,
choices and flags either succeeds quietly or is refused in one line, and
``main`` reads it, and the edge lines of :data:`EDGE_LINES`, as the whole
parser does: it hands the command the same namespace, or prints and exits
as the whole parser does.

Values are drawn from the edges of the float and int types (signed zeros,
subnormals, numbers near the float limit, NaN, infinities, integers past
64 bits) and from malformed strings.  ``--trials`` and ``--steps`` stay
small so that every example runs in milliseconds; ``run`` reads the
shipped circuit files, and every file a command writes lands under the
test's temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
from importlib import resources

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nvgates import cli
from nvgates.cli import build_parser
from nvgates.gates import GATE_NAMES

from conftest import run_cli

NUMBERS = st.sampled_from([
    "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "1e-200", "1e-160", "-1e-160", "0.5", "0.7", "1", "2",
    "-1", "1e154", "1e200", "1e308", "1.7e308", "-1.7e308", "1e400", "nan", "-nan", "inf", "-inf",
    str(2**64), str(-(2**70)), "", "x", "1e", "0x10", "1,2", "1_0", " 3",
]) | st.floats().map(repr) | st.integers().map(str)
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2", "3", str(10**30), "2.5", "x"])
CIRCUITS = [str(resources.files("nvgates").joinpath(f"circuits/{gate}.nv")) for gate in GATE_NAMES]
SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _value(action: argparse.Action) -> st.SearchStrategy[str]:
    """The values drawn for one argument of a subcommand."""
    if action.choices is not None:
        return st.sampled_from([*action.choices, "bogus"])
    if action.dest == "netlist":
        return st.sampled_from(CIRCUITS)
    if action.dest in ("trials", "steps"):
        return SMALL_INTS
    if action.type in (int, float):
        return NUMBERS
    if action.dest == "gates":
        return st.lists(st.sampled_from([*GATE_NAMES, "CNOT", "bogus"]), min_size=1, max_size=3).map(",".join)
    if action.dest == "input":
        return st.just("balanced") | st.lists(NUMBERS | st.sampled_from(["1j", "-0j", "1e300j"]), max_size=7).map(",".join)
    return st.sampled_from(["out.csv", "report.txt"])  # relative: under NVGATES_OUT_DIR


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(SUBPARSERS)))
    actions = [a for a in SUBPARSERS[command]._actions if not isinstance(a, argparse._HelpAction)]
    argv = [command] + [draw(_value(a)) for a in actions if not a.option_strings]
    optional = [a for a in actions if a.option_strings]
    for action in draw(st.lists(st.sampled_from(optional), unique=True, max_size=len(optional))):
        flag = action.option_strings[-1]
        argv.append(flag if action.nargs == 0 else f"{flag}={draw(_value(action))}")
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
@example(argv=["run", CIRCUITS[0], "--input=1e-160,1e-160,1,0"])
@example(argv=["run", CIRCUITS[0], "--input=5e-324,0,1,0"])
@example(argv=["run", CIRCUITS[0], "--input=0,3e-320j,1,0"])
@example(argv=["sweep", "--min=1e308", "--max=1.7e308", "--steps=3"])
def test_any_command_line_succeeds_quietly_or_fails_in_one_line(argv, tmp_path, monkeypatch):
    monkeypatch.setenv("NVGATES_OUT_DIR", str(tmp_path))
    code, out, err = run_cli(argv)
    assert "nan" not in out.lower(), out
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        *usage, last = err.splitlines() or [""]
        assert "error:" in last, err  # after argparse's usage lines, if argparse refused it
        assert not usage or (usage[0].startswith("usage: ") and all(line[:1] == " " for line in usage[1:])), err
        assert "Traceback" not in err and "Warning" not in err, err


HANDLERS = [name for name in vars(cli) if name.startswith("cmd_")]
# command lines at the edges of argparse's reading: help and an abbreviation of it, no command, an unknown or
# mis-cased one, "--" before or after it, abbreviated, unknown and repeated flags, stray words and negative
# values.  None holds a word that main's negative-value rewrite joins to its flag, so the whole parser reads
# the same words as main.
EDGE_LINES = [
    [], ["-h"], ["--he"], ["-x"], ["bogus"], ["VERIFY", "cnot"], ["--", "verify", "cnot"], ["--help", "verify"],
    ["verify"], ["verify", "-h"], ["verify", "bogus"], ["verify", "cnot", "cnot"], ["verify", "-x", "cnot"],
    ["verify", "cnot", "-hx"], ["verify", "cnot", "--help=x"], ["verify", "cnot", "--trials", "3", "extra"],
    ["verify", "cnot", "--tri", "2"], ["verify", "--", "cnot", "--trials", "2"], ["verify", "cnot", "--", "extra"],
    ["verify", "CNOT", "--trials", "2"], ["verify", "cnot", "--trials", "x"], ["verify", "cnot", "--seed", "-1"],
    ["verify", "cnot", "--ideal", "--ratio", "1"], ["verify", "cnot", "--trials=2", "--r-hot", "-0.5"],
    ["truth-table"], ["truth-table", "toffoli"], ["truth-table", "fredkin", "--ratio=-1j"], ["run"],
    ["run", "--input"], ["sweep", "--bogus"], ["sweep", "--convention", "nope"], ["params"],
    ["params", "--q", "1e5", "junk"], ["params", "--ratio=-5e-1", "--omega-c=-1e-3"],
]


def _fields(args: argparse.Namespace) -> str:
    """The fields of ``args`` in name order, by ``repr``, so that NaN matches NaN and -0.0 differs from 0.0."""
    return repr(sorted(vars(args).items()))


def _whole_parse(argv):
    """The fields of what ``build_parser().parse_args(argv)`` returns, or None; then its exit code, stdout and
    stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return _fields(build_parser().parse_args(argv)), 0, "", ""
        except SystemExit as exc:
            code = exc.code
    return None, code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_main_reads_a_command_line_as_the_whole_parser_does(argv):
    called = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")  # argparse wraps its usage and help text to the terminal width
        for name in HANDLERS:
            mp.setattr(cli, name, lambda args: called.append(_fields(args)) or 0)
        code, out, err = run_cli(argv)
        parsed, *refusal = _whole_parse(argv)
    if parsed is None:  # refused, or help printed, with the same words and exit code
        assert (called, [code, out, err]) == ([], refusal)
    else:  # the command's handler gets the namespace the whole parser makes
        assert (called, code, out, err) == ([parsed], 0, "", "")


for _argv in EDGE_LINES:
    test_main_reads_a_command_line_as_the_whole_parser_does = example(argv=_argv)(
        test_main_reads_a_command_line_as_the_whole_parser_does)
