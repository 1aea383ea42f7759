"""Fuzz tests of the command line, in process: every argument list ends in an
exit code of 0, 1 or 2, and under --json in an envelope that parses; and
main's one parse answers as the top-level parser's two parses did."""

import contextlib
import io
import json
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockspectra import cli

small_ints = st.integers(-2, 14).map(str)
valid_parts = st.lists(st.integers(1, 14), min_size=1, max_size=5).map(
    lambda parts: sorted(parts, reverse=True)
)
any_parts = st.lists(st.integers(-2, 14), max_size=5)
partition_texts = st.one_of(
    st.one_of(valid_parts, any_parts).map(lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["", ",", "1,,2", "a,b", "3.5", "-"]),
)
formats = st.sampled_from([[], ["--json"], ["--csv"], ["--json", "--csv"]])
max_dims = st.one_of(st.just([]), small_ints.map(lambda n: ["--max-dim", n]))
# a full sweep takes seconds from --max-d 8 on, so the fuzz stays below it
max_ds = st.integers(-2, 4).map(lambda n: ["--max-d", str(n)])


def _ints(n):
    return st.lists(small_ints, min_size=n, max_size=n)


commands = st.one_of(
    st.tuples(st.just(["spectrum"]), _ints(2), st.sampled_from([[], ["--eigenvectors"]])),
    st.tuples(st.sampled_from([["basis"], ["gpoly"]]), _ints(2), st.just([])),
    st.tuples(st.just(["straighten"]), _ints(4), st.just([])),
    st.tuples(st.just(["tmatrix"]), _ints(2), st.sampled_from([[], ["--basis", "monomial"]])),
    st.tuples(st.just(["hooks"]), partition_texts.map(lambda t: [t]), st.just([])),
    st.tuples(st.just(["verify"]), st.just([]), max_ds),
    st.tuples(st.sampled_from([[], ["nonsense"]]), st.lists(small_ints, max_size=2), st.just([])),
)


@st.composite
def argv_lists(draw):
    command, positionals, options = draw(commands)
    return command + positionals + options + draw(formats) + draw(max_dims)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv_lists())
@example(["spectrum", "99999999999999999999", "2", "--json"])
@example(["spectrum", "20000", "10000", "--json"])
@example(["spectrum", "60", "60", "--json"])
@example(["gpoly", "99999999999999", "3", "--max-dim", "5", "--json"])
@example(["gpoly", "20000", "20000", "--json"])
@example(["verify", "--max-d", "100000000000", "--json"])
@example(["hooks", "99999999999999999999,1"])
def test_every_argument_list_ends_in_a_documented_exit_code(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse refuses the arguments
            code, out = e.code, None
    assert code in (0, 1, 2)
    if out is not None and "--json" in argv:
        json.loads(out.getvalue())


# tokens whose parse differs most between parsers: help and its prefix, abbreviated and attached options,
# the end of options, a negative number, a format option before the command, a second command, a leftover
EDGE_TOKENS = ["-h", "--he", "--eig", "--max-dim=5", "--", "-2", "--json", "spectrum", "extra"]


@st.composite
def argv_lists_with_edge_tokens(draw):
    argv = draw(argv_lists())
    for token in draw(st.lists(st.sampled_from(EDGE_TOKENS), max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


def _outcome(call, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _two_parses(argv) -> int:
    """The top-level parser, which calls the command's parser, then the answer: main before it parsed once."""
    args = cli.build_parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return cli._answer(args)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv_lists_with_edge_tokens())
@example([])
@example(["-h"])
@example(["spectrum", "-h"])
@example(["spectrum", "--he"])
@example(["spectrum", "8", "3", "--eig"])
@example(["spectrum", "8", "3", "--max-dim=5"])
@example(["spectrum", "--", "8", "3"])
@example(["spectrum", "-2", "3"])
@example(["--json", "spectrum", "8", "3"])
@example(["spectrum", "8", "3", "extra"])
@example(["nonsense"])
def test_one_parse_answers_as_two_parses_did(argv):
    assert _outcome(cli.main, argv) == _outcome(_two_parses, argv)
