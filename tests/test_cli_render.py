"""How the command line renders its output: the JSON encoder against
json.dumps(indent=2), and each request rendering only the form it prints."""

import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockspectra import Polynomial, cli

# quotes, backslashes, control characters, non-ASCII text and JSON's own punctuation
characters = st.one_of(st.sampled_from('"\\/[]{},: \n\t\r\x00\x1f\x7fé€𝄞'), st.characters())
texts = st.text(characters, max_size=8)
signs = st.sampled_from([1, -1])
huge_ints = st.builds(lambda digits, sign: sign * (10**digits + 7), st.integers(4300, 4400), signs)
scalars = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, -1]), st.integers(), huge_ints, texts)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(values)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as cli.main prints, so ints past 4300 digits print in full
    try:
        expected = json.dumps(value, indent=2)
        assert cli._dumps(value) == expected
        with mock.patch.object(json.encoder, "c_make_encoder", None):  # an interpreter without the C encoder
            assert cli._dumps(value) == expected
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value",
    [
        [True, 1, False, 0, None, [], {}, (), [[]], {"": {}}],
        {"a": [1, {"b": [True, 1]}], "c": ()},
        ({"x": [False, 0, None]}, ("[", "]", "{", "}", ",", ":")),
    ],
)
def test_dumps_keeps_true_apart_from_1_and_tuples_as_lists(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1: 2}, {"a": [{None: 1}]}, {"a": 1, True: [1, 2]}, [{"a": {2.5: "x"}}]])
def test_dumps_refuses_a_key_that_is_not_a_str(value):
    # json.dumps would print these keys as strings; the CLI never makes them
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_an_envelope_goes_through_the_c_encoder(monkeypatch, capsys):
    made = []
    make = json.encoder.c_make_encoder
    monkeypatch.setattr(json.encoder, "c_make_encoder", lambda *args: made.append(args) or make(*args))
    assert cli.main(["spectrum", "6", "3", "--json"]) == 0
    assert made and json.loads(capsys.readouterr().out)["result"]["eigenvalues"]


def counting(monkeypatch, owner, name):
    """Replaces owner.name with a wrapper that counts its calls; returns the count list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv, owner, name, expected",
    [
        # the text of g(6,3) is in the payload and would be in the human line: made once
        (["gpoly", "6", "3", "--json"], Polynomial, "__str__", 1),
        (["gpoly", "6", "3"], Polynomial, "__str__", 1),
        # an irregular pair, straightened: its text is made once
        (["straighten", "3", "2", "2", "2", "--json"], cli, "gcombination_str", 1),
        (["straighten", "3", "2", "2", "2"], cli, "gcombination_str", 1),
        # JSON writes no human text and no CSV
        (["tmatrix", "8", "3", "--json"], cli, "rational_str", 0),
        (["tmatrix", "8", "3", "--json"], cli, "_csv", 0),
        (["spectrum", "8", "3", "--json"], cli, "gproduct_str", 0),
        # text and CSV build no JSON payload, and text no CSV
        (["spectrum", "8", "3", "--csv", "--eigenvectors"], cli, "poly_payload", 0),
        (["spectrum", "8", "3", "--eigenvectors"], cli, "poly_payload", 0),
        (["spectrum", "8", "3"], cli, "_csv", 0),
        (["tmatrix", "8", "3", "--csv"], cli, "fraction_str", 0),
        (["tmatrix", "8", "3"], cli, "fraction_str", 0),
        # JSON builds one payload per eigenvector
        (["spectrum", "8", "3", "--eigenvectors", "--json"], cli, "poly_payload", 5),
    ],
)
def test_a_request_renders_only_the_form_it_prints(monkeypatch, capsys, argv, owner, name, expected):
    calls = counting(monkeypatch, owner, name)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
    assert len(calls) == expected


def test_verify_exits_by_its_checks_in_every_form(monkeypatch, capsys):
    failed = [{"name": "a check", "status": "fail", "cases": 1, "failures": ["(1,1)"]}]
    monkeypatch.setattr(cli, "_verify_checks", lambda max_d: failed)
    assert cli.main(["verify", "--max-d", "2"]) == 1
    assert capsys.readouterr().out.endswith("VERIFICATION FAILED\n")
    assert cli.main(["verify", "--max-d", "2", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["result"]["all_passed"] is False


@pytest.mark.parametrize(
    "argv, renderer",
    [
        (["spectrum", "4", "2", "--json", "--eigenvectors"], "poly_payload"),
        (["spectrum", "4", "2"], "gproduct_str"),
        (["spectrum", "4", "2", "--csv"], "gproduct_str"),
        (["tmatrix", "4", "2", "--json"], "fraction_str"),
        (["tmatrix", "4", "2"], "rational_str"),
    ],
)
def test_a_resource_error_while_rendering_exits_2_without_a_traceback(monkeypatch, capsys, argv, renderer):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, renderer, exhausted)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    if "--json" in argv:
        envelope = json.loads(out)
        assert (envelope["status"], envelope["error"], err) == ("fail", "resource error: MemoryError", "")
        assert "result" not in envelope
    else:
        assert (out, err) == ("", "error: resource error: MemoryError\n")
