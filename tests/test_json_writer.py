"""The package's one sorted JSON writer, conditions._json_text, against
json.dumps(doc, indent=2, sort_keys=True), byte for byte: on certificates,
on every document the CLI writes with it, and on hand-picked and random
documents."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellspec import cli, mestre
from ellspec.cli import main
from ellspec.conditions import _certificate_doc, _json_text, certificate_to_json, check_condition
from ellspec.parsing import parse_curve


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "text, condition, t0, passed, notes",
    [
        ("e=(0, t, 7*t+1)", "A", Fraction(1, 21), True, 0),
        ("e=(0, t, 7*t+1)", "A", 1, False, 0),
        ("e=(0, t, 7*t+1)", "Aprime", 0, False, 1),  # singular at t0 = 0
        ("y^2 = x^3 + t^2*x^2 - x", "scriptA", 2, True, 0),
        ("y^2 = x^3 - x + t^2", "A1B", 3, True, 1),
        ("y^2 = x^3 + t*x^2 + x + t", "A1B", 3, False, 2),
    ],
    ids=["pass", "fail", "singular", "scriptA", "A1B", "A1B with a root"],
)
def test_certificates_are_written_as_json_dumps_writes_them(text, condition, t0, passed, notes):
    report = check_condition(parse_curve(text), condition, t0)
    doc = _certificate_doc(report)
    assert (report.passed, len(report.notes)) == (passed, notes)
    assert certificate_to_json(report) == _json_text(doc) == _dumps(doc)
    if condition == "A1B":
        assert set(doc["subresults"]) == {"A1", "B"}


def test_every_document_the_cli_sorts_is_written_as_json_dumps_writes_it(monkeypatch, capsys, tmp_path):
    written = []

    def recorded(doc):
        text = _json_text(doc)
        written.append((doc, text))
        return text

    monkeypatch.setattr(cli, "_json_text", recorded)
    monkeypatch.setattr(mestre, "_json_text", recorded)
    cert = tmp_path / "cert.json"
    cert.write_text(certificate_to_json(check_condition(parse_curve("e=(0, t, 7*t+1)"), "A", Fraction(1, 21))))
    for argv in [
        ("factor", "12-12*t^6", "--json"),
        ("specialize", "--curve", "y^2 = x^3 + t^2*x^2 - x", "--point", "(1, t)", "--t0", "3", "--json"),
        ("specialize", "--curve", "y^2 = x^3 + t^2*x^2 - x", "--point", "O", "--t0", "3", "--json"),
        ("mestre", "--a", "1", "--b", "1", "--t0", "3", "--json"),
        ("mestre", "--a", "2", "--b", "12", "--t0", "4", "--specialized-rank", "2",
         "--rank-source", 'a "quoted" \\ source, é', "--json"),
        ("check", "--replay", str(cert), "--json"),
    ]:
        written.clear()
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        [(doc, text)] = written
        assert text == _dumps(doc), argv
        assert out == text + "\n"


STRINGS = [
    "", "plain", 'a "quote"', "back\\slash", "/slash", "tab\tnew\nline\rreturn",
    "".join(map(chr, range(32))) + "\x7f", "café", "中文", "\U0001f600",
    "line\u2028separator\u2029", "\ud800 lone surrogate",
]


@pytest.mark.parametrize("s", STRINGS)
def test_strings_are_escaped_as_json_dumps_escapes_them(s):
    for doc in (s, [s], {s: s, "key": [s, {"inner": s}]}):
        assert _json_text(doc) == _dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {}, [], (), {"a": {}, "b": [], "c": [[], [[]], {}]},
        {"b": {"d": [1, [2, {"e": None}]], "c": ()}, "a": (1, "x")},
        [0, -1, 10**300, -(10**4000), 2**64],
        {"true": True, "one": 1, "false": False, "zero": 0, "none": None},
        [True, 1, False, 0, None, "1", "true"],
        {"z": 1, "a": 2, "B": 3, "é": 4, "": 5, "10": 6, "9": 7},
    ],
    ids=["empty dict", "empty list", "empty tuple", "nested empties", "nested", "ints",
         "bools and ints", "bools in a list", "key order"],
)
def test_containers_and_numbers_are_written_as_json_dumps_writes_them(doc):
    assert _json_text(doc) == _dumps(doc)


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "not a number"


def test_a_subclass_of_str_or_int_is_written_as_its_base_type():
    doc = {"s": _Str("a\nb"), "n": [_Int(7)], _Str("k"): _Int(-3)}
    assert _json_text(doc) == _dumps(doc)


@pytest.mark.parametrize("value", [1.5, {1, 2}, Fraction(1, 2), b"bytes", object()],
                         ids=["float", "set", "Fraction", "bytes", "object"])
def test_an_unsupported_type_raises_type_error(value):
    for doc in (value, [value], {"a": value}):
        with pytest.raises(TypeError):
            _json_text(doc)


@pytest.mark.parametrize("keys", [{1: "a"}, {"a": 1, 2: "b"}, {None: 1}])
def test_a_key_other_than_a_str_raises_type_error(keys):
    with pytest.raises(TypeError):
        _json_text(keys)


def test_an_int_past_the_digit_limit_raises_the_value_error_of_json_dumps():
    big = 10 ** sys.get_int_max_str_digits()
    for doc in (big, [big], {"a": -big}):
        with pytest.raises(ValueError) as ours:
            _json_text(doc)
        with pytest.raises(ValueError) as theirs:
            _dumps(doc)
        assert str(ours.value) == str(theirs.value)


_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_random_documents_are_written_as_json_dumps_writes_them(doc):
    assert _json_text(doc) == _dumps(doc)
