"""The JSON file formats: field checks, the JSONL reader and writer round trip."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relexpl import jsonio

KEYS = st.text(max_size=6).filter(lambda k: k != "_header")
VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8)
OBJECTS = st.dictionaries(KEYS, VALUES, max_size=4)
BLANK = st.sampled_from(["", "  ", "\t"])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(OBJECTS, max_size=5), header=st.none() | OBJECTS,
       blanks=st.lists(st.tuples(st.integers(0, 6), BLANK), max_size=4))
def test_rows_and_header_round_trip_around_blank_lines(tmp_path_factory, rows, header, blanks):
    path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
    jsonio.write_jsonl(str(path), rows, header=header)
    lines = path.read_text().splitlines()
    for at, blank in blanks:
        lines.insert(min(at, len(lines)), blank)
    path.write_text("".join(line + "\n" for line in lines))

    assert jsonio.read_header(str(path)) == ({} if header is None else header)
    read = list(jsonio.read_rows(str(path)))
    assert [row for _, row in read] == rows
    for where, row in read:  # each row names the line it sits on
        lineno = int(where.rsplit(" line ", 1)[1])
        assert jsonio.check_fields(row, where, {}) == row
        assert json.loads(lines[lineno - 1]) == row


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_refuses_non_finite_numbers_and_leaves_no_file(tmp_path, value):
    with pytest.raises(ValueError, match=r"rows\.jsonl line 3: Out of range float"):
        jsonio.write_jsonl(str(tmp_path / "rows.jsonl"), [{"x": 1.0}, {"x": [1.0, value]}],
                           header={"seed": 0})
    with pytest.raises(ValueError, match=r"head\.jsonl line 1: Out of range float"):
        jsonio.write_jsonl(str(tmp_path / "head.jsonl"), [], header={"x": value})
    assert list(tmp_path.iterdir()) == []


def test_header_is_read_from_the_first_line_alone(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_text('\n{"_header": {"seed": 1}}\n{"not json\n')
    assert jsonio.read_header(str(path)) == {"seed": 1}
    with pytest.raises(ValueError, match="f.jsonl line 3: malformed JSON"):
        list(jsonio.read_rows(str(path)))


@pytest.mark.parametrize("text, cause", [
    ('{"a": 1}\n{"_header": {}}\n', "line 2: a _header line must be the first non-blank line"),
    ('{"_header": {}, "a": 1}\n', "line 1 has unknown key 'a'"),
    ('{"_header": [1]}\n', "line 1 key '_header' must be dict, got [1]"),
    ('{"a": 1}\n\n[1, 2]\n', "line 3 must be a JSON object, got [1, 2]"),
])
def test_malformed_jsonl_names_its_line(tmp_path, text, cause):
    path = tmp_path / "f.jsonl"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"f\.jsonl " + cause.replace("[", r"\[")):
        list(jsonio.read_rows(str(path)))


@pytest.mark.parametrize("obj, cause", [
    ("x", "thing must be a JSON object, got 'x'"),
    ({}, "thing is missing key 'n'"),
    ({"n": True}, "thing key 'n' must be int, got True"),
    ({"n": 1, "tag": 5}, "thing key 'tag' must be str, got 5"),
    ({"n": 1, "other": 0}, "thing has unknown key 'other'"),
])
def test_check_fields_names_the_object_and_the_key(obj, cause):
    with pytest.raises(ValueError, match=cause):
        jsonio.check_fields(obj, "thing", {"n": jsonio.INT}, {"tag": jsonio.STR}, exact=True)


def test_check_fields_passes_known_fields_through():
    obj = {"n": 2, "tag": "t"}
    assert jsonio.check_fields(obj, "thing", {"n": jsonio.INT}, {"tag": jsonio.STR},
                               exact=True) is obj
    assert jsonio.check_fields({"n": 2, "x": 0}, "thing", {"n": jsonio.INT}) == {"n": 2, "x": 0}


def test_read_object_names_the_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match=r"m\.json must be a JSON object, got \[1, 2\]"):
        jsonio.read_object(str(path))
    path.write_text('{"a": ')
    with pytest.raises(ValueError, match=r"m\.json: malformed JSON"):
        jsonio.read_object(str(path))
