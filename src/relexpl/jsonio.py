"""The JSON file formats: every JSON file the command line reads goes through here.

A JSONL file (a corpus, importance scores) holds one JSON object per
non-blank line. Its first non-blank line may be a header,
{"_header": {...}}, carrying run metadata; a `_header` key on a later line
is refused. Other files (configs, checkpoint headers, metrics) hold one
JSON object. Fields are checked against tables of key -> (check, what the
value must be), and every fault raises ValueError naming the file and
line, or the object, and the key.
"""

from __future__ import annotations

import json
import math
import reprlib
from itertools import chain
from typing import Iterable, Iterator


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true is no integer


def _is_ints(v) -> bool:
    return isinstance(v, list) and all(map(_is_int, v))


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


# (check of a JSON value, what the value must be), for field tables
INT = (_is_int, "int")
NUMBER = (_is_number, "an int or a float")
STR = (lambda v: isinstance(v, str), "str")
BOOL = (lambda v: isinstance(v, bool), "bool")
LIST = (lambda v: isinstance(v, list), "list")
OBJECT = (lambda v: isinstance(v, dict), "dict")
INTS = (_is_ints, "a list of ints")
INT_PAIR = (lambda v: _is_ints(v) and len(v) == 2, "a list of two ints")
FINITE_NUMBERS = (lambda v: isinstance(v, list) and all(
    _is_number(x) and math.isfinite(x) for x in v), "a list of finite numbers")

_HEADER = "_header"


def check_fields(obj, where: str, required: dict, optional: dict | None = None,
                 exact: bool = False) -> dict:
    """obj itself, once it is a JSON object whose fields pass their checks.

    `required` and `optional` map each key to (check, what its value must
    be); a required key must be present. With exact, a key in neither
    table is refused. Each fault raises ValueError naming `where` and the key.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {reprlib.repr(obj)}")
    optional = optional or {}
    for table in (required, optional):
        for key, (ok, what) in table.items():
            if key not in obj:
                if table is required:
                    raise ValueError(f"{where} is missing key {key!r}")
            elif not ok(obj[key]):
                raise ValueError(f"{where} key {key!r} must be {what}, "
                                 f"got {reprlib.repr(obj[key])}")
    unknown = exact and sorted(obj.keys() - required.keys() - optional.keys())
    if unknown:
        raise ValueError(f"{where} has unknown key {unknown[0]!r}")
    return obj


def _parse_object(text: str, where: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: malformed JSON ({exc.msg} at char {exc.pos})") from None
    return obj if isinstance(obj, dict) else check_fields(obj, where, {})  # which raises


def read_object(path: str) -> dict:
    """The JSON object a whole file holds."""
    with open(path) as fh:
        return _parse_object(fh.read(), path)


def _lines(path: str) -> Iterator[tuple[str, dict]]:
    """(where, object) for each non-blank line of a JSONL file, one json.loads a
    line; a header line is checked, and refused after the first line."""
    with open(path) as fh:
        first = True
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            where = f"{path} line {lineno}"
            obj = _parse_object(line, where)
            if _HEADER in obj:
                if not first:
                    raise ValueError(f"{where}: a {_HEADER} line must be the first non-blank line")
                check_fields(obj, where, {_HEADER: OBJECT}, exact=True)
            first = False
            yield where, obj


def read_header(path: str) -> dict:
    """The header payload of a JSONL file, or {} if it has none; reads one line."""
    for _, obj in _lines(path):
        return obj.get(_HEADER, {})
    return {}


def read_rows(path: str) -> Iterator[tuple[str, dict]]:
    """(where, row) for each row object of a JSONL file, the header skipped."""
    return ((where, obj) for where, obj in _lines(path) if _HEADER not in obj)


def write_jsonl(path: str, rows: Iterable[dict], header: dict | None = None):
    """Write rows as JSONL, after a header line if a header is given. Byte-stable.

    A NaN or an infinity raises ValueError naming its line, before the file
    is opened, so that no partial file is left.
    """
    objects = rows if header is None else chain([{_HEADER: header}], rows)
    lines = []
    for lineno, obj in enumerate(objects, start=1):
        try:
            lines.append(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n")
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    with open(path, "w") as fh:
        fh.writelines(lines)


def write_json(path: str, obj: dict):
    """Write obj as sorted-key JSON indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
