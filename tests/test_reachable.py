"""Every library definition is reached from the command line, or allowlisted;
and every JSON read goes through the format module.

The scan reads src/relexpl/*.py with ast and imports nothing from the
package. It starts from cli.main_entry, cli.main and every module's
top-level statements (decorators and class bases included). Each Name or
Attribute identifier in a reached body reaches every definition of that
name: a function, a class (its class-level statements and dunder methods)
or a method. It repeats until nothing new is reached. Being name-based it
may miss dead code that shares a name with live code, but it never flags
live code.

A second scan finds each use of json.load or json.loads, as an attribute
of the json module or imported from it: only jsonio.py, whose reader runs
every file through the field checker, may hold one.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "relexpl")

# qualified names that stay without a caller, each with its reason
ALLOWLIST = {
    # the pretrained-vectors loader waits for its `train --embeddings` route
    "encoder.SentenceEncoder.load_embeddings",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _identifiers(nodes):
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _defs_and_roots(src):
    """({simple name: [(qualified name, the nodes its reach scans)]}, root identifiers)."""
    defs, roots = {}, {"main_entry", "main"}
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots |= _identifiers(stmt.decorator_list)
                defs.setdefault(stmt.name, []).append((f"{module}.{stmt.name}", [stmt]))
            elif isinstance(stmt, ast.ClassDef):
                roots |= _identifiers(stmt.decorator_list + stmt.bases + stmt.keywords)
                methods = [s for s in stmt.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                body = [s for s in stmt.body if s not in methods]
                body += [m for m in methods if _dunder(m.name)]
                defs.setdefault(stmt.name, []).append((f"{module}.{stmt.name}", body))
                for m in methods:
                    roots |= _identifiers(m.decorator_list)
                    defs.setdefault(m.name, []).append((f"{module}.{stmt.name}.{m.name}", [m]))
            else:
                roots |= _identifiers([stmt])
    return defs, roots


def scan(src=SRC):
    """(every qualified definition name, the qualified names no route reaches)."""
    defs, roots = _defs_and_roots(src)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, body in defs.get(name, ()):
            todo += _identifiers(body) - reached
    every = {q for entries in defs.values() for q, _ in entries}
    dead = {q for simple, entries in defs.items() for q, _ in entries
            if simple not in reached and not _dunder(simple)}
    return every, dead


def test_every_definition_is_reached_or_allowlisted():
    _, dead = scan()
    unlisted = sorted(dead - ALLOWLIST)
    assert not unlisted, f"reached by no CLI route and not allowlisted: {unlisted}"


def test_allowlist_is_not_stale():
    every, dead = scan()
    gone = sorted(ALLOWLIST - every)
    assert not gone, f"allowlisted names that no longer exist: {gone}"
    live = sorted(ALLOWLIST & (every - dead))
    assert not live, f"allowlisted names that a route now reaches: {live}"


def test_scan_flags_what_no_route_reaches(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def main():\n    return helper()\n\n\ndef helper():\n    return 0\n")
    (tmp_path / "lib.py").write_text(
        "class Box:\n    def __init__(self):\n        pass\n\n"
        "    def helper(self):\n        pass\n\n    def unused(self):\n        pass\n\n\n"
        "def orphan():\n    return Box()\n")
    every, dead = scan(str(tmp_path))
    assert "lib.Box.helper" in every - dead  # reached by name through cli.helper
    assert dead == {"lib.Box", "lib.Box.unused", "lib.orphan"}


JSON_READERS = {"load", "loads"}
FORMAT_MODULE = "jsonio.py"


def json_reads(src=SRC):
    """["file:line"] of each json.load/json.loads use outside the format module."""
    out = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py") or fname == FORMAT_MODULE:
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                hit = (node.attr in JSON_READERS and isinstance(node.value, ast.Name)
                       and node.value.id == "json")
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == "json" and any(a.name in JSON_READERS for a in node.names)
            else:
                continue
            if hit:
                out.append(f"{fname}:{node.lineno}")
    return out


def test_every_json_read_is_in_the_format_module():
    stray = json_reads()
    assert not stray, f"JSON read outside {FORMAT_MODULE}; use its readers: {stray}"


def test_json_scan_flags_reads_outside_the_format_module(tmp_path):
    (tmp_path / FORMAT_MODULE).write_text("import json\n\n\ndef read(t):\n    return json.loads(t)\n")
    (tmp_path / "cfg.py").write_text(
        "import json\n\n\ndef load(fh):\n    return json.load(fh)\n\n\n"
        "def dump(obj):\n    return json.dumps(obj)\n")
    (tmp_path / "rows.py").write_text("from json import dumps, loads\n")
    assert json_reads(str(tmp_path)) == ["cfg.py:5", "rows.py:1"]
