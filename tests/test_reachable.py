"""Every library definition is reached from the command line, or allowlisted;
and every JSON read goes through the format module.

The scan reads src/relexpl/*.py with ast and imports nothing from the
package. It starts from cli.main_entry, cli.main and every module's
top-level statements (decorators and class bases included). A reached
body reaches definitions by the uses it holds:
  * a top-level function or class by a load of its name, an import of
    it, or an attribute of that name (module.f);
  * a method only by an attribute of its name (obj.m), never by a local
    or parameter that shares the name;
  * a dunder method that an operator calls (__add__, __neg__, __eq__,
    __getitem__, ...) only by that operator;
  * the other dunder methods (__init__, __repr__, ...) with their class's
    body.
It repeats until nothing new is reached. Being name-based it may miss
dead code that shares a name with live code, but it never flags live
code.

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

_BINARY = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.MatMult: "matmul",
           ast.Div: "truediv", ast.FloorDiv: "floordiv", ast.Mod: "mod", ast.Pow: "pow",
           ast.LShift: "lshift", ast.RShift: "rshift", ast.BitAnd: "and",
           ast.BitOr: "or", ast.BitXor: "xor"}
_UNARY = {ast.USub: "__neg__", ast.UAdd: "__pos__", ast.Invert: "__invert__"}
_COMPARE = {ast.Eq: "__eq__", ast.NotEq: "__ne__", ast.Lt: "__lt__", ast.LtE: "__le__",
            ast.Gt: "__gt__", ast.GtE: "__ge__", ast.In: "__contains__",
            ast.NotIn: "__contains__"}
_SUBSCRIPT = {ast.Load: "__getitem__", ast.Store: "__setitem__", ast.Del: "__delitem__"}
# dunder methods an operator calls, and nothing else
OPERATOR_DUNDERS = ({f"__{p}{op}__" for op in _BINARY.values() for p in ("", "r", "i")}
                    | set(_UNARY.values()) | set(_COMPARE.values()) | set(_SUBSCRIPT.values()))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _uses(nodes):
    """The uses in nodes, as ("name", id), ("attr", attr) and ("op", dunder) keys."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(("name", sub.id))
            elif isinstance(sub, ast.ImportFrom):
                out.update(("name", alias.name) for alias in sub.names)
            elif isinstance(sub, ast.Attribute):
                out.add(("attr", sub.attr))
            elif isinstance(sub, (ast.BinOp, ast.AugAssign)):
                op = _BINARY[type(sub.op)]
                out.update(("op", f"__{p}{op}__") for p in ("", "r", "i"))
            elif isinstance(sub, ast.UnaryOp) and type(sub.op) in _UNARY:
                out.add(("op", _UNARY[type(sub.op)]))
            elif isinstance(sub, ast.Compare):
                out.update(("op", _COMPARE[type(op)]) for op in sub.ops if type(op) in _COMPARE)
            elif isinstance(sub, ast.Subscript):
                out.add(("op", _SUBSCRIPT[type(sub.ctx)]))
    return out


def _defs_and_roots(src):
    """({use key: [(qualified name, the nodes its reach scans)]}, root uses)."""
    defs, roots = {}, {("name", "main_entry"), ("name", "main")}

    def define(keys, qualified, body):
        for key in keys:
            defs.setdefault(key, []).append((qualified, body))

    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        module = fname[:-3]
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), filename=fname)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots |= _uses(stmt.decorator_list)
                define([("name", stmt.name), ("attr", stmt.name)],
                       f"{module}.{stmt.name}", [stmt])
            elif isinstance(stmt, ast.ClassDef):
                roots |= _uses(stmt.decorator_list + stmt.bases + stmt.keywords)
                methods = [s for s in stmt.body
                           if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))]
                body = [s for s in stmt.body if s not in methods]
                body += [m for m in methods
                         if _dunder(m.name) and m.name not in OPERATOR_DUNDERS]
                define([("name", stmt.name), ("attr", stmt.name)],
                       f"{module}.{stmt.name}", body)
                for m in methods:
                    roots |= _uses(m.decorator_list)
                    if not _dunder(m.name):
                        define([("attr", m.name)], f"{module}.{stmt.name}.{m.name}", [m])
                    elif m.name in OPERATOR_DUNDERS:
                        define([("op", m.name)], f"{module}.{stmt.name}.{m.name}", [m])
            else:
                roots |= _uses([stmt])
    return defs, roots


def scan(src=SRC):
    """(every qualified definition name, the qualified names no route reaches)."""
    defs, roots = _defs_and_roots(src)
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        for _, body in defs.get(key, ()):
            todo += _uses(body) - reached
    every = {q for entries in defs.values() for q, _ in entries}
    live = {q for key in reached for q, _ in defs.get(key, ())}
    return every, every - live


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
    assert "cli.helper" in every - dead
    # a call of the function helper does not reach the method Box.helper
    assert dead == {"lib.Box", "lib.Box.helper", "lib.Box.unused", "lib.orphan"}


def test_a_method_is_reached_by_attribute_and_a_dunder_by_its_operator(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from lib import Box, Pair\n\n\n"
        "def main(item):\n    size = len\n    b = Box()\n"
        "    return item, size, b.shape, -b, Pair()[0]\n")
    (tmp_path / "lib.py").write_text(
        "class Box:\n    def item(self):\n        pass\n\n"
        "    def size(self):\n        pass\n\n    def shape(self):\n        pass\n\n"
        "    def __neg__(self):\n        pass\n\n    def __add__(self, other):\n        pass\n\n\n"
        "class Pair:\n    def __getitem__(self, i):\n        pass\n\n"
        "    def __repr__(self):\n        pass\n")
    every, dead = scan(str(tmp_path))
    # a parameter and a local share the names item and size: neither reaches a method
    assert dead == {"lib.Box.item", "lib.Box.size", "lib.Box.__add__"}
    assert {"lib.Box.shape", "lib.Box.__neg__", "lib.Pair.__getitem__"} <= every - dead


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
