"""Three conversions keep one copy each in `src/logifold`.

Float rows become exact rows only inside `feasibility` and
`graph.AffineMap.constraints`, JSON files are read and written only by
`graph.read_json` and `graph.write_json`, and a guard is split only in
`graph.AffineMap.chambers`, so every split is recorded on its guard: no
`enumerate_chambers` call appears outside `feasibility` and that method.
Each check walks the syntax tree, so a second copy fails here however it is
spelled.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "logifold"

JSON_CALLS = {"json.load", "json.dump", "json.loads", "json.dumps"}
# (module, function) -> the JSON calls it may make; the string forms turn one
# label or the config hash into text and back, not a file
JSON_HOMES = {
    ("graph", "read_json"): {"json.load"},
    ("graph", "write_json"): {"json.dump"},
    ("graph", "label_to_text"): {"json.dumps"},
    ("graph", "label_from_text"): {"json.loads"},
    ("config", "config_hash"): {"json.dumps"},
}


def calls(tree: ast.Module):
    """(enclosing function as Class.method or name, called name) for every
    call, with `import json as j` and `from json import load` resolved."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            alias.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            alias.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                out.append((scope, alias.get(f.id, f.id)))
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                out.append((scope, f"{alias.get(f.value.id, f.value.id)}.{f.attr}"))
            elif isinstance(f, ast.Attribute):
                out.append((scope, f.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def strays(module: str, tree: ast.Module):
    """The calls of `module` that make a second copy of any conversion."""
    found = []
    for scope, name in calls(tree):
        for home, conversion in (("AffineMap.constraints", "make_constraint"),
                                 ("AffineMap.chambers", "enumerate_chambers")):
            if name.rsplit(".", 1)[-1] == conversion and module != "feasibility" \
                    and (module, scope) != ("graph", home):
                found.append(f"{module}.{scope or '<module>'} calls {conversion}")
        if name in JSON_CALLS and name not in JSON_HOMES.get((module, scope), ()):
            found.append(f"{module}.{scope or '<module>'} calls {name}")
    return found


def test_each_conversion_has_one_copy_in_the_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += strays(path.stem, ast.parse(path.read_text(), str(path)))
    assert found == []


def test_the_check_sees_a_second_copy():
    second = """
import json as j
from json import load
from .feasibility import make_constraint
from . import feasibility

def save(doc, path):
    with open(path, "w") as fh:
        j.dump(doc, fh)

def read(path):
    with open(path) as fh:
        return load(fh)

class Piece:
    def rows(self):
        return [make_constraint(r[:-1], r[-1], False) for r in self.eq] + [
            feasibility.make_constraint(r[:-1], r[-1], True) for r in self.gt]

def to_graph(guard):
    return feasibility.enumerate_chambers(guard.constraints, guard.dim)
"""
    assert strays("semilinear", ast.parse(second)) == [
        "semilinear.save calls json.dump", "semilinear.read calls json.load",
        "semilinear.Piece.rows calls make_constraint",
        "semilinear.Piece.rows calls make_constraint",
        "semilinear.to_graph calls enumerate_chambers"]
