"""Three conversions and one decision keep one copy each in `src/logifold`.

Floats become exact numbers only inside `feasibility`: no other module
calls `as_integer_ratio` or `make_constraint`, and its reader `read_exact`
is called only by `graph.AffineMap.exact`, which reads a map's floats, and
by `networks.forward_exact`, which reads a point.  So the relu composition
reads each layer's floats through the layer's `exact` rows.  JSON files are
read and written only by `graph.read_json` and `graph.write_json`, and a
guard is split only in `graph.AffineMap.chambers`, so every split is
recorded on its guard: no `enumerate_chambers` call appears outside
`feasibility` and that method.
Which network kinds an operation takes is decided only in `networks`, by
its table of kinds: no other module reads a network's `hidden_activation`
or `final_activation`.  A graph is built from scratch only by
`graph.GraphBuilder`, whose finish leaves it reduced: `Arrow` and
`LogicalGraph` are constructed only there, in the file reader
`graph.graph_from_dict`, and in the transformers that rewrite graphs they
are given (`graph.relabel`, `algebra.graft`, `algebra.boolean_combine`,
`algebra.zero_locus_lift`, `fuzzy.fuzzy_product`, `fuzzy._combine_scalar`).
Each check walks the syntax tree, so a second copy fails here however it
is spelled.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "logifold"

JSON_CALLS = {"json.load", "json.dump", "json.loads", "json.dumps"}
# conversion -> the (module, function) outside `feasibility` that may call it
CONVERSION_HOMES = {
    "as_integer_ratio": set(),
    "make_constraint": set(),
    "read_exact": {("graph", "AffineMap.exact"), ("networks", "forward_exact")},
    "enumerate_chambers": {("graph", "AffineMap.chambers")},
}
ACTIVATIONS = {"hidden_activation", "final_activation"}
GRAPH_PARTS = {"Arrow", "LogicalGraph"}
# (module, top-level function or class) that may construct GRAPH_PARTS
GRAPH_HOMES = {("graph", "GraphBuilder"), ("graph", "graph_from_dict"), ("graph", "relabel"),
               ("algebra", "graft"), ("algebra", "boolean_combine"),
               ("algebra", "zero_locus_lift"), ("fuzzy", "fuzzy_product"),
               ("fuzzy", "_combine_scalar")}
# (module, function) -> the JSON calls it may make; the string forms turn one
# label or the config hash into text and back, not a file
JSON_HOMES = {
    ("graph", "read_json"): {"json.load"},
    ("graph", "write_json"): {"json.dump"},
    ("graph", "label_to_text"): {"json.dumps"},
    ("graph", "label_from_text"): {"json.loads"},
    ("config", "config_hash"): {"json.dumps"},
}


def scoped(tree: ast.Module):
    """(enclosing function as Class.method or name, node) for every node."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        out.append((scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


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
    for scope, node in scoped(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                out.append((scope, alias.get(f.id, f.id)))
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                out.append((scope, f"{alias.get(f.value.id, f.value.id)}.{f.attr}"))
            elif isinstance(f, ast.Attribute):
                out.append((scope, f.attr))
    return out


def activation_reads(module: str, tree: ast.Module):
    """The functions of `module` that read a network's activation tags, as an
    attribute or by name (`getattr`, a dict key); only `networks` may."""
    if module == "networks":
        return []
    found = []
    for scope, node in scoped(tree):
        named = (node.attr if isinstance(node, ast.Attribute)
                 else node.value if isinstance(node, ast.Constant) else None)
        where = f"{module}.{scope or '<module>'} reads activations"
        if named in ACTIVATIONS and where not in found:
            found.append(where)
    return found


def strays(module: str, tree: ast.Module):
    """The calls and reads of `module` that make a second copy of any
    conversion, of the check of network kinds, or of the graph builder."""
    found = []
    for scope, name in calls(tree):
        conversion = name.rsplit(".", 1)[-1]
        if (conversion in CONVERSION_HOMES and module != "feasibility"
                and (module, scope) not in CONVERSION_HOMES[conversion]):
            found.append(f"{module}.{scope or '<module>'} calls {conversion}")
        if name in JSON_CALLS and name not in JSON_HOMES.get((module, scope), ()):
            found.append(f"{module}.{scope or '<module>'} calls {name}")
        if conversion in GRAPH_PARTS and (module, scope.split(".")[0]) not in GRAPH_HOMES:
            found.append(f"{module}.{scope or '<module>'} constructs {conversion}")
    return found + activation_reads(module, tree)


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

def exact_rows(guard):
    p, q = guard.matrix[0, 0].as_integer_ratio()
    return feasibility.read_exact(guard.matrix.tolist()), (0.5).as_integer_ratio()
"""
    assert strays("semilinear", ast.parse(second)) == [
        "semilinear.save calls json.dump", "semilinear.read calls json.load",
        "semilinear.Piece.rows calls make_constraint",
        "semilinear.Piece.rows calls make_constraint",
        "semilinear.to_graph calls enumerate_chambers",
        "semilinear.exact_rows calls as_integer_ratio",
        "semilinear.exact_rows calls read_exact",
        "semilinear.exact_rows calls as_integer_ratio"]


def test_the_check_sees_a_second_kind_check():
    second = """
from .networks import SIGMOID, SOFTMAX

def from_sigmoid_net(net):
    if net.hidden_activation != SIGMOID or net.final_activation != SOFTMAX:
        raise ValueError(net.final_activation)

def train(model):
    return getattr(model, "hidden_activation")

KIND = {"final_activation": SOFTMAX}
"""
    assert strays("fuzzy", ast.parse(second)) == [
        "fuzzy.from_sigmoid_net reads activations", "fuzzy.train reads activations",
        "fuzzy.<module> reads activations"]
    assert strays("networks", ast.parse(second)) == []


def test_the_check_sees_a_graph_built_outside_the_builder():
    second = """
from .graph import Arrow, GraphBuilder
from . import graph

def cover(boxes):
    arrows = [Arrow(f"e{i}", "s", t) for i, t in enumerate(boxes)]
    return graph.LogicalGraph(1, {}, arrows, {}, {}, {})

def graft(g):
    return graph.LogicalGraph(1, {}, [Arrow("a", "s", "t")], {}, {}, {})

class Tree:
    def finish(self):
        return GraphBuilder(1).graph()
"""
    assert strays("approx", ast.parse(second)) == [
        "approx.cover constructs Arrow", "approx.cover constructs LogicalGraph",
        "approx.graft constructs LogicalGraph", "approx.graft constructs Arrow"]
    assert strays("algebra", ast.parse(second)) == [
        "algebra.cover constructs Arrow", "algebra.cover constructs LogicalGraph"]
