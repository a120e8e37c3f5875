"""Three conversions and one decision keep one copy each in `src/logifold`.

Floats become exact numbers only inside `feasibility`: no other module
calls `as_integer_ratio` or `make_constraint`, and its reader `read_exact`
is called only by `graph.AffineMap.exact`, which reads a map's floats, and
by `networks.forward_exact`, which reads a point.  So the relu composition
reads each layer's floats through the layer's `exact` rows.  JSON files are
read and written only by `graph.read_json` and `graph.write_json`, and a
guard is split only in `graph.AffineMap.chambers`, so every split is
recorded on its guard: no `enumerate_chambers` call appears outside
`feasibility` and that method.  A region is split by a guard only in the
region driver `graph.GraphBuilder.regions`, the one home of the rules for a
constant guard and a one-chamber split; the walk over a built graph,
`graph._walk_regions`, where every guard has its vertex, is the only other
caller of `chambers`.  The driver is also the one caller of
`GraphBuilder.cut` but for two builders that know their chambers by
construction and split without elimination: the cover tree
`approx._cover_graph` and the parallel slabs of `algebra.identity_graph`.
Which network kinds an operation takes is decided only in `networks`, by
its table of kinds: no other module reads a network's `hidden_activation`
or `final_activation`.  A graph is built from scratch only by
`graph.GraphBuilder`, whose finish leaves it reduced: `Arrow` and
`LogicalGraph` are constructed only there, in the file reader
`graph.graph_from_dict`, and in the transformers that rewrite graphs they
are given (`graph.relabel`, `algebra.graft`, `algebra.boolean_combine`,
`algebra.zero_locus_lift`, `fuzzy.fuzzy_product`, `fuzzy._combine_scalar`).
An exact point check of many rows reads the point once: outside
`feasibility`, no `satisfies` call sits in a comprehension or a generator,
so such a check goes through `feasibility.satisfies_all`.  A row's float
sum at a point has one copy, `graph._row_sum` (with `graph._guard_signs`,
its array form): outside `graph`, no module sums products by a map of
`mul`, sums the products `a * x` of a comprehension over `zip`, or starts
a sum at a float (`next` or `sum` with a float default, `math.fsum`), but
for the integer dot products of `feasibility` and of the exact relu steps
`networks.forward_exact` and `networks._next_map`.  Neither `graph` nor
`networks` makes a matrix product (`@`, `dot`, `matmul`), so a network's
float values come only from the row-stable layer sum
`networks._rows_through` and a guard's signs only from its row sums; the
array predicate `graph._guard_signs` is called only by the batch steps,
`graph._GuardStep.signs` and `graph._Split.route`, and every single point
is signed by `graph._signs_at`.
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
# (module, function) that may split a region by a guard's `chambers`
SPLIT_HOMES = {("graph", "GraphBuilder.regions"), ("graph", "_walk_regions")}
# (module, function) that may put a guarded vertex at a slot by `cut`
CUT_HOMES = {("graph", "GraphBuilder.regions"), ("approx", "_cover_graph"),
             ("algebra", "identity_graph")}
# (module, function) that may sign points by the array predicate `_guard_signs`
GUARD_SIGNS_HOMES = {("graph", "_GuardStep.signs"), ("graph", "_Split.route")}
# modules that make no matrix product, and the calls that make one
NO_MATRIX_PRODUCT = {"graph", "networks"}
MATRIX_PRODUCTS = {"dot", "matmul"}
# (module, function) outside `feasibility` whose product maps sum integers
INTEGER_SUM_HOMES = {("networks", "forward_exact"), ("networks", "_next_map")}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
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


def _aliases(tree: ast.Module) -> dict:
    """{local name: imported dotted name} for every import of the module."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            alias.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module:
            alias.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
    return alias


def calls(tree: ast.Module):
    """(enclosing function as Class.method or name, called name) for every
    call, with `import json as j` and `from json import load` resolved."""
    alias = _aliases(tree)
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


def _name(node, alias) -> str:
    """The dotted name of a Name or Attribute node, imports resolved."""
    if isinstance(node, ast.Name):
        return alias.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        return f"{_name(node.value, alias)}.{node.attr}"
    return ""


def point_checks(module: str, tree: ast.Module):
    """The `satisfies` calls of `module` inside a comprehension or a
    generator: a multi-row check that reads the point once per row."""
    if module == "feasibility":
        return []
    alias, found = _aliases(tree), []
    for scope, node in scoped(tree):
        if isinstance(node, COMPREHENSIONS):
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Call)
                        and _name(inner.func, alias).rsplit(".", 1)[-1] == "satisfies"):
                    found.append(f"{module}.{scope or '<module>'} checks rows one read each")
    return found


def _pairwise_products(node, alias) -> bool:
    """Whether `node` is a comprehension of products `a * x` of two names
    drawn from a `zip`: the terms of a dot product."""
    return (isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp))
            and isinstance(node.elt, ast.BinOp) and isinstance(node.elt.op, ast.Mult)
            and isinstance(node.elt.left, ast.Name) and isinstance(node.elt.right, ast.Name)
            and isinstance(node.generators[0].iter, ast.Call)
            and _name(node.generators[0].iter.func, alias) == "zip")


def float_sums(module: str, tree: ast.Module):
    """The calls of `module` that sum a row at a point outside `graph`: a map
    of `mul` or a sum of zipped products (bar the integer homes), or a sum
    started at a float."""
    if module in ("graph", "feasibility"):
        return []
    alias, found = _aliases(tree), []
    for scope, node in scoped(tree):
        if not isinstance(node, ast.Call):
            continue
        f, args = _name(node.func, alias), node.args
        product_map = ((f == "map" and args
                        and _name(args[0], alias) in ("operator.mul", "mul"))
                       or (f in ("sum", "math.fsum") and args
                           and _pairwise_products(args[0], alias)))
        float_start = (f in ("next", "sum") and len(args) == 2
                       and isinstance(args[1], ast.Constant) and type(args[1].value) is float)
        if ((product_map and (module, scope) not in INTEGER_SUM_HOMES)
                or float_start or f.endswith("fsum")):
            found.append(f"{module}.{scope or '<module>'} sums a row")
    return found


def matrix_products(module: str, tree: ast.Module):
    """The matrix products (`@`, `@=`, a `dot` or `matmul` call) of `graph`
    and `networks`, whose float sums have one fixed order each."""
    if module not in NO_MATRIX_PRODUCT:
        return []
    found = [f"{module}.{scope or '<module>'} multiplies matrices"
             for scope, node in scoped(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    return found + [f"{module}.{scope or '<module>'} calls {name.rsplit('.', 1)[-1]}"
                    for scope, name in calls(tree)
                    if name.rsplit(".", 1)[-1] in MATRIX_PRODUCTS]


def strays(module: str, tree: ast.Module):
    """The calls and reads of `module` that make a second copy of any
    conversion, of the check of network kinds, or of the graph builder."""
    found = []
    for scope, name in calls(tree):
        conversion = name.rsplit(".", 1)[-1]
        if (conversion in CONVERSION_HOMES and module != "feasibility"
                and (module, scope) not in CONVERSION_HOMES[conversion]):
            found.append(f"{module}.{scope or '<module>'} calls {conversion}")
        if conversion == "chambers" and (module, scope) not in SPLIT_HOMES:
            found.append(f"{module}.{scope or '<module>'} calls chambers")
        if conversion == "cut" and (module, scope) not in CUT_HOMES:
            found.append(f"{module}.{scope or '<module>'} calls cut")
        if conversion == "_guard_signs" and (module, scope) not in GUARD_SIGNS_HOMES:
            found.append(f"{module}.{scope or '<module>'} calls _guard_signs")
        if name in JSON_CALLS and name not in JSON_HOMES.get((module, scope), ()):
            found.append(f"{module}.{scope or '<module>'} calls {name}")
        if conversion in GRAPH_PARTS and (module, scope.split(".")[0]) not in GRAPH_HOMES:
            found.append(f"{module}.{scope or '<module>'} constructs {conversion}")
    return (found + activation_reads(module, tree) + point_checks(module, tree)
            + float_sums(module, tree) + matrix_products(module, tree))


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

def cut(b, at, guard, system, witness):
    chambers = guard.chambers(system, witness)
    return chambers if len(chambers) == 1 else b.cut(at, guard)

def exact_rows(guard):
    p, q = guard.matrix[0, 0].as_integer_ratio()
    return feasibility.read_exact(guard.matrix.tolist()), (0.5).as_integer_ratio()
"""
    assert strays("semilinear", ast.parse(second)) == [
        "semilinear.save calls json.dump", "semilinear.read calls json.load",
        "semilinear.Piece.rows calls make_constraint",
        "semilinear.Piece.rows calls make_constraint",
        "semilinear.to_graph calls enumerate_chambers",
        "semilinear.cut calls chambers", "semilinear.cut calls cut",
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


def test_the_check_sees_a_row_check_or_a_row_sum_outside_its_home():
    second = """
import math
from operator import mul
from . import feasibility
from .feasibility import satisfies

class Piece:
    def contains(self, x):
        return all(feasibility.satisfies(c, x) for c in self.rows)

    def count(self, x):
        return len([c for c in self.rows if satisfies(c, x)])

    def one(self, x):
        return satisfies(self.rows[0], x)

def value(row, x):
    terms = map(mul, row, x)
    return next(terms, 0.0) + sum(terms, 0.0)

def exact(row, x):
    return math.fsum(a * v for a, v in zip(row, x))

def dot(row, x):
    return sum(a * v for a, v in zip(row, x)) + sum([w / 2 * c for w, c in zip(row, x)])

def forward_exact(net, x):
    return sum(map(mul, net, x))
"""
    assert strays("semilinear", ast.parse(second)) == [
        "semilinear.Piece.contains checks rows one read each",
        "semilinear.Piece.count checks rows one read each",
        "semilinear.value sums a row", "semilinear.value sums a row",
        "semilinear.value sums a row", "semilinear.exact sums a row",
        "semilinear.dot sums a row", "semilinear.forward_exact sums a row"]
    assert strays("networks", ast.parse(second))[-5:] == [
        "networks.value sums a row", "networks.value sums a row",
        "networks.value sums a row", "networks.exact sums a row", "networks.dot sums a row"]
    assert strays("feasibility", ast.parse(second)) == []


def test_the_check_sees_a_matrix_product_or_a_second_point_predicate():
    second = """
import numpy as np
from numpy import matmul

class AffineMap:
    def __call__(self, x):
        return self.matrix @ x + self.offset

def sign_vector(guard, x):
    return _guard_signs(*_sign_terms(guard), x[:, None])

class _Split:
    def route(self, buf, XT, idx, whole):
        return _guard_signs(self.columns, self.neg_offset, XT)

def forward(net, a):
    for layer in net.layers:
        a = np.dot(layer.matrix, a)
        a @= layer.matrix.T
    return matmul(a, net.head.matrix.T) + a.dot(net.head.offset)
"""
    assert strays("graph", ast.parse(second)) == [
        "graph.sign_vector calls _guard_signs",
        "graph.AffineMap.__call__ multiplies matrices", "graph.forward multiplies matrices",
        "graph.forward calls dot", "graph.forward calls matmul", "graph.forward calls dot"]
    assert strays("networks", ast.parse(second))[-4:] == [
        "networks.forward multiplies matrices", "networks.forward calls dot",
        "networks.forward calls matmul", "networks.forward calls dot"]
    assert strays("fuzzy", ast.parse(second)) == [
        "fuzzy.sign_vector calls _guard_signs", "fuzzy._Split.route calls _guard_signs"]
