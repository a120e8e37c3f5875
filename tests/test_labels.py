"""Labels keep their value and type through every file format."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logifold.algebra import F2_ADD, boolean_combine, identity_graph
from logifold.cli import main
from logifold.approx import LabeledGrid, load_grid, save_grid
from logifold.ensemble import ModelChart, as_partition, build_target_graph
from logifold.fuzzy import from_sigmoid_net, fuzzy_to_dict, load_fuzzy, save_fuzzy
from logifold.graph import (
    evaluate,
    graph_to_dict,
    label_from_text,
    label_to_text,
    load_graph,
    read_json,
    relabel,
    save_graph,
    write_json,
)
from logifold.networks import (
    INDEXMAX,
    SIGMOID,
    SOFTMAX,
    STEP,
    compile_step_net,
    load_model,
    model_to_dict,
    random_network,
    save_model,
)
from logifold.semilinear import (
    BasicSemilinearSet,
    SemilinearFunction,
    SemilinearSet,
    load_semilinear,
    save_semilinear,
    semilinear_to_dict,
)
from logifold.voting import (
    Calibration,
    HistoryEntry,
    calibration_to_dict,
    load_calibration,
    vote_report,
)

# strings that look like other labels, or that CSV has to quote
TRICKY = ["0", "⊥", "(0, 1)", "[0, 1]", 'a,"b"', "'c'", "x\ny", "null", ""]

SCALARS = st.one_of(st.integers(), st.floats(allow_nan=False), st.text(),
                    st.sampled_from(TRICKY))
LABELS = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3).map(tuple),
                      max_leaves=6)
LABEL_SETS = st.lists(LABELS, min_size=1, max_size=5, unique=True)
MIXED = [0, "0", (0, 1), "(0, 1)", ((1, "⊥"), 2.5), float("inf"), -7, "⊥",
         'a,"b"', "[0, 1]", ()]


def same(a, b) -> bool:
    """Equal value and equal type, down through nested tuples."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def via_graph(labels, tmp):
    points = [[float(i)] for i in range(len(labels))]
    g = relabel(identity_graph(points), lambda p: labels[int(p[0])])
    save_graph(g, tmp / "g.json")
    h = load_graph(tmp / "g.json")
    return [evaluate(h, p) for p in points]


def via_semilinear(labels, tmp):
    # fiber i is the open interval (i, i + 1)
    f = SemilinearFunction(1, {
        l: SemilinearSet(1, (BasicSemilinearSet(1, (), ((1.0, -i), (-1.0, i + 1.0))),))
        for i, l in enumerate(labels)})
    save_semilinear(f, tmp / "s.json")
    f2 = load_semilinear(tmp / "s.json")
    return [f2.label_of([i + 0.5]) for i in range(len(labels))]


def via_grid(labels, tmp):
    cells = np.empty(len(labels) + 1, dtype=object)
    for i, l in enumerate(labels):
        cells[i] = l
    save_grid(LabeledGrid([0.0], [len(labels) + 1.0], cells), tmp / "grid.json")
    back = load_grid(tmp / "grid.json").labels
    assert back[-1] is None
    return list(back[:-1])


def via_calibration(labels, tmp):
    chart = ModelChart("c", as_partition([{l} for l in labels]),
                       lambda X: np.full((len(X), len(labels)), 1.0 / len(labels)))
    graph = build_target_graph([chart], labels)
    cal = Calibration({l: HistoryEntry((0,), 0.5, float(i))
                       for i, l in enumerate(labels)}, {}, (0.0, 0.5))
    (tmp / "cal.json").write_text(json.dumps(calibration_to_dict(graph, cal)))
    loaded = load_calibration(tmp / "cal.json", graph)
    by_rate = {int(e.rate): l for l, e in loaded.entries.items()}
    return [by_rate[i] for i in range(len(labels))]


@pytest.mark.parametrize("reload", [via_graph, via_semilinear, via_grid,
                                    via_calibration])
@settings(max_examples=40, deadline=None)
@example(labels=MIXED)
@example(labels=TRICKY)
@given(labels=LABEL_SETS)
def test_labels_keep_value_and_type(reload, labels):
    with tempfile.TemporaryDirectory() as tmp:
        back = reload(labels, Path(tmp))
    assert all(same(a, b) for a, b in zip(labels, back)), (labels, back)
    assert len(back) == len(labels)


def test_label_text_is_json():
    assert label_to_text(0) == "0"
    assert label_to_text((0, 1)) == "[0, 1]"
    assert label_to_text("a") == '"a"'
    assert same(label_from_text("[[1, 2.5], \"⊥\"]"), ((1, 2.5), "⊥"))
    with pytest.raises(ValueError, match="not JSON"):
        label_from_text("A")
    for text in ('{"a": 1}', '[0, {"a": 1}]'):
        with pytest.raises(ValueError, match="holds a JSON object"):
            label_from_text(text)


def test_reloaded_step_compile_combines_in_f2(tmp_path):
    net = random_network(np.random.default_rng(11), [2, 3, 2], STEP, INDEXMAX)
    g = compile_step_net(net)
    save_graph(g, tmp_path / "g.json")
    h = load_graph(tmp_path / "g.json")
    assert set(h.target_labels.values()) == {0, 1}
    both = boolean_combine(h, g, F2_ADD)
    for x in np.random.default_rng(2).normal(size=(50, 2)):
        assert evaluate(both, x) == 0


def decoded(texts):
    return sorted(map(repr, map(label_from_text, texts)))


def test_vote_report_writes_labels_as_json_text():
    labels = ["0", (0, 1), "⊥"]
    chart = ModelChart("c", as_partition([{l} for l in labels]),
                       lambda X: np.tile([0.6, 0.3, 0.1], (len(X), 1)))
    graph = build_target_graph([chart], labels)
    cal = Calibration({l: HistoryEntry((0,), 0.0, 1.0) for l in labels}, {}, (0.0,))
    doc = vote_report(graph, cal, np.zeros((2, 1)), lambda chart, alpha: 1.0)
    for rec in json.loads(json.dumps(doc))["instances"]:
        assert decoded(rec["answer"]) == decoded(rec["paths"]) == sorted(map(repr, labels))
        assert repr(label_from_text(rec["prediction"])) in map(repr, labels)


def test_target_graph_file_writes_labels_as_json_text(tmp_path):
    save_model(random_network(np.random.default_rng(0), [2, 2], SIGMOID, SOFTMAX),
               tmp_path / "m.json")
    charts = tmp_path / "charts.json"
    charts.write_text(json.dumps({"classes": ["a", "0"], "charts": [
        {"id": "c", "model": "m.json", "blocks": [["a"], ["0"]]}]}))
    out = tmp_path / "tg.json"
    assert main(["ensemble", "target-graph", "--charts", str(charts), "--out", str(out)]) == 0
    (node,) = json.loads(out.read_text())["nodes"]
    assert decoded(node["target"]) == sorted(map(repr, ["a", "0"]))
    assert sorted(decoded(b) for b in node["partitions"][0]) == [[repr("0")], [repr("a")]]


def small_net(hidden, final=SOFTMAX):
    return random_network(np.random.default_rng(0), [2, 3, 2], hidden, final)


# each JSON file kind: (make an object, its writer, its reader, the form in
# which the object and its reloaded copy are compared)
JSON_FILES = {
    "graph": (lambda: compile_step_net(small_net(STEP, INDEXMAX)), save_graph, load_graph,
              graph_to_dict),
    "model": (lambda: small_net(SIGMOID), save_model, load_model, model_to_dict),
    "semilinear": (lambda: SemilinearFunction(1, {(0, "a"): SemilinearSet(
        1, (BasicSemilinearSet(1, ((2.0, -1.0),), ((1.0, 0.5),), ((-1.0, 3.0),)),))}),
        save_semilinear, load_semilinear, semilinear_to_dict),
    "fuzzy": (lambda: from_sigmoid_net(small_net(SIGMOID)), save_fuzzy, load_fuzzy,
              fuzzy_to_dict),
    "grid manifest": (lambda: LabeledGrid([0.0, -1.0], [1.0, 1.0],
                                          np.array([[0, None], ["a", (1, 2)]], dtype=object)),
                      save_grid, load_grid,
                      lambda g: (g.lo.tolist(), g.hi.tolist(), g.labels.tolist())),
    "report": (lambda: {"b": [1, 2.5], "a": {"c": None}}, write_json, read_json,
               lambda doc: doc),
}


@pytest.mark.parametrize("kind", JSON_FILES)
def test_every_json_file_ends_in_a_newline_and_loads_back_equal(kind, tmp_path):
    make, save, load, form = JSON_FILES[kind]
    obj, path = make(), tmp_path / "file.json"
    save(obj, path)
    assert path.read_text().endswith("}\n")
    assert form(load(path)) == form(obj)
