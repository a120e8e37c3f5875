import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from logifold import approx, networks, semilinear
from logifold.approx import FALLBACK, LabeledGrid, grid_from_function, save_grid
from logifold import cli
from logifold.cli import main
from logifold.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_from_dict,
    config_hash,
    config_to_dict,
)
from logifold.ensemble import ModelChart, build_target_graph, chart_from_net
from logifold.graph import evaluate_batch, graph_to_dict, load_graph, validate_graph
from logifold.fuzzy import evaluate_fuzzy, load_fuzzy
from logifold.networks import (
    INDEXMAX,
    forward_classical_batch,
    forward_smooth,
    RELU,
    SIGMOID,
    SOFTMAX,
    STEP,
    forward_classical,
    load_model,
    random_network,
    save_model,
)

from logifold.training import load_dataset
from logifold.voting import (_calibrated_phi, calibrate, calibration_to_dict,
                             load_calibration, make_phi, vote_report)

from conftest import make_holed_graph, make_step_graph


class TestConfig:
    def test_defaults_validate(self):
        cfg = RunConfig().validate()
        assert cfg.seed == 0
        assert all(0.0 <= a <= 1.0 for a in cfg.alpha_grid)

    def test_caps_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(chamber_cap=0).validate()

    def test_grid_must_stay_in_unit_interval(self):
        with pytest.raises(ConfigError):
            RunConfig(alpha_grid=(0.0, 1.5)).validate()

    def test_round_trip_and_unknown_fields(self):
        cfg = RunConfig(seed=5, alpha_grid=(0.0, 0.5))
        assert config_from_dict(config_to_dict(cfg)) == cfg
        with pytest.raises(ConfigError):
            config_from_dict({"seeds": 1})
        for removed in ("path_cap", "piece_cap"):
            with pytest.raises(ConfigError):
                config_from_dict({removed: 10})

    def test_cap_defaults_are_the_library_defaults(self):
        cfg = RunConfig()
        assert (cfg.chamber_cap, cfg.region_cap, cfg.budget_cap) == (
            networks.CHAMBER_CAP, networks.REGION_CAP, approx.BUDGET_CAP)
        assert semilinear.REGION_CAP is networks.REGION_CAP

    def test_overrides_win_and_change_the_hash(self):
        base = RunConfig(seed=5)
        bumped = apply_overrides(base, seed=9, grid=(0.0, 0.5))
        assert bumped.seed == 9
        assert bumped.alpha_grid == (0.0, 0.5)
        assert base.alpha_grid == RunConfig().alpha_grid
        assert config_hash(base) != config_hash(bumped)
        assert config_hash(base) == config_hash(RunConfig(seed=5))


@pytest.fixture
def step_model(tmp_path):
    net = random_network(np.random.default_rng(11), [2, 3, 2], STEP, INDEXMAX)
    path = tmp_path / "step.json"
    save_model(net, path)
    return net, path


class TestCompileEval:
    def test_compile_eval_check_equiv(self, tmp_path, step_model, capsys):
        net, model_path = step_model
        graph_path = tmp_path / "g.json"
        assert main(["compile", "--model", str(model_path),
                     "--out", str(graph_path)]) == 0
        g = load_graph(graph_path)
        assert not validate_graph(g).errors

        pts = tmp_path / "pts.csv"
        X = np.random.default_rng(3).normal(size=(20, 2))
        pts.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X))
        out = tmp_path / "labels.txt"
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts),
                     "--out", str(out)]) == 0
        labels = out.read_text().split()
        assert labels == [str(forward_classical(net, x)) for x in X]

        capsys.readouterr()
        assert main(["check-equiv", "--model", str(model_path), "--graph",
                     str(graph_path), "--samples", "500"]) == 0
        report = capsys.readouterr().out
        assert "samples: 500" in report
        assert "mismatches: 0" in report
        assert "config_hash: " in report

    @pytest.mark.parametrize("margin", [0.0, 0.5])
    def test_check_equiv_counts_each_disagreement(self, tmp_path, capsys, margin):
        nets = [random_network(np.random.default_rng(s), [2, 3, 3], RELU, INDEXMAX)
                for s in (1, 2)]
        for k, net in enumerate(nets):
            save_model(net, tmp_path / f"m{k}.json")
        graph_path = tmp_path / "g.json"
        assert main(["compile", "--model", str(tmp_path / "m0.json"),
                     "--out", str(graph_path)]) == 0
        capsys.readouterr()
        assert main(["--seed", "5", "--tie-margin", str(margin), "check-equiv",
                     "--model", str(tmp_path / "m1.json"), "--graph", str(graph_path),
                     "--samples", "400"]) == 0
        X = np.random.default_rng(5).normal(scale=2.0, size=(400, 2))
        mismatches = skipped = 0
        for x in X:
            if forward_classical(nets[1], x) != forward_classical(nets[0], x):
                logits = np.sort(networks.forward_logits(nets[1], x))
                if logits[-1] - logits[-2] <= margin:
                    skipped += 1
                else:
                    mismatches += 1
        assert mismatches > 0 and (skipped > 0) == (margin > 0)
        report = capsys.readouterr().out
        assert f"mismatches: {mismatches}\nskipped_ties: {skipped}\n" in report

    def test_compile_eval_relu(self, tmp_path):
        net = random_network(np.random.default_rng(1), [2, 3, 3], RELU, INDEXMAX)
        model_path = tmp_path / "relu.json"
        save_model(net, model_path)
        graph_path = tmp_path / "g.json"
        assert main(["compile", "--model", str(model_path),
                     "--out", str(graph_path)]) == 0
        pts = tmp_path / "pts.csv"
        X = np.random.default_rng(4).normal(scale=2.0, size=(50, 2))
        pts.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X))
        out = tmp_path / "labels.txt"
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts),
                     "--out", str(out)]) == 0
        assert out.read_text().split() == [str(forward_classical(net, x)) for x in X]

    def test_eval_rejects_non_finite_points(self, tmp_path, step_model, capsys):
        _, model_path = step_model
        graph_path = tmp_path / "g.json"
        assert main(["compile", "--model", str(model_path),
                     "--out", str(graph_path)]) == 0
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0.25\nnan,1.0\n")
        out = tmp_path / "labels.txt"
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts),
                     "--out", str(out)]) == 2
        assert "NonFinitePointError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("activation", [STEP, RELU, "sigmoid", "relu-softmax"])
    def test_compile_rejects_non_finite_weights(self, tmp_path, capsys, activation):
        # compile takes step and relu nets; fuzzy-import the two smooth kinds
        fuzzy = {"sigmoid": SIGMOID, "relu-softmax": RELU}
        hidden, final = (fuzzy[activation], SOFTMAX) if activation in fuzzy \
            else (activation, INDEXMAX)
        net = random_network(np.random.default_rng(11), [2, 3, 2], hidden, final)
        net.layers[0].matrix[1, 0] = np.nan
        model_path = tmp_path / "nan.json"
        save_model(net, model_path)
        graph_path = tmp_path / "g.json"
        command = "fuzzy-import" if activation in fuzzy else "compile"
        assert main([command, "--model", str(model_path), "--out", str(graph_path)]) == 2
        assert "NonFinitePointError" in capsys.readouterr().err
        assert not graph_path.exists()

    @pytest.mark.parametrize("breakage, error", [
        (lambda d: d["target_labels"].pop("t1"), "DanglingVertexError"),
        (lambda d: d["routing"]["s"].update({"+": "nope"}), "IncompleteRoutingError"),
        (lambda d: d["guards"]["s"].update({"offset": [float("nan")]}), "NonFinitePointError"),
        (lambda d: d["guards"].update({"ghost": d["guards"]["s"]}),
         "DanglingVertexError: guard at missing vertex 'ghost'"),
        (lambda d: d["routing"].update({"ghost": d["routing"]["s"]}),
         "DanglingVertexError: routing at missing vertex 'ghost'"),
    ], ids=["unlabeled-target", "route-to-missing-arrow", "nan-guard-offset",
            "guard-at-missing-vertex", "routing-at-missing-vertex"])
    def test_eval_validates_the_graph_file(self, tmp_path, capsys, breakage, error):
        doc = graph_to_dict(make_step_graph())
        breakage(doc)
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(doc))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5\n-0.5\n")
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts)]) == 2
        assert error in capsys.readouterr().err

    def test_semilinear_round_trip_via_files(self, tmp_path, step_model):
        _, model_path = step_model
        g1 = tmp_path / "g1.json"
        s = tmp_path / "s.json"
        g2 = tmp_path / "g2.json"
        assert main(["compile", "--model", str(model_path),
                     "--out", str(g1)]) == 0
        assert main(["to-semilinear", "--graph", str(g1),
                     "--out", str(s)]) == 0
        assert main(["from-semilinear", "--set", str(s),
                     "--out", str(g2)]) == 0
        a, b = load_graph(g1), load_graph(g2)
        X = np.random.default_rng(5).normal(size=(200, 2))
        left = evaluate_batch(a, X)
        assert left == evaluate_batch(b, X)

    def test_to_semilinear_rejects_an_unrouted_chamber(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(graph_to_dict(make_holed_graph())))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,1.0\n")
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts)]) == 2
        assert main(["to-semilinear", "--graph", str(graph_path),
                     "--out", str(tmp_path / "s.json")]) == 2
        assert "IncompleteRoutingError" in capsys.readouterr().err
        assert not (tmp_path / "s.json").exists()

    def test_to_semilinear_region_cap(self, tmp_path, capsys):
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(graph_to_dict(make_step_graph())))
        out = tmp_path / "s.json"
        assert main(["--caps.regions", "1", "to-semilinear", "--graph", str(graph_path),
                     "--out", str(out)]) == 3
        assert "RegionExplosionError" in capsys.readouterr().err
        assert main(["--caps.regions", "2", "to-semilinear", "--graph", str(graph_path),
                     "--out", str(out)]) == 0

    def test_from_semilinear_region_cap(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"dim": 1, "fibers": {"0": [{"gt": [[-1.0, 0.0]]}],
                                                        "1": [{"ge": [[1.0, 0.0]]}]}}))
        out = tmp_path / "g.json"
        assert main(["--caps.regions", "1", "from-semilinear", "--set", str(path),
                     "--out", str(out)]) == 3
        assert "RegionExplosionError" in capsys.readouterr().err
        assert not out.exists()
        assert main(["--caps.regions", "2", "from-semilinear", "--set", str(path),
                     "--out", str(out)]) == 0
        assert evaluate_batch(load_graph(out), [[-1.0], [0.0], [1.0]]) == [0, 1, 1]

    def test_a_relu_model_round_trips_through_semilinear_files(self, tmp_path):
        model, g1, s, g2 = (tmp_path / n for n in ("relu.json", "g1.json", "s.json", "g2.json"))
        save_model(random_network(np.random.default_rng(0), [2, 4, 3], RELU), model)
        assert main(["compile", "--model", str(model), "--out", str(g1)]) == 0
        assert main(["to-semilinear", "--graph", str(g1), "--out", str(s)]) == 0
        assert main(["from-semilinear", "--set", str(s), "--out", str(g2)]) == 0
        X = np.random.default_rng(5).normal(scale=2.0, size=(500, 2))
        assert evaluate_batch(load_graph(g2), X) == evaluate_batch(load_graph(g1), X)

    @pytest.mark.parametrize("doc, error", [
        ({"dim": 2, "fibers": {"1": [{"gt": [[1.0, 0.0]]}]}},
         "has 2 entries, expected dim + 1 = 3"),
        ({"dim": 1, "fibers": {"1": [[[1.0, 0.0]]]}}, "a piece must be an object"),
        ({"dim": 1, "fibers": {"1": [{"lt": [[1.0, 0.0]]}]}}, "unknown piece key 'lt'"),
        ({"dim": -1, "fibers": {"1": [{"gt": [[0.0]]}]}}, "dim must be a positive integer"),
    ], ids=["row-length", "piece-not-object", "unknown-key", "negative-dim"])
    def test_malformed_semilinear_file_exits_65(self, tmp_path, capsys, doc, error):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "g.json"
        assert main(["from-semilinear", "--set", str(path), "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert f"{path}: " in err and error in err
        assert not out.exists()

    def test_an_object_target_label_in_a_graph_file_exits_65(self, tmp_path, capsys):
        doc = graph_to_dict(make_step_graph())
        doc["target_labels"]["t1"] = '{"a": 1}'
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(doc))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5\n")
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts)]) == 65
        assert f"{graph_path}: label text '{{\"a\": 1}}' holds a JSON object" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["eval", "to-semilinear"])
    @pytest.mark.parametrize("key, value, error", [
        ("guards", [], "guards must be an object, got []"),
        ("routing", [], "routing must be an object, got []"),
        ("target_labels", [], "target_labels must be an object, got []"),
        ("input_dim", 2.5, "input_dim must be a positive integer, got 2.5"),
    ], ids=["guards", "routing", "target_labels", "input_dim"])
    def test_a_malformed_graph_file_key_exits_65(self, tmp_path, capsys, command, key, value,
                                                 error):
        doc = graph_to_dict(make_step_graph())
        doc[key] = value
        graph_path, pts, out = tmp_path / "g.json", tmp_path / "pts.csv", tmp_path / "s.json"
        graph_path.write_text(json.dumps(doc))
        pts.write_text("0.5\n")
        argv = ["--points", str(pts)] if command == "eval" else ["--out", str(out)]
        assert main([command, "--graph", str(graph_path)] + argv) == 65
        assert f"{graph_path}: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "to-semilinear"])
    @pytest.mark.parametrize("aid", [[], {}, 0], ids=["array", "object", "number"])
    def test_a_route_whose_arrow_id_is_not_a_string_exits_65(self, tmp_path, capsys, command,
                                                             aid):
        doc = graph_to_dict(make_step_graph())
        doc["routing"]["s"]["+"] = aid
        graph_path, pts, out = tmp_path / "g.json", tmp_path / "pts.csv", tmp_path / "s.json"
        graph_path.write_text(json.dumps(doc))
        pts.write_text("0.5\n")
        argv = ["--points", str(pts)] if command == "eval" else ["--out", str(out)]
        assert main([command, "--graph", str(graph_path)] + argv) == 65
        assert (f"{graph_path}: routing at 's': arrow id for '+' must be a string, "
                f"got {aid!r}") in capsys.readouterr().err
        assert not out.exists()

    def test_exact_rows_that_disagree_with_the_floats_exit_65(self, tmp_path, capsys):
        net = random_network(np.random.default_rng(1), [3, 4, 4, 4, 4], RELU)
        doc = graph_to_dict(networks.compile_relu_net(net))
        v = next(v for v, gd in doc["guards"].items() if "exact" in gd)
        exact = doc["guards"][v]["exact"]
        exact["rows"][0][-1] = 2 * exact["rows"][0][-1] or exact["den"]
        graph_path = tmp_path / "g.json"
        graph_path.write_text(json.dumps(doc))
        pts = tmp_path / "pts.csv"
        pts.write_text("0.5,0.5,0.5\n")
        assert main(["eval", "--graph", str(graph_path), "--points", str(pts)]) == 65
        assert f"{graph_path}: guard at {v!r}: exact rows do not round" in (
            capsys.readouterr().err)

    def test_an_object_fiber_label_in_a_semilinear_file_exits_65(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"dim": 1, "fibers": {'[0, {"a": 1}]': [{"gt": [[1.0, 0.0]]}]}}))
        out = tmp_path / "g.json"
        assert main(["from-semilinear", "--set", str(path), "--out", str(out)]) == 65
        assert f"{path}: label text '[0, {{\"a\": 1}}]' holds a JSON object" in (
            capsys.readouterr().err)
        assert not out.exists()


class TestGridCommands:
    @pytest.fixture
    def grid_file(self, tmp_path):
        grid = grid_from_function(lambda p: int(p[1] >= p[0]), (0.0, 0.0),
                                  (1.0, 1.0), 8)
        path = tmp_path / "grid.json"
        save_grid(grid, path)
        return path

    def test_approx_report_is_deterministic(self, tmp_path, grid_file):
        out, rep = tmp_path / "a.json", tmp_path / "r.json"
        argv = ["approx", "--grid", str(grid_file), "--epsilon-frac", "0.1",
                "--out", str(out), "--report", str(rep)]
        assert main(argv) == 0
        first = rep.read_bytes()
        doc = json.loads(first)
        assert doc["residual_measure"] < 0.1 * 1.0 + 1e-12
        assert doc["mismatch_measure"] == 0.0
        assert "config_hash" in doc
        assert main(argv) == 0
        assert rep.read_bytes() == first

    def test_charts_family_exhausts(self, tmp_path, grid_file):
        rep = tmp_path / "fam.json"
        assert main(["charts", "--grid", str(grid_file), "--eps0-frac",
                     "0.03125", "--depth", "6", "--report", str(rep)]) == 0
        doc = json.loads(rep.read_text())
        assert doc["final_residual"] == 0.0
        assert len(doc["rounds"]) <= 6

    def test_short_cell_row_is_a_malformed_file(self, tmp_path, grid_file, capsys):
        with open(tmp_path / "grid.csv", "a") as fh:
            fh.write("0,1\n")
        assert main(["approx", "--grid", str(grid_file), "--epsilon", "0.01",
                     "--out", str(tmp_path / "a.json")]) == 65
        assert "grid.csv, line 66: expected 3 fields" in capsys.readouterr().err

    def test_an_object_label_in_a_grid_file_exits_65(self, tmp_path, grid_file, capsys):
        with open(tmp_path / "grid.csv", "a") as fh:
            fh.write('0,1,"{""a"": 1}"\n')
        out = tmp_path / "a.json"
        assert main(["approx", "--grid", str(grid_file), "--epsilon", "0.01",
                     "--out", str(out)]) == 65
        assert "grid.csv, line 66: label text '{\"a\": 1}' holds a JSON object" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_empty_labels_file_is_a_malformed_file(self, tmp_path, grid_file, capsys):
        (tmp_path / "grid.csv").write_text("")
        assert main(["approx", "--grid", str(grid_file), "--epsilon", "0.01",
                     "--out", str(tmp_path / "a.json")]) == 65
        err = capsys.readouterr().err
        assert str(grid_file) in err and "grid.csv is empty" in err

    @pytest.mark.parametrize("resolution", [[0, 8], [8, -1]], ids=["zero", "negative"])
    def test_resolution_below_one_is_a_malformed_file(self, tmp_path, grid_file, capsys,
                                                      resolution):
        manifest = json.loads(grid_file.read_text())
        manifest["resolution"] = resolution
        grid_file.write_text(json.dumps(manifest))
        (tmp_path / "grid.csv").write_text("i0,i1,label\n")  # no cell to be outside
        out, rep = tmp_path / "a.json", tmp_path / "r.json"
        assert main(["approx", "--grid", str(grid_file), "--epsilon", "0.01",
                     "--out", str(out), "--report", str(rep)]) == 65
        assert str(grid_file) in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_nan_box_bound_exits_2_and_writes_nothing(self, tmp_path, grid_file, capsys):
        manifest = json.loads(grid_file.read_text())
        manifest["lo"][0] = float("nan")
        grid_file.write_text(json.dumps(manifest))
        out, rep = tmp_path / "a.json", tmp_path / "r.json"
        assert main(["approx", "--grid", str(grid_file), "--epsilon", "0.01",
                     "--out", str(out), "--report", str(rep)]) == 2
        assert "NonFinitePointError: box bounds" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    @pytest.mark.parametrize("command, bound, out_flag", [
        ("approx", "--epsilon", "--out"),
        ("approx", "--epsilon-frac", "--out"),
        ("charts", "--eps0", "--report"),
        ("charts", "--eps0-frac", "--report"),
    ])
    def test_nan_bound_exits_2(self, tmp_path, grid_file, capsys, command, bound, out_flag):
        out = tmp_path / "out.json"
        assert main([command, "--grid", str(grid_file), bound, "nan",
                     out_flag, str(out)]) == 2
        assert "AssumptionViolationError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["approx", "--epsilon", "0", "--out", "{out}", "--report", "{rep}"],
        ["charts", "--eps0", "0", "--depth", "3", "--report", "{out}"],
    ], ids=["approx", "charts"])
    def test_fallback_label_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        labels = np.empty((4, 4), dtype=object)
        labels[:2], labels[2:] = "a", FALLBACK
        grid = tmp_path / "grid.json"
        save_grid(LabeledGrid([0.0, 0.0], [1.0, 1.0], labels), grid)
        out, rep = tmp_path / "out.json", tmp_path / "rep.json"
        argv = [a.format(out=out, rep=rep) for a in argv]
        assert main(argv[:1] + ["--grid", str(grid)] + argv[1:]) == 2
        assert "AssumptionViolationError: grid label '*'" in capsys.readouterr().err
        assert not out.exists() and not rep.exists()

    def test_epsilon_is_required(self, tmp_path, grid_file):
        assert main(["approx", "--grid", str(grid_file),
                     "--out", str(tmp_path / "a.json")]) == 2


class TestTrainPipeline:
    def test_gen_train_specialize_fuzzy(self, tmp_path):
        data = tmp_path / "d.csv"
        assert main(["--seed", "7", "gen-data", "--kind", "blobs",
                     "--n", "120", "--out", str(data)]) == 0
        model = tmp_path / "m.json"
        assert main(["--seed", "7", "train", "--data", str(data), "--hidden",
                     "6", "--epochs", "8", "--out", str(model),
                     "--trace", str(tmp_path / "t.csv")]) == 0
        assert (tmp_path / "t.csv").read_text().startswith("epoch,loss")

        spec = tmp_path / "spec.json"
        assert main(["--seed", "7", "specialize", "--model", str(model),
                     "--blocks", "0|1", "--data", str(data), "--epochs", "5",
                     "--out", str(spec)]) == 0
        assert load_model(spec).output_dim == 2

        fuzz = tmp_path / "f.json"
        assert main(["fuzzy-import", "--model", str(model), "--out", str(fuzz)]) == 0
        fg = load_fuzzy(fuzz)
        outcome = evaluate_fuzzy(fg, [0.5, 0.5])
        assert len(outcome.state) == 3
        assert outcome.state.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("text, detail", [
        ("", "d.csv is empty"),
        ("x1,x2,label,split\n", "d.csv has a header but no data rows"),
        ("label,split\n0,train\n", "d.csv, line 1: expected x1, ..., label, split"),
        ("x1,x2,label,split\n0.5,1.0,0,train\n0.5,1.0\n", "d.csv, line 3: expected 4 fields, got 2"),
        ("x1,x2,label,split\n0.5,1.0,zero,train\n", "d.csv, line 2: invalid literal"),
        ("x1,x2,label,split\n0.5,1.0,0,train\n0.5,1.0,-1,train\n",
         "d.csv, line 3: label -1 is negative"),
    ])
    def test_malformed_dataset_is_a_malformed_file(self, tmp_path, capsys, text, detail):
        data = tmp_path / "d.csv"
        data.write_text(text)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")]) == 65
        err = capsys.readouterr().err
        assert str(data) in err and detail in err

    def test_empty_train_split_is_a_malformed_file(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,label,split\n0.5,1.0,0,val\n")
        model = tmp_path / "m.json"
        save_model(random_network(np.random.default_rng(0), [2, 3],
                                  "sigmoid", "softmax"), model)
        for argv in (["train", "--data", str(data)],
                     ["specialize", "--model", str(model), "--blocks", "0|1",
                      "--data", str(data)]):
            assert main(argv + ["--out", str(tmp_path / "out.json")]) == 65
            err = capsys.readouterr().err
            assert str(data) in err and "no train rows" in err
        assert not (tmp_path / "out.json").exists()

    def test_bad_blocks_flag_is_validation(self, tmp_path):
        model = tmp_path / "m.json"
        save_model(random_network(np.random.default_rng(0), [2, 3],
                                  "sigmoid", "softmax"), model)
        assert main(["specialize", "--model", str(model), "--blocks", "a|b",
                     "--out", str(tmp_path / "s.json")]) == 2


def write_charts_file(tmp_path, data):
    gen = tmp_path / "gen.json"
    spec = tmp_path / "spec.json"
    assert main(["--seed", "7", "train", "--data", str(data), "--hidden", "6",
                 "--epochs", "10", "--out", str(gen)]) == 0
    assert main(["--seed", "7", "specialize", "--model", str(gen), "--blocks",
                 "0|1", "--data", str(data), "--epochs", "6",
                 "--out", str(spec)]) == 0
    charts = tmp_path / "charts.json"
    charts.write_text(json.dumps({
        "classes": [0, 1, 2],
        "charts": [
            {"id": "gen", "model": "gen.json", "blocks": [[0], [1], [2]]},
            {"id": "pair", "model": "spec.json", "blocks": [[0], [1]]},
        ],
    }))
    return charts


class TestEnsembleCommands:
    @pytest.fixture
    def pipeline(self, tmp_path):
        data = tmp_path / "d.csv"
        assert main(["--seed", "7", "gen-data", "--kind", "blobs", "--n",
                     "150", "--out", str(data)]) == 0
        charts = write_charts_file(tmp_path, data)
        return tmp_path, data, charts

    def test_target_graph_layout(self, pipeline):
        tmp_path, _, charts = pipeline
        out = tmp_path / "tg.json"
        assert main(["ensemble", "target-graph", "--charts", str(charts),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["nodes"][doc["root"]]["target"] == ["0", "1", "2"]
        assert doc["arrows"]["0"] == [1]
        assert doc["nodes"][1]["charts"] == [["pair"]]

    def test_calibrate_then_vote_deterministic(self, pipeline):
        tmp_path, data, charts = pipeline
        cal = tmp_path / "cal.json"
        assert main(["--grid", "0,0.4,0.6,0.8", "ensemble", "calibrate",
                     "--charts", str(charts), "--data", str(data),
                     "--out", str(cal)]) == 0
        doc = json.loads(cal.read_text())
        assert set(doc["classes"]) == {"0", "1", "2"}
        for rec in doc["classes"].values():
            assert rec["alpha"] in (0.0, 0.4, 0.6, 0.8)
            assert 0.0 <= rec["rate"] <= 1.0

        report = tmp_path / "vote.json"
        argv = ["--grid", "0,0.4,0.6,0.8", "ensemble", "vote", "--charts",
                str(charts), "--data", str(data), "--calibration", str(cal),
                "--out", str(report)]
        assert main(argv) == 0
        first = report.read_bytes()
        assert main(argv) == 0
        assert report.read_bytes() == first
        doc = json.loads(first)
        assert len(doc["instances"]) == 30  # test split of 150
        for rec in doc["instances"]:
            assert rec["prediction"] in {"0", "1", "2"}
            assert set(rec["answer"]) == {"0", "1", "2"}

    def test_report_writes_matrices(self, pipeline):
        tmp_path, data, charts = pipeline
        outdir = tmp_path / "rep"
        assert main(["ensemble", "report", "--charts", str(charts), "--data",
                     str(data), "--outdir", str(outdir)]) == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert set(summary["charts"]) == {"gen", "pair"}
        lines = (outdir / "gen_predictions.csv").read_text().splitlines()
        assert lines[0] == "instance_id,p_block_1,p_block_2,p_block_3"
        assert len(lines) == 31

    def test_report_runs_each_chart_once(self, pipeline, monkeypatch):
        tmp_path, data, charts = pipeline
        calls = []
        outputs = ModelChart.outputs
        monkeypatch.setattr(ModelChart, "outputs",
                            lambda chart, X: calls.append(chart.id) or outputs(chart, X))
        assert main(["ensemble", "report", "--charts", str(charts), "--data",
                     str(data), "--outdir", str(tmp_path / "rep")]) == 0
        assert sorted(calls) == ["gen", "pair"]

    @pytest.mark.parametrize("split,value", [("val", "nan"), ("test", "inf")])
    def test_non_finite_instance_exits_2(self, pipeline, capsys, split, value):
        tmp_path, data, charts = pipeline
        cal = tmp_path / "cal.json"
        assert main(["ensemble", "calibrate", "--charts", str(charts), "--data",
                     str(data), "--out", str(cal)]) == 0
        lines = data.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.endswith("," + split))
        lines[row] = value + lines[row][lines[row].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        vote = ["ensemble", "vote", "--charts", str(charts), "--data", str(bad),
                "--calibration", str(cal), "--out", str(tmp_path / "v.json")]
        assert main(vote) == 2
        assert "NonFinitePointError" in capsys.readouterr().err
        if split == "val":
            assert main(["ensemble", "calibrate", "--charts", str(charts),
                         "--data", str(bad), "--out", str(cal)]) == 2
        else:
            assert main(["ensemble", "report", "--charts", str(charts),
                         "--data", str(bad), "--outdir",
                         str(tmp_path / "rep")]) == 2
        assert "NonFinitePointError" in capsys.readouterr().err

    def test_shared_chart_ids_exit_2(self, pipeline, capsys):
        tmp_path, data, charts = pipeline
        doc = json.loads(charts.read_text())
        doc["charts"][1]["id"] = doc["charts"][0]["id"]
        charts.write_text(json.dumps(doc))
        assert main(["ensemble", "calibrate", "--charts", str(charts), "--data",
                     str(data), "--out", str(tmp_path / "cal.json")]) == 2
        assert "AssumptionViolationError" in capsys.readouterr().err

    def test_wrong_data_width_exits_2(self, pipeline, capsys):
        tmp_path, data, charts = pipeline
        lines = data.read_text().splitlines()
        wide = tmp_path / "wide.csv"  # a third feature the 2-input charts lack
        wide.write_text("\n".join(["x0," + lines[0]]
                                  + ["0.5," + line for line in lines[1:]]) + "\n")
        capsys.readouterr()
        assert main(["ensemble", "calibrate", "--charts", str(charts), "--data",
                     str(wide), "--out", str(tmp_path / "cal.json")]) == 2
        assert "DimensionMismatchError" in capsys.readouterr().err
        assert main(["ensemble", "report", "--charts", str(charts), "--data",
                     str(wide), "--outdir", str(tmp_path / "rep")]) == 2
        assert "DimensionMismatchError" in capsys.readouterr().err

    def set_embedding(self, charts, embedding):
        doc = json.loads(charts.read_text())
        doc["charts"][1]["embedding"] = embedding
        charts.write_text(json.dumps(doc))

    def calibrate_exit(self, pipeline, capsys, embedding):
        tmp_path, data, charts = pipeline
        self.set_embedding(charts, embedding)
        capsys.readouterr()
        code = main(["ensemble", "calibrate", "--charts", str(charts), "--data",
                     str(data), "--out", str(tmp_path / "cal.json")])
        assert not (tmp_path / "cal.json").exists()
        return code, capsys.readouterr().err

    def test_unknown_embedding_kind_exits_65(self, pipeline, capsys):
        code, err = self.calibrate_exit(pipeline, capsys, {"kind": "warp"})
        assert code == 65 and "unknown embedding kind 'warp'" in err

    def test_resample_factor_below_one_exits_65(self, pipeline, capsys):
        code, err = self.calibrate_exit(pipeline, capsys, {"kind": "resample", "factor": 0})
        assert code == 65 and "resample factor" in err

    def test_subset_index_past_the_data_width_exits_2(self, pipeline, capsys):
        code, err = self.calibrate_exit(pipeline, capsys,
                                        {"kind": "subset", "indices": [0, 5]})
        assert code == 2 and "DimensionMismatchError: subset index 5" in err
        tmp_path, data, charts = pipeline
        assert main(["ensemble", "report", "--charts", str(charts), "--data", str(data),
                     "--outdir", str(tmp_path / "rep")]) == 2
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("label,path_nodes,alpha", [
        ("0", [0, 9], None),    # no node 9
        ("0", [], None),        # no node at all
        ("2", [0, 1], None),    # node 1's target {0, 1} lacks class 2
        ("0", None, 1.5),
        ("0", None, "0.4"),
    ])
    def test_bad_calibration_entry_exits_65(self, pipeline, capsys, label,
                                            path_nodes, alpha):
        tmp_path, data, charts = pipeline
        cal = tmp_path / "cal.json"
        assert main(["ensemble", "calibrate", "--charts", str(charts), "--data",
                     str(data), "--out", str(cal)]) == 0
        doc = json.loads(cal.read_text())
        if path_nodes is not None:
            doc["classes"][label]["path_nodes"] = path_nodes
        if alpha is not None:
            doc["classes"][label]["alpha"] = alpha
        cal.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["ensemble", "vote", "--charts", str(charts), "--data",
                     str(data), "--calibration", str(cal),
                     "--out", str(tmp_path / "v.json")])
        assert code == 65
        assert f"class {label}:" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize("key", ["classes", "charts"])
    def test_a_calibration_key_that_is_not_an_object_exits_65(self, pipeline, capsys, key):
        tmp_path, _, _ = pipeline
        capsys.readouterr()
        assert self.calibrate_and_vote(pipeline, lambda doc: doc.update({key: []})) == 65
        assert f"{key} must be an object, got []" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()

    def calibrate_and_vote(self, pipeline, edit=None):
        """Exit code of `vote` after `calibrate` on the same data file, with the
        calibration file's JSON passed through `edit` in between."""
        tmp_path, data, charts = pipeline
        cal = tmp_path / "cal.json"
        assert main(["ensemble", "calibrate", "--charts", str(charts), "--data",
                     str(data), "--out", str(cal)]) == 0
        if edit is not None:
            doc = json.loads(cal.read_text())
            edit(doc)
            cal.write_text(json.dumps(doc))
        return main(["ensemble", "vote", "--charts", str(charts), "--data", str(data),
                     "--calibration", str(cal), "--out", str(tmp_path / "v.json")])

    def test_specialized_charts_share_their_generalists_network(self, pipeline, monkeypatch):
        tmp_path, data, _ = pipeline
        assert main(["--seed", "7", "specialize", "--model", str(tmp_path / "gen.json"),
                     "--blocks", "0,1|2", "--data", str(data), "--epochs", "6",
                     "--out", str(tmp_path / "thick.json")]) == 0
        charts = tmp_path / "three.json"
        charts.write_text(json.dumps({"classes": [0, 1, 2], "charts": [
            {"id": "gen", "model": "gen.json", "blocks": [[0], [1], [2]]},
            {"id": "pair", "model": "spec.json", "blocks": [[0], [1]]},
            {"id": "thick", "model": "thick.json", "blocks": [[0, 1], [2]]},
            {"id": "again", "model": "./spec.json", "blocks": [[0], [1]]}]}))
        read, models = [], {}

        def recorded(cid, model, *rest):
            models[cid] = model
            return chart_from_net(cid, model, *rest)

        monkeypatch.setattr(cli, "load_model", lambda p: read.append(p) or load_model(p))
        monkeypatch.setattr(cli, "chart_from_net", recorded)
        cli._load_charts(str(charts))
        assert sorted(Path(p).name for p in read) == ["gen.json", "spec.json", "thick.json"]
        assert models["pair"].base is models["gen"] and models["thick"].base is models["gen"]
        assert models["again"] is models["pair"]
        monkeypatch.undo()

        cal, votes = tmp_path / "cal.json", tmp_path / "v.json"
        assert main(["ensemble", "calibrate", "--charts", str(charts), "--data", str(data),
                     "--out", str(cal)]) == 0
        assert main(["ensemble", "vote", "--charts", str(charts), "--data", str(data),
                     "--calibration", str(cal), "--out", str(votes)]) == 0
        # the same calibration and votes from charts that share no network
        alone = build_target_graph([chart_from_net(rec["id"], load_model(tmp_path / rec["model"]),
                                                   rec["blocks"])
                                    for rec in json.loads(charts.read_text())["charts"]],
                                   {0, 1, 2})
        dataset = load_dataset(str(data))
        want = calibrate(alone, *dataset.subset("val"), alphas=RunConfig().alpha_grid)
        assert json.loads(cal.read_text()) == dict(
            calibration_to_dict(alone, want), config_hash=json.loads(cal.read_text())["config_hash"])
        written = votes.read_text()
        doc = json.loads(written)
        doc["instances"] = vote_report(alone, want, dataset.subset("test")[0],
                                       _calibrated_phi(alone, want))["instances"]
        assert written == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_vote_weighs_charts_as_calibrate_chose_its_paths(self, pipeline):
        tmp_path, data, charts = pipeline
        assert self.calibrate_and_vote(pipeline) == 0
        written = (tmp_path / "v.json").read_text()
        # the same votes with each chart's phi measured again on the val rows
        graph = build_target_graph(*reversed(cli._load_charts(str(charts))))
        dataset = load_dataset(str(data))
        want = json.loads(written)
        want["instances"] = vote_report(
            graph, load_calibration(tmp_path / "cal.json", graph),
            dataset.subset("test")[0], make_phi(*dataset.subset("val")))["instances"]
        assert written == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_vote_runs_no_chart_on_the_validation_split(self, pipeline, monkeypatch):
        tmp_path, data, charts = pipeline
        Xval = load_dataset(str(data)).subset("val")[0]
        seen = []
        outputs = ModelChart.outputs
        monkeypatch.setattr(ModelChart, "outputs",
                            lambda chart, X: seen.append(np.array(X)) or outputs(chart, X))
        assert self.calibrate_and_vote(pipeline) == 0
        on_val = [X.shape == Xval.shape and np.array_equal(X, Xval) for X in seen]
        # calibrate runs gen and pair once each on val, then vote only on test
        assert on_val[:2] == [True, True] and len(on_val) > 2 and not any(on_val[2:])

    @pytest.mark.parametrize("edit", ["drop the chart", "drop the alpha"])
    def test_vote_without_a_calibrated_phi_exits_65(self, pipeline, capsys, edit):
        tmp_path, data, charts = pipeline

        def broken(doc):
            entry = doc["classes"]["0"]
            if edit == "drop the chart":
                del doc["charts"]["gen"]
            else:
                for curve in doc["charts"].values():
                    k = curve["alphas"].index(entry["alpha"])
                    for key in ("alphas", "phi", "certain_sizes"):
                        del curve[key][k]

        capsys.readouterr()
        assert self.calibrate_and_vote(pipeline, broken) == 65
        assert "chart 'gen'" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()

    def test_missing_calibration_names_the_path(self, pipeline, capsys):
        tmp_path, data, charts = pipeline
        missing = tmp_path / "nope.json"
        code = main(["ensemble", "vote", "--charts", str(charts), "--data",
                     str(data), "--calibration", str(missing),
                     "--out", str(tmp_path / "v.json")])
        assert code == 65
        assert str(missing) in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 64
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_ensemble_subcommand(self, capsys):
        assert main(["ensemble", "frobnicate"]) == 64

    def test_missing_required_flag(self, capsys):
        assert main(["compile", "--out", "x"]) == 2

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layers": [\n  oops\n]}')
        code = main(["compile", "--model", str(bad), "--out", str(tmp_path / "g.json")])
        assert code == 65
        assert "line 2" in capsys.readouterr().err

    def test_missing_charts_file_names_the_path(self, tmp_path, capsys):
        missing = tmp_path / "charts.json"
        assert main(["ensemble", "target-graph", "--charts", str(missing),
                     "--out", str(tmp_path / "tg.json")]) == 65
        assert f"{missing}: no such file" in capsys.readouterr().err

    def test_malformed_charts_file_names_the_path(self, tmp_path, capsys):
        bad = tmp_path / "charts.json"
        bad.write_text('{"classes": [0, 1],\n  "charts": [oops]}')
        assert main(["ensemble", "target-graph", "--charts", str(bad),
                     "--out", str(tmp_path / "tg.json")]) == 65
        assert f"{bad}: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"chamber_cap": -1}',
        '{"uncertain_weight": NaN}',
        '{"uncertain_weight": -0.5}',
        '{"tie_margin": Infinity}',
    ])
    def test_config_file_values_checked(self, tmp_path, capsys, text):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        code = main(["--config", str(cfgfile), "gen-data", "--kind", "blobs",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: ")
        assert not (tmp_path / "d.csv").exists()

    def test_cap_exhaustion_exit_code(self, tmp_path):
        grid = grid_from_function(lambda p: int(p[0] + p[1]) % 2, (0.0, 0.0),
                                  (4.0, 4.0), 4)
        gridfile = tmp_path / "grid.json"
        save_grid(grid, gridfile)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text('{"budget_cap": 1}')
        code = main(["--config", str(cfgfile), "approx", "--grid",
                     str(gridfile), "--epsilon", "0.01",
                     "--out", str(tmp_path / "a.json")])
        assert code == 3


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(section: str):
    """Command lines of the sh block that follows the README line `section`."""
    lines = README.read_text().splitlines()
    start = lines.index(section) + 1
    assert lines[start + 1] == "```sh"
    end = lines.index("```", start + 2)
    return lines[start + 2:end]


class TestReadmeFlow:
    """The README's compile, semilinear and fuzzy-import commands, run as written."""

    SECTIONS = ("Compile and evaluate:", "Semilinear conversions:", "Fuzzy import:")

    def test_documented_commands_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        commands = [line for section in self.SECTIONS for line in readme_commands(section)]
        assert sum(line.startswith("logifold ") for line in commands) == 9
        for line in commands:
            argv = shlex.split(line)
            if argv[0] == "python":
                assert argv[1] == "-c"
                exec(argv[2], {})
            else:
                assert argv[0] == "logifold" and main(argv[1:]) == 0, line

        relu = load_model("relu.json")
        X = np.loadtxt("points.csv", delimiter=",")
        labels = [json.loads(v) for v in Path("labels.txt").read_text().split()]
        assert labels == list(forward_classical_batch(relu, X))
        assert "mismatches: 0\n" in capsys.readouterr().out
        assert evaluate_batch(load_graph("graph2.json"), X) == labels
        for model, fuzzy in (("net.json", "fuzzy.json"), ("relu_softmax.json", "fuzzy_relu.json")):
            fg, net = load_fuzzy(fuzzy), load_model(model)
            for x in X:
                assert np.allclose(evaluate_fuzzy(fg, x).state, forward_smooth(net, x),
                                   atol=1e-9)

    def test_trained_net_does_not_compile(self, tmp_path, monkeypatch, capsys):
        # the flow the README used to show: a sigmoid net piped into compile
        monkeypatch.chdir(tmp_path)
        for line in readme_commands("Fuzzy import:")[:2]:
            assert main(shlex.split(line)[1:]) == 0
        assert main(["compile", "--model", "net.json", "--out", "graph.json"]) == 2
        assert "UnsupportedActivationError" in capsys.readouterr().err


GLOBAL_FLAGS = {"--tie-margin"}


@pytest.mark.parametrize("command, flag, value", [
    ("check-equiv", "--samples", "-1"),
    ("check-equiv", "--tie-margin", "inf"),
    ("check-equiv", "--tie-margin", "nan"),
    ("check-equiv", "--tie-margin", "-1"),
    ("charts", "--depth", "-1"),
    ("charts", "--depth", "0"),
    ("gen-data", "--n", "-5"),
    ("gen-data", "--n", "0"),
    ("gen-data", "--spread", "-1"),
    ("gen-data", "--spread", "nan"),
    ("train", "--epochs", "0"),
    ("train", "--batch-size", "0"),
    ("train", "--hidden", "a"),
    ("train", "--hidden", "0"),
    ("train", "--hidden", "4,0"),
    ("train", "--noise", "-1"),
    ("train", "--noise", "inf"),
    ("train", "--lr", "-1"),
    ("train", "--lr", "0"),
    ("train", "--lr", "nan"),
    ("train", "--scale", "0"),
    ("train", "--scale", "-2"),
    ("train", "--scale", "inf"),
    ("specialize", "--epochs", "0"),
    ("specialize", "--lr", "-1"),
    ("specialize", "--lr", "0"),
])
def test_a_bad_numeric_argument_exits_2_and_writes_nothing(tmp_path, capsys, command, flag,
                                                           value):
    out = tmp_path / "out"
    required = {"check-equiv": ["--model", "m.json", "--graph", "g.json", "--out", str(out)],
                "charts": ["--grid", "grid.json", "--eps0", "0.1", "--report", str(out)],
                "gen-data": ["--kind", "blobs", "--out", str(out)],
                "train": ["--data", "d.csv", "--out", str(out)],
                "specialize": ["--model", "m.json", "--blocks", "0|1", "--out", str(out)]}
    argv = [command, *required[command]]
    # a global flag comes before the subcommand
    argv = [flag, value, *argv] if flag in GLOBAL_FLAGS else [*argv, flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")
    assert not out.exists()


@pytest.fixture
def models_of_each_kind(tmp_path):
    """sigmoid.json, relu.json (relu/indexmax), specialized.json as `specialize`
    writes it, and g.json compiled from relu.json."""
    rng = np.random.default_rng(3)
    save_model(random_network(rng, [2, 3, 3], SIGMOID, SOFTMAX), tmp_path / "sigmoid.json")
    save_model(random_network(rng, [2, 3, 3], RELU, INDEXMAX), tmp_path / "relu.json")
    assert main(["specialize", "--model", str(tmp_path / "sigmoid.json"), "--blocks", "0|1,2",
                 "--out", str(tmp_path / "specialized.json")]) == 0
    assert main(["compile", "--model", str(tmp_path / "relu.json"),
                 "--out", str(tmp_path / "g.json")]) == 0
    return tmp_path


@pytest.mark.parametrize("command, model, kind", [
    ("compile", "specialized", "specialized sigmoid/softmax"),
    ("compile", "sigmoid", "sigmoid/softmax"),
    ("fuzzy-import", "specialized", "specialized sigmoid/softmax"),
    ("fuzzy-import", "relu", "relu/indexmax"),
    ("check-equiv", "specialized", "specialized sigmoid/softmax"),
    ("check-equiv", "sigmoid", "sigmoid/softmax"),
    ("specialize", "specialized", "specialized sigmoid/softmax"),
    ("specialize", "relu", "relu/indexmax"),
])
def test_a_model_of_another_kind_exits_2_and_writes_nothing(models_of_each_kind, capsys,
                                                            command, model, kind):
    d = models_of_each_kind
    out = d / "out.json"
    extra = {"check-equiv": ["--graph", str(d / "g.json"), "--samples", "50"],
             "specialize": ["--blocks", "0|1"]}.get(command, [])
    capsys.readouterr()
    assert main([command, "--model", str(d / f"{model}.json"), *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnsupportedActivationError: ") and "Traceback" not in err
    assert f"not a {kind} network" in err
    assert not out.exists()
