"""Command-line pipelines: compile, convert, approximate, train, and vote.

Exit codes: 0 success, 2 validation failure, 3 cap or budget exhaustion,
64 unknown subcommand, 65 malformed input file (with a line diagnostic when
the parser provides one).  All randomness flows from the resolved config
seed, and JSON reports embed the config hash.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import partial

import numpy as np

from .approx import approximate, chart_family, load_grid, mismatch_measure
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_hash,
    load_config,
)
from .ensemble import Embedding, _fuzzy_accuracy_of, build_target_graph, chart_from_net
from .errors import (
    BudgetCapError,
    DimensionBudgetError,
    GuardExplosionError,
    LogifoldError,
    MalformedEmbeddingError,
    PathExplosionError,
    RegionExplosionError,
)
from .fuzzy import from_relu_softmax_net, from_sigmoid_net, save_fuzzy
from .graph import (evaluate_batch, label_to_text, load_graph, read_json, require_valid,
                    save_graph, write_json)
from .networks import (
    SIGMOID,
    SOFTMAX,
    compile_relu_net,
    compile_step_net,
    forward_logits_batch,
    load_model,
    pick,
    random_network,
    save_model,
    share_base,
)
from .semilinear import from_llgraph, load_semilinear, save_semilinear, to_llgraph
from .training import (
    Hyperparams,
    load_dataset,
    relabel_for_blocks,
    save_dataset,
    save_trace,
    specialize,
    synth_dataset,
    train_sgd,
)
from .voting import (
    _calibrated_phi,
    _finite_rows,
    calibration_to_dict,
    calibrate,
    load_calibration,
    vote_report,
    write_prediction_matrix,
)

_CAP_ERRORS = (BudgetCapError, DimensionBudgetError, GuardExplosionError,
               PathExplosionError, RegionExplosionError)


class MalformedFileError(Exception):
    def __init__(self, path, detail):
        super().__init__(f"{path}: {detail}")
        self.path = path
        self.detail = detail


class _UsageError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _count(text):
    """An integer argument of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is below 1")
    return n


def _widths(text):
    """Comma-separated layer widths, each an integer of at least 1; none if empty."""
    return [_count(v) for v in text.split(",")] if text else []


def _arch(text):
    """Layer widths as `_widths` reads them, at least two: a network needs a layer."""
    dims = _widths(text)
    if len(dims) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} names fewer than two widths")
    return dims


def _finite(text, above_zero: bool):
    """A finite number above 0, or of at least 0."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (math.isfinite(v) and (v > 0.0 if above_zero else v >= 0.0)):
        bound = "above 0" if above_zero else "of at least 0"
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number {bound}")
    return v


def _nonnegative(text):
    """A finite number of at least 0."""
    return _finite(text, above_zero=False)


def _positive(text):
    """A finite number above 0: a learning rate or a weight scale."""
    return _finite(text, above_zero=True)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        subcommand = "invalid choice" in message and (
            "argument cmd" in message or "argument subcmd" in message)
        raise _UsageError(message, 64 if subcommand else 2)


# -- file helpers -----------------------------------------------------------


def _load(path, loader):
    try:
        return loader(path)
    except FileNotFoundError:
        raise MalformedFileError(path, "no such file")
    except json.JSONDecodeError as e:
        raise MalformedFileError(path, f"line {e.lineno}, column {e.colno}: {e.msg}")
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFileError(path, str(e))


def _with_train_rows(path, data):
    """`data` from file `path`, if it has a train row to fit on."""
    if not np.any(data.split == "train"):
        raise MalformedFileError(path, "no train rows to fit")
    return data


def _load_graph(path):
    g = _load(path, load_graph)
    require_valid(g, check_realizability=False)
    return g


def _read_points(path):
    rows = []
    try:
        with open(path) as fh:
            for i, rec in enumerate(csv.reader(fh), start=1):
                if not rec:
                    continue
                try:
                    rows.append([float(v) for v in rec])
                except ValueError:
                    if i == 1:
                        continue  # header line
                    raise MalformedFileError(path, f"line {i}: expected numbers")
    except FileNotFoundError:
        raise MalformedFileError(path, "no such file")
    if not rows:
        raise MalformedFileError(path, "no points")
    return np.asarray(rows)


def _parse_blocks(text):
    try:
        return [[int(v) for v in part.split(",")] for part in text.split("|")]
    except ValueError:
        raise _UsageError(f"cannot parse blocks {text!r}", 2)


def _load_charts(path):
    """The charts file's classes and charts.  A model file named by several
    charts is read once, and equal base networks become one object, so
    charts on one base share its forward pass in every vote."""
    doc = _load(path, read_json)
    base = os.path.dirname(os.path.abspath(path))
    models, bases = {}, {}
    try:
        classes = doc["classes"]
        charts = []
        for rec in doc["charts"]:
            model_path = os.path.normpath(os.path.join(base, rec["model"]))
            if model_path not in models:
                models[model_path] = share_base(_load(model_path, load_model), bases)
            model = models[model_path]
            emb = rec.get("embedding", {})
            if not isinstance(emb, dict):
                raise MalformedFileError(path, "bad chart description: an embedding "
                                               "is not an object")
            embedding = Embedding(
                emb.get("kind", "identity"),
                tuple(emb["indices"]) if "indices" in emb else None,
                emb.get("factor"))
            charts.append(chart_from_net(rec["id"], model,
                                         [frozenset(b) for b in rec["blocks"]],
                                         embedding))
    except (KeyError, TypeError, MalformedEmbeddingError) as e:
        raise MalformedFileError(path, f"bad chart description: {e}")
    return classes, charts


def _load_chart_data(path, charts):
    """The dataset at `path`; every chart's embedding must act on its
    points, checked before any work is done or any output written."""
    data = _load(path, load_dataset)
    for chart in charts:
        chart.embedding.check_width(data.dim)
    return data


# -- commands ---------------------------------------------------------------


def _cmd_compile(cfg, args):
    net = _load(args.model, load_model)
    compiler = pick(net, {"step compiler": compile_step_net,
                          "relu compiler": partial(compile_relu_net, region_cap=cfg.region_cap)})
    g = compiler(net, chamber_cap=cfg.chamber_cap)
    require_valid(g)
    save_graph(g, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(cfg, args):
    g = _load_graph(args.graph)
    X = _read_points(args.points)
    labels = evaluate_batch(g, X)
    lines = "\n".join(map(label_to_text, labels)) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)
    return 0


def _cmd_check_equiv(cfg, args):
    net = _load(args.model, load_model)
    g = _load_graph(args.graph)
    rng = np.random.default_rng(cfg.seed)
    X = rng.normal(scale=2.0, size=(args.samples, net.input_dim))
    logits = forward_logits_batch(net, X)
    got = np.fromiter(evaluate_batch(g, X), dtype=object, count=len(X))
    top = np.sort(logits[np.argmax(logits, axis=1).astype(object) != got], axis=1)
    skipped = int(np.count_nonzero(top[:, -1] - top[:, -2] <= cfg.tie_margin)) \
        if top.shape[1] > 1 else 0
    mismatches = len(top) - skipped
    report = (f"samples: {args.samples}\nmismatches: {mismatches}\n"
              f"skipped_ties: {skipped}\nconfig_hash: {config_hash(cfg)}\n")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    sys.stdout.write(report)
    return 0


def _cmd_to_semilinear(cfg, args):
    g = _load_graph(args.graph)
    f = from_llgraph(g, region_cap=cfg.region_cap)
    save_semilinear(f, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_from_semilinear(cfg, args):
    f = _load(args.set, load_semilinear)
    g = to_llgraph(f, region_cap=cfg.region_cap)
    require_valid(g, check_realizability=False)
    save_graph(g, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_approx(cfg, args):
    grid = _load(args.grid_file, load_grid)
    epsilon = args.epsilon
    if args.epsilon_frac is not None:
        epsilon = args.epsilon_frac * grid.labeled_measure()
    if epsilon is None:
        raise _UsageError("need --epsilon or --epsilon-frac", 2)
    result = approximate(grid, epsilon, budget_cap=cfg.budget_cap)
    save_graph(result.graph, args.out)
    wrong, fallback = mismatch_measure(result, grid)
    if args.report:
        write_json({
            "epsilon": epsilon,
            "boxes": len(result.rectangles),
            "covered_measure": result.covered_measure,
            "residual_measure": result.residual_measure,
            "rounds": result.rounds,
            "mismatch_measure": wrong,
            "fallback_measure": fallback,
            "config_hash": config_hash(cfg),
        }, args.report)
    print(f"boxes: {len(result.rectangles)} residual: {result.residual_measure!r}")
    return 0


def _cmd_charts(cfg, args):
    grid = _load(args.grid_file, load_grid)
    eps0 = args.eps0
    if args.eps0_frac is not None:
        eps0 = args.eps0_frac * grid.labeled_measure()
    if eps0 is None:
        raise _UsageError("need --eps0 or --eps0-frac", 2)
    family = chart_family(grid, eps0, args.depth, budget_cap=cfg.budget_cap)
    write_json({
        "rounds": [{
            "epsilon": r.epsilon,
            "boxes": len(r.chart.rectangles),
            "residual_measure": r.chart.residual_measure,
        } for r in family.charts],
        "final_residual": family.final_residual,
        "config_hash": config_hash(cfg),
    }, args.report)
    print(f"rounds: {len(family.charts)} final_residual: {family.final_residual!r}")
    return 0


def _cmd_fuzzy_import(cfg, args):
    net = _load(args.model, load_model)
    relu = partial(from_relu_softmax_net, chamber_cap=cfg.chamber_cap, region_cap=cfg.region_cap)
    importer = pick(net, {"sigmoid importer": from_sigmoid_net, "relu importer": relu})
    save_fuzzy(importer(net), args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_train(cfg, args):
    data = _with_train_rows(args.data, _load(args.data, load_dataset))
    classes = int(np.max(data.y)) + 1
    dims = [data.X.shape[1]] + args.hidden + [classes]
    rng = np.random.default_rng(cfg.seed)
    net = random_network(rng, dims, SIGMOID, SOFTMAX, scale=args.scale)
    hp = Hyperparams(learning_rate=args.lr, epochs=args.epochs,
                     batch_size=args.batch_size, noise_std=args.noise,
                     seed=cfg.seed)
    result = train_sgd(net, data, hp)
    save_model(result.model, args.out)
    if args.trace:
        save_trace(result.trace, args.trace)
    print(f"final_loss: {result.losses[-1]!r}")
    return 0


def _cmd_specialize(cfg, args):
    net = _load(args.model, load_model)
    blocks = _parse_blocks(args.blocks)
    model = specialize(net, blocks)
    if args.data:
        data = _with_train_rows(
            args.data, relabel_for_blocks(_load(args.data, load_dataset), blocks))
        hp = Hyperparams(learning_rate=args.lr, epochs=args.epochs,
                         batch_size=args.batch_size, seed=cfg.seed)
        model = train_sgd(model, data, hp).model
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_data(cfg, args):
    data = synth_dataset(args.kind, args.n, seed=cfg.seed, spread=args.spread)
    save_dataset(data, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_ensemble_target_graph(cfg, args):
    classes, charts = _load_charts(args.charts)
    graph = build_target_graph(charts, classes)
    write_json({
        "root": graph.root,
        "nodes": [{
            "target": sorted(map(label_to_text, node.target)),
            "partitions": [[sorted(map(label_to_text, b)) for b in p]
                           for p in node.partitions],
            "charts": [[charts[i].id for i in idxs] for idxs in node.groups],
            "fine": node.table.is_fine,
        } for node in graph.nodes],
        "arrows": {str(i): kids for i, kids in sorted(graph.children.items())},
        "config_hash": config_hash(cfg),
    }, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_ensemble_calibrate(cfg, args):
    classes, charts = _load_charts(args.charts)
    graph = build_target_graph(charts, classes)
    data = _load_chart_data(args.data, charts)
    Xval, yval = data.subset("val")
    cal = calibrate(graph, Xval, yval, alphas=cfg.alpha_grid,
                    uncertain_weight=cfg.uncertain_weight)
    doc = calibration_to_dict(graph, cal)
    doc["config_hash"] = config_hash(cfg)
    write_json(doc, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_ensemble_vote(cfg, args):
    classes, charts = _load_charts(args.charts)
    graph = build_target_graph(charts, classes)
    data = _load_chart_data(args.data, charts)
    _finite_rows(data.X)  # the file calibrate reads: its val rows must be finite too
    cal = _load(args.calibration, lambda p: load_calibration(p, graph))
    phi_of = _load(args.calibration, lambda p: _calibrated_phi(graph, cal))
    X, _ = data.subset(args.split)
    doc = vote_report(graph, cal, X, phi_of, uncertain_weight=cfg.uncertain_weight)
    doc["config_hash"] = config_hash(cfg)
    write_json(doc, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_ensemble_report(cfg, args):
    classes, charts = _load_charts(args.charts)
    data = _load_chart_data(args.data, charts)
    X, y = data.subset(args.split)
    os.makedirs(args.outdir, exist_ok=True)
    summary = {"config_hash": config_hash(cfg), "charts": {}}
    for chart in charts:
        out = os.path.join(args.outdir, f"{chart.id}_predictions.csv")
        p = write_prediction_matrix(out, chart, X)
        phi, certain = _fuzzy_accuracy_of(chart, p, y, 0.0)
        summary["charts"][chart.id] = {
            "predictions": os.path.basename(out),
            "block_accuracy": phi,
            "instances": int(certain.size),
        }
    write_json(summary, os.path.join(args.outdir, "summary.json"))
    print(f"wrote {args.outdir}")
    return 0


# -- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    p = _Parser(prog="logifold", description=__doc__)
    p.add_argument("--config", help="JSON file mirroring RunConfig")
    p.add_argument("--seed", type=int)
    p.add_argument("--caps.chambers", dest="caps_chambers", type=int)
    p.add_argument("--caps.regions", dest="caps_regions", type=int)
    p.add_argument("--grid", dest="alpha_grid",
                   help="comma-separated certainty thresholds")
    p.add_argument("--tie-margin", dest="tie_margin", type=_nonnegative)
    sub = p.add_subparsers(dest="cmd", required=True, metavar="cmd")

    def cmd(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = cmd("compile", _cmd_compile, help="model file to decision graph")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)

    sp = cmd("eval", _cmd_eval, help="label points with a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--points", required=True)
    sp.add_argument("--out")

    sp = cmd("check-equiv", _cmd_check_equiv,
             help="sampled model-vs-graph agreement report")
    sp.add_argument("--model", required=True)
    sp.add_argument("--graph", required=True)
    sp.add_argument("--samples", type=_count, default=10000)
    sp.add_argument("--out")

    sp = cmd("to-semilinear", _cmd_to_semilinear, help="graph to label fibers")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--out", required=True)

    sp = cmd("from-semilinear", _cmd_from_semilinear, help="fibers to graph")
    sp.add_argument("--set", required=True)
    sp.add_argument("--out", required=True)

    sp = cmd("approx", _cmd_approx, help="rectangle cover of a labeled grid")
    sp.add_argument("--grid", dest="grid_file", required=True)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--epsilon-frac", dest="epsilon_frac", type=float)
    sp.add_argument("--out", required=True)
    sp.add_argument("--report")

    sp = cmd("charts", _cmd_charts, help="halving-threshold cover family")
    sp.add_argument("--grid", dest="grid_file", required=True)
    sp.add_argument("--eps0", type=float)
    sp.add_argument("--eps0-frac", dest="eps0_frac", type=float)
    sp.add_argument("--depth", type=_count, default=6)
    sp.add_argument("--report", required=True)

    sp = cmd("fuzzy-import", _cmd_fuzzy_import,
             help="smooth network to fuzzy graph")
    sp.add_argument("--model", required=True)
    sp.add_argument("--out", required=True)

    sp = cmd("train", _cmd_train, help="train a sigmoid/softmax net")
    sp.add_argument("--data", required=True)
    sp.add_argument("--hidden", type=_widths, default="8")
    sp.add_argument("--epochs", type=_count, default=30)
    sp.add_argument("--lr", type=_positive, default=0.5)
    sp.add_argument("--batch-size", dest="batch_size", type=_count, default=32)
    sp.add_argument("--noise", type=_nonnegative, default=0.0)
    sp.add_argument("--scale", type=_positive, default=1.0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--trace")

    sp = cmd("specialize", _cmd_specialize,
             help="append and optionally retrain a block head")
    sp.add_argument("--model", required=True)
    sp.add_argument("--blocks", required=True,
                    help="classes per block, e.g. '0,1|2'")
    sp.add_argument("--data")
    sp.add_argument("--epochs", type=_count, default=30)
    sp.add_argument("--lr", type=_positive, default=0.5)
    sp.add_argument("--batch-size", dest="batch_size", type=_count, default=32)
    sp.add_argument("--out", required=True)

    sp = cmd("gen-data", _cmd_gen_data, help="synthetic labeled dataset")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--n", type=_count, default=300)
    sp.add_argument("--spread", type=_nonnegative, default=0.6)
    sp.add_argument("--out", required=True)

    ens = cmd("ensemble", None, help="chart calibration and voting")
    esub = ens.add_subparsers(dest="subcmd", required=True, metavar="subcmd")

    sp = esub.add_parser("target-graph", help="node and arrow layout")
    sp.set_defaults(func=_cmd_ensemble_target_graph)
    sp.add_argument("--charts", required=True)
    sp.add_argument("--out", required=True)

    sp = esub.add_parser("calibrate", help="per-class best path and threshold")
    sp.set_defaults(func=_cmd_ensemble_calibrate)
    sp.add_argument("--charts", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)

    sp = esub.add_parser("vote", help="answer vectors for a data split")
    sp.set_defaults(func=_cmd_ensemble_vote)
    sp.add_argument("--charts", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--calibration", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--out", required=True)

    sp = esub.add_parser("report", help="per-chart prediction matrices")
    sp.set_defaults(func=_cmd_ensemble_report)
    sp.add_argument("--charts", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--split", default="test")
    sp.add_argument("--outdir", required=True)

    return p


def _resolve_config(ns) -> RunConfig:
    cfg = RunConfig()
    if ns.config:
        cfg = _load(ns.config, load_config)
    grid = None
    if ns.alpha_grid is not None:
        try:
            grid = tuple(float(v) for v in ns.alpha_grid.split(","))
        except ValueError:
            raise ConfigError(f"cannot parse grid {ns.alpha_grid!r}")
    return apply_overrides(cfg, seed=ns.seed, chamber_cap=ns.caps_chambers,
                           region_cap=ns.caps_regions, grid=grid,
                           tie_margin=ns.tie_margin)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _resolve_config(ns)
        return ns.func(cfg, ns) or 0
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except MalformedFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 65
    except _CAP_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except LogifoldError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
