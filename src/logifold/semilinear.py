"""Semilinear sets: finite unions of basic pieces cut out by affine rows.

A basic piece is an intersection of equalities ``c . x + b = 0``, strict
inequalities ``c . x + b > 0`` and weak inequalities ``c . x + b >= 0``.
Emptiness is decided exactly over the rationals, so every verdict carries
either a witness point or a contradiction certificate.  Decision graphs
translate back and forth: each region a graph routes becomes one piece, its
``+`` steps weak rows and its ``-`` steps negated strict rows, and a
piecewise-constant fiber family compiles into a single-guard graph routed by
the sign pattern of the deduplicated rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import Dict, Tuple

import numpy as np

from . import feasibility
from .errors import AmbiguousFiberError, DimensionMismatchError, RegionExplosionError
from .feasibility import (
    Verdict,
    find_witness,  # unused here; perfbench wraps and checks this binding
    make_constraint,
)
from .graph import (AffineMap, GraphBuilder, LogicalGraph, label_from_text,
                    label_to_text, walk_regions)
from .networks import CHAMBER_CAP, REGION_CAP

UNCOVERED = "⊥"

Row = Tuple[float, ...]  # (c1, ..., cn, b)


@dataclass(frozen=True)
class BasicSemilinearSet:
    """{x : c.x + b = 0 for eq rows, > 0 for gt rows, >= 0 for ge rows}."""

    dim: int
    eq: Tuple[Row, ...]
    gt: Tuple[Row, ...]
    ge: Tuple[Row, ...] = ()

    def constraints(self) -> list:
        out = []
        for row in self.eq:
            c, b = row[:-1], row[-1]
            out.append(make_constraint(c, b, strict=False))
            out.append(make_constraint([-v for v in c], -b, strict=False))
        for row in self.gt:
            out.append(make_constraint(row[:-1], row[-1], strict=True))
        for row in self.ge:
            out.append(make_constraint(row[:-1], row[-1], strict=False))
        return out

    def contains(self, x) -> bool:
        """Exact for Fraction points; float points evaluate each row the way a
        graph guard does (`graph._guard_signs`): the sum ((c0*x0 + c1*x1) + ...)
        is compared with -b, so membership agrees with the graph's routing."""
        x = list(x)
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point has {len(x)} coordinates, set is {self.dim}-d")
        if all(isinstance(v, Fraction) for v in x):
            return all(feasibility.satisfies(c, x) for c in self.constraints())
        xf = np.asarray(x, dtype=float).tolist()

        def cx(row):  # c . x as a left fold, the guard's order
            return reduce(add, map(mul, row[:-1], xf), 0.0)

        return (all(cx(r) == -r[-1] for r in self.eq) and all(cx(r) > -r[-1] for r in self.gt)
                and all(cx(r) >= -r[-1] for r in self.ge))

    def emptiness(self) -> Verdict:
        return feasibility.check_system(self.constraints(), self.dim)

    def is_empty(self) -> bool:
        return not self.emptiness().feasible


@dataclass(frozen=True)
class SemilinearSet:
    dim: int
    pieces: Tuple[BasicSemilinearSet, ...]

    def contains(self, x) -> bool:
        return any(p.contains(x) for p in self.pieces)

    def is_empty(self) -> bool:
        return all(p.is_empty() for p in self.pieces)


@dataclass(frozen=True)
class SemilinearFunction:
    """Finitely many labeled fibers, each a semilinear set."""

    dim: int
    fibers: Dict[object, SemilinearSet]

    def label_of(self, x):
        hits = [l for l, s in self.fibers.items() if s.contains(x)]
        if len(hits) > 1:
            raise AmbiguousFiberError(f"point lies in fibers {hits}")
        return hits[0] if hits else None


def _as_row(coeffs, offset) -> Row:
    return tuple(float(v) for v in coeffs) + (float(offset),)


def from_llgraph(g: LogicalGraph, region_cap: int = REGION_CAP) -> SemilinearFunction:
    """One basic piece per region of g that `graph.walk_regions` yields.

    A ``+`` step keeps its row as a weak row and a ``-`` step negates it into
    a strict row, so the pieces partition the input space exactly as the
    graph routes it.  A realizable chamber without a route raises
    IncompleteRoutingError; more than `region_cap` regions raise
    RegionExplosionError.
    """
    n = g.input_dim
    fibers: Dict[object, list] = {}
    for count, (target, steps) in enumerate(walk_regions(g), 1):
        if count > region_cap:
            raise RegionExplosionError(f"more than {region_cap} graph regions")
        ge, gt = [], []
        for v, signs in steps:
            for i, s in enumerate(signs):
                coeffs, off = g.guards[v].row(i)
                if s == "+":
                    ge.append(_as_row(coeffs, off))
                else:
                    gt.append(_as_row([-c for c in coeffs], -off))
        fibers.setdefault(g.target_labels[target], []).append(
            BasicSemilinearSet(n, (), tuple(gt), tuple(ge)))
    return SemilinearFunction(n, {l: SemilinearSet(n, tuple(ps))
                                  for l, ps in fibers.items()})


def _row_key(row: Row):
    """Scale-and-sign normalized integer form; positive multiples collide."""
    c = make_constraint(row[:-1], row[-1], strict=False)
    sign = -1 if next((v for v in c.coeffs if v), 0) < 0 else 1
    return tuple(sign * v for v in c.coeffs + (c.offset,))


def to_llgraph(f: SemilinearFunction, chamber_cap: int = CHAMBER_CAP) -> LogicalGraph:
    """Single-guard graph whose walk reproduces f.label_of.

    Every distinct hyperplane appears as a (row, -row) pair, so each chamber
    fixes the full =/>/< status of every row and fibers are constant on it.
    Chambers outside every fiber route to an UNCOVERED target.  When every
    chamber routes alike, the graph has no guard.
    """
    n = f.dim
    reps: Dict[tuple, Row] = {}
    live_fibers: Dict[object, SemilinearSet] = {}
    for label, fiber in f.fibers.items():
        kept = []
        for piece in fiber.pieces:
            if piece.is_empty():
                continue
            kept.append(piece)
            for row in piece.eq + piece.gt + piece.ge:
                if any(row[:-1]):
                    reps.setdefault(_row_key(row), row)
        if kept:
            live_fibers[label] = SemilinearSet(n, tuple(kept))

    rows = []
    for rep in reps.values():
        rows.append((list(rep[:-1]), rep[-1]))
        rows.append(([-c for c in rep[:-1]], -rep[-1]))
    chambers = feasibility.enumerate_chambers(rows, n, cap=chamber_cap)
    b = GraphBuilder(n)
    routes = {}
    for signs, (witness, _) in sorted(chambers.items()):
        hits = [l for l, fiber in live_fibers.items()
                if fiber.contains(list(witness))]
        if len(hits) > 1:
            raise AmbiguousFiberError(
                f"chamber {signs} lies in fibers {sorted(map(str, hits))}")
        routes[signs] = b.target_for(hits[0] if hits else UNCOVERED)
    b.branch("s", AffineMap.from_rows(rows, n), routes)
    return b.graph()


# -- serialization ----------------------------------------------------------

# in BasicSemilinearSet field order; a piece without a key has no such rows
_ROW_KEYS = ("eq", "gt", "ge")


def semilinear_to_dict(f: SemilinearFunction) -> dict:
    return {
        "dim": f.dim,
        "fibers": {
            label_to_text(label): [{key: [list(r) for r in getattr(p, key)]
                                    for key in _ROW_KEYS}
                                   for p in fiber.pieces]
            for label, fiber in f.fibers.items()
        },
    }


def semilinear_from_dict(d: dict) -> SemilinearFunction:
    dim = int(d["dim"])
    fibers = {}
    for text, pieces in d["fibers"].items():
        fibers[label_from_text(text)] = SemilinearSet(dim, tuple(
            BasicSemilinearSet(dim, *(tuple(tuple(map(float, r)) for r in p.get(key, []))
                                      for key in _ROW_KEYS))
            for p in pieces))
    return SemilinearFunction(dim, fibers)


def save_semilinear(f: SemilinearFunction, path):
    with open(path, "w") as fh:
        json.dump(semilinear_to_dict(f), fh, indent=2, sort_keys=True)


def load_semilinear(path) -> SemilinearFunction:
    with open(path) as fh:
        return semilinear_from_dict(json.load(fh))
