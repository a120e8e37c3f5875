"""Semilinear sets: finite unions of basic pieces cut out by affine rows.

A basic piece is an intersection of equalities ``c . x + b = 0``, strict
inequalities ``c . x + b > 0`` and weak inequalities ``c . x + b >= 0``.
Emptiness is decided exactly over the rationals, so every verdict carries
either a witness point or a contradiction certificate.  A piece keeps its
rows as one `graph.AffineMap`, so its exact rows are read as a guard's are
(`AffineMap.constraints`) and a float point is signed by the graph's
predicate, each row summed as `graph._row_sum` sums it.  Decision graphs
translate back and forth: each region a graph routes becomes one piece, its
``+`` steps weak rows and its ``-`` steps negated strict rows, and a
piecewise-constant fiber family compiles into a binary space partition cut
along the pieces' own hyperplanes, by guards of one or two rows.  A region
of the partition keeps, for each hyperplane cut on its path, the side or
sides it lies on, and those alone decide which pieces hold it: the graph is
routed without evaluating any row at a point and without enumerating the
arrangement of all the hyperplanes.

Both directions split guards by `graph.AffineMap.chambers`, which keeps each
guard's chambers on it.  So `from_llgraph` of a graph just built in memory,
by a compiler or by `to_llgraph`, reads the chambers recorded when the graph
was built, with no elimination, while a graph loaded from a file walks and
eliminates as before.  Each piece `from_llgraph` makes carries the exact
witness its walk found, so deciding its emptiness is one integer check of
that point; a piece without a witness, such as one read from a file, is
decided by elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

from . import feasibility
from .errors import AmbiguousFiberError, DimensionMismatchError, RegionExplosionError
from .feasibility import (
    Constraint,
    Verdict,
    find_witness,  # unused here; perfbench wraps and checks this binding
)
from .graph import (AffineMap, GraphBuilder, LogicalGraph, _require_finite, _row_sum,
                    _walk_regions, json_object, label_from_text, label_to_text,
                    positive_int, read_json, write_json)
from .networks import REGION_CAP

UNCOVERED = "⊥"

Row = Tuple[float, ...]  # (c1, ..., cn, b)


@dataclass(frozen=True)
class BasicSemilinearSet:
    """{x : c.x + b = 0 for eq rows, > 0 for gt rows, >= 0 for ge rows}.

    `witness`, when given, is an exact point believed to lie in the set; it
    is a hint for `emptiness`, not part of the set's value.
    """

    dim: int
    eq: Tuple[Row, ...]
    gt: Tuple[Row, ...]
    ge: Tuple[Row, ...] = ()
    witness: Optional[tuple] = field(default=None, compare=False)

    @cached_property
    def _rows(self) -> AffineMap:
        """The eq, gt and ge rows, in field order, as one guard map."""
        rows = np.array(self.eq + self.gt + self.ge, dtype=float).reshape(-1, self.dim + 1)
        return AffineMap(rows[:, :-1], rows[:, -1])

    @cached_property
    def _ints(self) -> tuple:
        """The integer constraints: an eq row gives the pair (row >= 0,
        -row >= 0), then each gt row a strict and each ge row a weak
        constraint, in field order."""
        rows, ne, ng = self._rows.constraints, len(self.eq), len(self.gt)
        return (tuple(r for c in rows[:ne]
                      for r in (c, Constraint(tuple(-v for v in c.coeffs), -c.offset, False)))
                + tuple(Constraint(c.coeffs, c.offset, True) for c in rows[ne:ne + ng])
                + rows[ne + ng:])

    def constraints(self) -> list:
        return list(self._ints)

    def contains(self, x) -> bool:
        """Exact when every coordinate is an int or a Fraction; at a float
        point each row's sum is `graph._row_sum`, the sum `_guard_signs`
        takes, compared with -b, so membership agrees with the graph's
        routing, and a NaN or infinite coordinate raises NonFinitePointError."""
        x = list(x)
        if len(x) != self.dim:
            raise DimensionMismatchError(f"point has {len(x)} coordinates, set is {self.dim}-d")
        if all(isinstance(v, (int, Fraction)) for v in x):
            return feasibility.satisfies_all(self._ints, x)
        x = [float(v) for v in x]
        if not all(map(math.isfinite, x)):
            _require_finite(np.asarray(x))
        ne, ng = len(self.eq), len(self.gt)
        for i, (row, b) in enumerate(self._rows._sign_rows):
            s = _row_sum(row, x)
            if not (s == b if i < ne else s > b if i < ne + ng else s >= b):
                return False
        return True

    def emptiness(self) -> Verdict:
        """Exact verdict.  A witness that satisfies every integer row, checked
        in integers, decides it feasible; without one, or when the witness
        breaks a row, elimination decides."""
        w = self.witness
        if w is not None and len(w) == self.dim and feasibility.satisfies_all(self._ints, w):
            return Verdict(True, tuple(w), None)
        return feasibility.check_system(self._ints, self.dim)

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
        """The label of the fiber holding x, or None; a NaN or infinite
        coordinate raises NonFinitePointError, with or without pieces."""
        x = list(x)
        if not all(isinstance(v, (int, Fraction)) for v in x):
            _require_finite(np.asarray(x, dtype=float))
        hits = [l for l, s in self.fibers.items() if s.contains(x)]
        if len(hits) > 1:
            raise AmbiguousFiberError(f"point lies in fibers {hits}")
        return hits[0] if hits else None


def from_llgraph(g: LogicalGraph, region_cap: int = REGION_CAP) -> SemilinearFunction:
    """One basic piece per region of g that `graph.walk_regions` yields.

    A ``+`` step keeps its row as a weak row and a ``-`` step negates it into
    a strict row, so the pieces partition the input space exactly as the
    graph routes it, up to rounding: a piece holds the guard's float rows,
    so a guard whose floats do not hold its exact rows (`AffineMap.exact`),
    such as a relu compile's deeper guards, gives pieces of its rounded
    rows.  Each piece carries its region's exact walk witness.
    A realizable chamber without a route raises
    IncompleteRoutingError; more than `region_cap` regions raise
    RegionExplosionError.
    """
    n = g.input_dim
    fibers: Dict[object, list] = {}
    for count, (target, steps, witness) in enumerate(_walk_regions(g), 1):
        if count > region_cap:
            raise RegionExplosionError(f"more than {region_cap} graph regions")
        ge, gt = [], []
        for v, signs in steps:
            guard = g.guards[v]
            for s, coeffs, off in zip(signs, guard.matrix.tolist(), guard.offset.tolist()):
                if s == "+":
                    ge.append((*coeffs, off))
                else:
                    gt.append((*(-c for c in coeffs), -off))
        fibers.setdefault(g.target_labels[target], []).append(
            BasicSemilinearSet(n, (), tuple(gt), tuple(ge), witness))
    return SemilinearFunction(n, {l: SemilinearSet(n, tuple(ps))
                                  for l, ps in fibers.items()})


# The states of a hyperplane against its first row, as bits: on it, above it
# (the row is positive) and below it.
_ON, _ABOVE, _BELOW = 1, 2, 4
_ANYWHERE = _ON | _ABOVE | _BELOW
# (kind, orientation against the hyperplane's first row) -> the states in
# which a row of that kind holds
_HOLDS_IN = {("eq", 1): _ON, ("eq", -1): _ON,
             ("gt", 1): _ABOVE, ("gt", -1): _BELOW,
             ("ge", 1): _ON | _ABOVE, ("ge", -1): _ON | _BELOW}
# The cuts on a hyperplane, one-row guards first: (the guard's rows, as
# multiples of the first row, {signs: the states its chamber leaves}).
_CUTS = (((1,), {"+": _ON | _ABOVE, "-": _BELOW}),
         ((-1,), {"+": _ON | _BELOW, "-": _ABOVE}),
         ((1, -1), {"++": _ON, "+-": _ABOVE, "-+": _BELOW}))


def _row_key(c: Constraint):
    """(key, sign) of a non-constant integer row: the key is the row times the
    sign that makes its first nonzero coefficient positive, so every nonzero
    multiple of the row has the same key."""
    sign = -1 if next(v for v in c.coeffs if v) < 0 else 1
    return tuple(sign * v for v in c.coeffs + (c.offset,)), sign


def _kinded_rows(piece: BasicSemilinearSet):
    """(kind, exact row, weak integer row) for each row of the piece; the
    exact rows are integers over the piece's denominator, `_rows.exact[1]`."""
    kinds = ("eq",) * len(piece.eq) + ("gt",) * len(piece.gt) + ("ge",) * len(piece.ge)
    return zip(kinds, piece._rows.exact[0], piece._rows.constraints)


def to_llgraph(f: SemilinearFunction, region_cap: int = REGION_CAP) -> LogicalGraph:
    """Graph whose walk reproduces f.label_of: a binary space partition cut
    along the pieces' own hyperplanes.

    Each row of a nonempty piece is recorded as its hyperplane (rows that
    are multiples of each other share one) and the states in which it
    holds: on the hyperplane, above it or below it, against the
    hyperplane's first row.  A constant row of a nonempty piece holds
    everywhere.  A region of the partition keeps, for each hyperplane cut
    on its path, the states it leaves, so it decides each piece with no
    point evaluated: the piece holds on the whole region when every one of
    its hyperplanes is left within its states, misses it when one is left
    outside them, and is open otherwise.  Pieces of two labels that hold
    raise AmbiguousFiberError, naming an exact point of the region.  Pieces
    of one label that hold, with no open piece of another label, make a
    leaf of that label, and a region no piece meets one of UNCOVERED.  Any
    other region is cut on the first undecided hyperplane of its first open
    piece (of another label than the one that holds, if one does): by the
    one-row guard ``row >= 0`` or ``-row >= 0`` when that decides every
    piece left on the hyperplane, else by the pair (row, -row), so that
    ``= 0`` keeps its own chamber.  A guard's rows are its hyperplane's
    first row, exact, so its floats are that piece's floats.  The partition
    is an `expand` over the state (left, pieces) for `GraphBuilder.regions`,
    so a walk of the graph reads the recorded chambers.  More than
    `region_cap` leaves raise RegionExplosionError.
    """
    n = f.dim
    index: Dict[tuple, int] = {}  # hyperplane key -> position in reps
    reps = []  # (first exact row seen, its denominator, its sign), one per hyperplane
    live = []  # (label, ((hyperplane, states its rows allow), ...)), one per nonempty piece
    for label, fiber in f.fibers.items():
        for piece in fiber.pieces:
            if piece.is_empty():
                continue
            allowed: Dict[int, int] = {}
            for kind, row, c in _kinded_rows(piece):
                if not any(c.coeffs):
                    continue
                key, sign = _row_key(c)
                h = index.setdefault(key, len(reps))
                if h == len(reps):
                    reps.append((row, piece._rows.exact[1], sign))
                allowed[h] = allowed.get(h, _ANYWHERE) & _HOLDS_IN[kind, sign * reps[h][2]]
            live.append((label, tuple(allowed.items())))

    b = GraphBuilder(n)
    leaves = 0

    def expand(at, state, system, witness):  # a region's {hyperplane: states left}, pieces
        nonlocal leaves
        left, pieces = state
        held, opened, meeting = [], [], []  # labels that hold; (label, hyperplane)
        for label, tests in pieces:
            undecided = None
            for h, ok in tests:
                s = left.get(h, _ANYWHERE)
                if not s & ok:
                    break
                if undecided is None and s & ~ok:
                    undecided = h
            else:
                meeting.append((label, tests))
                if undecided is not None:
                    opened.append((label, undecided))
                elif label not in held:
                    held.append(label)
        if len(held) > 1:
            raise AmbiguousFiberError(
                f"point ({', '.join(map(str, witness))}) lies in fibers {sorted(map(str, held))}")
        cut = next((h for label, h in opened if label not in held), None)
        if cut is None:
            leaves += 1
            if leaves > region_cap:
                raise RegionExplosionError(f"more than {region_cap} regions")
            return b.leaf(at, held[0] if held else UNCOVERED)
        oks = {ok for _, tests in meeting for h, ok in tests if h == cut}
        mults, states = next((m, st) for m, st in _CUTS
                             if all(s & ok in (0, s) for s in st.values() for ok in oks))
        row, den, _ = reps[cut]
        guard = AffineMap.from_exact(tuple(tuple(k * v for v in row) for k in mults), den, n)
        return guard, lambda s: ({**left, cut: states[s]}, meeting)

    b.regions(expand, ({}, live), witness=feasibility.find_witness([], n), name="q")
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


def _piece_from_dict(dim: int, p) -> BasicSemilinearSet:
    if not isinstance(p, dict):
        raise ValueError(f"a piece must be an object of row lists, got {p!r}")
    unknown = sorted(set(p) - set(_ROW_KEYS))
    if unknown:
        raise ValueError(f"unknown piece key {unknown[0]!r}; expected {', '.join(_ROW_KEYS)}")
    kinds = []
    for key in _ROW_KEYS:
        rows = tuple(tuple(map(float, r)) for r in p.get(key, []))
        for r in rows:
            if len(r) != dim + 1:
                raise ValueError(f"{key} row {list(r)} has {len(r)} entries, "
                                 f"expected dim + 1 = {dim + 1}")
        kinds.append(rows)
    return BasicSemilinearSet(dim, *kinds)


def semilinear_from_dict(d: dict) -> SemilinearFunction:
    """The function a `semilinear_to_dict` document describes.

    Raises ValueError unless `dim` is a positive integer, `fibers` an object,
    every piece an object whose only keys are eq, gt and ge, and every row
    dim + 1 numbers long.
    """
    dim = positive_int(d["dim"], "dim")
    fibers = {}
    for text, pieces in json_object(d["fibers"], "fibers").items():
        fibers[label_from_text(text)] = SemilinearSet(
            dim, tuple(_piece_from_dict(dim, p) for p in pieces))
    return SemilinearFunction(dim, fibers)


def save_semilinear(f: SemilinearFunction, path):
    write_json(semilinear_to_dict(f), path)


def load_semilinear(path) -> SemilinearFunction:
    return semilinear_from_dict(read_json(path))
