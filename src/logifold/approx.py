"""Rectangle covers of grid-labeled functions, compiled to decision graphs.

A target function is given as labels on a regular grid.  The builder greedily
extracts the largest single-label rectangle still uncovered, stopping once the
uncovered labeled measure drops below a prescribed bound, and emits a k-d tree
over the taken boxes (Bentley, CACM 1975): a binary space partition (Paterson
and Yao, DCG 1990) whose every guard is one axis-aligned row at a box face.
Inside the selected rectangles the graph reproduces the grid exactly, faces
included; everything else routes to a fallback label, which no grid label may
equal.  A chart family repeats the construction on the leftover cells with the
bound halved each round.  `evaluate_batch` walks the whole k-d tree as one
step: each point's rank among the tree's faces on each axis, then one lookup
in a table over those ranks (`graph._AxisTree`).

The 1-D and 2-D search is the skyline scan: row r's best rectangle is the
largest one with bottom row r, found by a stack scan of the column heights
at r.  It depends on nothing but r and those heights, so the cover keeps,
per label, a memo of every row's heights and best rectangle.  Taking a box
goes through `clear_block`, which lowers the heights in the box's columns
only, from its top row down to where each column's run of cells ends, and
marks those rows; the next search scans only the marked rows.  Taking the
first row that reaches the maximum keeps the tie-break of one top-to-bottom
scan, so the covers are those of a full search every round.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AssumptionViolationError, BudgetCapError, DimensionMismatchError, NonFinitePointError)
from .graph import (  # noqa: F401  evaluate stays importable from this module
    AffineMap, GraphBuilder, LogicalGraph, _require_finite, evaluate, evaluate_batch,
    label_from_text, label_to_text, read_json, write_json)

FALLBACK = "*"

BUDGET_START = 8
BUDGET_CAP = 4096


@dataclass
class LabeledGrid:
    """Axis-aligned box split into equal cells, each cell labeled or outside.

    Cells are half open: cell (i1..in) covers [lo + i*w, lo + (i+1)*w) per
    axis.  A label of None marks cells outside the domain.
    """

    lo: np.ndarray
    hi: np.ndarray
    labels: np.ndarray  # object ndarray, shape = resolution

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise DimensionMismatchError("lo and hi must be matching vectors")
        if self.labels.ndim != len(self.lo):
            raise DimensionMismatchError(
                f"label array is {self.labels.ndim}d, box is {len(self.lo)}d")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise NonFinitePointError("box bounds lo and hi must be finite")
        if np.any(self.hi <= self.lo):
            raise DimensionMismatchError("box must have positive extent")
        if min(self.labels.shape, default=1) < 1:
            raise DimensionMismatchError(
                f"resolution {self.labels.shape} needs at least one cell per axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def resolution(self) -> Tuple[int, ...]:
        return self.labels.shape

    @property
    def cell_width(self) -> np.ndarray:
        return (self.hi - self.lo) / np.array(self.resolution)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_width))

    def labeled_mask(self) -> np.ndarray:
        return self.labels != None  # noqa: E711  elementwise on object array

    def labeled_measure(self) -> float:
        return int(self.labeled_mask().sum()) * self.cell_volume

    def cell_of(self, x) -> Optional[Tuple[int, ...]]:
        """The cell holding x, read from the face floats lo + j*w (j = 0 .. n)
        that `Rectangle` and a cover's guards compare against: on each axis,
        the number of faces at or below x, less one.  None if x lies below
        the first face or at or above the last, lo + n*w, on some axis."""
        x = _finite_point(x, len(self.lo)).tolist()
        idx = []
        for l, w, n, v in zip(self.lo.tolist(), self.cell_width.tolist(), self.resolution, x):
            i = int((l + np.arange(n + 1) * w).searchsorted(v, "right")) - 1
            if not 0 <= i < n:
                return None
            idx.append(i)
        return tuple(idx)

    def label_at(self, x):
        idx = self.cell_of(x)
        return None if idx is None else self.labels[idx]

    def center(self, idx) -> np.ndarray:
        return self.lo + (np.array(idx) + 0.5) * self.cell_width

    def distinct_labels(self) -> list:
        seen = {}
        for v in self.labels.flat:
            if v is not None and v not in seen:
                seen[v] = True
        return sorted(seen, key=str)


def _finite_point(x, dim: int) -> np.ndarray:
    """x as a point of a dim-d grid.  Another shape would be broadcast or cut
    short, and a NaN fails every cell and box test, so both raise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"point has shape {x.shape}, the grid is {dim}-d")
    _require_finite(x)
    return x


def grid_from_function(fn, lo, hi, resolution) -> LabeledGrid:
    """Sample fn at cell centers; fn returning None leaves the cell outside."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    res = tuple(int(r) for r in np.atleast_1d(resolution))
    if len(res) == 1 and len(lo) > 1:
        res = res * len(lo)
    labels = np.empty(res, dtype=object)
    width = (hi - lo) / np.array(res)
    for idx in np.ndindex(*res):
        labels[idx] = fn(lo + (np.array(idx) + 0.5) * width)
    return LabeledGrid(lo, hi, labels)


@dataclass(frozen=True)
class Rectangle:
    """Cell-index block [cell_lo, cell_hi) and its float box [lo, hi)."""

    label: object
    cell_lo: Tuple[int, ...]
    cell_hi: Tuple[int, ...]
    lo: Tuple[float, ...]
    hi: Tuple[float, ...]

    @property
    def cells(self) -> int:
        return int(np.prod(np.array(self.cell_hi) - np.array(self.cell_lo)))

    def contains(self, x) -> bool:
        return all(l <= v < h for l, v, h in zip(self.lo, x, self.hi))


def _row_best(r: int, heights: List[int]):
    """Largest rectangle whose bottom row is r, by a stack scan of that
    row's column heights; the first of equal areas wins."""
    best = (0, ((0, 0), (0, 0)))
    stack: List[Tuple[int, int]] = []
    for c, h in enumerate(heights + [0]):
        start = c
        while stack and stack[-1][1] >= h:
            s, sh = stack.pop()
            area = sh * (c - s)
            if area > best[0]:
                best = (area, ((r - sh + 1, s), (r + 1, c)))
            start = s
        if h > 0:
            stack.append((start, h))
    return best


def _largest_rect_2d(mask: np.ndarray, memo: Optional[dict] = None):
    """Exact maximal-area rectangle via the skyline of column heights.

    An empty `memo` is filled with the column heights of every row, each
    row's best rectangle and the set of rows still to scan; after that it
    answers every row but those that `clear_block` has marked.  The first
    row reaching the maximum area wins, as in one top-to-bottom scan.
    """
    memo = {} if memo is None else memo
    if not memo:
        rows = np.arange(mask.shape[0])[:, None]
        # column heights at row r: r minus the last False row at or above r (or -1)
        wall = np.maximum.accumulate(np.where(mask, -1, rows), axis=0)
        # areas repeats each best's area, so that max and index run in C
        memo.update(heights=(rows - wall).tolist(), areas=[0] * mask.shape[0],
                    best=[None] * mask.shape[0], stale=set(range(mask.shape[0])))
    heights, areas, best = memo["heights"], memo["areas"], memo["best"]
    for r in memo["stale"]:
        best[r] = _row_best(r, heights[r])
        areas[r] = best[r][0]
    memo["stale"].clear()
    top = max(areas, default=0)
    return best[areas.index(top)] if top else (0, ((0, 0), (0, 0)))


def clear_block(mask: np.ndarray, memo: dict, cell_lo, cell_hi):
    """Set the block [cell_lo, cell_hi) of `mask` to False, and bring the
    memo of its 1-D or 2-D searches up to date with the cleared mask.

    The block zeroes its own heights; below it, each of its columns counts
    up again from 1 until that column's run of True cells ends.  The rows
    from the block's top row down to the last row lowered are marked for
    the next search to scan again.
    """
    mask[tuple(slice(a, b) for a, b in zip(cell_lo, cell_hi))] = False
    if not memo:  # no search yet, or three or more axes
        return
    if mask.ndim == 1:  # searched as one row
        cell_lo, cell_hi = (0, *cell_lo), (1, *cell_hi)
    (r0, c0), (r1, c1) = cell_lo, cell_hi
    heights = memo["heights"]
    for r in range(r0, r1):
        heights[r][c0:c1] = [0] * (c1 - c0)
    last = r1 - 1  # the deepest row whose heights changed
    for c in range(c0, c1):
        r = r1
        while r < len(heights) and heights[r][c]:
            heights[r][c] = r - r1 + 1
            r += 1
        last = max(last, r - 1)
    memo["stale"].update(range(r0, last + 1))


def _grown_block(mask: np.ndarray):
    """Greedy seed-and-grow block for three or more axes; not maximal."""
    idx = np.argwhere(mask)
    if len(idx) == 0:
        return 0, (tuple(0 for _ in mask.shape), tuple(0 for _ in mask.shape))
    lo = list(idx[0])
    hi = [v + 1 for v in lo]
    for axis in range(mask.ndim):
        while hi[axis] < mask.shape[axis]:
            slab = tuple(slice(l, h) for l, h in zip(lo, hi))
            slab = slab[:axis] + (hi[axis],) + slab[axis + 1:]
            if not bool(mask[slab].all()):
                break
            hi[axis] += 1
        while lo[axis] > 0:
            slab = tuple(slice(l, h) for l, h in zip(lo, hi))
            slab = slab[:axis] + (lo[axis] - 1,) + slab[axis + 1:]
            if not bool(mask[slab].all()):
                break
            lo[axis] -= 1
    size = int(np.prod(np.array(hi) - np.array(lo)))
    return size, (tuple(lo), tuple(hi))


def largest_rectangle(mask: np.ndarray, memo: Optional[dict] = None):
    """(cell count, (cell_lo, cell_hi)) of the chosen uncovered block.

    `memo`, a dict that starts empty, carries row results between searches
    of one 1-D or 2-D mask that shrinks only through `clear_block` (see
    `_largest_rect_2d`); it stays empty for three or more axes.
    """
    if mask.ndim == 1:
        size, ((_, lo), (_, hi)) = _largest_rect_2d(mask[None, :], memo)
        return size, ((lo,), (hi,))
    if mask.ndim == 2:
        return _largest_rect_2d(mask, memo)
    return _grown_block(mask)


@dataclass
class Approximation:
    graph: LogicalGraph
    rectangles: List[Rectangle]
    residual_measure: float
    covered_measure: float
    rounds: List[Tuple[int, float]] = field(default_factory=list)  # (budget, residual)

    def region_label(self, x):
        x = _finite_point(x, self.graph.input_dim)
        for rect in self.rectangles:
            if rect.contains(x):
                return rect.label
        return None


def _cover_graph(grid: LabeledGrid, rectangles: Sequence[Rectangle]) -> LogicalGraph:
    """k-d tree over the disjoint boxes, in cell-index space.

    A point's position on axis a is the number of faces lo[a] + j*width[a]
    (j = 0 .. n) at or below x[a], less one, so it lies in a box's float box
    iff its position lies in the box's cell range.  A region is a range of
    positions per axis, with -1 and n for the points below and above the
    grid, and starts as all of space.  A region that no box meets routes to
    FALLBACK, and one that boxes of one label fill routes to that label
    (`_leaf`).  Any other is cut at the box face strictly inside it that
    the fewest of its boxes straddle, counted per position (`_cut`), by the
    one-row guard x[a] - face >= 0, whose "+" side is the upper side.  Each
    face is the float that Rectangle.lo or .hi holds, so every guard makes
    the comparison that the box test makes, and `evaluate_batch` routes the
    whole tree by the ranks of each point's coordinates among its faces.
    """
    dim = grid.dim
    lo, width = grid.lo.tolist(), grid.cell_width.tolist()
    b = GraphBuilder(dim)
    fallback = b.target_for(FALLBACK)
    # a box is (*cell_lo, *cell_hi, target)
    boxes = [(*r.cell_lo, *r.cell_hi, b.target_for(r.label)) for r in rectangles]
    axes = np.eye(dim)
    guards: Dict[Tuple[int, int], AffineMap] = {}
    cuts = 0
    tasks = [(None, [-1] * dim, [n + 1 for n in grid.resolution], boxes)]
    while tasks:  # preorder: a region, then its lower part, then its upper part
        at, rlo, rhi, members = tasks.pop()
        dst = _leaf(rlo, rhi, members, fallback)
        if dst is not None:
            b.leaf(at, b.target_labels[dst])
            continue
        a, j = _cut(rlo, rhi, members)
        guard = guards.get((a, j))
        if guard is None:
            guard = guards[a, j] = AffineMap(axes[a:a + 1], [-(lo[a] + j * width[a])])
        vid = b.cut(at, guard, f"q{cuts}")
        cuts += 1
        tasks.append(((vid, "+"), rlo[:a] + [j] + rlo[a + 1:], rhi,
                      [m for m in members if m[dim + a] > j]))
        tasks.append(((vid, "-"), rlo, rhi[:a] + [j] + rhi[a + 1:],
                      [m for m in members if m[a] < j]))
    return b.graph()


def _leaf(rlo: List[int], rhi: List[int], members: list, fallback: str) -> Optional[str]:
    """The target of a region that no box meets, or that boxes of one label
    fill, else None.  The label test stops at the first box of another
    label.  The boxes are disjoint, so they fill the region iff their parts
    in it add up to its volume."""
    if not members:
        return fallback
    target = members[0][-1]
    for m in members:
        if m[-1] != target:
            return None
    dim = len(rlo)
    unfilled = math.prod([h - l for l, h in zip(rlo, rhi)])
    for m in members:
        unfilled -= math.prod([min(h, rh) - max(l, rl)
                               for l, h, rl, rh in zip(m[:dim], m[dim:-1], rlo, rhi)])
    return None if unfilled else target


def _cut(rlo: List[int], rhi: List[int], members: list) -> Tuple[int, int]:
    """(axis, face) of the box face strictly inside the region that the
    fewest of its boxes straddle; of those, the one nearest the region's
    middle, then the lowest face and axis.  One exists unless a single box
    fills the region.

    The faces are counted, not sorted.  A box [l, h) straddles the face j
    iff l < j < h, so on each axis one pass over the boxes adds 1 at the
    position just above each box's start and takes 1 away at its end, both
    clipped to the region, and marks the faces inside it; a running sum
    over the region's rh - rl positions then reads each face's straddle
    count.  That is O(boxes + rh - rl) per axis.
    """
    dim = len(rlo)
    best = None  # (straddling boxes, distance to the middle, face), axis
    for a, (rl, rh) in enumerate(zip(rlo, rhi)):
        n = rh - rl  # position rl + i is i here
        step = [0] * (n + 1)  # change in the straddle count from position i - 1 to i
        face = [False] * n
        for m in members:
            lo, hi = m[a] - rl, m[dim + a] - rl  # every member meets the region
            if lo > 0:
                face[lo] = True
                step[lo + 1] += 1
            else:
                step[1] += 1
            if hi < n:
                face[hi] = True
                step[hi] -= 1
        straddles = 0
        for i in range(1, n):
            straddles += step[i]
            if face[i]:
                key = (straddles, abs(2 * i - n), rl + i)
                if best is None or key < best[0]:
                    best = key, a
    (_, _, j), a = best
    return a, j


def _check_inputs(name: str, value: float, budget: int):
    if np.isnan(value):
        raise AssumptionViolationError(f"{name} is NaN; a residual bound must be a number")
    if budget < 1:
        raise AssumptionViolationError(f"budget is {budget}; it must be at least 1")


def _check_labels(labels):
    if FALLBACK in labels:
        raise AssumptionViolationError(
            f"grid label {FALLBACK!r} is the cover's fallback label; "
            f"cells of it could not be told from uncovered points")


def approximate(grid: LabeledGrid, epsilon: float,
                budget: int = BUDGET_START, budget_cap: int = BUDGET_CAP) -> Approximation:
    """Cover labeled cells by rectangles until the leftover measure is below
    epsilon, doubling the rectangle budget as needed but never past
    `budget_cap`; BudgetCapError is raised once `budget_cap` rectangles
    leave a residual of at least epsilon.

    Taking a box changes only its own label's cells, so each label's largest
    rectangle is searched once up front and again only after one of its
    boxes is taken.  Each label keeps one row memo for the whole call, which
    `clear_block` brings up to date as it clears each box, so a search
    after a box rescans only the rows whose column heights the box changed.
    The covers are the ones a full search every round would choose.
    """
    _check_inputs("epsilon", epsilon, budget)
    budget = min(budget, budget_cap)
    code_of: Dict[object, int] = {}  # each label's first cell is its representative
    cells = grid.labels.ravel().tolist()  # a tuple label must not broadcast
    codes = np.array([code_of.setdefault(v, len(code_of)) for v in cells],
                     dtype=np.intp).reshape(grid.resolution)
    _check_labels(code_of)
    labels = sorted((v for v in code_of if v is not None), key=str)
    remaining = {label: codes == code_of[label] for label in labels}
    memos = {label: {} for label in labels}
    largest = {label: largest_rectangle(remaining[label], memos[label]) for label in labels}
    left = sum(int(np.count_nonzero(m)) for m in remaining.values())  # uncovered cells
    covered = 0
    cellvol = grid.cell_volume
    lo, width = grid.lo.tolist(), grid.cell_width.tolist()
    chosen: List[Rectangle] = []
    rounds: List[Tuple[int, float]] = []
    residual = left * cellvol
    while residual >= epsilon and residual > 0:
        if len(chosen) >= budget:
            if budget >= budget_cap:
                raise BudgetCapError(
                    f"rectangle budget exceeded {budget_cap} with residual {residual:.3g}")
            rounds.append((budget, residual))
            budget = min(2 * budget, budget_cap)
        best = None
        for label in labels:
            size, (clo, chi) = largest[label]
            if size > 0 and (best is None or size > best[0]):
                best = (size, label, clo, chi)
        if best is None:
            break
        size, label, clo, chi = best
        chosen.append(Rectangle(label, clo, chi,
                                tuple(float(l + j * w) for l, j, w in zip(lo, clo, width)),
                                tuple(float(l + j * w) for l, j, w in zip(lo, chi, width))))
        clear_block(remaining[label], memos[label], clo, chi)
        left -= size
        covered += size
        residual = left * cellvol
        largest[label] = largest_rectangle(remaining[label], memos[label])

    rounds.append((budget, residual))
    return Approximation(_cover_graph(grid, chosen), chosen, residual, covered * cellvol, rounds)


@dataclass
class ChartRound:
    index: int
    epsilon: float
    chart: Approximation


@dataclass
class ChartFamily:
    grid: LabeledGrid
    charts: List[ChartRound]
    final_residual: float

    def label_at(self, x):
        x = _finite_point(x, len(self.grid.lo))
        for r in self.charts:
            found = r.chart.region_label(x)
            if found is not None:
                return found
        return None


def chart_family(grid: LabeledGrid, eps0: float, depth: int,
                 budget: int = BUDGET_START, budget_cap: int = BUDGET_CAP) -> ChartFamily:
    """Repeat the cover on leftover cells with the bound halved each round."""
    _check_inputs("eps0", eps0, budget)
    _check_labels(grid.distinct_labels())
    working = LabeledGrid(grid.lo.copy(), grid.hi.copy(), grid.labels.copy())
    charts = []
    residual = working.labeled_measure()
    for k in range(depth):
        if residual == 0:
            break
        eps = eps0 / 2 ** k
        chart = approximate(working, eps, budget=budget, budget_cap=budget_cap)
        charts.append(ChartRound(k, eps, chart))
        for rect in chart.rectangles:
            block = tuple(slice(a, b) for a, b in zip(rect.cell_lo, rect.cell_hi))
            working.labels[block] = None
        residual = working.labeled_measure()
    return ChartFamily(grid, charts, residual)


def mismatch_measure(result: Approximation, grid: LabeledGrid) -> Tuple[float, float]:
    """(wrongly labeled, fallback) measures over labeled cells, by centers."""
    labeled = grid.labeled_mask()
    centers = grid.center(np.argwhere(labeled))
    wrong = 0
    star = 0
    for got, truth in zip(evaluate_batch(result.graph, centers), grid.labels[labeled]):
        if got == FALLBACK:
            star += 1
        elif got != truth:
            wrong += 1
    return wrong * grid.cell_volume, star * grid.cell_volume


def regions_to_semilinear(result: Approximation, dim: int):
    """Half-open boxes as semilinear fibers, one piece per box: its lower
    faces are weak rows and its upper faces strict rows."""
    from .semilinear import BasicSemilinearSet, SemilinearFunction, SemilinearSet

    fibers: Dict[object, list] = {}
    for rect in result.rectangles:
        lower = tuple(tuple(1.0 if j == i else 0.0 for j in range(dim)) + (-rect.lo[i],)
                      for i in range(dim))
        upper = tuple(tuple(-1.0 if j == i else 0.0 for j in range(dim)) + (rect.hi[i],)
                      for i in range(dim))
        fibers.setdefault(rect.label, []).append(BasicSemilinearSet(dim, (), upper, lower))
    return SemilinearFunction(dim, {l: SemilinearSet(dim, tuple(ps))
                                    for l, ps in fibers.items()})


# -- serialization ----------------------------------------------------------


def save_grid(grid: LabeledGrid, manifest_path):
    manifest_path = os.fspath(manifest_path)
    stem, _ = os.path.splitext(manifest_path)
    csv_path = stem + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"i{k}" for k in range(grid.dim)] + ["label"])
        for idx in sorted(np.ndindex(*grid.resolution)):
            if grid.labels[idx] is not None:
                writer.writerow(list(idx) + [label_to_text(grid.labels[idx])])
    manifest = {
        "lo": grid.lo.tolist(),
        "hi": grid.hi.tolist(),
        "resolution": list(grid.resolution),
        "labels_file": os.path.basename(csv_path),
    }
    write_json(manifest, manifest_path)


def load_grid(manifest_path) -> LabeledGrid:
    manifest_path = os.fspath(manifest_path)
    manifest = read_json(manifest_path)
    shape = tuple(manifest["resolution"])
    if any(n < 1 for n in shape):
        raise ValueError(f"resolution {list(shape)} needs at least one cell per axis")
    labels = np.empty(shape, dtype=object)
    labels[...] = None
    csv_path = os.path.join(os.path.dirname(manifest_path), manifest["labels_file"])
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) is None:
            raise ValueError(f"{manifest['labels_file']} is empty; expected a header line")
        for row in reader:
            try:
                if len(row) != len(shape) + 1:
                    raise ValueError(f"expected {len(shape) + 1} fields, got {len(row)}")
                idx = tuple(int(v) for v in row[:-1])
                if not all(0 <= i < n for i, n in zip(idx, shape)):
                    raise ValueError(f"cell {idx} is outside resolution {shape}")
                labels[idx] = label_from_text(row[-1])
            except ValueError as e:
                raise ValueError(
                    f"{manifest['labels_file']}, line {reader.line_num}: {e}") from None
    return LabeledGrid(np.array(manifest["lo"]), np.array(manifest["hi"]), labels)
