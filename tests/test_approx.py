import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from logifold import approx, evaluate
from logifold.approx import (
    BUDGET_START,
    FALLBACK,
    ChartFamily,
    LabeledGrid,
    _largest_rect_2d,
    approximate,
    chart_family,
    clear_block,
    grid_from_function,
    largest_rectangle,
    load_grid,
    mismatch_measure,
    regions_to_semilinear,
    save_grid,
)
from logifold.errors import (
    AssumptionViolationError,
    BudgetCapError,
    DimensionMismatchError,
    NonFinitePointError,
)
from logifold.graph import TARGET, evaluate_batch, graph_to_dict, validate_graph


def diagonal(x):
    return "lo" if x[0] < x[1] else "hi"


def make_diag_grid(res=8):
    return grid_from_function(diagonal, [0.0, 0.0], [1.0, 1.0], res)


def test_grid_labels_cells_by_center():
    g = make_diag_grid(4)
    assert g.resolution == (4, 4)
    assert g.label_at([0.1, 0.9]) == "lo"
    assert g.label_at([0.9, 0.1]) == "hi"
    assert g.label_at([1.5, 0.5]) is None
    assert g.labeled_measure() == pytest.approx(1.0)


def test_grid_with_holes_tracks_measure():
    def fn(x):
        return None if x[0] < 0.5 else "in"
    g = grid_from_function(fn, [0.0], [1.0], 10)
    assert g.labeled_measure() == pytest.approx(0.5)


def test_longest_run_1d():
    size, (lo, hi) = largest_rectangle(np.array([0, 1, 1, 1, 0, 1, 1], dtype=bool))
    assert size == 3 and (lo, hi) == ((1,), (4,))


def test_equal_rectangles_keep_the_first_found():
    assert largest_rectangle(np.array([1, 1, 0, 1, 1], dtype=bool)) == (2, ((0,), (2,)))
    mask = np.array([[1, 1, 0],
                     [0, 0, 0],
                     [0, 1, 1]], dtype=bool)
    assert largest_rectangle(mask) == (2, ((0, 0), (1, 2)))


def test_largest_rectangle_2d_is_exact():
    mask = np.array([[1, 1, 0],
                     [1, 1, 1],
                     [1, 1, 1]], dtype=bool)
    size, (lo, hi) = largest_rectangle(mask)
    assert size == 6
    assert mask[lo[0]:hi[0], lo[1]:hi[1]].all()


def test_grown_block_3d():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[0:2, 0:3, 1:3] = True
    size, (lo, hi) = largest_rectangle(mask)
    assert size == 12 and lo == (0, 0, 1) and hi == (2, 3, 3)


def test_approximate_meets_residual_bound(rng):
    g = make_diag_grid(8)
    eps = 0.25 * g.labeled_measure()
    result = approximate(g, eps)
    assert result.residual_measure < eps
    assert result.covered_measure + result.residual_measure == pytest.approx(
        g.labeled_measure())
    for _ in range(200):
        x = rng.uniform(0, 1, size=2)
        claimed = result.region_label(x)
        if claimed is not None:
            assert evaluate(result.graph, x) == claimed == g.label_at(x)


def test_approximate_is_exact_where_covered():
    g = make_diag_grid(8)
    result = approximate(g, 0.25)
    wrong, star = mismatch_measure(result, g)
    assert wrong == 0.0
    assert star == pytest.approx(result.residual_measure)


def test_approximate_to_zero_residual():
    g = make_diag_grid(8)
    result = approximate(g, 0.5 * g.cell_volume)
    assert result.residual_measure == 0.0
    assert mismatch_measure(result, g) == (0.0, 0.0)


def test_fallback_outside_every_rectangle():
    g = make_diag_grid(4)
    result = approximate(g, 0.5 * g.cell_volume)
    assert evaluate(result.graph, np.array([5.0, 5.0])) == FALLBACK


def test_rectangles_avoid_outside_cells():
    def fn(x):
        if 0.25 <= x[0] < 0.75 and 0.25 <= x[1] < 0.75:
            return None
        return "ring"
    g = grid_from_function(fn, [0.0, 0.0], [1.0, 1.0], 8)
    result = approximate(g, 0.5 * g.cell_volume)
    for rect in result.rectangles:
        block = g.labels[rect.cell_lo[0]:rect.cell_hi[0],
                         rect.cell_lo[1]:rect.cell_hi[1]]
        assert all(v == "ring" for v in block.flat)


def test_budget_cap_raises():
    def checker(x):
        return (int(x[0] * 4) + int(x[1] * 4)) % 2
    g = grid_from_function(checker, [0.0, 0.0], [1.0, 1.0], 4)
    with pytest.raises(BudgetCapError):
        approximate(g, 0.5 * g.cell_volume, budget=1, budget_cap=1)


def checkerboard(n):
    return grid_from_function(lambda x: (int(x[0] * n) + int(x[1] * n)) % 2,
                              [0.0, 0.0], [1.0, 1.0], n)


def test_a_budget_cap_between_doublings_is_the_cap():
    g = checkerboard(10)  # 100 one-cell rectangles
    result = approximate(g, 0.5 * g.cell_volume, budget_cap=100)
    assert len(result.rectangles) == 100
    assert result.rounds[-1] == (100, 0.0)


def test_a_budget_cap_below_the_start_raises_at_the_cap():
    g = checkerboard(10)
    # the residual after exactly 4 rectangles: 96 cells of 0.01
    with pytest.raises(BudgetCapError, match="exceeded 4 with residual 0.96$"):
        approximate(g, 0.5 * g.cell_volume, budget_cap=4)


def test_chart_family_halves_bounds_to_exhaustion():
    g = make_diag_grid(16)
    mu = g.labeled_measure()
    fam = chart_family(g, mu / 32, depth=6)
    assert fam.final_residual == 0.0
    residuals = [r.chart.residual_measure for r in fam.charts]
    for a, b in zip(residuals, residuals[1:]):
        assert b < a or a == 0.0
    for k, r in enumerate(fam.charts):
        assert r.epsilon == pytest.approx(mu / 32 / 2 ** k)
        assert r.chart.residual_measure < r.epsilon


def test_chart_family_lookup_matches_grid(rng):
    g = make_diag_grid(8)
    fam = chart_family(g, g.labeled_measure() / 4, depth=3)
    for _ in range(100):
        x = rng.uniform(0, 1, size=2)
        found = fam.label_at(x)
        if found is not None:
            assert found == g.label_at(x)


def test_regions_export_as_semilinear(rng):
    g = make_diag_grid(4)
    result = approximate(g, 0.5 * g.cell_volume)
    f = regions_to_semilinear(result, 2)
    assert sum(len(s.pieces) for s in f.fibers.values()) == len(result.rectangles)
    for _ in range(100):
        x = rng.uniform(0, 1, size=2)
        assert f.label_of(x) == result.region_label(x)
    # half-open on the lower faces: box corners belong to exactly one box
    rect = result.rectangles[0]
    assert f.label_of(list(rect.lo)) == rect.label


def test_grid_round_trip(tmp_path):
    g = make_diag_grid(4)
    path = tmp_path / "grid.json"
    save_grid(g, path)
    g2 = load_grid(path)
    assert g2.resolution == g.resolution
    assert np.allclose(g2.lo, g.lo) and np.allclose(g2.hi, g.hi)
    for idx in np.ndindex(*g.resolution):
        assert g2.labels[idx] == g.labels[idx]


@pytest.mark.parametrize("row, message", [
    ("5,0,1", r"cell \(5, 0\) is outside"),
    ("-1,0,0", r"cell \(-1, 0\) is outside"),
    ("0,1", "expected 3 fields, got 2"),
], ids=["index-too-large", "negative-index", "short-row"])
def test_grid_rejects_malformed_cell_rows(tmp_path, row, message):
    path = tmp_path / "grid.json"
    save_grid(LabeledGrid([0.0, 0.0], [1.0, 1.0], np.full((2, 2), None)), path)
    with open(tmp_path / "grid.csv", "a") as fh:
        fh.write(row + "\n")
    with pytest.raises(ValueError, match=f"grid.csv, line 2: {message}"):
        load_grid(path)


def test_grid_rejects_an_empty_labels_file(tmp_path):
    path = tmp_path / "grid.json"
    save_grid(LabeledGrid([0.0, 0.0], [1.0, 1.0], np.full((2, 2), None)), path)
    (tmp_path / "grid.csv").write_text("")
    with pytest.raises(ValueError, match="grid.csv is empty"):
        load_grid(path)


@pytest.mark.parametrize("lo, hi", [
    ([math.nan, 0.0], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, math.nan]),
    ([-math.inf, 0.0], [1.0, 1.0]),
], ids=["nan-lo", "nan-hi", "infinite-lo"])
def test_grid_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(NonFinitePointError, match="lo and hi must be finite"):
        LabeledGrid(lo, hi, np.full((2, 2), None))


def test_nan_bound_is_rejected():
    g = make_diag_grid(4)
    with pytest.raises(AssumptionViolationError, match="epsilon is NaN"):
        approximate(g, math.nan)
    for grid in (g, LabeledGrid([0.0], [1.0], np.full(4, None))):  # and with no labeled cell
        with pytest.raises(AssumptionViolationError, match="eps0 is NaN"):
            chart_family(grid, math.nan, 3)


def test_a_label_equal_to_the_fallback_is_rejected():
    labels = np.empty((4, 4), dtype=object)
    labels[:2], labels[2:] = "a", FALLBACK
    g = LabeledGrid([0.0, 0.0], [1.0, 1.0], labels)
    with pytest.raises(AssumptionViolationError, match=r"grid label '\*'"):
        approximate(g, 0.0)
    with pytest.raises(AssumptionViolationError, match=r"grid label '\*'"):
        chart_family(g, 0.0, 0)  # even with no round to run


def test_infinite_bound_needs_no_box():
    g = make_diag_grid(4)
    result = approximate(g, math.inf)
    assert result.rectangles == []
    assert result.residual_measure == g.labeled_measure()


# -- the incremental cover against a full search every round -------------------


def reference_cover(grid, epsilon, budget):
    """The greedy cover that searches every label's mask again each round."""
    remaining = {label: np.array([v == label for v in grid.labels.flat],
                                 dtype=bool).reshape(grid.resolution)
                 for label in grid.distinct_labels()}

    def residual():
        return sum(int(m.sum()) for m in remaining.values()) * grid.cell_volume

    rects, rounds = [], []
    while residual() >= epsilon and residual() > 0:
        if len(rects) >= budget:
            rounds.append((budget, residual()))
            budget *= 2
        best = None
        for label in sorted(remaining, key=str):
            size, (lo, hi) = largest_rectangle(remaining[label])
            if size > 0 and (best is None or size > best[0]):
                best = (size, label, lo, hi)
        _, label, lo, hi = best
        rects.append((label, lo, hi))
        remaining[label][tuple(slice(a, b) for a, b in zip(lo, hi))] = False
    rounds.append((budget, residual()))
    covered = sum(int(np.prod(np.subtract(hi, lo))) for _, lo, hi in rects)
    return rects, rounds, residual(), covered * grid.cell_volume


LABEL_POOL = [0, 3, "a", "b", (0, 1), ("a", 2)]


@st.composite
def labeled_grids(draw):
    dim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, 7 if dim < 3 else 4),
                                min_size=dim, max_size=dim)))
    labels = draw(st.lists(st.sampled_from(LABEL_POOL), min_size=1, max_size=4,
                           unique_by=repr))
    values = labels + [None]
    cells = draw(st.lists(st.sampled_from(values), min_size=int(np.prod(shape)),
                          max_size=int(np.prod(shape))))
    grid = np.empty(int(np.prod(shape)), dtype=object)
    for k, v in enumerate(cells):  # np.array(cells) would split tuple labels
        grid[k] = v
    return LabeledGrid(np.zeros(dim), np.arange(1.0, dim + 1), grid.reshape(shape))


def radial_32():
    """Four labels on the unit square at 32 cells per axis, as on the grid
    covers the benchmark times: rings of width 0.18 around an off-centre
    point, then 3 beyond."""
    return grid_from_function(lambda x: min(3, int(np.hypot(x[0] - 0.41, x[1] - 0.57) / 0.18)),
                              [0.0, 0.0], [1.0, 1.0], 32)


@settings(max_examples=150, deadline=None)
@given(labeled_grids(), st.sampled_from([0.0, 0.1, 0.3]), st.sampled_from([1, BUDGET_START]))
@example(radial_32(), 0.0, BUDGET_START)
def test_incremental_cover_equals_full_search(grid, frac, budget):
    epsilon = frac * grid.labeled_measure()
    result = approximate(grid, epsilon, budget=budget)
    rects, rounds, residual, covered = reference_cover(grid, epsilon, budget)
    assert [(r.label, r.cell_lo, r.cell_hi) for r in result.rectangles] == rects
    assert [type(r.label) for r in result.rectangles] == [type(l) for l, _, _ in rects]
    assert result.rounds == rounds
    assert result.residual_measure == residual
    assert result.covered_measure == covered


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda r: st.integers(1, 7).flatmap(
    lambda c: st.lists(st.booleans(), min_size=r * c, max_size=r * c).map(
        lambda bits: np.array(bits, dtype=bool).reshape(r, c)))))
def test_skyline_finds_a_maximum_all_true_rectangle(mask):
    rows, cols = mask.shape
    brute = max((r1 - r0) * (c1 - c0)
                for r0 in range(rows) for r1 in range(r0 + 1, rows + 1)
                for c0 in range(cols) for c1 in range(c0 + 1, cols + 1)
                if mask[r0:r1, c0:c1].all()) if mask.any() else 0
    size, ((r0, c0), (r1, c1)) = _largest_rect_2d(mask)
    assert size == brute
    if size:
        assert (r1 - r0) * (c1 - c0) == size
        assert mask[r0:r1, c0:c1].all()


def face_probes(grid):
    """Per axis: every face, the float just below it, and a point beyond each
    end of the box; all their combinations."""
    axes = []
    for lo, hi, w, n in zip(grid.lo.tolist(), grid.hi.tolist(), grid.cell_width.tolist(),
                            grid.resolution):
        faces = np.array([lo + j * w for j in range(n + 1)])
        axes.append(np.concatenate([faces, np.nextafter(faces, -np.inf), [lo - 1, hi + 1]]))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)


@settings(max_examples=100, deadline=None)
@given(labeled_grids(), st.sampled_from([0.0, 0.1, 0.3]))
def test_cover_tree_labels_every_point_as_its_boxes_do(grid, frac):
    result = approximate(grid, frac * grid.labeled_measure())
    X = face_probes(grid)
    want = [result.region_label(x) for x in X]
    assert evaluate_batch(result.graph, X) == [FALLBACK if w is None else w for w in want]
    assert all(guard.rows == 1 for guard in result.graph.guards.values())
    report = validate_graph(result.graph)
    assert report.ok and report.skipped_because is None


def guards_passed(g, x) -> int:
    v, n = g.source, 0
    while g.vertices[v] != TARGET:
        n += v in g.guards
        v = g.next_arrow(v, x).dst
    return n


def radial_16():
    return grid_from_function(lambda x: int(4 * np.hypot(x[0] - 0.4, x[1] - 0.6)),
                              [0.0, 0.0], [1.0, 1.0], 16)


def test_each_box_searches_again_only_its_own_label(monkeypatch):
    calls = []

    def counted(mask, memo=None):
        calls.append(mask)
        return largest_rectangle(mask, memo)

    monkeypatch.setattr(approx, "largest_rectangle", counted)
    g = radial_16()
    result = approximate(g, 0.0)
    assert len(g.distinct_labels()) == 4
    assert len(calls) == 4 + len(result.rectangles)


def test_row_memo_rescans_only_rows_a_box_changed(monkeypatch):
    scans = []
    searches = []  # (memo was empty, rows scanned)

    def counted_row(r, heights):
        scans.append(r)
        return row_best(r, heights)

    def counted_search(mask, memo=None):
        before, fresh = len(scans), not memo
        found = largest_rectangle(mask, memo)
        searches.append((fresh, len(scans) - before))
        return found

    row_best = approx._row_best
    monkeypatch.setattr(approx, "_row_best", counted_row)
    monkeypatch.setattr(approx, "largest_rectangle", counted_search)
    g = radial_16()
    result = approximate(g, 0.0)
    rows = g.resolution[0]
    first = [n for fresh, n in searches if fresh]
    later = [n for fresh, n in searches if not fresh]
    assert first == [rows] * 4
    assert len(later) == len(result.rectangles)
    assert sum(later) <= rows * len(later) // 4


def test_cover_tree_is_shallow_on_radial_16():
    g = radial_16()
    result = approximate(g, 0.0)
    depth = np.mean([guards_passed(result.graph, g.center(idx))
                     for idx in np.ndindex(*g.resolution)])
    assert depth <= 2 * math.log2(len(result.rectangles)) + 2 * g.dim


# -- the cut rule against a brute-force count ----------------------------------


def reference_cut(rlo, rhi, members):
    """`_cut`'s rule by brute force: every box face strictly inside the
    region, scored by counting the boxes that straddle it, then by its
    distance to the region's middle, its position and its axis."""
    dim = len(rlo)
    scored = []
    for a, (rl, rh) in enumerate(zip(rlo, rhi)):
        for j in {m[a] for m in members} | {m[dim + a] for m in members}:
            if rl < j < rh:
                straddles = sum(1 for m in members if m[a] < j < m[dim + a])
                scored.append((straddles, abs(2 * j - rl - rh), j, a))
    _, _, j, a = min(scored)
    return a, j


@st.composite
def cut_regions(draw):
    """(rlo, rhi, members): a region of cell positions in a grid of 1-6 cells
    per axis, its bounds -1 and n + 1 or inside the grid, and the disjoint
    boxes that meet it, which may reach past it."""
    dim = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim))
    boxes = []
    for _ in range(draw(st.integers(1, 10))):
        lo = [draw(st.integers(0, n - 1)) for n in shape]
        hi = [draw(st.integers(l + 1, n)) for l, n in zip(lo, shape)]
        if not any(all(l < m[dim + a] and m[a] < h for a, (l, h) in enumerate(zip(lo, hi)))
                   for m in boxes):
            boxes.append((*lo, *hi, draw(st.sampled_from(["t0", "t1"]))))
    rlo = [draw(st.sampled_from([-1, *range(n)])) for n in shape]
    rhi = [draw(st.sampled_from([*range(l + 1, n + 1), n + 1])) for l, n in zip(rlo, shape)]
    members = [m for m in boxes
               if all(m[a] < h and m[dim + a] > l for a, (l, h) in enumerate(zip(rlo, rhi)))]
    return rlo, rhi, members


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cut_regions())
def test_cut_is_the_face_a_brute_force_count_picks(case):
    rlo, rhi, members = case
    dim = len(rlo)
    # a face strictly inside exists unless one box fills the region
    assume(any(l < j < h for m in members for a, (l, h) in enumerate(zip(rlo, rhi))
               for j in (m[a], m[dim + a])))
    assert approx._cut(rlo, rhi, members) == reference_cut(rlo, rhi, members)


@pytest.mark.parametrize("make", [radial_16, radial_32, lambda: make_diag_grid(16)],
                         ids=["radial-16", "radial-32", "diagonal-16"])
def test_cover_graph_equals_the_one_cut_by_the_reference(make, monkeypatch):
    grid = make()
    rectangles = approximate(grid, 0.0).rectangles
    want = graph_to_dict(approx._cover_graph(grid, rectangles))
    monkeypatch.setattr(approx, "_cut", reference_cut)
    assert graph_to_dict(approx._cover_graph(grid, rectangles)) == want


def cleared_blocks():
    """A random 1-D or 2-D mask and a list of blocks to clear from it in turn."""
    def build(shape):
        size = int(np.prod(shape))
        block = st.tuples(*[st.integers(0, n - 1).flatmap(
            lambda a, n=n: st.integers(a + 1, n).map(lambda b, a=a: (a, b))) for n in shape])
        return st.tuples(
            st.lists(st.booleans(), min_size=size, max_size=size).map(
                lambda bits: np.array(bits, dtype=bool).reshape(shape)),
            st.lists(block, min_size=1, max_size=8))

    shapes = st.one_of(st.tuples(st.integers(1, 9)),
                       st.tuples(st.integers(1, 9), st.integers(1, 9)))
    return shapes.flatmap(build)


@settings(max_examples=200, deadline=None)
@given(cleared_blocks())
def test_memoized_search_equals_a_fresh_search(case):
    mask, blocks = case
    memo = {}
    assert largest_rectangle(mask, memo) == largest_rectangle(mask)
    for block in blocks:
        # a block above the last row lowers the heights of the rows below it
        clear_block(mask, memo, *zip(*block))
        assert largest_rectangle(mask, memo) == largest_rectangle(mask)


# -- input checks -------------------------------------------------------------


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_rejected(budget):
    g = make_diag_grid(4)
    with pytest.raises(AssumptionViolationError, match=f"budget is {budget}"):
        approximate(g, 0.0, budget=budget)
    with pytest.raises(AssumptionViolationError, match=f"budget is {budget}"):
        chart_family(g, 0.0, 3, budget=budget)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0,)])
def test_zero_resolution_is_rejected(tmp_path, shape):
    dim = len(shape)
    with pytest.raises(DimensionMismatchError, match="at least one cell per axis"):
        LabeledGrid(np.zeros(dim), np.ones(dim), np.empty(shape, dtype=object))
    path = tmp_path / "grid.json"
    save_grid(LabeledGrid(np.zeros(dim), np.ones(dim), np.full((2,) * dim, None)), path)
    manifest = json.loads(path.read_text())
    manifest["resolution"] = list(shape)
    path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="at least one cell per axis"):
        load_grid(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_are_rejected(bad):
    g = make_diag_grid(4)
    result = approximate(g, 0.0)
    fam = chart_family(g, 0.0, 2)
    x = [0.5, bad]
    for lookup in (g.cell_of, g.label_at, result.region_label, fam.label_at,
                   ChartFamily(g, [], 0.0).label_at):
        with pytest.raises(NonFinitePointError):
            lookup(x)


@pytest.mark.parametrize("x", [[0.7], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
def test_points_of_another_dimension_are_rejected(x):
    g = make_diag_grid(4)
    result = approximate(g, 0.0)
    fam = chart_family(g, 0.0, 2)
    for lookup in (g.cell_of, g.label_at, result.region_label, fam.label_at,
                   ChartFamily(g, [], 0.0).label_at):
        with pytest.raises(DimensionMismatchError, match="the grid is 2-d"):
            lookup(x)


def probes_around(values):
    """Each value and the floats one ulp below and above it, and both zeros."""
    out = [0.0, -0.0]
    for v in values:
        out += [float(np.nextafter(v, -math.inf)), v, float(np.nextafter(v, math.inf))]
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lo=st.floats(-10.0, 10.0), hi=st.floats(-10.0, 10.0),
       cells=st.lists(st.integers(0, 3), min_size=1, max_size=40))
@example(lo=-2.460982700857002, hi=2.2796080631724385, cells=list(range(33)))
def test_a_point_is_in_the_cell_its_face_floats_bound(lo, hi, cells):
    # widths are not dyadic: a face lo + j*w need not be where
    # floor((x - lo) / w) steps, and the cover's guards compare with the face
    assume(hi - lo > 1e-3)
    n = len(cells)
    labels = np.empty(n, dtype=object)
    labels[:] = cells
    grid = LabeledGrid(np.array([lo]), np.array([hi]), labels)
    w = (hi - lo) / n
    faces = [lo + j * w for j in range(n + 1)]
    cover = approximate(grid, 0.0)
    for x in probes_around(faces + [lo, hi]):
        at_or_below = sum(f <= x for f in faces)
        assert grid.cell_of([x]) == ((at_or_below - 1,) if 0 < at_or_below <= n else None)
        if cover.region_label([x]) is not None:
            assert evaluate(cover.graph, np.array([x])) == grid.label_at([x])
