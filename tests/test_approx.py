import numpy as np
import pytest

from logifold import evaluate
from logifold.approx import (
    FALLBACK,
    LabeledGrid,
    approximate,
    chart_family,
    grid_from_function,
    largest_rectangle,
    load_grid,
    mismatch_measure,
    regions_to_semilinear,
    save_grid,
)
from logifold.errors import BudgetCapError


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
