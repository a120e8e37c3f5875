"""Exact feasibility core: witnesses, certificates, chamber enumeration.

Oracle for small systems: dense grid sampling with rational arithmetic.
"""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logifold
from logifold.errors import DimensionBudgetError, NonFinitePointError
from logifold.feasibility import (
    Constraint,
    _multipliers,
    _refutes,
    check_system,
    enumerate_chambers,
    evaluate_constraint,
    find_witness,
    make_constraint,
    satisfies,
    satisfies_all,
)
from logifold.graph import AffineMap


def weak(rows):
    """(coeffs, offset) pairs as the weak integer rows `enumerate_chambers` takes."""
    return [make_constraint(c, b, strict=False) for c, b in rows]


def grid_feasible(constraints, n, lo=-3, hi=3, steps=13):
    """Brute-force oracle: scan a rational grid for any satisfying point."""
    axis = [Fraction(lo) + Fraction(hi - lo, steps - 1) * k for k in range(steps)]

    def rec(prefix):
        if len(prefix) == n:
            return all(satisfies(c, prefix) for c in constraints)
        return any(rec(prefix + [v]) for v in axis)

    return rec([])


def test_make_constraint_clears_float_denominators():
    c = make_constraint([0.5, -0.25], 1.5, strict=False)
    # 0.5 x - 0.25 y + 1.5 >= 0  scales to  2x - y + 6 >= 0
    assert c.coeffs == (2, -1) and c.offset == 6 and not c.strict


def test_make_constraint_takes_numpy_integers_exactly():
    # 2**60 + 1 has no float; reading it through float gave 2**60
    big = 2**60 + 1
    got = make_constraint([np.int64(big), np.int32(1)], np.int64(-3), strict=True)
    assert got == make_constraint([big, 1], -3, strict=True)
    assert got.coeffs == (big, 1) and got.offset == -3
    mixed = make_constraint([np.int64(big), np.float32(0.5)], Fraction(1, 3), strict=False)
    assert mixed == make_constraint([big, Fraction(1, 2)], Fraction(1, 3), strict=False)
    assert mixed.coeffs == (6 * big, 3) and mixed.offset == 2


def exact_value(c, point):
    """The row's value at `point` in plain Fraction arithmetic."""
    return Fraction(c.offset) + sum(a * Fraction(x) for a, x in zip(c.coeffs, point))


def test_satisfies_is_exact_on_float_points():
    # Fraction + float is a float: this point used to fail its strict row
    c = Constraint((-3672667449594344, -5336717746647811), -6800547075198481, True)
    point = (-0.17180968672645902, -1.1560564984176902)
    assert exact_value(c, point) == Fraction(1839354445648207, 2251799813685248)
    assert evaluate_constraint(c, point) == exact_value(c, point)
    assert isinstance(evaluate_constraint(c, point), Fraction)
    assert satisfies(c, point)
    assert not satisfies(Constraint(c.coeffs, c.offset - 1, True), point)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2**53, 2**53), min_size=2, max_size=2),
       st.integers(-2**53, 2**53), st.booleans(),
       st.lists(st.floats(-4, 4, allow_nan=False), min_size=2, max_size=2))
def test_satisfies_matches_fraction_arithmetic_on_float_points(coeffs, offset, strict, point):
    c = Constraint(tuple(coeffs), offset, strict)
    want = exact_value(c, point)
    assert evaluate_constraint(c, point) == want
    assert satisfies(c, point) == (want > 0 if strict else want >= 0)
    assert satisfies(c, [np.float64(x) for x in point]) == satisfies(c, point)


def _rows_and_point(n):
    """Up to six integer rows in n variables and a point of int, Fraction
    and float coordinates."""
    coordinate = st.one_of(st.integers(-6, 6),
                           st.fractions(Fraction(-6), Fraction(6), max_denominator=12),
                           st.floats(-6, 6, allow_nan=False))
    row = st.builds(Constraint, st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(tuple),
                    st.integers(-8, 8), st.booleans())
    return st.tuples(st.lists(row, max_size=6), st.lists(coordinate, min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(_rows_and_point))
def test_satisfies_all_is_every_row_satisfied(case):
    rows, point = case
    assert satisfies_all(rows, point) == all([satisfies(c, point) for c in rows])
    # the point on a row's boundary, where strictness decides
    for c in rows[:1]:
        if any(c.coeffs):
            j = next(i for i, a in enumerate(c.coeffs) if a)
            on = [Fraction(v) for v in point]
            on[j] -= evaluate_constraint(c, on) / c.coeffs[j]
            assert satisfies_all(rows, on) == all([satisfies(r, on) for r in rows])
            assert satisfies_all([c], on) == (not c.strict)


def test_non_finite_points_are_rejected():
    c = make_constraint([1, 1], 0, strict=False)
    with pytest.raises(NonFinitePointError):
        satisfies(c, [0.0, float("nan")])
    with pytest.raises(NonFinitePointError):
        evaluate_constraint(c, [float("inf"), 0.0])


def test_witness_simple_band():
    cs = [
        make_constraint([1.0], 0.0, strict=False),   # x >= 0
        make_constraint([-1.0], 1.0, strict=True),   # x < 1
    ]
    w = find_witness(cs, 1)
    assert w is not None and Fraction(0) <= w[0] < Fraction(1)


def test_witness_equality_only_point():
    # x >= 2 and x <= 2 pins x = 2 exactly
    cs = [make_constraint([1], -2, False), make_constraint([-1], 2, False)]
    w = find_witness(cs, 1)
    assert w == (Fraction(2),)


def test_infeasible_strict_gap():
    cs = [make_constraint([1], 0, True), make_constraint([-1], 0, True)]  # x>0, x<0
    v = check_system(cs, 1)
    assert not v.feasible and v.witness is None
    assert v.contradiction is not None and "0" in v.contradiction


def test_strict_open_interval_witness():
    # 0 < x < 1/3, thin but open
    cs = [make_constraint([3], 0, True), make_constraint([-3], 1, True)]
    w = find_witness(cs, 1)
    assert w is not None and 0 < w[0] < Fraction(1, 3)


def test_dimension_budget_enforced():
    cs = [make_constraint([1] * 9, 0, False)]
    with pytest.raises(DimensionBudgetError):
        find_witness(cs, 9)
    with pytest.raises(DimensionBudgetError):
        check_system(cs, 9)


def test_find_witness_checks_the_dimension_budget():
    cs = [make_constraint([1] * 9, 0, False)]
    with pytest.raises(DimensionBudgetError):
        find_witness(cs, 9)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf])
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(NonFinitePointError):
        make_constraint([1.0, bad], 0.0, strict=False)
    with pytest.raises(NonFinitePointError):
        make_constraint([1.0, 0.0], bad, strict=True)
    with pytest.raises(NonFinitePointError):
        AffineMap(np.array([[bad]]), np.array([0.0])).constraints


def test_import_loads_no_scipy():
    src = str(Path(logifold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    probe = ("import sys, logifold; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_chamber_system_sign_convention():
    # '+' keeps the row weak, '-' negates and goes strict
    out = enumerate_chambers(weak([([1.0, 0.0], -1.0)]), 2)
    (p,) = out["+"][1]
    (m,) = out["-"][1]
    assert not p.strict and p.coeffs == (1, 0) and p.offset == -1
    assert m.strict and m.coeffs == (-1, 0) and m.offset == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(-3, 3), min_size=2, max_size=2),
            st.integers(-3, 3),
            st.booleans(),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_verdict_matches_grid_oracle(rows):
    cs = [make_constraint(c, b, s) for c, b, s in rows]
    got = find_witness(cs, 2)
    if got is not None:
        assert all(satisfies(c, got) for c in cs)
    else:
        # infeasible per elimination: the sampling oracle must find nothing
        assert not grid_feasible(cs, 2)


# Infeasible 3-d systems whose refutation needs a row the history-capped
# elimination drops; back-substitution then gave (11/3, 10/3, -1) and
# (8, 4, -3/2), which break two and three rows.
CAP_GAP_SYSTEMS = [
    ([((0, 4, -1), -2, True), ((0, 3, 1), 2, False), ((-2, -1, -4), 0, False),
      ((-3, 3, -4), -3, False), ((2, -1, 2), -2, False), ((1, 2, 4), 2, False),
      ((0, -3, -3), -2, True)], "-9 > 0"),
    ([((-1, 3, 2), -1, False), ((1, 1, 1), 0, True), ((-1, -4, -4), -2, False),
      ((-4, -3, -4), -4, True), ((1, -1, 0), -4, True), ((0, 2, -2), 1, True)], "-19 > 0"),
]


@pytest.mark.parametrize("rows, refutation", CAP_GAP_SYSTEMS)
def test_history_cap_gap_is_refuted(rows, refutation):
    cs = [make_constraint(c, b, s) for c, b, s in rows]
    verdict = check_system(cs, 3)
    assert not verdict.feasible and verdict.witness is None
    assert verdict.contradiction == f"derived constant row {refutation}"
    assert find_witness(cs, 3) is None


def _seeded_systems():
    """The verdict corpus: (n, rows) for 2,000 3-d systems drawn as the
    semilinear round trip's standalone systems are (3-7 rows, entries in
    [-4, 4], 40% strict), 1,000 smaller 1-5-d systems, and the cap gaps."""
    rng = np.random.default_rng(39)
    for _ in range(2000):
        yield 3, [make_constraint([int(a) for a in rng.integers(-4, 5, size=3)],
                                  int(rng.integers(-4, 5)), bool(rng.random() < 0.4))
                  for _ in range(int(rng.integers(3, 8)))]
    rng = np.random.default_rng(40)
    for n in range(1, 6):
        for _ in range(200):
            yield n, [make_constraint([int(a) for a in rng.integers(-3, 4, size=n)],
                                      int(rng.integers(-3, 4)), bool(rng.random() < 0.4))
                      for _ in range(int(rng.integers(1, 2 * n + 3)))]
    for rows, _ in CAP_GAP_SYSTEMS:
        yield 3, [make_constraint(c, b, s) for c, b, s in rows]


# sha256 of every verdict of the corpus (flag, witness as numerator and
# denominator pairs, contradiction text), recorded before the elimination
# loop was fused; any change to a verdict changes it.
VERDICT_DIGEST = "5ab786de34b7a90e055e1e3f332e625eb701e664c07e5918a4e7f69ade4b61b0"


def test_elimination_verdicts_are_pinned():
    h = hashlib.sha256()
    refuted = 0
    for n, rows in _seeded_systems():
        v = check_system(rows, n)
        refuted += not v.feasible
        w = None if v.witness is None else [(x.numerator, x.denominator) for x in v.witness]
        h.update(repr((v.feasible, w, v.contradiction)).encode())
    assert 0 < refuted < 3002
    assert h.hexdigest() == VERDICT_DIGEST


def test_enumerate_chambers_single_line():
    rows = [([1.0, 0.0], 0.0)]
    out = enumerate_chambers(weak(rows), 2)
    assert set(out) == {"+", "-"}
    assert out["+"][0][0] >= 0 and out["-"][0][0] < 0


def test_enumerate_chambers_crossing_lines():
    rows = [([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)]
    out = enumerate_chambers(weak(rows), 2)
    assert set(out) == {"++", "+-", "-+", "--"}


def test_enumerate_chambers_parallel_shifted():
    # x >= 0 and x >= 1 leave only three of four patterns realizable
    rows = [([1.0], 0.0), ([1.0], -1.0)]
    out = enumerate_chambers(weak(rows), 1)
    assert set(out) == {"++", "+-", "--"}


def test_enumerate_chambers_opposed_rows_keep_boundary():
    # rows l and -l: (+,+) is the measure-zero slice l == 0
    rows = [([1.0], 0.0), ([-1.0], 0.0)]
    out = enumerate_chambers(weak(rows), 1)
    assert set(out) == {"++", "+-", "-+"}
    assert out["++"][0] == (Fraction(0),)


def test_enumerate_chambers_respects_base_region():
    base = [make_constraint([1.0], -2.0, strict=False)]  # x >= 2
    rows = [([1.0], 0.0)]  # x >= 0 is forced
    out = enumerate_chambers(weak(rows), 1, base=base)
    assert set(out) == {"+"}


def test_constant_row_takes_its_offset_sign_without_elimination(monkeypatch):
    calls = []
    real = logifold.feasibility.find_witness
    monkeypatch.setattr(logifold.feasibility, "find_witness",
                        lambda *a: calls.append(a) or real(*a))
    # 0 >= 0 follows the + side, like a point on a guard's hyperplane
    rows = [([0.0, 0.0], 1.0), ([0.0, 0.0], -2.0), ([0.0, 0.0], 0.0), ([1.0, 0.0], 0.0)]
    out = enumerate_chambers(weak(rows), 2, base_witness=(Fraction(1), Fraction(0)))
    assert set(out) == {"+-++", "+-+-"}
    # the "-" side of x >= 0 is witnessed by the crossing point (-1, 0)
    assert len(calls) == 0


def test_opposed_parallel_rows_refute_without_elimination(monkeypatch):
    calls = []
    real = logifold.feasibility.find_witness
    monkeypatch.setattr(logifold.feasibility, "find_witness",
                        lambda *a: calls.append(a) or real(*a))
    # a (row, -row) guard: after "-" on x, the "-" side of -x means x < 0 < x
    out = enumerate_chambers(weak([([1.0], 0.0), ([-1.0], 0.0)]), 1,
                             base_witness=(Fraction(1),))
    assert set(out) == {"++", "+-", "-+"}
    # the "-" side of x and the "+" side of -x (it meets x >= 0 at 0) are
    # witnessed by crossing points, -1 and 0, that hold every row
    assert len(calls) == 0
    calls.clear()
    # a base row x >= 2 excludes x - 1 < 0 and 2x - 3 < 0 outright
    base = [make_constraint([1], -2, strict=False)]
    out = enumerate_chambers(weak([([1.0], -1.0), ([2.0], -3.0)]), 1, base=base,
                             base_witness=(Fraction(3),))
    assert set(out) == {"++"} and calls == []


def counted(monkeypatch):
    """The `find_witness` calls and `_refutes` verdicts of what follows."""
    calls, verdicts = [], []
    real, refutes = logifold.feasibility.find_witness, logifold.feasibility._refutes
    monkeypatch.setattr(logifold.feasibility, "find_witness",
                        lambda *a: calls.append(a) or real(*a))
    monkeypatch.setattr(logifold.feasibility, "_refutes",
                        lambda *a: verdicts.append(refutes(*a)) or verdicts[-1])
    return calls, verdicts


def test_a_blocked_crossing_turns_once_along_the_blocking_row(monkeypatch):
    calls, verdicts = counted(monkeypatch)
    x_past_1, origin = weak([([1.0, 0.0], -1.0)]), (Fraction(0), Fraction(0))
    # from the origin the normal of x - 1 >= 0 leaves the base 2y - 2x + 1 >= 0
    # at x = 1/2; along that row's line (t, t) the crossing lies at t = 1
    base = [make_constraint([-2, 2], 1, strict=False)]
    out = enumerate_chambers(x_past_1, 2, base=base, base_witness=origin)
    assert set(out) == {"+", "-"} and calls == [] and verdicts == []
    # 5x - 10y + 4 >= 0 blocks that line too, at t = 4/5, yet the chamber
    # holds (1, 1/2): the multipliers of the two blocking rows and the new
    # row, (10, 10, 2), sum to the constant row 8 >= 0, so they refute
    # nothing and elimination runs
    base.append(make_constraint([5, -10], 4, strict=False))
    out = enumerate_chambers(x_past_1, 2, base=base, base_witness=origin)
    assert set(out) == {"+", "-"} and len(calls) == 1 and verdicts == [False]
    w, system = out["+"]
    assert all(exact_value(c, w) >= 0 for c in system)


# Walks from the origin blocked by base rows that, with the new row, are
# contradictory: the new row's normal is a positive combination of the base
# rows' outward normals, and the row is negative (or, against strict base
# rows, zero) at their corner.  The 3-d wedge x <= 1 - |y| ends the walk
# after two blocking rows, since their normals span the new row's.  The last
# case splits the 2-d wedge by y >= 0 after x >= 2 is refuted; neither side
# needs elimination.
CORNERED = [
    (2, [((-1, -1), 1, False), ((-1, 1), 1, False)], [((1.0, 0.0), -2.0)], {"-"}),
    (2, [((-1, -1), 1, True), ((-1, 1), 1, True)], [((1.0, 0.0), -1.0)], {"-"}),
    (2, [((-1, 3), 2, False), ((-2, -1), 3, False)], [((3.0, -2.0), -6.0)], {"-"}),
    (3, [((-1, 1, 0), 1, False), ((-1, -1, 1), 1, False), ((-1, 0, -1), 1, False)],
     [((1.0, 0.0, 0.0), -2.0)], {"-"}),
    (3, [((-1, 1, 0), 1, True), ((-1, -1, 1), 1, False), ((-1, 0, -1), 1, True)],
     [((1.0, 0.0, 0.0), -1.0)], {"-"}),
    (3, [((-1, -1, 0), 1, False), ((-1, 1, 0), 1, False)], [((1.0, 0.0, 0.0), -2.0)], {"-"}),
    (2, [((-1, -1), 1, False), ((-1, 1), 1, False)],
     [((1.0, 0.0), -2.0), ((0.0, 1.0), 0.0)], {"-+", "--"}),
]


@pytest.mark.parametrize("n, base_rows, rows, want", CORNERED)
def test_a_walk_blocked_by_n_rows_refutes_without_elimination(monkeypatch, n, base_rows,
                                                               rows, want):
    calls, verdicts = counted(monkeypatch)
    base = [make_constraint(c, b, s) for c, b, s in base_rows]
    out = enumerate_chambers(weak(rows), n, base=base, base_witness=(Fraction(0),) * n)
    assert set(out) == want and calls == [] and verdicts == [True]
    assert _brute_force_chambers(rows, n, base) == want


def _certificate_systems(n):
    """2 to n + 1 integer rows in n dimensions, as a walk blocked by 1 to n
    rows gives them to `_multipliers`, weak or strict, some of them
    multiples of an earlier row's coefficients (parallel, or opposed; an
    opposed weak row with the negated offset makes the set flat), so
    minors are often zero.  The last row may close the system: minus a
    nonnegative combination of the others, shifted down by 0 or 1; the
    free rows of a closed system lean on their own axis, so that its
    minors are seldom all zero."""
    row = st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    st.integers(-3, 3), st.booleans())
    kind = st.tuples(st.integers(1, 2), st.sampled_from(
        ["free", "free", "free", "parallel", "opposed", "flat"]))
    closing = st.one_of(st.just(None), st.tuples(
        st.lists(st.integers(0, 2), min_size=n, max_size=n), st.integers(0, 1)))
    return st.integers(1, n).flatmap(lambda k: st.tuples(
        st.just(n), st.lists(st.tuples(row, kind), min_size=k + 1, max_size=k + 1), closing))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(_certificate_systems))
def test_multipliers_refute_only_infeasible_systems_and_check_in_integers(case):
    n, drawn, closing = case
    rows = []
    for i, ((coeffs, offset, strict), (k, how)) in enumerate(drawn):
        if closing is not None and i < n:
            coeffs = [a + 10 * (j == i) for j, a in enumerate(coeffs)]
        if how != "free" and rows:
            c = rows[k % len(rows)]
            sign = 1 if how == "parallel" else -1
            coeffs = [sign * k * a for a in c.coeffs]
            if how == "flat":
                offset, strict = -k * c.offset, False
        rows.append(Constraint(tuple(coeffs), offset, strict))
    if closing is not None:
        lams, shift = closing
        rest = rows[:-1]
        rows[-1] = Constraint(tuple(-sum(lam * r.coeffs[j] for lam, r in zip(lams, rest))
                                    for j in range(n)),
                              -sum(lam * r.offset for lam, r in zip(lams, rest)) - shift,
                              rows[-1].strict)
    y = _multipliers(rows)
    if len(rows) == n + 1:  # the signed n x n minors always cancel the coefficients
        assert all(sum(v * r.coeffs[j] for v, r in zip(y, rows)) == 0 for j in range(n))
    if _refutes(rows, y):
        assert all(v >= 0 for v in y) and any(y)
        t = sum(v * r.offset for v, r in zip(y, rows))
        assert t < 0 or (t == 0 and any(v > 0 and r.strict for v, r in zip(y, rows)))
        assert not check_system(rows, n).feasible
    for i, r in enumerate(rows):
        if any(r.coeffs):  # a planted wrong multiplier leaves a nonzero coefficient
            wrong = list(y)
            wrong[i] += 1
            assert not _refutes(rows, wrong)


@pytest.mark.parametrize("rows, y, refuted", [
    ([((1,), -1, False), ((-1,), 0, False)], [1, 1], True),  # x >= 1, x <= 0
    ([((1,), 0, True), ((-1,), 0, False)], [1, 1], True),  # x > 0, x <= 0
    ([((1,), 0, False), ((-1,), 0, False)], [1, 1], False),  # x >= 0, x <= 0 meet at 0
    ([((1, 0), -2, False), ((-1, -1), 1, False), ((-1, 1), 1, False)], [2, 1, 1], True),
    # two blocking rows in 3-d: the minors of the first two columns
    ([((1, 0, 0), -2, False), ((-1, -1, 0), 1, False), ((-1, 1, 0), 1, False)], [2, 1, 1],
     True),
    # x >= 1 and y <= 0 in 2-d are feasible; the minors of one column refute
    # nothing, since the other column does not cancel
    ([((1, 0), -1, False), ((0, -1), 0, False)], [0, 1], False),
])
def test_a_certificate_is_the_signed_minors(rows, y, refuted):
    cs = [Constraint(c, b, s) for c, b, s in rows]
    assert _multipliers(cs) == y and _refutes(cs, y) == refuted
    assert not _refutes(cs, [0] * len(y))
    assert not _refutes(cs, [-v for v in y])


def _brute_force_chambers(rows, n, base):
    """The sign vectors of `rows` whose chamber systems are feasible."""
    want = set()
    for k in range(2 ** len(rows)):
        signs = "".join("-" if k >> i & 1 else "+" for i in range(len(rows)))
        system = list(base)
        for s, (c, b) in zip(signs, rows):
            if s == "+":
                system.append(make_constraint(c, b, strict=False))
            else:
                system.append(make_constraint([-a for a in c], -b, strict=True))
        if check_system(system, n).feasible:
            want.add(signs)
    return want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       st.integers(-3, 3)), min_size=1, max_size=4),
    st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       st.integers(-3, 3), st.booleans()), max_size=4),
    st.lists(st.integers(-6, 6), min_size=n, max_size=n),
    st.sampled_from(["inside", "on a row", "far", "thin", "flat", "cornered"]))))
def test_chambers_from_a_given_witness_are_exactly_the_feasible_sign_vectors(case):
    """Walks start from `base_witness`.  From a witness on a row's
    hyperplane, far out, in a thin or flat base, or a hair inside every base
    row, where most walks are blocked more than once, the chambers must be
    the brute-force set and every witness must hold its system in
    Fractions."""
    n, rows, base_rows, point, where = case
    w0 = tuple(Fraction(v, 2) for v in point)
    row = next(((c, b) for c, b in rows if any(c)), None)
    if where == "on a row" and row is not None:
        c, b = row  # move w0 along c onto c . x + b = 0
        t = (b + sum(a * v for a, v in zip(c, w0))) / sum(a * a for a in c)
        w0 = tuple(v - t * a for v, a in zip(w0, c))
    elif where == "far":
        w0 = tuple(v * 10**6 + 1 for v in w0)

    def through(coeffs, strict, value):
        """The row with these coefficients whose value at w0 is `value`."""
        return make_constraint(coeffs, value - sum(a * v for a, v in zip(coeffs, w0)), strict)

    base = []
    for coeffs, offset, strict in base_rows:
        c = make_constraint(coeffs, offset, strict)
        v = exact_value(c, w0)
        if where in ("thin", "flat") and any(coeffs):
            # a slab 1/1000 wide, or a hyperplane, with w0 on its lower face
            width = Fraction(1, 1000) if where == "thin" else 0
            base += [through(coeffs, False, 0), through([-a for a in coeffs], False, width)]
        elif where == "cornered":
            base.append(through(coeffs, strict, Fraction(1, 100)))
        elif v < 0 or (v == 0 and strict):
            base.append(through(coeffs, strict, 1 if strict else 0))
        else:
            base.append(c)
    assert all(satisfies(c, w0) for c in base)
    out = enumerate_chambers(weak(rows), n, base=base, base_witness=w0)
    assert set(out) == _brute_force_chambers(rows, n, base)
    for signs, (w, system) in out.items():
        assert len(w) == n and all(isinstance(v, Fraction) for v in w)
        assert all(exact_value(c, w) > 0 if c.strict else exact_value(c, w) >= 0
                   for c in system)


small_rows = st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                                st.integers(-2, 2)), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(small_rows, st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=2, max_size=2),
                                      st.integers(-2, 2), st.booleans()), max_size=2))
def test_chambers_are_exactly_the_feasible_sign_vectors(rows, base_rows):
    # small integer rows are often parallel, so opposed pairs are common
    base = [make_constraint(c, b, s) for c, b, s in base_rows]
    out = enumerate_chambers(weak(rows), 2, base=base)
    assert set(out) == _brute_force_chambers(rows, 2, base)
    for signs, (w, system) in out.items():
        assert all(exact_value(c, w) > 0 if c.strict else exact_value(c, w) >= 0
                   for c in system)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
              st.integers(-4, 4), st.booleans()),
    min_size=1, max_size=8))))
def test_witnesses_hold_in_fraction_arithmetic(case):
    n, rows = case
    cs = [make_constraint(c, b, s) for c, b, s in rows]
    verdict = check_system(cs, n)
    assert find_witness(cs, n) == verdict.witness
    if verdict.feasible:
        assert verdict.contradiction is None and len(verdict.witness) == n
        assert all(isinstance(v, Fraction) for v in verdict.witness)
        for c in cs:
            v = exact_value(c, verdict.witness)
            assert v > 0 if c.strict else v >= 0
    else:
        assert verdict.witness is None
        assert "derived constant row" in verdict.contradiction


def test_chamber_witnesses_satisfy_their_signs():
    rng = np.random.default_rng(5)
    rows = [(rng.normal(size=3).tolist(), float(rng.normal())) for _ in range(4)]
    out = enumerate_chambers(weak(rows), 3)
    assert out
    for signs, (w, _) in out.items():
        for s, (c, b) in zip(signs, rows):
            v = evaluate_constraint(make_constraint(c, b, False), w)
            assert (v >= 0) if s == "+" else (v < 0)
