"""Exact feasibility of linear constraint systems over the rationals.

Constraints are affine rows ``a . x + b >= 0`` (weak) or ``> 0`` (strict) with
integer coefficients.  `read_exact` and `make_constraint` clear the
denominators of float and rational inputs exactly, so float coefficients are
handled without rounding; they are the package's only readers of a float's
exact value.  Systems and chamber splits take only integer rows; the rows
that `enumerate_chambers` splits by are weak `Constraint`s, the form in which
a guard keeps its exact rows (`graph.AffineMap.constraints`, built by
`weak_constraints`).  Every guard of the package is split through
`graph.AffineMap.chambers`, which calls `enumerate_chambers` and keeps the
result on the guard.
Verdicts are exact: a feasible system yields a rational witness, an
infeasible one yields the contradictory constant row derived by
Fourier-Motzkin elimination.  Elimination decides every system, with one
exception: `enumerate_chambers` walks from its parent region's witness
across the new row's hyperplane (`_crossing`).  It may witness a chamber by
the walk's point, once every row of the chamber's system is checked to hold
there, and it may refute a chamber by elimination or by multipliers: the
signed minors of the rows that block the walk, checked in integers
(`_refutes`) before the chamber is dropped.

The elimination kernel runs on plain integers.  A row inside it is a tuple
``(coeffs, offset, strict, ancestry)`` whose ancestry is a bitmask of the input
rows it was derived from, so Imbert's history cap reads the mask's bit count.
Each pass of `_eliminate` is one loop over the pairs of lower and upper rows
of the eliminated variable: it forms each combined row, divides it by its
gcd, keeps the tightest row per coefficients, and returns at the first
violated constant row.
Back-substitution keeps the point as integer numerators over one common
denominator: candidate bounds compare by cross-multiplication, and every input
row is checked against the point as an integer dot product before the witness
is returned.  Only the returned witness is built from `Fraction`s.
`evaluate_constraint`, `satisfies` and `satisfies_all` read every coordinate
as an exact rational, floats included, and evaluate on the same integer path;
`satisfies_all` reads a point once for all the rows it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isfinite, lcm
from numbers import Integral, Rational
from operator import mul
from typing import Optional, Sequence

from .errors import DimensionBudgetError, GuardExplosionError, NonFinitePointError

# Exact elimination beyond this ambient dimension is not supported; row counts
# grow too fast for the guarantees to stay affordable.
DIM_BUDGET = 8


@dataclass(frozen=True)
class Constraint:
    """Integer row ``coeffs . x + offset >= 0`` (or ``> 0`` when strict)."""

    coeffs: tuple
    offset: int
    strict: bool


@dataclass
class Verdict:
    """Outcome of an exact emptiness check."""

    feasible: bool
    witness: Optional[tuple]  # rational point, present iff feasible
    contradiction: Optional[str]  # derived impossible row, present iff not


def _ratio(v) -> tuple:
    """(numerator, denominator) of v read as an exact rational."""
    t = type(v)
    if t is int:
        return v, 1
    if t is Fraction:  # chamber witnesses; skips the abc checks below
        return v.numerator, v.denominator
    if isinstance(v, float):
        f = v
    elif isinstance(v, Integral):
        return int(v), 1
    elif isinstance(v, Rational):
        return int(v.numerator), int(v.denominator)
    else:
        f = float(v)
    if not isfinite(f):
        raise NonFinitePointError(f"non-finite value {f} has no exact value")
    return f.as_integer_ratio()  # exact binary expansion of the float


def _scaled(values) -> tuple:
    """(integer numerators, common denominator) of `values` read exactly."""
    ratios = [_ratio(v) for v in values]
    d = lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _value(coeffs, offset, x, d) -> int:
    """d times the row's value at the point x / d."""
    return offset * d + sum(map(mul, coeffs, x))


def read_exact(rows) -> tuple:
    """(integer rows, common denominator) of `rows`, equal-length sequences
    of int, float or rational entries, read exactly: row i is
    ``ints[i] / den``.  A float's denominator is a power of two, so float
    rows are read over a power of two.  Every float row the package reads
    exactly, a guard's or a layer's, is read here."""
    rows = [list(r) for r in rows]
    flat, den = _scaled([v for r in rows for v in r])
    k = len(rows[0]) if rows else 1
    return tuple(tuple(flat[i:i + k]) for i in range(0, len(flat), k)), den


def _primitive(ints, strict: bool) -> Constraint:
    """The integer row (a1, ..., an, b) divided by the gcd of its entries."""
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return Constraint(tuple(ints[:-1]), ints[-1], strict)


def weak_constraints(rows) -> tuple:
    """Each integer row (a1, ..., an, b) as the weak `Constraint` row >= 0."""
    return tuple([_primitive(r, False) for r in rows])


def make_constraint(coeffs: Sequence, offset, strict: bool) -> Constraint:
    """Build an integer constraint from int, float or rational data, exactly."""
    ints, _ = _scaled([*coeffs, offset])
    return _primitive(ints, strict)


def evaluate_constraint(c: Constraint, point: Sequence) -> Fraction:
    """Exact value of the row at `point`, whose coordinates are read exactly."""
    x, d = _scaled(point)
    return Fraction(_value(c.coeffs, c.offset, x, d), d)


def _holds_all(rows, x, d) -> bool:
    """Whether every row holds at the point x / d, checked in one plain loop."""
    for c in rows:
        v = c.offset * d + sum(map(mul, c.coeffs, x))
        if v < 0 or (not v and c.strict):
            return False
    return True


def satisfies(c: Constraint, point: Sequence) -> bool:
    """Exact verdict of c at `point`, whose coordinates are read exactly."""
    return _holds_all((c,), *_scaled(point))


def satisfies_all(constraints: Sequence[Constraint], point: Sequence) -> bool:
    """Whether every row of `constraints` holds at `point`, whose coordinates
    are read exactly once for all of them."""
    return _holds_all(constraints, *_scaled(point))


def _eliminate(rows, n, history_cap: bool = True):
    """Full elimination. Returns (stages, contradiction) where stages records,
    per eliminated variable, the rows that mentioned it.

    Each pass forms the rows without the eliminated variable x_j from its
    lower-bound rows P (c_j > 0) and upper N, one pair at a time, and in the
    same loop divides the row by the gcd of its entries, drops it if it is
    a satisfied constant row, ends the elimination with it if it is a
    violated one, and keeps the tightest row per coefficients.  The input
    rows enter by the same loop, each paired with the zero row.
    With `history_cap`, derived rows with more than eliminated + 1 ancestors
    are dropped (Imbert).  Every contradiction found is still a consequence
    of the input, but the cap can drop a row a refutation needs, so a
    feasible outcome must be confirmed by checking the back-substituted
    point.
    """
    P = [(r.coeffs, r.offset, r.strict, 1 << i) for i, r in enumerate(rows)]
    N = [((0,) * n, 0, False, 0)]  # no ancestry: the input pass keeps each row
    best, stages, j, cap = {}, [], None, None
    while True:
        for pc, po, ps, ph in P:
            mq = 1 if j is None else pc[j]
            for qc, qo, qs, qh in N:
                h = ph | qh
                if cap is not None and h.bit_count() > cap:
                    continue
                if qh:
                    mp = -qc[j]
                    coeffs = [mp * a + mq * b for a, b in zip(pc, qc)]
                    offset = mp * po + mq * qo
                    strict = ps or qs
                else:
                    coeffs, offset, strict = pc, po, ps
                if not any(coeffs):
                    if offset < 0 or (strict and not offset):
                        return stages, f"derived constant row {offset} {'>' if strict else '>='} 0"
                    continue
                g = gcd(*coeffs, offset)
                if g > 1:
                    coeffs = [v // g for v in coeffs]
                    offset //= g
                coeffs = tuple(coeffs)
                prev = best.get(coeffs)
                # smaller offset is the tighter bound; strict beats weak at a tie
                if prev is None or offset < prev[1] or (offset == prev[1] and strict
                                                        and not prev[2]):
                    best[coeffs] = (coeffs, offset, strict, h)
        cur = list(best.values())
        # cheapest variable first: minimize the number of combined rows
        j, least = None, None
        for k in range(n):
            p = q = 0
            for r in cur:
                a = r[0][k]
                if a > 0:
                    p += 1
                elif a:
                    q += 1
            if (p or q) and (least is None or p * q - p - q < least):
                j, least = k, p * q - p - q
        if j is None:
            return stages, None
        P, N, best = [], [], {}
        for r in cur:
            a = r[0][j]
            if a > 0:
                P.append(r)
            elif a:
                N.append(r)
            else:
                best[r[0]] = r
        stages.append((j, P + N))
        if history_cap:
            cap = len(stages) + 1


def _back_substitute(stages, n) -> tuple:
    """(numerators, denominator) of the back-substituted point.

    Bounds on x_j are kept as d * bound = num / den with den > 0, so they
    compare by cross-multiplication without building fractions.
    """
    x = [0] * n
    d = 1
    for j, rows in reversed(stages):
        lo = hi = None
        for coeffs, offset, _, _ in rows:
            cj = coeffs[j]
            rest = _value(coeffs, offset, x, d)  # x[j] is still 0
            if cj > 0:  # x_j >= -rest / cj (or >)
                if lo is None or -rest * lo[1] > lo[0] * cj:
                    lo = (-rest, cj)
            elif hi is None or rest * hi[1] < hi[0] * -cj:  # x_j <= rest / -cj (or <)
                hi = (rest, -cj)
        # the value picked for x_j, as num / den
        if lo is None and hi is None:
            continue
        if hi is None:
            num, den = lo[0] + lo[1] * d, lo[1] * d  # lo + 1
        elif lo is None:
            num, den = hi[0] - hi[1] * d, hi[1] * d  # hi - 1
        elif lo[0] * hi[1] < hi[0] * lo[1]:
            num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1] * d  # midpoint
        else:
            # elimination guarantees lo == hi with both bounds weak
            num, den = lo[0], lo[1] * d
        g = gcd(num, den)
        num, den = num // g, den // g
        grown = lcm(d, den)
        if grown != d:
            x = [v * (grown // d) for v in x]
            d = grown
        x[j] = num * (d // den)
    return x, d


def _fm_verdict(constraints, n):
    """(witness, None) or (None, contradiction) by elimination.

    The history-capped elimination runs first; its back-substituted point is
    trusted only if it satisfies every input row.  Otherwise the cap dropped
    a row the refutation needs, and the uncapped elimination decides.
    """
    rows = list(constraints)
    for history_cap in (True, False):
        stages, bad = _eliminate(rows, n, history_cap)
        if bad:
            return None, bad
        x, d = _back_substitute(stages, n)
        if _holds_all(rows, x, d):
            return tuple(Fraction(v, d) for v in x), None
    raise ArithmeticError(f"uncapped elimination back-substituted "
                          f"{tuple(Fraction(v, d) for v in x)}, which breaks an input row")


def _check_dimension(n: int):
    if n > DIM_BUDGET:
        raise DimensionBudgetError(
            f"exact feasibility supports dimension <= {DIM_BUDGET}, got {n}")


def find_witness(constraints: Sequence[Constraint], n: int) -> Optional[tuple]:
    """Exact witness of the system, or None if it is infeasible."""
    return check_system(constraints, n).witness


def check_system(constraints: Sequence[Constraint], n: int) -> Verdict:
    """Exact verdict: a witness if feasible, the elimination's contradiction if not."""
    _check_dimension(n)
    witness, bad = _fm_verdict(constraints, n)
    return Verdict(witness is not None, witness, bad)


def _opposed_refuters(entries, g: int, offset: int, strict: bool):
    """Which of `entries` exclude the row ``g u . x + offset >= 0`` (or > 0).

    Each entry (probe, sign, g2, offset2, strict2) is a row
    ``-g2 u . x + offset2 >= 0`` (or > 0), so the two bound u . x from both
    sides and one integer comparison of their offsets decides whether they
    meet.  Returns None when a base row (probe None) excludes it, else the
    (probe, sign) choices that do.
    """
    hits = []
    for probe, sign, g2, offset2, strict2 in entries:
        t = offset * g2 + offset2 * g
        if t < 0 or (t == 0 and (strict or strict2)):
            if probe is None:
                return None
            hits.append((probe, sign))
    return hits


def _step_along(system, row: Constraint, up: bool, val: int, x, d, a):
    """(point, None) or (None, blocking row): the witness x / d of `system`,
    at which `row` is val / d, moved along the integer direction `a` past
    `row`'s hyperplane, toward ``row >= 0`` if `up`, else ``row < 0``.

    Along x / d + t a / d each row changes by t times its dot product with
    a, so each row of the system that falls bounds t above, and the
    crossing bounds it below.  The step taken is twice the crossing if that
    stays below every bound, else the midpoint between the crossing and the
    nearest bound.  When the nearest bound comes first, that row blocks the
    line and no point is given.  Bounds are kept as numerator and
    denominator and compared by cross-multiplication.  (None, None) when `a`
    does not move `row` the asked way.
    """
    rate = sum(map(mul, row.coeffs, a))
    if not up:
        rate = -rate
    if rate <= 0:
        return None, None
    lo = abs(val)  # row = 0 at t = lo / rate; "-" must pass it
    hi = None
    for r in system:
        fall = -sum(map(mul, r.coeffs, a))
        if fall > 0:  # r holds up to t = rest / fall
            rest = _value(r.coeffs, r.offset, x, d)
            if hi is None or rest * hi_den < hi * fall:
                hi, hi_den, hi_strict, block = rest, fall, r.strict, r
            elif r.strict and rest * hi_den == hi * fall:
                hi_strict = True
    if hi is None:
        num, den = (2 * lo, rate) if lo else (1, 1)
    elif lo * hi_den < hi * rate:
        if lo and 3 * lo * hi_den < hi * rate:
            num, den = 2 * lo, rate
        else:
            num, den = lo * hi_den + hi * rate, 2 * rate * hi_den
    elif up and not hi_strict and lo * hi_den == hi * rate:
        num, den = lo, rate  # the region touches the hyperplane at this point
    else:
        return None, block
    point = [den * v + num * u for v, u in zip(x, a)]
    den *= d
    g = gcd(*point, den)
    return ([v // g for v in point], den // g), None


def _without(v, q, qq: int) -> tuple:
    """The integer vector `v` with its part along `q` (of square length
    `qq`) taken out, scaled by `qq` and then divided by its entries' gcd."""
    vq = sum(map(mul, v, q))
    if not vq:
        return tuple(v)
    w = [qq * u - vq * t for u, t in zip(v, q)]
    g = gcd(*w)
    return tuple([u // g for u in w]) if g > 1 else tuple(w)


def _crossing(system, row: Constraint, up: bool, val: int, x, d):
    """Walk from the witness x / d of `system` to the ``+`` (if `up`) or
    ``-`` side of `row`: (point, None) or (None, blocking rows).

    The walk moves along the row's normal past its hyperplane (reflected
    through it, or a shorter step when a row of the system is near,
    `_step_along`).  Each time a row of the system blocks the line, it turns
    and starts again from the witness, along the normal with its parts
    along the normals of every blocking row so far taken out, in integers
    (Gram-Schmidt), which keeps all their values.  Each blocking row falls
    along a line that keeps the earlier ones, so the blocking rows are
    linearly independent.  The walk ends blocked when no direction is left:
    after n blocking rows, or after k < n whose normals span the row's.
    Then the row and the k blocking rows have rank k, and `_multipliers`
    reads their multipliers.  The caller still checks every row at the
    point, and the multipliers by `_refutes`.
    """
    a = row.coeffs if up else tuple([-v for v in row.coeffs])
    direction, basis, blockers = a, [], []
    while True:
        point, block = _step_along(system, row, up, val, x, d, direction)
        if block is None:
            return point, None
        blockers.append(block)
        q = block.coeffs
        for p, pp in basis:
            q = _without(q, p, pp)
        qq = sum(map(mul, q, q))
        basis.append((q, qq))
        direction = _without(direction, q, qq)
        if not any(direction):
            return None, blockers


def _det(m) -> int:
    """Determinant of the square integer matrix `m`, by fraction-free
    (Bareiss) elimination: every division is exact."""
    m = [list(r) for r in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            i = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if i is None:
                return 0
            m[k], m[i], sign = m[i], m[k], -sign
        pivot = m[k][k]
        for i in range(k + 1, len(m)):
            mi, mik = m[i], m[i][k]
            for j in range(k + 1, len(m)):
                mi[j] = (mi[j] * pivot - mik * m[k][j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _multipliers(rows) -> list:
    """Multipliers of k + 1 rows in n >= k dimensions: the signed k x k
    minors of their coefficients, y_i = (-1)^i det(rows without row i),
    taken on the first k columns (in lexicographic order) where they are not
    all zero; for n + 1 rows, the signed n x n minors.  Then y . coefficients
    = 0 on those columns (a determinant with a repeated column), and on every
    column when the rows have rank k, since their multipliers are then
    unique up to scale.  Negated when an entry is negative, so that a
    certificate is nonnegative; all zero when every choice of columns is."""
    for cols in combinations(range(len(rows[0].coeffs)), len(rows) - 1):
        a = [[r.coeffs[j] for j in cols] for r in rows]
        y = [_det(a[:i] + a[i + 1:]) if i % 2 == 0 else -_det(a[:i] + a[i + 1:])
             for i in range(len(a))]
        if any(y):
            return [-v for v in y] if min(y) < 0 else y
    return y


def _refutes(rows, y) -> bool:
    """Whether the multipliers `y` prove the rows contradictory, checked in
    integers (Motzkin's transposition theorem): y >= 0 and y != 0, the sum
    of y_i times row i has zero coefficients, and its constant is < 0, or is
    0 with positive weight on a strict row.  A point that met every row
    would give that sum a value >= 0, and > 0 in the second case."""
    if min(y) < 0 or not any(y):
        return False
    if any(sum(map(mul, y, column)) for column in zip(*[r.coeffs for r in rows])):
        return False
    t = sum(v * r.offset for v, r in zip(y, rows))
    return t < 0 or (t == 0 and any(v and r.strict for v, r in zip(y, rows)))


def enumerate_chambers(rows, n: int, base: Sequence[Constraint] = (),
                       cap: Optional[int] = None, base_witness=None):
    """All realizable sign vectors of `rows` within the `base` system.

    rows: sequence of weak integer `Constraint`s, such as a guard's
    `AffineMap.constraints`.
    Returns {sign_string: (rational witness, system)}, where `system` is
    `base` plus the chamber's signed rows: ``+`` is the weak row >= 0, ``-``
    the negated strict row -row > 0.  A row with all-zero coefficients takes
    the sign of its offset and no other.  A sign whose row is excluded by an
    opposed parallel row of the system is dropped without elimination.
    Any other sign the current witness lacks is first tried by a walk from
    that witness (`_crossing`): if every row of the chamber's system holds
    at its point, checked as integer dot products, that point is the
    chamber's witness.  If the walk ends blocked, the signed minors of the
    blocking rows and the chamber's new row refute the chamber when they
    pass `_refutes`, checked in integers.  Otherwise elimination decides.
    Raises GuardExplosionError past `cap` chambers.
    """
    w0 = base_witness if base_witness is not None else find_witness(list(base), n)
    if w0 is None:
        return {}
    # primitive direction u -> (probe, sign, g, offset, strict) of the rows
    # g u . x + offset >= 0 (or > 0) in the system; base rows have probe None
    parallel = {}
    for c in base:
        if any(c.coeffs):
            g = gcd(*c.coeffs)
            parallel.setdefault(tuple([a // g for a in c.coeffs]), []).append(
                (None, "+", g, c.offset, c.strict))
    # per probe: its "+" and "-" rows and, per sign, the earlier probes' signs
    # that exclude it (None: a base row does; a constant probe has no entry)
    probes = []
    for idx, plus in enumerate(rows):
        minus = Constraint(tuple(-a for a in plus.coeffs), -plus.offset, True)
        refuters = {}
        if any(plus.coeffs):
            g = gcd(*plus.coeffs)
            up = tuple([a // g for a in plus.coeffs])
            down = tuple([-a for a in up])
            refuters = {"+": _opposed_refuters(parallel.get(down, ()), g, plus.offset, False),
                        "-": _opposed_refuters(parallel.get(up, ()), g, minus.offset, True)}
            parallel.setdefault(up, []).append((idx, "+", g, plus.offset, False))
            parallel.setdefault(down, []).append((idx, "-", g, minus.offset, True))
        probes.append((plus, minus, refuters))
    out = {}

    def rec(idx, system, witness, scaled, prefix):
        if idx == len(probes):
            if cap is not None and len(out) >= cap:
                raise GuardExplosionError(
                    f"more than {cap} realizable chambers for a {len(rows)}-row guard")
            if witness is None:  # a crossing point, kept as integers until now
                witness = tuple([Fraction(v, scaled[1]) for v in scaled[0]])
            out[prefix] = (witness, system)
            return
        plus, minus, refuters = probes[idx]
        val = _value(plus.coeffs, plus.offset, *scaled)
        for sign, c, free in (("+", plus, val >= 0), ("-", minus, val < 0)):
            if free:
                rec(idx + 1, system + [c], witness, scaled, prefix + sign)
                continue
            if not refuters:
                continue  # a constant takes the sign the witness already has
            hits = refuters[sign]
            if hits is None or any(prefix[j] == s for j, s in hits):
                continue  # an opposed parallel row excludes this sign
            sub = system + [c]
            point, blockers = _crossing(system, plus, sign == "+", val, *scaled)
            if point is not None and _holds_all(sub, *point):
                rec(idx + 1, sub, None, point, prefix + sign)
                continue
            if blockers is not None:
                certified = [c, *blockers]
                if _refutes(certified, _multipliers(certified)):
                    continue  # refuted by multipliers checked in integers
            w = find_witness(sub, n)
            if w is not None:
                rec(idx + 1, sub, w, _scaled(w), prefix + sign)

    rec(0, list(base), tuple(w0), _scaled(w0), "")
    return out
