"""Exact feasibility of linear constraint systems over the rationals.

Constraints are affine rows ``a . x + b >= 0`` (weak) or ``> 0`` (strict) with
integer coefficients (inputs are cleared of denominators exactly, so float
coefficients are handled without rounding).  Verdicts come from Fourier-Motzkin
elimination and are exact: a feasible system yields a rational witness, an
infeasible one yields the contradictory constant row derived by elimination.
Every back-substituted witness is checked against the input rows before it is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Iterable, Optional, Sequence

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
    # ancestor row indices during elimination; Imbert's bound prunes derived
    # rows whose history outgrows the eliminated-variable count
    hist: frozenset = frozenset()


@dataclass
class Verdict:
    """Outcome of an exact emptiness check."""

    feasible: bool
    witness: Optional[tuple]  # rational point, present iff feasible
    contradiction: Optional[str]  # derived impossible row, present iff not


def _to_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    f = float(v)
    if not isfinite(f):
        raise NonFinitePointError(f"non-finite coefficient {f} has no exact value")
    return Fraction(f)  # exact binary expansion of the float


def make_constraint(coeffs: Sequence, offset, strict: bool) -> Constraint:
    """Build an integer constraint from float/rational data, exactly."""
    fr = [_to_fraction(c) for c in coeffs]
    fb = _to_fraction(offset)
    denom = lcm(*[f.denominator for f in fr + [fb]]) if fr else fb.denominator
    ints = [int(f * denom) for f in fr]
    b = int(fb * denom)
    g = 0
    for v in ints + [b]:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
        b = b // g
    return Constraint(tuple(ints), b, strict)


def evaluate_constraint(c: Constraint, point: Sequence[Fraction]) -> Fraction:
    total = Fraction(c.offset)
    for a, x in zip(c.coeffs, point):
        if a:
            total += a * x
    return total


def satisfies(c: Constraint, point: Sequence[Fraction]) -> bool:
    v = evaluate_constraint(c, point)
    return v > 0 if c.strict else v >= 0


def _normalize(c: Constraint) -> Constraint:
    g = 0
    for v in c.coeffs:
        g = gcd(g, abs(v))
    g = gcd(g, abs(c.offset))
    if g > 1:
        return Constraint(tuple(v // g for v in c.coeffs), c.offset // g, c.strict, c.hist)
    return c


def _simplify(rows: Iterable[Constraint]):
    """Drop satisfied constants, dedupe dominated rows; catch contradictions.

    Returns (rows, contradiction_string_or_None).
    """
    best = {}
    for r in rows:
        if not any(r.coeffs):
            ok = r.offset > 0 if r.strict else r.offset >= 0
            if not ok:
                op = ">" if r.strict else ">="
                return None, f"derived constant row {r.offset} {op} 0"
            continue
        r = _normalize(r)
        key = r.coeffs
        prev = best.get(key)
        if prev is None:
            best[key] = r
        elif r.offset < prev.offset or (r.offset == prev.offset and r.strict and not prev.strict):
            # smaller offset is the tighter bound; strict beats weak at a tie
            best[key] = r
    return list(best.values()), None


def _combine(p: Constraint, q: Constraint, j: int, hist) -> Constraint:
    """Eliminate variable j from a lower-bound row p (c_j>0) and upper q (c_j<0)."""
    mp = -q.coeffs[j]
    mq = p.coeffs[j]
    coeffs = tuple(mp * a + mq * b for a, b in zip(p.coeffs, q.coeffs))
    return Constraint(coeffs, mp * p.offset + mq * q.offset, p.strict or q.strict, hist)


def _eliminate(rows, n, history_cap: bool = True):
    """Full elimination. Returns (stages, contradiction) where stages records,
    per eliminated variable, the rows that mentioned it.

    With `history_cap`, derived rows with more than eliminated + 1 ancestors
    are dropped.  Every contradiction found is still a consequence of the
    input, but the cap can drop a row a refutation needs, so a feasible
    outcome must be confirmed by checking the back-substituted point.
    """
    cur, bad = _simplify(
        Constraint(r.coeffs, r.offset, r.strict, frozenset((i,)))
        for i, r in enumerate(rows))
    if bad:
        return [], bad
    stages = []
    eliminated = 0
    while True:
        used = [j for j in range(n) if any(r.coeffs[j] for r in cur)]
        if not used:
            return stages, None
        # cheapest variable first: minimize the number of combined rows
        def cost(j):
            p = sum(1 for r in cur if r.coeffs[j] > 0)
            q = sum(1 for r in cur if r.coeffs[j] < 0)
            return p * q - p - q

        j = min(used, key=cost)
        P = [r for r in cur if r.coeffs[j] > 0]
        N = [r for r in cur if r.coeffs[j] < 0]
        Z = [r for r in cur if not r.coeffs[j]]
        stages.append((j, P + N))
        eliminated += 1
        cap = eliminated + 1  # Imbert: longer histories are redundant rows
        nxt = list(Z)
        for p in P:
            for q in N:
                h = p.hist | q.hist
                if not history_cap or len(h) <= cap:
                    nxt.append(_combine(p, q, j, h))
        cur, bad = _simplify(nxt)
        if bad:
            return stages, bad


def _back_substitute(stages, n) -> tuple:
    point = [Fraction(0)] * n
    for j, rows in reversed(stages):
        lo = hi = None
        lo_strict = hi_strict = False
        for r in rows:
            cj = r.coeffs[j]
            rest = Fraction(r.offset)
            for k, a in enumerate(r.coeffs):
                if a and k != j:
                    rest += a * point[k]
            bound = Fraction(-rest, cj)
            if cj > 0:  # x_j >= bound (or >)
                if lo is None or bound > lo or (bound == lo and r.strict):
                    lo, lo_strict = bound, r.strict
            else:  # x_j <= bound (or <)
                if hi is None or bound < hi or (bound == hi and r.strict):
                    hi, hi_strict = bound, r.strict
        if lo is None and hi is None:
            val = Fraction(0)
        elif hi is None:
            val = lo + 1
        elif lo is None:
            val = hi - 1
        elif lo < hi:
            val = (lo + hi) / 2
        else:
            # elimination guarantees lo == hi with both bounds weak
            val = lo
        point[j] = val
    return tuple(point)


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
        point = _back_substitute(stages, n)
        if all(satisfies(c, point) for c in rows):
            return point, None
    raise ArithmeticError(f"uncapped elimination back-substituted {point}, "
                          "which breaks an input row")


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


def enumerate_chambers(rows, n: int, base: Sequence[Constraint] = (),
                       cap: Optional[int] = None, base_witness=None):
    """All realizable sign vectors of `rows` within the `base` system.

    rows: sequence of (coeffs, offset) affine rows (floats accepted).
    Returns {sign_string: (rational witness, system)}, where `system` is
    `base` plus the chamber's signed rows: ``+`` is the weak row >= 0, ``-``
    the negated strict row -row > 0.  A row with all-zero coefficients takes
    the sign of its offset and no other.  Raises GuardExplosionError past
    `cap` chambers.
    """
    w0 = base_witness if base_witness is not None else find_witness(list(base), n)
    if w0 is None:
        return {}
    int_rows = [make_constraint(c, b, strict=False) for c, b in rows]  # sign probes
    out = {}

    def rec(idx, system, witness, prefix):
        if idx == len(int_rows):
            if cap is not None and len(out) >= cap:
                raise GuardExplosionError(
                    f"more than {cap} realizable chambers for a {len(rows)}-row guard")
            out[prefix] = (witness, system)
            return
        probe = int_rows[idx]
        val = evaluate_constraint(probe, witness)
        constant = not any(probe.coeffs)
        for sign in "+-":
            if sign == "+":
                c = Constraint(probe.coeffs, probe.offset, False)
                free = val >= 0
            else:
                c = Constraint(tuple(-a for a in probe.coeffs), -probe.offset, True)
                free = val < 0
            if constant and not free:
                continue  # the witness already has the only sign a constant takes
            sub = list(system) + [c]
            w = tuple(witness) if free else find_witness(sub, n)
            if w is not None:
                rec(idx + 1, sub, w, prefix + sign)

    rec(0, list(base), w0, "")
    return out
