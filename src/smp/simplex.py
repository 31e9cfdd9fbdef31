"""Exact simplex on an integer tableau, for max c·x s.t. Ax <= b, x >= 0.

A and c are integers, b is rational and nonnegative; a negative entry of b
raises `ValueError`.  Since b >= 0, x = 0 is feasible and the tableau starts
from the slack basis: there is no phase 1 and no artificial column.  Bland's
smallest-index rule picks the entering column and, among the rows that tie
in the ratio test, the smallest basic variable, which guarantees termination.

The program is solved in bounded form.  Every row with a single, positive
coefficient is an upper bound on its variable; the tightest bound per
variable becomes one slack row, and a zero bound fixes the variable at 0 and
drops its column.  All-zero rows are dropped.  Each row is scaled to integers
by the denominator of its right-hand side.

The tableau stays in integers by integer-preserving pivots (Edmonds 1967;
Bareiss 1968): it holds the true tableau times d, the previous pivot, with
d = 1 at the slack basis.  Pivoting on p = T[r][s] turns each other row i
into (p·T[i] - T[i][s]·T[r]) // d, a division that is exact, and then sets
d = p.  The ratio test compares T[i][-1] / T[i][s] by cross-multiplication.
One `Fraction` per basic variable is built at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence


@dataclass
class LinearProgram:
    """max objective·x  s.t.  a_le x <= b_le,  x >= 0,  with b_le >= 0."""

    objective: Sequence[int]
    a_le: list[Sequence[int]] = field(default_factory=list)
    b_le: list[Fraction] = field(default_factory=list)
    # always empty; perfbench/tracer.py's `_lp_counts` still reads it
    a_eq: list = field(default_factory=list)


@dataclass
class LPResult:
    status: str  # "optimal" | "unbounded"
    value: Optional[Fraction] = None
    solution: Optional[list[Fraction]] = None


def _pivot(tableau: list[list[int]], r: int, col: int, d: int) -> None:
    """Pivot on tableau[r][col] > 0, where d is the previous pivot."""
    prow = tableau[r]
    p = prow[col]
    for i, row in enumerate(tableau):
        if i != r:
            f = row[col]
            if f:
                tableau[i] = [(p * v - f * w) // d for v, w in zip(row, prow)]
            elif p != d:
                tableau[i] = [p * v // d for v in row]


def simplex_maximize(lp: LinearProgram) -> LPResult:
    n = len(lp.objective)
    upper: list[Optional[Fraction]] = [None] * n
    rows: list[tuple[list[int], int]] = []  # (a, b) scaled to integers
    for a, b in zip(lp.a_le, lp.b_le):
        if b < 0:
            raise ValueError(f"negative right-hand side {b}")
        nonzero = [j for j, v in enumerate(a) if v]
        if len(nonzero) == 1 and a[nonzero[0]] > 0:
            j = nonzero[0]
            u = Fraction(b, a[j])
            if upper[j] is None or u < upper[j]:
                upper[j] = u
        elif nonzero:
            rows.append(([v * b.denominator for v in a], b.numerator))
    for j, u in enumerate(upper):
        if u:  # a nonzero bound is one slack row
            a = [0] * n
            a[j] = u.denominator
            rows.append((a, u.numerator))
    # structural columns: the variables not fixed at 0 by a zero bound
    cols = [j for j in range(n) if upper[j] != 0]
    nvar, m = len(cols), len(rows)
    tableau = []
    for i, (a, b) in enumerate(rows):
        row = [a[j] for j in cols] + [0] * (m + 1)
        row[nvar + i] = 1
        row[-1] = b
        tableau.append(row)
    basis = list(range(nvar, nvar + m))
    obj = [lp.objective[j] for j in cols] + [0] * (m + 1)
    tableau.append(obj)
    d = 1
    while True:
        col = next((j for j in range(nvar + m) if obj[j] > 0), None)
        if col is None:
            break
        # the leaving row: least b / a over a > 0, ties to the least basic index
        r = None
        for i in range(m):
            a, b = tableau[i][col], tableau[i][-1]
            if a > 0 and (
                r is None or b * ra < rb * a or (b * ra == rb * a and basis[i] < basis[r])
            ):
                r, ra, rb = i, a, b
        if r is None:
            return LPResult(status="unbounded")
        _pivot(tableau, r, col, d)
        obj = tableau[-1]
        basis[r] = col
        d = ra
    solution = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < nvar:
            solution[cols[basis[i]]] = Fraction(tableau[i][-1], d)
    return LPResult(status="optimal", value=Fraction(-obj[-1], d), solution=solution)
