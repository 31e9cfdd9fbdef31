"""Exact two-phase simplex over the rationals.

Maximizes c·x subject to a mix of <= and == constraints and x >= 0.  Bland's
smallest-index pivoting rule is used throughout, which guarantees termination
without any tolerance machinery (everything is Fraction arithmetic).

The program is solved in bounded form.  Every `<=` row with a single, positive
coefficient and a nonnegative right-hand side is an upper bound on its
variable; the tightest bound per variable becomes one slack row, and a zero
bound fixes the variable at 0 and drops its column.  All-zero rows with a
nonnegative right-hand side are dropped.  `<=` rows with a nonnegative
right-hand side start with their slack basic, so artificial columns sit only
on `==` rows and on `>=` rows (negated `<=` rows), and phase 1 runs only if
there is one.  A pivot updates each row on the pivot row's nonzero columns
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence


@dataclass
class LinearProgram:
    """max objective·x  s.t.  A_le x <= b_le,  A_eq x == b_eq,  x >= 0."""

    objective: Sequence[Fraction]
    a_le: list[Sequence[Fraction]] = field(default_factory=list)
    b_le: list[Fraction] = field(default_factory=list)
    a_eq: list[Sequence[Fraction]] = field(default_factory=list)
    b_eq: list[Fraction] = field(default_factory=list)


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Optional[Fraction] = None
    solution: Optional[list[Fraction]] = None


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    if piv != 1:
        tableau[row] = [v / piv if v else v for v in tableau[row]]
    prow = tableau[row]
    nonzero = [j for j, v in enumerate(prow) if v]
    for i, r in enumerate(tableau):
        f = r[col]
        if i != row and f:
            for j in nonzero:
                r[j] -= f * prow[j]
    basis[row] = col


def _optimize(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> str:
    """Run simplex on the tableau (last row = objective to maximize)."""
    obj = len(tableau) - 1
    while True:
        col = next((j for j in range(ncols) if tableau[obj][j] > 0), None)
        if col is None:
            return "optimal"
        best: Optional[tuple[Fraction, int, int]] = None
        for i in range(obj):
            if tableau[i][col] > 0:
                ratio = tableau[i][-1] / tableau[i][col]
                key = (ratio, basis[i], i)
                if best is None or key < best:
                    best = key
        if best is None:
            return "unbounded"
        _pivot(tableau, basis, best[2], col)


def simplex_maximize(lp: LinearProgram) -> LPResult:
    n = len(lp.objective)
    upper: list[Optional[Fraction]] = [None] * n
    rows: list[tuple[list[Fraction], Fraction, str]] = []  # (a, b, "le"|"ge"|"eq")
    for a, b in zip(lp.a_le, lp.b_le):
        a, b = [Fraction(v) for v in a], Fraction(b)
        if b < 0:
            rows.append(([-v for v in a], -b, "ge"))
            continue
        nonzero = [j for j, v in enumerate(a) if v]
        if len(nonzero) == 1 and a[nonzero[0]] > 0:
            j = nonzero[0]
            if upper[j] is None or b / a[j] < upper[j]:
                upper[j] = b / a[j]
        elif nonzero:
            rows.append((a, b, "le"))
    for a, b in zip(lp.a_eq, lp.b_eq):
        a, b = [Fraction(v) for v in a], Fraction(b)
        rows.append((a, b, "eq") if b >= 0 else ([-v for v in a], -b, "eq"))
    zero = Fraction(0)
    for j, u in enumerate(upper):
        if u:  # a finite, nonzero bound is one slack row
            a = [zero] * n
            a[j] = Fraction(1)
            rows.append((a, u, "le"))
    # structural columns: the variables not fixed at 0 by a zero bound
    cols = [j for j in range(n) if upper[j] != 0]
    nvar = len(cols)
    nslack = sum(1 for _, _, kind in rows if kind != "eq")
    nart = sum(1 for _, _, kind in rows if kind != "le")
    width = nvar + nslack + nart
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    sidx, aidx = nvar, nvar + nslack
    for a, b, kind in rows:
        row = [a[j] for j in cols] + [zero] * (width - nvar) + [b]
        if kind == "le":
            row[sidx] = Fraction(1)
            basis.append(sidx)
            sidx += 1
        else:
            if kind == "ge":
                row[sidx] = Fraction(-1)
                sidx += 1
            row[aidx] = Fraction(1)
            basis.append(aidx)
            aidx += 1
        tableau.append(row)
    m = len(tableau)
    real = nvar + nslack  # columns that may enter; artificials never re-enter
    if nart:
        # phase 1: maximize -sum(artificials)
        phase1 = [zero] * (width + 1)
        for i in range(m):
            if basis[i] >= real:
                phase1 = [p + v for p, v in zip(phase1, tableau[i])]
        phase1[real:width] = [zero] * nart
        tableau.append(phase1)
        _optimize(tableau, basis, real)
        if tableau[-1][-1] != 0:
            return LPResult(status="infeasible")
        tableau.pop()
        # drive any artificial still basic out of the basis; one whose row is
        # zero on every real column is redundant and stays basic at 0
        for i in range(m):
            if basis[i] >= real:
                col = next((j for j in range(real) if tableau[i][j] != 0), None)
                if col is not None:
                    _pivot(tableau, basis, i, col)
    # phase 2
    obj = [Fraction(lp.objective[j]) for j in cols] + [zero] * (width - nvar + 1)
    for i in range(m):
        f = obj[basis[i]] if basis[i] < nvar else 0
        if f:
            obj = [c - f * v for c, v in zip(obj, tableau[i])]
    tableau.append(obj)
    if _optimize(tableau, basis, real) == "unbounded":
        return LPResult(status="unbounded")
    solution = [zero] * n
    for i in range(m):
        if basis[i] < nvar:
            solution[cols[basis[i]]] = tableau[i][-1]
    value = sum((Fraction(c) * v for c, v in zip(lp.objective, solution)), zero)
    return LPResult(status="optimal", value=value, solution=solution)
