"""Exact linear algebra over the rationals.

Only what the rotation extraction needs: solve A x = rhs exactly, reporting
either a unique solution, an infeasibility certificate, or (for a
one-dimensional solution space through a particular solution) a normalized
integer nullspace generator.

The balance systems are sparse (a handful of nonzeros per row) and their
generators grow as 4^(k-1) on chained instances, so the elimination runs over
Python integers on sparse rows: each augmented row is scaled to integers once,
stored as a {column: int} dict, updated by integer cross-multiplication and
then divided by the gcd of its entries (integer-preserving elimination after
Bareiss, Math. Comp. 22, 1968, with the row content as divisor instead of the
previous pivot).  Scaling a row by a nonzero constant never changes the row
space, and the reduced row echelon form of a matrix and its set of pivot
columns are unique, so dividing each final row by its pivot gives exactly the
rows that Gauss-Jordan elimination over `Fraction`s produces.  The solution and
nullspace assembled from them are therefore identical to the `Fraction`
Gauss-Jordan result; `Fraction`s are built only for that assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence


@dataclass
class LinearSolution:
    status: str  # "unique" | "underdetermined" | "infeasible"
    solution: Optional[list[Fraction]] = None       # a particular solution
    nullspace: Optional[list[list[Fraction]]] = None  # basis of ker(A)


def _normalize_integer(vec: list[Fraction]) -> list[Fraction]:
    """Scale to integer entries with gcd 1 and first nonzero entry positive."""
    denom_lcm = 1
    for v in vec:
        if v:
            denom_lcm = denom_lcm * v.denominator // gcd(denom_lcm, v.denominator)
    ints = [int(v * denom_lcm) for v in vec]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    if g > 1:
        ints = [n // g for n in ints]
    for n in ints:
        if n != 0:
            if n < 0:
                ints = [-m for m in ints]
            break
    return [Fraction(n) for n in ints]


def _integer_row(row: Sequence[Fraction], b: Fraction) -> dict[int, int]:
    """The nonzeros of the augmented row [row | b] as integers with gcd 1.

    The right-hand side is stored under column index len(row).
    """
    entries = {c: Fraction(v) for c, v in enumerate(row) if v}
    if b:
        entries[len(row)] = Fraction(b)
    scale = lcm(*(v.denominator for v in entries.values()))
    ints = {c: v.numerator * (scale // v.denominator) for c, v in entries.items()}
    g = gcd(*ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
    return ints


def gaussian_solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> LinearSolution:
    """Solve matrix @ x = rhs exactly.

    Returns status "unique" with the solution, "infeasible" (inconsistent
    system), or "underdetermined" with a particular solution (free variables
    set to 0) and a nullspace basis.  Each nullspace basis vector is scaled to
    integers with gcd 1 and first nonzero entry positive.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [_integer_row(row, b) for row, b in zip(matrix, rhs)]
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(m):
            row = rows[i]
            a = row.get(c)
            if i == r or a is None:
                continue
            g = gcd(p, a)
            sp, sa = p // g, a // g
            new = {col: sp * v for col, v in row.items()}
            for col, v in prow.items():
                w = new.get(col, 0) - sa * v
                if w:
                    new[col] = w
                else:
                    new.pop(col, None)
            g = gcd(*new.values())
            if g > 1:
                new = {col: v // g for col, v in new.items()}
            rows[i] = new
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    if any(rows[i] for i in range(r, m)):
        return LinearSolution(status="infeasible")
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = Fraction(rows[i].get(n, 0), rows[i][c])
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if not free_cols:
        return LinearSolution(status="unique", solution=particular)
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = Fraction(-rows[i].get(fc, 0), rows[i][c])
        basis.append(_normalize_integer(vec))
    return LinearSolution(status="underdetermined", solution=particular, nullspace=basis)
