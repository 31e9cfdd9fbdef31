"""Exact integer nullspace, the balance solve of the rotation extraction.

A rotation is the integer generator, with gcd 1, of a homogeneous balance
system whose coefficients are small integers, so the system is given and
solved in `int`s throughout.

The systems are sparse (a handful of nonzeros per row) and their generators
grow as 4^(k-1) on chained instances, so each row is a {column: int} dict of
its nonzeros, updated by integer cross-multiplication and then divided by the
gcd of its entries (integer-preserving elimination after Bareiss, Math.
Comp. 22, 1968, with the row content as divisor instead of the previous
pivot).  Scaling a row by a nonzero constant never changes the row space, and
the reduced row echelon form of a matrix and its set of pivot columns are
unique, so dividing each final row by its pivot gives exactly the rows that
Gauss-Jordan elimination over the rationals produces, and the basis read off
them is that of the rational elimination.
"""

from __future__ import annotations

from math import gcd, lcm


def integer_nullspace(rows: list[dict[int, int]], n: int) -> list[list[int]]:
    """A basis of {x in Q^n : row · x = 0 for every row}, in integers.

    Each row maps a column to its nonzero coefficient.  There is one basis
    vector per free column, in column order: the free column's unit vector
    completed through the reduced rows, scaled to integers with gcd 1 and
    first nonzero entry positive.  The input rows are not changed.
    """
    rows = list(rows)
    m = len(rows)
    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
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
    pivots = list(zip(rows, pivot_cols))
    basis = []
    for fc in (c for c in range(n) if c not in pivot_cols):
        # x[fc] = 1 gives x[c] = -row[fc] / row[c], a fraction with reduced
        # denominator d = row[c] // gcd(row[c], row[fc]).  Scaled by the lcm L
        # of the d's, the vector has gcd 1: a prime power q^k exactly dividing
        # L divides some d, and the entry that d belongs to is then prime to q.
        scale = lcm(*(row[c] // gcd(row[c], row.get(fc, 0)) for row, c in pivots))
        vec = [0] * n
        vec[fc] = scale
        for row, c in pivots:
            vec[c] = -row.get(fc, 0) * scale // row[c]
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return basis
