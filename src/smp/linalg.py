"""Exact integer nullspace, the balance solve of the rotation extraction.

A rotation is the integer generator, with gcd 1, of a homogeneous balance
system whose coefficients are small integers, so the system is given and
solved in `int`s throughout.

The systems are sparse (a handful of nonzeros per row) and their generators
grow as 4^(k-1) on chained instances, so each row is a {column: int} dict of
its nonzeros.  Elimination (`_echelon`) brings the rows to echelon form:
for each column in turn it pivots on the remaining row that holds the column
and has the fewest nonzeros (on a tie, the one derived from the earliest
input row), and clears the column from the other remaining rows only, by
integer cross-multiplication followed by division by the gcd of the row's
entries.  Rows already used as pivots are never touched again, and the
pivot row is the shortest at hand, so the rows do not fill in: on the
chained system at k = 10 (51 columns, rows of at most 4 nonzeros) the
pivot rows hold no more nonzeros than the input rows, and the 121 row
updates leave no row with more than 6, where clearing each pivot column
from every row, the pivot rows too, makes 831 updates on rows of up to 13
nonzeros.  Which row carries a pivot does not change the result: the pivot
columns are the columns not in the span of the columns left of them, and
for each free column the nullspace holds exactly one vector that is 1 there
and 0 on every other free column.  Back-substitution completes that vector
from the last pivot row to the first, in integers: where a pivot row asks
for x[c] = -s/p, the vector is scaled by p / gcd(s, p).  The scale is thus
the lcm of the reduced denominators of the rational vector, so the integer
vector has gcd 1 (a prime power q^k exactly dividing the lcm divides some
denominator, and the entry it belongs to is then prime to q).
"""

from __future__ import annotations

from math import gcd


def _echelon(rows: list[dict[int, int]], n: int) -> list[tuple[int, dict[int, int]]]:
    """The pivot rows of `rows`, as (pivot column, row) in column order.

    Each pivot row is zero left of its pivot column.  A row that reduces to
    zero is dropped.  The input rows are not changed.
    """
    # the remaining rows by leading column: once the columns left of c are
    # cleared, the remaining rows that hold c are those that lead with it.
    # Each is held as (nonzeros, input index, row), the index being that of
    # the input row it derives from, so `min` takes the sparsest and, on a
    # tie, the earliest, and never compares two rows.
    lead: dict[int, list[tuple[int, int, dict[int, int]]]] = {}
    for i, row in enumerate(rows):
        if row:
            lead.setdefault(min(row), []).append((len(row), i, row))
    out = []
    for c in range(n):
        holders = lead.pop(c, None)
        if holders is None:
            continue
        _, pi, prow = min(holders)
        p = prow[c]
        for _, i, row in holders:
            if i == pi:
                continue
            a = row[c]
            g = gcd(p, a)
            sp, sa = p // g, a // g
            new = {col: sp * v for col, v in row.items()}
            for col, v in prow.items():
                w = new.get(col, 0) - sa * v
                if w:
                    new[col] = w
                else:
                    del new[col]
            if new:
                g = gcd(*new.values())
                if g > 1:
                    new = {col: v // g for col, v in new.items()}
                lead.setdefault(min(new), []).append((len(new), i, new))
        out.append((c, prow))
    return out


def integer_nullspace(rows: list[dict[int, int]], n: int) -> list[list[int]]:
    """A basis of {x in Q^n : row · x = 0 for every row}, in integers.

    Each row maps a column to its nonzero coefficient.  There is one basis
    vector per free column, in column order: the free column's unit vector
    completed through the pivot rows, scaled to integers with gcd 1 and
    first nonzero entry positive.  The input rows are not changed.
    """
    pivots = _echelon(rows, n)
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        vec = [0] * n
        vec[fc] = 1
        # a pivot row right of fc holds only columns that stay 0; vec[c] is
        # 0 until its own row sets it, so s sums the other columns
        for c, row in reversed(pivots):
            if c > fc:
                continue
            s = sum(v * vec[col] for col, v in row.items())
            if not s:
                continue
            p = row[c]
            g = gcd(s, p)
            q, t = p // g, -s // g
            if q < 0:
                q, t = -q, -t
            if q > 1:
                vec = [v * q for v in vec]
            vec[c] = t
        if next(v for v in vec if v) < 0:
            vec = [-v for v in vec]
        basis.append(vec)
    return basis
