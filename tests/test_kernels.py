"""Exact numeric kernels: integer nullspace, simplex, max-flow/min-cut."""

import random
from fractions import Fraction as F
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import smp.iteration
import smp.simplex
from smp.flow import FlowNetwork, min_cut
from smp.iteration import solve_xmin
from smp.linalg import integer_nullspace
from smp.model import vertex_load
from smp.simplex import LinearProgram, LPResult, simplex_maximize

from gen import rand_marriage
from test_acceptance import sap_pool, sdp_pool, smp_pool


# --- integer nullspace ------------------------------------------------------


def dense_nullspace(matrix, n):
    """Reference: dense Gauss-Jordan elimination on Fractions.

    Pivots on the first remaining row with a nonzero in each column and
    completes each free column's unit vector through the reduced rows, then
    scales it to integers with gcd 1 and first nonzero entry positive.  The
    result must equal `integer_nullspace`'s on the rows scaled to integers,
    since the reduced row echelon form is unique.
    """
    m = len(matrix)
    rows = [[F(v) for v in row] for row in matrix]
    pivot_cols = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    basis = []
    for fc in range(n):
        if fc in pivot_cols:
            continue
        vec = [F(0)] * n
        vec[fc] = F(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -rows[i][fc]
        scale = lcm(*(v.denominator for v in vec))
        ints = [int(v * scale) for v in vec]
        g = gcd(*ints)
        sign = 1 if next(v for v in ints if v) > 0 else -1
        basis.append([sign * v // g for v in ints])
    return basis


def integer_rows(matrix):
    """Each rational row scaled by the lcm of its denominators, as {column: int}."""
    out = []
    for row in matrix:
        scale = lcm(*(v.denominator for v in row))
        out.append({c: int(v * scale) for c, v in enumerate(row) if v})
    return out


def _in_kernel(rows, vec):
    return all(sum(a * vec[c] for c, a in row.items()) == 0 for row in rows)


# small signed rationals, zero-heavy so that rows are sparse
entries = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
)


@st.composite
def rational_systems(draw):
    """Wide, tall and square matrices with zero, duplicate and dependent rows."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combo"]))
        if kind == "zero":
            row = [F(0)] * n
        elif kind == "copy" and rows:
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combo" and rows:
            s, t = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(entries), draw(entries)
            row = [a * u + b * v for u, v in zip(s, t)]
        else:
            row = draw(st.lists(entries, min_size=n, max_size=n))
        rows.append(row)
    return rows, n


@settings(max_examples=500, deadline=None)
@given(rational_systems())
def test_integer_nullspace_matches_dense_reference(system):
    matrix, n = system
    rows = integer_rows(matrix)
    basis = integer_nullspace(rows, n)
    assert basis == dense_nullspace(matrix, n)
    assert all(_in_kernel(rows, vec) for vec in basis)
    assert rows == integer_rows(matrix)  # the input is left as it was


def test_gaussian_one_dimensional_nullspace_is_normalized():
    # 3x - 2y = 0 has kernel spanned by (2, 3)
    assert integer_nullspace([{0: 3, 1: -2}], 2) == [[2, 3]]
    # first nonzero entry positive, gcd 1
    assert integer_nullspace([{0: -3, 1: -6}], 2) == [[2, -1]]
    # x = -(3/2) y: the pivot's reduced denominator scales the vector to (-3, 2)
    assert integer_nullspace([{0: 4, 1: 6}], 2) == [[3, -2]]
    # a leading zero entry
    assert integer_nullspace([{0: 5}], 2) == [[0, 1]]


def test_gaussian_nullspace_vectors_lie_in_kernel():
    rows = [{0: 2, 1: 4, 2: 3}, {1: 3, 2: 1, 3: 2}]
    basis = integer_nullspace(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        assert _in_kernel(rows, vec)
    # one vector per free column, in column order
    assert integer_nullspace([{0: 5}], 3) == [[0, 1, 0], [0, 0, 1]]
    # a full-rank square system has only the zero solution
    assert integer_nullspace([{0: 2, 1: 1}, {0: 1, 1: -1}], 2) == []


# --- simplex ----------------------------------------------------------------


def test_simplex_box_optimum():
    lp = LinearProgram(objective=[1, 1], a_le=[[1, 0], [0, 1]], b_le=[F(2), F(3)])
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.value == F(5)
    assert res.solution == [F(2), F(3)]


def test_simplex_fractional_optimum():
    # max 3x + 2y  s.t.  x + y <= 4,  x - y <= 1/2: both rows tight
    lp = LinearProgram(objective=[3, 2], a_le=[[1, 1], [1, -1]], b_le=[F(4), F(1, 2)])
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.value == F(3) * F(9, 4) + F(2) * F(7, 4)
    assert res.solution == [F(9, 4), F(7, 4)]


def test_simplex_unbounded():
    lp = LinearProgram(objective=[1, 0], a_le=[[0, 1]], b_le=[F(1)])
    assert simplex_maximize(lp).status == "unbounded"


@pytest.mark.parametrize(
    "a_le, b_le",
    [
        ([[-1]], [F(-2)]),  # x >= 2 written as -x <= -2
        ([[0, 2]], [F(-1)]),  # a single-variable row
        ([[1, 0], [0, 0]], [F(1), F(-1)]),  # an all-zero row
    ],
    ids=["negative-coefficient", "single-variable", "all-zero"],
)
def test_simplex_rejects_negative_rhs(a_le, b_le):
    # x = 0 must be feasible: the tableau starts from the slack basis
    lp = LinearProgram(objective=[1] * len(a_le[0]), a_le=a_le, b_le=b_le)
    with pytest.raises(ValueError, match="negative right-hand side"):
        simplex_maximize(lp)


def test_simplex_all_zero_row_with_zero_rhs_is_void():
    lp = LinearProgram(objective=[1], a_le=[[1], [0]], b_le=[F(1), F(0)])
    assert simplex_maximize(lp).solution == [F(1)]


def test_simplex_zero_bound_fixes_variable_at_zero():
    # x0 <= 0 fixes x0; without it the optimum would put everything on x0
    lp = LinearProgram(objective=[2, 1], a_le=[[1, 0], [1, 1]], b_le=[F(0), F(3)])
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.solution == [F(0), F(3)]
    assert res.value == F(3)


def test_simplex_tightest_duplicate_bound_wins():
    lp = LinearProgram(
        objective=[1], a_le=[[1], [2], [1], [3]], b_le=[F(5), F(4), F(3), F(9)]
    )
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.solution == [F(2)]


def dense_two_phase_simplex(lp):
    """Reference: the dense two-phase simplex with one artificial per row.

    Every row keeps its own slack and artificial column, pivots rewrite whole
    rows, and Bland's rule picks the entering column and leaving row.  It
    takes `<=` and `==` rows of any sign (`lp.a_eq`, `lp.b_eq`).  The optimal
    value must equal `simplex_maximize`'s; on the aggregation LPs the solver
    builds, so must the optimal vertex (see `full_aggregation_lp`).
    """

    def pivot(tableau, basis, row, col):
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for i, r in enumerate(tableau):
            if i != row and r[col] != 0:
                f = r[col]
                tableau[i] = [a - f * b for a, b in zip(r, tableau[row])]
        basis[row] = col

    def optimize(tableau, basis, ncols):
        obj = len(tableau) - 1
        while True:
            col = next((j for j in range(ncols) if tableau[obj][j] > 0), None)
            if col is None:
                return "optimal"
            best = None
            for i in range(obj):
                if tableau[i][col] > 0:
                    key = (tableau[i][-1] / tableau[i][col], basis[i], i)
                    if best is None or key < best:
                        best = key
            if best is None:
                return "unbounded"
            pivot(tableau, basis, best[2], col)

    n = len(lp.objective)
    rows, kinds = [], []
    for a, b in zip(lp.a_le, lp.b_le):
        rows.append([F(v) for v in a] + [F(b)])
        kinds.append("le")
    for a, b in zip(getattr(lp, "a_eq", []), getattr(lp, "b_eq", [])):
        rows.append([F(v) for v in a] + [F(b)])
        kinds.append("eq")
    m = len(rows)
    for i in range(m):
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
            if kinds[i] == "le":
                kinds[i] = "ge"
    nslack = sum(1 for k in kinds if k != "eq")
    ncols = n + nslack + m
    tableau, basis = [], []
    sidx = n
    for i in range(m):
        row = rows[i][:-1] + [F(0)] * (nslack + m) + [rows[i][-1]]
        if kinds[i] != "eq":
            row[sidx] = F(1) if kinds[i] == "le" else F(-1)
            sidx += 1
        row[n + nslack + i] = F(1)
        basis.append(n + nslack + i)
        tableau.append(row)
    phase1 = [F(0)] * (ncols + 1)
    for i in range(m):
        phase1 = [a + b for a, b in zip(phase1, tableau[i])]
    phase1 = [v if j < n + nslack else F(0) for j, v in enumerate(phase1[:-1])] + [phase1[-1]]
    tableau.append(phase1)
    optimize(tableau, basis, n + nslack)
    if tableau[-1][-1] != 0:
        return LPResult(status="infeasible")
    tableau.pop()
    for i in range(m):
        if basis[i] >= n + nslack:
            col = next((j for j in range(n + nslack) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(tableau, basis, i, col)
    obj = [F(c) for c in lp.objective] + [F(0)] * (nslack + m + 1)
    for i in range(m):
        if basis[i] < n and obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [a - f * b for a, b in zip(obj, tableau[i])]
    tableau.append(obj)
    if optimize(tableau, basis, n + nslack) == "unbounded":
        return LPResult(status="unbounded")
    solution = [F(0)] * n
    for i in range(m):
        if basis[i] < n:
            solution[basis[i]] = tableau[i][-1]
    value = sum((c * v for c, v in zip(lp.objective, solution)), F(0))
    return LPResult(status="optimal", value=value, solution=solution)


@st.composite
def linear_programs(draw):
    """Small integer LPs with b >= 0: bound rows (single-variable, duplicate, zero) and mixed signs."""
    n = draw(st.integers(1, 6))
    coefficients = st.one_of(st.just(0), st.integers(-6, 6))
    rhs = st.one_of(
        st.just(F(0)), st.integers(1, 4).map(F), st.builds(F, st.integers(1, 9), st.integers(1, 4))
    )
    a_le, b_le = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "single", "single", "zero", "copy", "all-zero"]))
        if kind == "copy" and a_le:
            row = list(draw(st.sampled_from(a_le)))
        elif kind == "all-zero":
            row = [0] * n
        elif kind in ("single", "zero"):
            row = [0] * n
            row[draw(st.integers(0, n - 1))] = draw(
                st.integers(1, 4) if kind == "zero" else coefficients
            )
        else:
            row = draw(st.lists(coefficients, min_size=n, max_size=n))
        a_le.append(row)
        b_le.append(F(0) if kind == "zero" else draw(rhs))
    objective = draw(st.lists(coefficients, min_size=n, max_size=n))
    return LinearProgram(objective=objective, a_le=a_le, b_le=b_le)


def _dot(row, x):
    return sum((a * v for a, v in zip(row, x)), F(0))


@settings(max_examples=400, deadline=None)
@given(linear_programs())
def test_simplex_matches_dense_reference(lp):
    res = simplex_maximize(lp)
    ref = dense_two_phase_simplex(lp)
    assert (res.status, res.value) == (ref.status, ref.value)
    if res.status == "optimal":
        x = res.solution
        assert len(x) == len(lp.objective) and all(v >= 0 for v in x)
        assert all(_dot(a, x) <= b for a, b in zip(lp.a_le, lp.b_le))
        assert _dot(lp.objective, x) == res.value


def full_aggregation_lp(inst, state):
    """Reference: the aggregation LP with a ψ_w column and a balance row per worker.

    Columns are the fully filled firms' raises φ_f, then the fully filled
    workers' cuts ψ_w, both in sorted order.  Each worker's balance
    |H_w|·ψ_w = Σ φ_f over the raises into w is an equality row, so the LP
    needs phase 1; `_build_big_lp` substitutes it out.
    """
    y, outcomes = state.y, state.outcomes
    edge = inst.edge_by_id
    firms = sorted(state.fully_firms)
    workers = sorted(state.fully_workers)
    fh = {f: outcomes[f].head for f in firms}
    wh = {w: outcomes[w].head for w in workers}
    height = {w: y[next(iter(wh[w]))] for w in workers}
    var = {v: i for i, v in enumerate(firms + workers)}
    n = len(var)
    lp = SimpleNamespace(objective=[F(0)] * n, a_le=[], b_le=[], a_eq=[], b_eq=[])
    for f in firms:
        lp.objective[var[f]] = F(len(fh[f]))

    def row(*terms):
        r = [F(0)] * n
        for v, a in terms:
            r[var[v]] += a
        return r

    def raises_into(w):
        return [edge[e].firm for e in inst.incident[w] if edge[e].firm in fh and e in fh[edge[e].firm]]

    for w in workers:
        lp.a_eq.append(row((w, len(wh[w])), *((f, -1) for f in raises_into(w))))
        lp.b_eq.append(F(0))
    for w in workers:
        lp.a_le.append(row((w, 1)))
        lp.b_le.append(height[w])
    for f in firms:
        r = row((f, len(fh[f])))
        for e in smp.iteration._reduced_edges(inst, state.bounds, f):
            w = edge[e].worker
            if w in wh and e in wh[w]:
                r[var[w]] -= 1
        lp.a_le.append(r)
        lp.b_le.append(inst.quota[f] - vertex_load(inst, y, f))
    for f in firms:
        for e in fh[f]:
            lp.a_le.append(row((f, 1)))
            lp.b_le.append(edge[e].capacity - y[e])
    for w in workers:
        for e in inst.corteges[w][outcomes[w].critical_tie]:
            if e not in wh[w]:
                f = edge[e].firm
                lp.a_le.append(row((w, 1), *([(f, 1)] if f in fh and e in fh[f] else [])))
                lp.b_le.append(height[w] - y[e])
    for f in firms:
        for e in fh[f]:
            w = edge[e].worker
            if w in wh and (e in wh[w] or inst.tie_index[(w, e)] > outcomes[w].critical_tie):
                lp.a_le.append(row((f, 1)))
                lp.b_le.append(F(0))
                break
    for w in inst.workers:
        if w not in state.fully_workers:
            lp.a_le.append(row(*((f, 1) for f in raises_into(w))))
            lp.b_le.append(inst.quota[w] - vertex_load(inst, y, w))
    return lp, firms, workers


def test_simplex_matches_dense_reference_on_aggregation_lps(monkeypatch):
    """Every aggregation LP gets the full LP's (φ, ψ) from the dense reference.

    `smp solve --trace` prints the aggregated point, so the optimal vertex,
    not only the optimal value, must be the one the dense two-phase solver
    picks on the LP with a ψ_w column and balance row per worker.  ψ is read
    off the new y on the workers' heads, where `_big_iteration` recovers it.
    """
    seen, results = [], []
    pivots = [0]
    real_big, real_simplex, real_pivot = (
        smp.iteration._big_iteration, smp.iteration.simplex_maximize, smp.simplex._pivot
    )

    def big(inst, state):
        new = real_big(inst, state)
        seen.append((inst, state, new, results[-1]))
        return new

    def solve(lp):
        results.append(real_simplex(lp))
        return results[-1]

    def pivot(*args):
        pivots[0] += 1
        real_pivot(*args)

    monkeypatch.setattr(smp.iteration, "_big_iteration", big)
    monkeypatch.setattr(smp.iteration, "simplex_maximize", solve)
    monkeypatch.setattr(smp.simplex, "_pivot", pivot)
    for pool in (smp_pool(), sap_pool(), sdp_pool()):
        for inst in pool:
            solve_xmin(inst)
    before = (len(seen), pivots[0])
    for seed in range(40):
        solve_xmin(rand_marriage(random.Random(seed), 4, cap=2, tie_prob=0.5))
    # the full LP took 124 pivots over these 21 LPs
    assert (len(seen) - before[0], pivots[0] - before[1]) == (21, 50)
    assert len(seen) >= 30
    for inst, state, new, res in seen:
        lp, firms, workers = full_aggregation_lp(inst, state)
        ref = dense_two_phase_simplex(lp)
        assert res.status == ref.status == "optimal" and res.value == ref.value
        assert res.solution == ref.solution[: len(firms)]
        for w, psi in zip(workers, ref.solution[len(firms):]):
            assert all(state.y[e] - new.y[e] == psi for e in state.outcomes[w].head)


# --- max-flow / min-cut -----------------------------------------------------


def test_min_cut_classic_diamond():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(3))
    net.add_edge("s", "b", F(2))
    net.add_edge("a", "t", F(2))
    net.add_edge("b", "t", F(3))
    net.add_edge("a", "b", F(1))
    cut = min_cut(net)
    assert cut.value == F(5)
    assert "s" in cut.source_side and "t" not in cut.source_side


def test_min_cut_fractional_capacities():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "m", F(1, 3))
    net.add_edge("m", "t", F(1, 2))
    cut = min_cut(net)
    assert cut.value == F(1, 3)
    # s->m is the bottleneck, so m is unreachable in the residual network
    assert cut.source_side == frozenset({"s"})


def test_min_cut_residual_source_side_is_minimal():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "m", F(2))
    net.add_edge("m", "t", F(1))
    cut = min_cut(net)
    assert cut.value == F(1)
    # the bottleneck is m->t, so m stays reachable from s in the residual
    assert cut.source_side == frozenset({"s", "m"})


def test_min_cut_arc_above_source_capacity_never_crosses():
    # a->b can carry more than the source sends, so no minimal cut
    # separates a from b
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(4))
    net.add_edge("a", "b", F(5))
    net.add_edge("b", "t", F(1))
    cut = min_cut(net)
    assert cut.value == F(1)
    assert cut.source_side == frozenset({"s", "a", "b"})


def test_min_cut_disconnected():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(1))
    cut = min_cut(net)
    assert cut.value == F(0)
    assert cut.source_side == frozenset({"s", "a"})


def test_parallel_edges_merge():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "t", F(1))
    net.add_edge("s", "t", F(2))
    assert min_cut(net).value == F(3)
