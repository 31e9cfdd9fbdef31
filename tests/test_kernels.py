"""Exact numeric kernels: Gaussian elimination, simplex, max-flow/min-cut."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from smp.flow import FlowNetwork, min_cut
from smp.linalg import LinearSolution, _normalize_integer, gaussian_solve
from smp.simplex import LinearProgram, simplex_maximize


# --- gaussian elimination ---------------------------------------------------


def dense_gauss_jordan(matrix, rhs):
    """Reference: dense Gauss-Jordan elimination on Fractions.

    Pivots on the first remaining row with a nonzero in each column; the
    result must equal `gaussian_solve`'s, since the reduced row echelon form
    is unique.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [[F(v) for v in row] + [F(b)] for row, b in zip(matrix, rhs)]
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
    for i in range(r, m):
        if rows[i][n] != 0:
            return LinearSolution(status="infeasible")
    particular = [F(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = rows[i][n]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    if not free_cols:
        return LinearSolution(status="unique", solution=particular)
    basis = []
    for fc in free_cols:
        vec = [F(0)] * n
        vec[fc] = F(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -rows[i][fc]
        basis.append(_normalize_integer(vec))
    return LinearSolution(status="underdetermined", solution=particular, nullspace=basis)


# small signed rationals, zero-heavy so that rows are sparse
entries = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.builds(F, st.integers(-9, 9), st.integers(1, 5)),
)


@st.composite
def rational_systems(draw):
    """Wide, tall and square systems with zero, duplicate and dependent rows."""
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
    if draw(st.booleans()):
        # consistent right-hand side through a random point
        x0 = draw(st.lists(entries, min_size=n, max_size=n))
        rhs = [sum((a * v for a, v in zip(row, x0)), F(0)) for row in rows]
    else:
        # arbitrary right-hand side, usually inconsistent on dependent rows
        rhs = draw(st.lists(entries, min_size=m, max_size=m))
    return rows, rhs


@settings(max_examples=500, deadline=None)
@given(rational_systems())
def test_gaussian_solve_matches_dense_reference(system):
    matrix, rhs = system
    assert gaussian_solve(matrix, rhs) == dense_gauss_jordan(matrix, rhs)


def test_gaussian_unique_solution():
    sol = gaussian_solve([[F(2), F(1)], [F(1), F(-1)]], [F(5), F(1)])
    assert sol.status == "unique"
    assert sol.solution == [F(2), F(1)]


def test_gaussian_infeasible():
    sol = gaussian_solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert sol.status == "infeasible"


def test_gaussian_one_dimensional_nullspace_is_normalized():
    # x - (2/3) y = 0 has kernel spanned by (2, 3) after integer normalization
    sol = gaussian_solve([[F(1), F(-2, 3)]], [F(0)])
    assert sol.status == "underdetermined"
    assert sol.nullspace == [[F(2), F(3)]]
    # first nonzero entry positive, gcd 1
    sol = gaussian_solve([[F(-3), F(-6)]], [F(0)])
    assert sol.nullspace == [[F(2), F(-1)]]


def test_gaussian_nullspace_vectors_lie_in_kernel():
    a = [[F(1), F(2), F(3), F(0)], [F(0), F(1), F(1), F(1)]]
    sol = gaussian_solve(a, [F(4), F(2)])
    assert sol.status == "underdetermined"
    for vec in sol.nullspace:
        for row in a:
            assert sum((r * v for r, v in zip(row, vec)), F(0)) == 0
    # the particular solution satisfies the system
    for row, b in zip(a, [F(4), F(2)]):
        assert sum((r * v for r, v in zip(row, sol.solution)), F(0)) == b


# --- simplex ----------------------------------------------------------------


def test_simplex_box_optimum():
    lp = LinearProgram(
        objective=[F(1), F(1)],
        a_le=[[F(1), F(0)], [F(0), F(1)]],
        b_le=[F(2), F(3)],
    )
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.value == F(5)
    assert res.solution == [F(2), F(3)]


def test_simplex_with_equalities_and_fractional_optimum():
    # max 3x + 2y  s.t.  x + y == 4,  x - y <= 1/2
    lp = LinearProgram(
        objective=[F(3), F(2)],
        a_le=[[F(1), F(-1)]],
        b_le=[F(1, 2)],
        a_eq=[[F(1), F(1)]],
        b_eq=[F(4)],
    )
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.value == F(3) * F(9, 4) + F(2) * F(7, 4)
    assert res.solution == [F(9, 4), F(7, 4)]


def test_simplex_infeasible():
    lp = LinearProgram(
        objective=[F(1)],
        a_le=[[F(1)]],
        b_le=[F(1)],
        a_eq=[[F(1)]],
        b_eq=[F(5)],
    )
    assert simplex_maximize(lp).status == "infeasible"


def test_simplex_unbounded():
    lp = LinearProgram(objective=[F(1), F(0)], a_le=[[F(0), F(1)]], b_le=[F(1)])
    assert simplex_maximize(lp).status == "unbounded"


def test_simplex_negative_rhs_normalization():
    # x >= 2 written as -x <= -2, maximize -x: optimum at x = 2
    lp = LinearProgram(objective=[F(-1)], a_le=[[F(-1)]], b_le=[F(-2)])
    res = simplex_maximize(lp)
    assert res.status == "optimal"
    assert res.value == F(-2)


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


def test_min_cut_infinite_edge_never_crosses():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(4))
    net.add_edge("a", "b", None)  # unbounded
    net.add_edge("b", "t", F(1))
    cut = min_cut(net)
    assert cut.value == F(1)
    assert not ("a" in cut.source_side and "b" not in cut.source_side)


def test_min_cut_unbounded_path():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", None)
    net.add_edge("a", "t", None)
    assert min_cut(net).value is None


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
