import math
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import det_solve_inverse, fraction_rank, fraction_solve
from fanshear.errors import DimensionMismatch
from fanshear.lattice import (
    UnimodularMap,
    change_of_basis,
    det,
    extends_to_basis,
    is_primitive,
    linear_feasible,
    matrix_inverse,
    row_echelon,
    shear_map,
    solve_integer,
    unimodular_inverse,
    NoIntegerSolution,
    UnderdeterminedSystem,
)

small_ints = st.integers(min_value=-9, max_value=9)


def vectors(dim, min_size=1, max_size=None):
    return st.lists(
        st.tuples(*[small_ints] * dim), min_size=min_size, max_size=max_size or dim
    )


# --- primitivity ---------------------------------------------------------

@pytest.mark.parametrize(
    "vec,expected",
    [
        ((1, 0, 0), True),
        ((2, 0), False),
        ((2, 0, -1), True),
        ((0, 0), False),
        ((-1,), True),
        ((6, 10, 15), True),
    ],
)
def test_is_primitive(vec, expected):
    assert is_primitive(vec) is expected


@given(st.lists(small_ints, min_size=1, max_size=5))
def test_is_primitive_matches_gcd(entries):
    expected = reduce(math.gcd, (abs(x) for x in entries), 0) == 1
    assert is_primitive(tuple(entries)) is expected


def test_is_primitive_rejects_empty():
    with pytest.raises(ValueError):
        is_primitive(())


# --- basis extension ------------------------------------------------------

def test_sub_basis_extends():
    assert extends_to_basis([(1, 0, 0), (0, 1, 0)])


def test_index_two_sublattice_does_not_extend():
    assert not extends_to_basis([(2, 0), (0, 1)])


def test_three_rays_extend():
    vecs = [(-1, 1, 0), (0, -1, 0), (0, 0, 1)]
    # oracle: 3x3 determinant by cofactor expansion
    a, b, c = vecs
    cof = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert abs(cof) == 1
    assert extends_to_basis(vecs)


def test_extends_to_basis_edge_cases():
    assert extends_to_basis([])
    assert not extends_to_basis([(0, 0)])
    assert not extends_to_basis([(1, 0), (0, 1), (1, 1)])  # more vectors than dim
    with pytest.raises(DimensionMismatch):
        extends_to_basis([(1, 0), (1, 0, 0)])


@pytest.mark.parametrize("vectors", [[(1.0, 0.0)], [(1, 0), (0, "1")], [(True, 0.5)]])
def test_extends_to_basis_takes_only_integers(vectors):
    with pytest.raises(TypeError):
        extends_to_basis(vectors)


@st.composite
def basis_candidates(draw):
    """Up to d vectors in Z^d, d <= 5, sometimes with a zero or a repeated vector."""
    d = draw(st.integers(1, 5))
    vecs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=d))
    if vecs:
        i, j = draw(st.integers(0, len(vecs) - 1)), draw(st.integers(0, len(vecs) - 1))
        twist = draw(st.sampled_from(["none", "zero", "repeat"]))
        if twist == "zero":
            vecs[i] = (0,) * d
        elif twist == "repeat":
            vecs[i] = vecs[j]
    return d, vecs


@settings(max_examples=300, deadline=2000)
@given(basis_candidates())
def test_extends_to_basis_matches_maximal_minors(case):
    # m vectors extend to a basis exactly when their m x m minors have gcd 1
    d, vecs = case
    minors = (
        det([[v[c] for c in cols] for v in vecs]) for cols in combinations(range(d), len(vecs))
    )
    assert extends_to_basis(vecs) is (reduce(math.gcd, minors, 0) == 1)


def random_unimodular(seed_entries, dim):
    """Deterministic unimodular map built from shears and a sign flip."""
    m = UnimodularMap.identity(dim)
    chunk = dim - 1
    for i in range(0, len(seed_entries) - chunk + 1, chunk):
        q = tuple(seed_entries[i : i + chunk])
        m = m.compose(shear_map(q))
        # conjugate by a coordinate reversal to mix rows
        rev = UnimodularMap(
            tuple(
                tuple(1 if j == dim - 1 - i2 else 0 for j in range(dim))
                for i2 in range(dim)
            )
        )
        m = rev.compose(m)
    return m


@given(vectors(3, min_size=1, max_size=3), st.lists(small_ints, min_size=4, max_size=8))
def test_extends_to_basis_unimodular_invariant(vecs, seed):
    m = random_unimodular(seed, 3)
    before = extends_to_basis(vecs)
    after = extends_to_basis([m.apply(v) for v in vecs])
    assert before == after


# --- shears ---------------------------------------------------------------

def test_shear_identity():
    assert shear_map((0, 0)) == UnimodularMap.identity(3)


def test_shear_frozen_example():
    assert shear_map((2, -1)).apply((2, 0, -1)) == (0, 1, -1)


def test_shear_takes_only_integers():
    with pytest.raises(TypeError):
        shear_map((0.5,))
    assert repr(shear_map((2,))) == "UnimodularMap(matrix=((1, 2), (0, 1)))"


@pytest.mark.parametrize("a,k", [(3, 1), (5, 2), (8, 4), (2, 0)])
def test_shear_on_plane_sections(a, k):
    assert shear_map((2 * k,)).apply((a, -1)) == (a - 2 * k, -1)


@given(st.lists(small_ints, min_size=2, max_size=2), st.lists(small_ints, min_size=2, max_size=2))
def test_shear_composition(q1, q2):
    composed = shear_map(q1).compose(shear_map(q2))
    added = shear_map([a + b for a, b in zip(q1, q2)])
    assert composed == added
    inverse = shear_map([-a for a in q1])
    assert shear_map(q1).compose(inverse) == UnimodularMap.identity(3)


@given(st.lists(small_ints, min_size=2, max_size=2), st.tuples(small_ints, small_ints))
def test_shear_fixes_hyperplane(q, head):
    v = head + (0,)
    assert shear_map(q).apply(v) == v


# --- matrices and solving --------------------------------------------------

def test_det_examples():
    assert det([(1, 0), (0, 1)]) == 1
    assert det([(2, 0), (0, 3)]) == 6
    assert det([(1, 2), (2, 4)]) == 0
    assert det([(0, 1, 0), (1, 0, 0), (0, 0, 1)]) == -1


def test_unimodular_map_validation():
    with pytest.raises(ValueError):
        UnimodularMap(((2, 0), (0, 1)))


def test_unimodular_map_takes_only_integers():
    for matrix in (((1.0, 0), (0, 1)), ((1, 0), (0, "1"))):
        with pytest.raises(TypeError):
            UnimodularMap(matrix)
    # the converted matrix is stored: rows of ints, as tuples
    converted = UnimodularMap([[1, 0], [1, 1]])
    assert converted == UnimodularMap(((1, 0), (1, 1)))
    assert repr(converted) == "UnimodularMap(matrix=((1, 0), (1, 1)))"


def test_inverse_roundtrip():
    m = UnimodularMap(((1, 2, 0), (0, 1, 3), (0, 0, 1)))
    assert m.compose(m.inverse()) == UnimodularMap.identity(3)
    assert m.inverse().compose(m) == UnimodularMap.identity(3)


@st.composite
def elementary_products(draw):
    """Columns of a product of elementary matrices, d <= 6, or of its image
    with one row doubled (det +-2) or one row repeated or zeroed (det 0)."""
    d = draw(st.integers(min_value=1, max_value=6))
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    index = st.integers(min_value=0, max_value=d - 1)
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind, i, j = draw(st.sampled_from(["add", "swap", "negate"])), draw(index), draw(index)
        if kind == "add" and i != j:
            k = draw(st.integers(min_value=-3, max_value=3))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "negate":
            rows[i] = [-a for a in rows[i]]
    twist, i, j = draw(st.sampled_from(["none", "double", "singular"])), draw(index), draw(index)
    if twist == "double":
        rows[i] = [2 * a for a in rows[i]]
    elif twist == "singular":
        rows[i] = [0] * d if i == j else list(rows[j])
    return [tuple(c) for c in zip(*rows)]


def square_columns():
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d, max_size=d)
    )


@settings(max_examples=300, deadline=2000)
@given(st.one_of(elementary_products(), square_columns()))
def test_unimodular_inverse_matches_det_and_solve(columns):
    expected = det_solve_inverse(columns)
    assert (expected is None) is (abs(det(list(zip(*columns)))) != 1)
    assert unimodular_inverse(columns) == expected
    if expected is None:
        with pytest.raises(ValueError, match="matrix is not unimodular"):
            matrix_inverse(columns)
    else:
        assert matrix_inverse(columns) == expected
        assert UnimodularMap.from_columns(columns).inverse().matrix == expected


def test_unimodular_inverse_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        unimodular_inverse([(1, 0), (0, 1, 0)])


def test_change_of_basis_sends_columns():
    src = [(1, 0), (1, 1)]
    dst = [(0, 1), (-1, 0)]
    m = change_of_basis(src, dst)
    assert m.apply(src[0]) == dst[0]
    assert m.apply(src[1]) == dst[1]


def test_row_echelon_transform_is_unimodular():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    transform, echelon, pivots = row_echelon(a)
    assert abs(det(transform)) == 1
    recomputed = [
        [sum(transform[i][t] * a[t][j] for t in range(3)) for j in range(3)]
        for i in range(3)
    ]
    assert recomputed == echelon
    assert pivots == sorted(pivots)


@st.composite
def echelon_inputs(draw):
    """Tall, wide and square matrices, some of them of deficient rank."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.integers(0, max(0, min(m, n) - 1)))
    base = draw(st.lists(st.lists(small_ints, min_size=n, max_size=n), min_size=b, max_size=b))
    mix = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=b, max_size=b), min_size=m, max_size=m
    ))
    return [[sum(c * row[j] for c, row in zip(cs, base)) for j in range(n)] for cs in mix]


@settings(max_examples=300, deadline=2000)
@given(echelon_inputs())
def test_row_echelon_is_a_reduced_echelon_form(matrix):
    transform, echelon, pivots = row_echelon(matrix)
    rank = len(pivots)
    assert rank == fraction_rank(matrix)
    assert [[sum(a * b for a, b in zip(t, col)) for col in zip(*matrix)] for t in transform] == echelon
    assert abs(det(transform)) == 1
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert echelon[i][c] > 0 and not any(echelon[i][:c])
        assert all(0 <= echelon[h][c] < echelon[i][c] for h in range(i))
    assert not any(map(any, echelon[rank:]))


@st.composite
def linear_systems(draw):
    """coeffs (m x n) and rhs (m x k): often of the form coeffs @ X, sometimes rank-deficient."""
    m, n, k = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 2))

    def matrix(rows, cols, entries=st.integers(-3, 3)):
        return draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        ))

    coeffs = matrix(m, n)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in coeffs:
            row[i] = row[j] if i != j else 0
    if draw(st.booleans()):
        x = matrix(n, k)
        rhs = [[sum(row[t] * x[t][j] for t in range(n)) for j in range(k)] for row in coeffs]
    else:
        rhs = matrix(m, k)
    return coeffs, rhs


def _outcome(call):
    try:
        return call()
    except (NoIntegerSolution, UnderdeterminedSystem) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=2000)
@given(linear_systems())
def test_solve_integer_matches_rational_elimination(system):
    coeffs, rhs = system
    n, k = len(coeffs[0]), len(rhs[0])
    rank = fraction_rank(coeffs)
    if fraction_rank([a + b for a, b in zip(coeffs, rhs)]) > rank:
        expected = (NoIntegerSolution, "inconsistent linear system")
    elif rank < n:
        expected = (UnderdeterminedSystem, "solution space is positive-dimensional")
    else:
        columns = list(zip(*coeffs))
        by_column = [fraction_solve(columns, [row[j] for row in rhs]) for j in range(k)]
        expected = [[by_column[j][i] for j in range(k)] for i in range(n)]
        if any(x.denominator != 1 for row in expected for x in row):
            expected = (NoIntegerSolution, "no integral solution")
    assert _outcome(lambda: solve_integer(coeffs, rhs)) == expected


def test_solve_integer_unique():
    x = solve_integer([[1, 2], [0, 1]], [[5], [2]])
    assert x == [[1], [2]]


@pytest.mark.parametrize("call", [
    lambda: solve_integer([[1, 2], [3]], [[1], [2]]),
    lambda: solve_integer([[1, 2], [3, 4]], [[1], [2, 3]]),
    lambda: row_echelon([[1, 2], [3]]),
])
def test_ragged_matrices_are_rejected(call):
    with pytest.raises(ValueError, match="^ragged matrix$"):
        call()


def test_solve_integer_inconsistent():
    with pytest.raises(NoIntegerSolution):
        solve_integer([[1, 1], [1, 1]], [[0], [1]])
    with pytest.raises(NoIntegerSolution):
        solve_integer([[2]], [[1]])  # rational but not integral


def test_solve_integer_underdetermined():
    with pytest.raises(UnderdeterminedSystem):
        solve_integer([[1, 1]], [[0]])


@given(
    st.lists(st.tuples(small_ints, small_ints), min_size=2, max_size=4),
    st.tuples(small_ints, small_ints),
)
def test_solve_integer_matches_substitution(rows, x):
    rhs = [[sum(r[j] * x[j] for j in range(2))] for r in rows]
    try:
        sol = solve_integer([list(r) for r in rows], rhs)
    except UnderdeterminedSystem:
        return
    except NoIntegerSolution:
        pytest.fail("a constructed solution must be found")
    for r, b in zip(rows, rhs):
        assert sum(r[j] * sol[j][0] for j in range(2)) == b[0]


# --- feasibility -----------------------------------------------------------

def test_linear_feasible_basic():
    assert linear_feasible([(1,)], [])
    assert not linear_feasible([(1,)], [(-1,)])
    assert linear_feasible([(1, 0), (0, 1)], [])
    # open half planes x > 0 and x < 0 cannot meet
    assert not linear_feasible([(1, 0), (-1, 0)], [])
    # strict positivity against a closing weak inequality
    assert linear_feasible([(1, 1)], [(1, -1), (-1, 1)])
