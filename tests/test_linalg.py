import itertools
import random
from fractions import Fraction

import pytest

from sandpiles import (
    banana,
    complete,
    cone,
    cycle,
    det_exact,
    incidence,
    inverse_exact,
    laplacian,
    minor_matrix,
    path,
    reduced_laplacian,
    solve_exact,
    wheel,
)
from sandpiles.errors import (
    IndexOutOfRangeError,
    NotIntegralError,
    NotSquareError,
    SingularMatrixError,
)
from sandpiles.families import verification_family
from sandpiles.linalg import (
    ExactLU,
    det_cofactor,
    is_identity,
    mat_mul,
    mat_vec,
    matrix_from_json,
    matrix_to_json,
    solve_reduced,
    transpose,
)

FIXTURE_GRAPHS = [
    path(2), path(3), path(4), cycle(3), cycle(4), complete(3), complete(4),
    banana(2), banana(3), wheel(5), cone(path(3)), cone(cycle(4)),
]


def test_laplacian_banana2():
    assert laplacian(banana(2)) == [[2, -2], [-2, 2]]


def test_laplacian_complete3():
    assert laplacian(complete(3)) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def test_laplacian_wheel5_hub_row():
    L = laplacian(wheel(5))
    assert L[0] == [4, -1, -1, -1, -1]
    assert all(sum(row) == 0 for row in L)


@pytest.mark.parametrize("g", FIXTURE_GRAPHS)
def test_laplacian_zero_row_and_column_sums(g):
    L = laplacian(g)
    assert all(sum(row) == 0 for row in L)
    assert all(sum(col) == 0 for col in zip(*L))


def test_reduced_laplacian_examples():
    assert reduced_laplacian(complete(3)) == [[2, -1], [-1, 2]]
    assert reduced_laplacian(path(3)) == [[2, -1], [-1, 1]]
    for k in (1, 2, 5):
        assert reduced_laplacian(banana(k)) == [[k]]
    assert reduced_laplacian(complete(4)) == [
        [3, -1, -1], [-1, 3, -1], [-1, -1, 3]
    ]


def test_minor_matrix():
    L = laplacian(complete(3))
    assert minor_matrix(L, (), ()) == L
    assert minor_matrix(L, {0}, {0}) == reduced_laplacian(complete(3))
    assert minor_matrix(L, {0, 1}, {0, 2}) == [[-1]]
    with pytest.raises(IndexOutOfRangeError):
        minor_matrix(L, {5}, set())


def test_det_exact_examples():
    assert det_exact(reduced_laplacian(complete(4))) == 16
    assert det_exact(reduced_laplacian(wheel(5))) == 45
    for k in range(2, 8):
        assert det_exact(reduced_laplacian(path(k))) == 1


def test_det_exact_not_square():
    with pytest.raises(NotSquareError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def test_det_exact_singular_and_empty():
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([]) == 1


@pytest.mark.parametrize("g", FIXTURE_GRAPHS)
def test_bareiss_agrees_with_cofactor(g):
    for M in (laplacian(g), reduced_laplacian(g)):
        if len(M) <= 5:
            assert det_exact(M) == det_cofactor(M)


def test_bareiss_agrees_with_cofactor_random():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det_exact(M) == det_cofactor(M)


def test_inverse_complete3():
    inv = inverse_exact(reduced_laplacian(complete(3)))
    third = Fraction(1, 3)
    assert inv == [[2 * third, third], [third, 2 * third]]


def test_inverse_path4():
    assert inverse_exact(reduced_laplacian(path(4))) == [
        [1, 1, 1],
        [1, 2, 2],
        [1, 2, 3],
    ]


def test_inverse_wheel4_equals_complete4():
    # the 4-vertex wheel is the complete graph on 4 vertices
    quarter = Fraction(1, 4)
    expected = [
        [2 * quarter, quarter, quarter],
        [quarter, 2 * quarter, quarter],
        [quarter, quarter, 2 * quarter],
    ]
    assert inverse_exact(reduced_laplacian(wheel(4))) == expected


@pytest.mark.parametrize("g", FIXTURE_GRAPHS)
def test_inverse_is_exact_and_nonnegative(g):
    Lp = reduced_laplacian(g)
    inv = inverse_exact(Lp)
    assert is_identity(mat_mul(Lp, inv))
    assert all(x >= 0 for row in inv for x in row)


@pytest.mark.parametrize("g", FIXTURE_GRAPHS)
def test_reduced_determinant_counts_at_least_one_tree(g):
    assert det_exact(reduced_laplacian(g)) >= 1


def test_solve_exact_examples():
    Lp = reduced_laplacian(complete(3))
    assert solve_exact(Lp, [1, -1]) == [Fraction(1, 3), Fraction(-1, 3)]
    assert solve_exact([[1, 0], [0, 1]], [5, -7]) == [5, -7]
    Lp4 = reduced_laplacian(complete(4))
    assert solve_exact(Lp4, [2, -2, -2]) == [0, -1, -1]


def test_solve_exact_singular():
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 1], [1, 1]], [1, 2])


def _rationals(solved):
    """solve_reduced's (numerators, denominator) as Fractions; den > 0."""
    num, den = solved
    assert den > 0 and all(isinstance(x, int) for x in num)
    return [Fraction(x, den) for x in num]


def test_cached_solve_matches_fresh_solve_on_every_support():
    # per support: the first use (a fresh solve_exact), the second (which
    # factors) and a cached one agree with each other and with solve_exact
    rng = random.Random(5)
    for g in verification_family(5):
        Lp = reduced_laplacian(g)
        n = len(Lp)
        for k in range(1, n + 1):
            for support in itertools.combinations(range(n), k):
                sub = [[Lp[i][j] for j in support] for i in support]
                b = [rng.randint(-20, 20) for _ in support]
                expected = solve_exact(sub, b)
                for _ in range(3):
                    assert _rationals(solve_reduced(g, b, support)) == expected
                b = [rng.randint(-20, 20) for _ in support]
                assert _rationals(solve_reduced(g, b, support)) == solve_exact(sub, b)


def _reference_solve(M, b):
    """Dense Gaussian elimination with row swaps and back substitution in
    Fractions, independent of ExactLU."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(M, b)]
    for k in range(n):
        p = next(i for i in range(k, n) if a[i][k])
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / a[k][k]
    return x


def test_solve_num_agrees_with_a_fraction_reference():
    rng = random.Random(13)
    matrices = [
        [[0, 2, 1], [3, 0, 0], [1, 1, 0]],  # zero leading pivot
        [[0, 1], [1, 0]],  # row swap, det -1
        [[2, 1], [1, -4]],  # det -9 without a swap
        [[1]], [[-3]], [[7]],
    ]
    while len(matrices) < 300:
        n = rng.randint(1, 7)
        M = [[rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(n)]
        if det_exact(M):
            matrices.append(M)
    assert sum(len(M) == 1 for M in matrices) >= 3
    assert sum(M[0][0] == 0 for M in matrices) >= 10
    assert sum(det_exact(M) < 0 for M in matrices) >= 10
    for M in matrices:
        lu = ExactLU.from_matrix(M)
        for _ in range(3):
            b = [rng.randint(-30, 30) for _ in M]
            num, den = lu.solve_num(b)
            assert den == abs(det_exact(M))
            assert all(isinstance(x, int) for x in num)
            assert [Fraction(x, den) for x in num] == _reference_solve(M, b)
            assert lu.solve(b) == _reference_solve(M, b)


def test_solve_num_takes_integers_only():
    lu = ExactLU.from_matrix([[2, 1], [1, 2]])
    assert lu.solve_num([3, 0]) == ([6, -3], 3)
    with pytest.raises(TypeError):
        lu.solve_num([Fraction(1, 2), 0])
    with pytest.raises(NotIntegralError):
        ExactLU.from_matrix([[Fraction(1, 2), 0], [0, 1]])
    assert ExactLU.from_matrix([[Fraction(2), 0], [0, 1]]).solve([1, 1]) == [Fraction(1, 2), 1]


def test_zero_leading_pivot_needs_a_row_swap():
    M = [[0, 2, 1], [3, 0, 0], [1, 1, 0]]
    b = [5, 6, 4]
    x = solve_exact(M, b)
    assert x == [2, 2, 1]
    assert mat_vec(M, x) == b
    assert solve_exact([[0, 1], [1, 0]], [3, 4]) == [4, 3]


def test_singular_matrix_fails_at_factoring():
    for M in ([[1, 1], [1, 1]], [[0, 0], [0, 1]], [[1, 2, 3], [2, 4, 6], [0, 1, 1]], [[0]]):
        with pytest.raises(SingularMatrixError):
            ExactLU.from_matrix(M)
        with pytest.raises(SingularMatrixError):
            solve_exact(M, [1] * len(M))


def test_factor_solves_many_right_hand_sides():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        M = [[rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(n)]
        if det_exact(M) == 0:
            continue
        lu = ExactLU.from_matrix(M)
        for _ in range(3):
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            assert mat_vec(M, lu.solve(b)) == b


def test_factor_rejects_wrong_length_right_hand_side():
    with pytest.raises(IndexOutOfRangeError):
        ExactLU.from_matrix([[1, 0], [0, 1]]).solve([1])


def test_second_solve_caches_a_factor_that_later_solves_reuse(monkeypatch):
    from sandpiles import linalg

    fresh = []

    def counting_solve_exact(M, b):
        fresh.append(len(M))
        return solve_exact(M, b)

    monkeypatch.setattr(linalg, "solve_exact", counting_solve_exact)
    g = wheel(6)
    Lp = reduced_laplacian(g)
    cache = g.factor_cache()
    full = tuple(range(5))
    b = [1, 0, 2, 0, 0]
    assert _rationals(solve_reduced(g, b)) == solve_exact(Lp, b)
    assert fresh == [5] and cache[full] is None
    # a factored solve is over det L', the count of spanning trees
    num, den = solve_reduced(g, b)
    assert den == det_exact(Lp) and _rationals((num, den)) == solve_exact(Lp, b)
    factor = cache[full]
    assert isinstance(factor, ExactLU)
    for rhs in ([0, 1, 0, 0, 0], [3, -1, 4, 1, -5]):
        assert _rationals(solve_reduced(g, rhs, range(5))) == solve_exact(Lp, rhs)
        assert cache[full] is factor
    assert fresh == [5]
    sub = [[Lp[i][j] for j in (0, 2)] for i in (0, 2)]
    for rhs in ([1, 1], [2, -3], [0, 5]):
        assert _rationals(solve_reduced(g, rhs, [0, 2])) == solve_exact(sub, rhs)
    assert fresh == [5, 2]
    assert set(cache) == {full, (0, 2)}


def test_equal_graphs_never_share_a_factor():
    g, h = wheel(6), wheel(6)
    assert g == h and reduced_laplacian(g) == reduced_laplacian(h)
    for graph in (g, h):
        for _ in range(2):
            solve_reduced(graph, [1, 0, 0, 0, 0])
            solve_reduced(graph, [1, 1], (1, 3))
    assert g.factor_cache() is not h.factor_cache()
    for key in (tuple(range(5)), (1, 3)):
        assert isinstance(g.factor_cache()[key], ExactLU)
        assert g.factor_cache()[key] is not h.factor_cache()[key]


def test_incidence_single_edge():
    B = incidence(path(2))
    assert B == [[-1, 1]]


def test_incidence_banana_rows():
    B = incidence(banana(2))
    assert len(B) == 2
    assert all(row in ([-1, 1], [1, -1]) for row in B)


@pytest.mark.parametrize("g", FIXTURE_GRAPHS)
def test_incidence_transpose_product_is_laplacian(g):
    B = incidence(g)
    assert mat_mul(transpose(B), B) == laplacian(g)


def test_incidence_orientation_independence():
    g = cone(cycle(4))
    rng = random.Random(11)
    for _ in range(20):
        signs = [rng.choice((1, -1)) for _ in g.edges()]
        B = incidence(g, orientations=signs)
        assert mat_mul(transpose(B), B) == laplacian(g)


def _cauchy_binet_rhs(g, V, W, r):
    B = incidence(g)
    m = len(g.edges())
    if m < r:
        return 0
    total = 0
    for E in itertools.combinations(range(m), m - r):
        total += det_exact(minor_matrix(B, E, W)) * det_exact(minor_matrix(B, E, V))
    return total


@pytest.mark.parametrize("g", FIXTURE_GRAPHS)
def test_cauchy_binet_identity(g):
    nv = g.n_vertices
    L = laplacian(g)
    rng = random.Random(nv)
    for r in (1, 2):
        if r >= nv:
            continue
        pairs = list(itertools.combinations(range(nv), nv - r))
        sample = pairs if len(pairs) <= 6 else rng.sample(pairs, 6)
        for V in sample:
            for W in sample:
                assert det_exact(minor_matrix(L, W, V)) == _cauchy_binet_rhs(g, V, W, r)


def test_matrix_json_round_trip():
    M = [[Fraction(1, 3), Fraction(2)], [Fraction(-5, 7), Fraction(0)]]
    data = matrix_to_json(M)
    assert data == [["1/3", "2"], ["-5/7", "0"]]
    assert matrix_from_json(data) == M
