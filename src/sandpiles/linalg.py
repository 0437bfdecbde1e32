"""Exact integer/rational linear algebra for graph Laplacians.

All arithmetic is arbitrary precision: matrices are plain lists of lists of
Python ints or fractions.Fraction (always in lowest terms with positive
denominator, so equality is structural).  No floating point anywhere.
Determinants use fraction-free Bareiss elimination.  Solves and inverses go
through ExactLU, a sparse LU factorization of an integer matrix that
eliminates only over stored nonzeros and stores its factor fraction-free:
the leading minors, and the U rows and multipliers scaled by them to
integers.  ``ExactLU.solve_num`` substitutes in integers only and returns
integer numerators over one positive denominator, the determinant of the
(row-ordered) matrix; ``solve`` divides them once at the end.
``solve_reduced`` solves with a graph's reduced Laplacian L' or one of its
principal submatrices, returns numerators over one denominator, and caches
the factor of each matrix it solves with more than once on the Multigraph
instance.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

from .errors import (
    IndexOutOfRangeError,
    NotIntegralError,
    NotSquareError,
    SingularMatrixError,
)
from .graph import Multigraph


def laplacian(g: Multigraph) -> list[list[int]]:
    """Full (n+1)x(n+1) Laplacian: degree on the diagonal, minus the edge
    multiplicity off it.  Rows and columns sum to zero."""
    n = g.n_vertices
    return [
        [g.degree(v) if v == w else -g.multiplicity(v, w) for w in range(n)]
        for v in range(n)
    ]


def reduced_laplacian(g: Multigraph) -> list[list[int]]:
    """Laplacian with the sink row and column deleted.

    Row/column i corresponds to g.non_sink[i], matching sandpile vectors.
    """
    return [
        [g.degree(v) if v == w else -g.multiplicity(v, w) for w in g.non_sink]
        for v in g.non_sink
    ]


def minor_matrix(M, delete_rows, delete_cols) -> list[list]:
    """Delete the given row and column index sets (0-based)."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    dr = set(delete_rows)
    dc = set(delete_cols)
    if any(not 0 <= i < rows for i in dr) or any(not 0 <= j < cols for j in dc):
        raise IndexOutOfRangeError("deletion index out of range")
    return [
        [M[i][j] for j in range(cols) if j not in dc]
        for i in range(rows)
        if i not in dr
    ]


def _require_square(M):
    n = len(M)
    if any(len(row) != n for row in M):
        raise NotSquareError("matrix must be square")
    return n


def det_exact(M) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Fraction-free: every intermediate entry stays an integer.
    """
    n = _require_square(M)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_cofactor(M) -> int:
    """Determinant by first-row cofactor expansion; the slow cross-check."""
    n = _require_square(M)

    def rec(rows, cols):
        if not cols:
            return 1
        i = rows[0]
        rest = rows[1:]
        total = 0
        for t, j in enumerate(cols):
            entry = M[i][j]
            if entry:
                sub = cols[:t] + cols[t + 1 :]
                term = entry * rec(rest, sub)
                total += term if t % 2 == 0 else -term
        return total

    return rec(tuple(range(n)), tuple(range(n)))


class ExactLU:
    """Exact LU factorization of a square integer matrix, stored sparsely
    and fraction-free.

    ``rows`` holds each row as a {column: Fraction} dict of its nonzeros
    (integer-valued); the factorization consumes the dicts.  Rows never
    move: column k's pivot comes from the first row, in index order, that
    is not yet a pivot row and has a nonzero in column k.  Elimination runs
    in ``Fraction`` arithmetic, visits stored nonzeros only and drops
    entries that cancel, so a banded or sparse matrix pays only for its
    fill.  Raises SingularMatrixError when a column has no pivot.

    The factor keeps integers only (Bareiss 1968).  With pivots pi_k and
    leading minors p_k = pi_0 ... pi_k (p_-1 = 1), column k stores its
    pivot row, p_k, the pivot row's entries right of the diagonal scaled by
    p_(k-1) (U-hat) and the (row, multiplier * p_k) pairs of the rows that
    the elimination subtracted from (L-hat).  These are minors of the
    matrix, hence integers, with the sparsity of the rational factor.
    """

    __slots__ = ("n", "_pivot_rows", "_minors", "_upper", "_lower")

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        self.n = n
        self._pivot_rows = []
        self._minors = [1]  # p_(k-1) at index k
        self._upper = []
        self._lower = []
        remaining = list(range(n))
        prev = 1
        for k in range(n):
            hits = [i for i in remaining if k in rows[i]]
            if not hits:
                raise SingularMatrixError("matrix is singular")
            p = hits[0]
            remaining.remove(p)
            pivot_row = rows[p]
            pivot = pivot_row.pop(k)
            upper = tuple(pivot_row.items())
            lower = []
            for i in hits[1:]:
                row = rows[i]
                a = row.pop(k)
                f = a / pivot
                for j, v in upper:
                    new = row.get(j, 0) - f * v
                    if new:
                        row[j] = new
                    else:
                        row.pop(j, None)
                lower.append((i, prev * a.numerator // a.denominator))
            rows[p] = None
            self._pivot_rows.append(p)
            self._upper.append(
                tuple((j, prev * v.numerator // v.denominator) for j, v in upper)
            )
            self._lower.append(tuple(lower))
            prev = prev * pivot.numerator // pivot.denominator
            self._minors.append(prev)

    @classmethod
    def from_matrix(cls, M) -> ExactLU:
        """Factor a dense square integer matrix (ints or integral Fractions)."""
        _require_square(M)
        rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in M]
        if any(x.denominator != 1 for row in rows for x in row.values()):
            raise NotIntegralError("the matrix must have integer entries")
        return cls(rows)

    def solve_num(self, b) -> tuple[list[int], int]:
        """(X, det) with det > 0 and X / det the exact solution of Mx = b,
        for an integer right-hand side, in integer arithmetic only.

        The forward pass keeps each row's value y_i as v_i / p_(level_i - 1)
        and brings it to the current level only when a multiplier reaches
        it; the back pass builds X = p_(n-1) x.  Every division is exact
        (Bareiss), and zero entries are skipped."""
        n = self.n
        if len(b) != n:
            raise IndexOutOfRangeError("right-hand side has wrong length")
        v = [operator.index(x) for x in b]
        level = [0] * n
        minors = self._minors
        z = [0] * n
        for k, (r, lower) in enumerate(zip(self._pivot_rows, self._lower)):
            prev = minors[k]
            zk = v[r] if level[r] == k else v[r] * prev // minors[level[r]]
            z[k] = zk
            if not zk:
                continue
            pk = minors[k + 1]
            for i, l in lower:
                w = v[i] if level[i] == k else v[i] * prev // minors[level[i]]
                v[i] = (w * pk - l * zk) // prev
                level[i] = k + 1
        det = minors[n]
        x = [0] * n
        for k in range(n - 1, -1, -1):
            s = det * z[k]
            for j, u in self._upper[k]:
                if x[j]:
                    s -= u * x[j]
            x[k] = s // minors[k + 1]
        if det < 0:
            return [-xk for xk in x], -det
        return x, det

    def solve(self, b) -> list[Fraction]:
        """The exact solution x of Mx = b for a rational b: b is scaled to
        integers, and ``solve_num``'s numerators are divided once at the
        end."""
        scaled, scale = _over_common_denominator(b)
        num, den = self.solve_num(scaled)
        den *= scale
        return [Fraction(x, den) for x in num]


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    values = [Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def solve_exact(M, b) -> list[Fraction]:
    """Exact rational solve of Mx = b: factor M, then substitute."""
    return ExactLU.from_matrix(M).solve(b)


def inverse_exact(M) -> list[list[Fraction]]:
    """Exact rational inverse: factor once, substitute each unit column."""
    lu = ExactLU.from_matrix(M)
    n = lu.n
    cols = [lu.solve([1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _principal_submatrix(g: Multigraph, support) -> list[list[int]]:
    """L'[S, S] for the sandpile positions S, from the adjacency structure."""
    index = {p: i for i, p in enumerate(support)}
    degs = g.degrees_non_sink()
    adj = g.reduced_adjacency()
    M = [[0] * len(support) for _ in support]
    for i, p in enumerate(support):
        M[i][i] = degs[p]
        for q, m in adj[p]:
            j = index.get(q)
            if j is not None:
                M[i][j] = -m
    return M


def solve_reduced(g: Multigraph, b, support=None) -> tuple[list[int], int]:
    """Exact solution of L'[S, S] x = b for S = ``support`` (sandpile
    positions, every position by default) and an integer b, as integer
    numerators over one denominator: (X, den) with den > 0 and x = X / den;
    ``b`` and X are indexed like S.

    The first solve on a support eliminates from scratch (``solve_exact``)
    and keeps nothing; the second factors L'[S, S] and caches the factor on
    ``g`` under S, so every later solve costs two integer substitutions.  A
    support used once, the usual case on a large graph, thus costs one
    elimination and no memory."""
    key = tuple(range(len(g.non_sink))) if support is None else tuple(support)
    cache = g.factor_cache()
    lu = cache.get(key)
    if lu is not None:
        return lu.solve_num(b)
    M = _principal_submatrix(g, key)
    if key not in cache:
        cache[key] = None
        return _over_common_denominator(solve_exact(M, b))
    lu = cache[key] = ExactLU.from_matrix(M)
    return lu.solve_num(b)


def incidence(g: Multigraph, edge_order=None, orientations=None) -> list[list[int]]:
    """|E| x |V| incidence matrix, one row per parallel edge copy.

    Default edge order is g.edges(); the default orientation directs each
    edge from its lower-indexed endpoint to the higher (-1 at the tail, +1
    at the head).  ``orientations`` flips individual rows with -1 entries.
    The product (transpose B) B equals the Laplacian for every choice.
    """
    edges = list(edge_order) if edge_order is not None else list(g.edges())
    if orientations is None:
        orientations = [1] * len(edges)
    if len(orientations) != len(edges):
        raise IndexOutOfRangeError("one orientation per edge is required")
    B = []
    for (v, w), s in zip(edges, orientations):
        row = [0] * g.n_vertices
        row[v] = -s
        row[w] = s
        B.append(row)
    return B


# --- small matrix/vector helpers --------------------------------------------

def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(M) -> list[list]:
    return [list(col) for col in zip(*M)]


def mat_mul(A, B) -> list[list]:
    bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in A]


def mat_vec(M, x) -> list:
    return [sum(a * b for a, b in zip(row, x)) for row in M]


def is_identity(M) -> bool:
    n = len(M)
    return all(
        len(row) == n and all(row[j] == (1 if i == j else 0) for j in range(n))
        for i, row in enumerate(M)
    )


def matrix_to_json(M) -> list[list[str]]:
    """Arrays-of-arrays of exact decimal strings ("p/q" for non-integers)."""
    return [[str(x) for x in row] for row in M]


def matrix_from_json(data) -> list[list[Fraction]]:
    return [[Fraction(s) for s in row] for row in data]
