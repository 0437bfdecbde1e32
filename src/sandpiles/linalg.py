"""Exact integer/rational linear algebra for graph Laplacians.

All arithmetic is arbitrary precision: matrices are plain lists of lists of
Python ints or fractions.Fraction (always in lowest terms with positive
denominator, so equality is structural).  No floating point anywhere.
Determinants use fraction-free Bareiss elimination.  Solves and inverses go
through ExactLU, a sparse LU factorization that eliminates only over stored
nonzeros and keeps its multipliers, so every further right-hand side costs
one forward and one back substitution.  ``solve_reduced`` solves with a
graph's reduced Laplacian L' or one of its principal submatrices and caches
the factor of each one it solves with more than once on the Multigraph
instance.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndexOutOfRangeError, NotSquareError, SingularMatrixError
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
    """Exact LU factorization of a square rational matrix, stored sparsely.

    ``rows`` holds each row as a {column: Fraction} dict of its nonzeros;
    the factorization consumes the dicts.
    Rows never move: column k's pivot comes from the first row, in index
    order, that is not yet a pivot row and has a nonzero in column k.  For
    each column the factor keeps that row, the pivot, the pivot row's
    entries right of the diagonal (U) and the (row, multiplier) pairs that
    the elimination subtracted (L).  Elimination visits stored nonzeros
    only and drops entries that cancel, so a banded or sparse matrix pays
    only for its fill.  Raises SingularMatrixError when a column has no
    pivot.
    """

    __slots__ = ("n", "_pivot_rows", "_pivots", "_upper", "_lower")

    def __init__(self, rows):
        rows = list(rows)
        n = len(rows)
        self.n = n
        self._pivot_rows = []
        self._pivots = []
        self._upper = []
        self._lower = []
        remaining = list(range(n))
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
                f = row.pop(k) / pivot
                for j, v in upper:
                    new = row.get(j, 0) - f * v
                    if new:
                        row[j] = new
                    else:
                        row.pop(j, None)
                lower.append((i, f))
            rows[p] = None
            self._pivot_rows.append(p)
            self._pivots.append(pivot)
            self._upper.append(upper)
            self._lower.append(tuple(lower))

    @classmethod
    def from_matrix(cls, M) -> ExactLU:
        """Factor a dense square matrix (lists of ints or Fractions)."""
        _require_square(M)
        return cls({j: Fraction(x) for j, x in enumerate(row) if x} for row in M)

    def solve(self, b) -> list[Fraction]:
        """The exact solution x of Mx = b: one forward substitution through
        the multipliers, one back substitution through U; zero entries are
        skipped."""
        n = self.n
        if len(b) != n:
            raise IndexOutOfRangeError("right-hand side has wrong length")
        y = [Fraction(v) for v in b]
        for p, lower in zip(self._pivot_rows, self._lower):
            yp = y[p]
            if yp:
                for i, f in lower:
                    y[i] -= f * yp
        x = [Fraction(0)] * n
        for k in range(n - 1, -1, -1):
            s = y[self._pivot_rows[k]]
            for j, v in self._upper[k]:
                if x[j]:
                    s -= v * x[j]
            x[k] = s / self._pivots[k]
        return x


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


def solve_reduced(g: Multigraph, b, support=None) -> list[Fraction]:
    """Exact solution x of L'[S, S] x = b for S = ``support`` (sandpile
    positions, every position by default); ``b`` and x are indexed like S.

    The first solve on a support eliminates from scratch (``solve_exact``)
    and keeps nothing; the second factors L'[S, S] and caches the factor on
    ``g`` under S, so every later solve costs two substitutions.  A support
    used once, the usual case on a large graph, thus costs one elimination
    and no memory."""
    key = tuple(range(len(g.non_sink))) if support is None else tuple(support)
    cache = g.factor_cache()
    lu = cache.get(key)
    if lu is not None:
        return lu.solve(b)
    M = _principal_submatrix(g, key)
    if key not in cache:
        cache[key] = None
        return solve_exact(M, b)
    lu = cache[key] = ExactLU.from_matrix(M)
    return lu.solve(b)


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
