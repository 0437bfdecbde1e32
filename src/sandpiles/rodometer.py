"""Exact odometers over the reals and over (1/m)Z.

The odometer of a sandpile sigma over a coefficient group G is the minimal
u >= 0 with values in G satisfying sigma - L'u <= d - 1.  Over the
integers this is chip-firing (dynamics.stabilize); over the reals it is a
linear complementarity problem whose matrix L' is a nonsingular M-matrix,
solved here by an exact active-set iteration; over (1/m)Z it reduces to
the integer engine after scaling by m.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import apply_reduced_laplacian, least_integer_solution, stabilize
from .errors import (
    InvalidGroupError,
    InvariantError,
    NotUniformlyLargeError,
    TooLargeError,
)
from .graph import Multigraph, validate_sandpile
from .linalg import reduced_laplacian, solve_exact, solve_reduced


@dataclass(frozen=True)
class OdometerReport:
    group: str  # "z", "r", or "q:<m>" for (1/m)Z
    odometer: tuple[Fraction, ...]
    fast_path_used: bool


def _shifted_demand(g: Multigraph, sigma) -> list[int]:
    """The vector sigma - d + 1; u is feasible iff L'u >= this."""
    return [s - d + 1 for s, d in zip(sigma, g.degrees_non_sink())]


def uniformly_large_odometer(g: Multigraph, sigma) -> tuple[Fraction, ...]:
    """Closed-form real odometer (L')^{-1}(sigma - d + 1), valid only when
    sigma >= d - 1 (then the full inequality system is tight everywhere and
    non-negativity is automatic from the non-negative inverse)."""
    sigma = validate_sandpile(g, sigma)
    c = _shifted_demand(g, sigma)
    if any(x < 0 for x in c):
        raise NotUniformlyLargeError("sigma must be >= degree - 1 everywhere")
    return _closed_form(g, c)


def _closed_form(g: Multigraph, c) -> tuple[Fraction, ...]:
    """(L')^{-1} c for a demand c >= 0, certified non-negative."""
    num, den = solve_reduced(g, c)
    if any(x < 0 for x in num):
        raise InvariantError("the closed-form real odometer has a negative entry")
    return tuple(Fraction(x, den) for x in num)


def _solve_on_support(Lp, c, support):
    """Solve the equality system restricted to the support positions on a
    freshly built submatrix of Lp (the oracle's path, never cached)."""
    if not support:
        return []
    sub = [[Lp[i][j] for j in support] for i in support]
    rhs = [Fraction(c[i]) for i in support]
    return solve_exact(sub, rhs)


def _embed(n, support, x):
    u = [0] * n
    for i, xi in zip(support, x):
        u[i] = xi
    return u


def _least_rational_solution(g: Multigraph, c) -> tuple[Fraction, ...]:
    """Least u >= 0 over the rationals with L'u >= c, by active-set
    iteration: solve the equality system on the current support, drop
    positions whose entry went negative, re-add positions whose inequality
    broke.  L' is an M-matrix, so the iteration cannot revisit a support.
    Each iterate is kept as integer numerators over the solve's
    denominator, so the tests run on integers."""
    n = len(g.non_sink)
    support = list(range(n))
    seen = set()
    while True:
        key = tuple(support)
        if key in seen:
            raise InvariantError("active-set iteration revisited a support")
        seen.add(key)
        num, den = solve_reduced(g, [c[i] for i in support], support)
        negative = {i for i, xi in zip(support, num) if xi < 0}
        if negative:
            support = [i for i in support if i not in negative]
            continue
        u = _embed(n, support, num)
        row = apply_reduced_laplacian(g, u)
        in_support = set(support)
        violated = [
            i for i in range(n) if i not in in_support and row[i] < den * c[i]
        ]
        if violated:
            support = sorted(in_support | set(violated))
            continue
        return tuple(Fraction(x, den) for x in u)


def real_odometer(g: Multigraph, sigma, use_fast_path: bool = True) -> OdometerReport:
    """Real odometer of a sandpile: the unique minimal rational solution.

    When sigma is uniformly large the closed form applies (fast path);
    otherwise the active-set iteration runs.  Tests force the slow path to
    cross-check the two."""
    sigma = validate_sandpile(g, sigma)
    c = _shifted_demand(g, sigma)
    if use_fast_path and all(x >= 0 for x in c):
        return OdometerReport("r", _closed_form(g, c), True)
    return OdometerReport("r", _least_rational_solution(g, c), False)


def group_odometer(g: Multigraph, sigma, m: int) -> OdometerReport:
    """Odometer with values in (1/m)Z: scale the demand by m, run the
    least-integer engine, divide back.  m = 1 is the plain integer
    odometer."""
    if m < 1:
        raise InvalidGroupError(f"denominator m must be >= 1, got {m}")
    sigma = validate_sandpile(g, sigma)
    c = _shifted_demand(g, sigma)
    w = least_integer_solution(g, [m * x for x in c])
    u = tuple(Fraction(x, m) for x in w)
    group = "z" if m == 1 else f"q:{m}"
    return OdometerReport(group, u, False)


def integer_odometer(g: Multigraph, sigma) -> tuple[int, ...]:
    """Integer odometer via chip-firing (same value as group_odometer m=1)."""
    return stabilize(g, sigma).odometer


def real_odometer_by_support_search(g: Multigraph, sigma) -> tuple[Fraction, ...]:
    """Desk-scale oracle: try every complementarity support, keep the unique
    feasible one.  Exponential in the vertex count; refuses more than 12."""
    sigma = validate_sandpile(g, sigma)
    n = len(g.non_sink)
    if n > 12:
        raise TooLargeError("support search is limited to 12 non-sink vertices")
    c = _shifted_demand(g, sigma)
    Lp = reduced_laplacian(g)
    found = []
    for k in range(n + 1):
        for support in itertools.combinations(range(n), k):
            x = _solve_on_support(Lp, c, list(support))
            if any(xi < 0 for xi in x):
                continue
            u = _embed(n, list(support), x)
            row = apply_reduced_laplacian(g, u)
            if all(row[i] >= c[i] for i in range(n)):
                found.append(tuple(u))
    # feasible complementary points are automatically minimal, hence unique
    distinct = set(found)
    if len(distinct) != 1:
        raise InvariantError(f"expected a unique solution, got {distinct}")
    return tuple(Fraction(x) for x in found[0])
