"""Correctness checks for CLI outputs, computed from the input files alone.

Nothing here imports ``sandpiles``: every expected value is recomputed or
certified from the graph JSON with exact integer and rational arithmetic.

* An R-odometer u is certified by feasibility (u >= 0, L'u >= sigma - d + 1)
  and complementarity (u_v > 0 only where the inequality is tight).  L' is a
  nonsingular M-matrix, so this pair has exactly one solution.
* A Z- or (1/m)Z-odometer must be feasible (sigma - L'u <= d - 1), lie in the
  sandwich u_R <= u_(1/m)Z <= u_Z, and agree with an independent integer
  engine: the least-integer iteration started from ceil(m u_R), which is a
  valid lower bound because of the sandwich.
* A verdict must equal integrality of the R-odometer and agreement of the R-
  and Z-odometers.
* Survey counts are recounted over the whole box, every verdict certified.
* ``verify`` output must report zero failures over its own check lines.

Each ``*_problem`` function returns None when the output is right and a short
reason otherwise.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from fractions import Fraction
from math import lcm

# Graphs with at most this many non-sink vertices cache one inverse per
# support, which makes a survey recount cheap; larger graphs solve sparsely.
SMALL = 8


class CheckError(Exception):
    """The checker could not certify a value it needs."""


class Graph:
    """Reduced Laplacian data of a graph JSON object, by non-sink position."""

    def __init__(self, data: dict):
        self.n_vertices = data["vertices"]
        self.sink = data["sink"]
        self.non_sink = [v for v in range(self.n_vertices) if v != self.sink]
        pos = {v: i for i, v in enumerate(self.non_sink)}
        n = len(self.non_sink)
        self.n = n
        self.full_degree = [0] * self.n_vertices
        self.deg = [0] * n
        self.adj = [dict() for _ in range(n)]  # position -> {position: multiplicity}
        self.to_sink = [0] * n
        self.n_edges = 0
        for v, w, k in data["edges"]:
            self.n_edges += k
            self.full_degree[v] += k
            self.full_degree[w] += k
            for a, b in ((v, w), (w, v)):
                if a == self.sink:
                    continue
                pa = pos[a]
                self.deg[pa] += k
                if b == self.sink:
                    self.to_sink[pa] += k
                else:
                    self.adj[pa][pos[b]] = self.adj[pa].get(pos[b], 0) + k
        self._inverse: dict = {}

    def apply(self, u) -> list:
        """L'u for any numeric entries."""
        return [
            self.deg[p] * u[p] - sum(m * u[q] for q, m in self.adj[p].items())
            for p in range(self.n)
        ]

    def demand(self, sigma) -> list[int]:
        """sigma - d + 1: u is feasible iff L'u >= this."""
        return [s - d + 1 for s, d in zip(sigma, self.deg)]

    def rows(self, support) -> list[dict]:
        index = {p: i for i, p in enumerate(support)}
        out = []
        for p in support:
            row = {index[p]: Fraction(self.deg[p])}
            for q, m in self.adj[p].items():
                if q in index:
                    row[index[q]] = Fraction(-m)
            out.append(row)
        return out

    def solve_on(self, support: list[int], c) -> tuple[list[int], int]:
        """Solve L'[S,S] x = c[S] exactly, as numerators over one positive
        denominator."""
        if not support:
            return [], 1
        if self.n <= SMALL:
            key = tuple(support)
            cached = self._inverse.get(key)
            if cached is None:
                k = len(support)
                cols = [eliminate(self.rows(support), [Fraction(i == j) for i in range(k)])
                        for j in range(k)]
                det = cols[0][1]  # the adjugate det * inverse is an integer matrix
                cached = self._inverse[key] = (
                    [[int(cols[j][0][i] * det) for j in range(k)] for i in range(k)], int(det))
            adjugate, det = cached
            rhs = [c[p] for p in support]
            return [sum(a * b for a, b in zip(row, rhs)) for row in adjugate], det
        return scaled(eliminate(self.rows(support), [Fraction(c[p]) for p in support])[0])

    def determinant(self) -> Fraction:
        return eliminate(self.rows(list(range(self.n))), [Fraction(0)] * self.n)[1]


def eliminate(rows: list[dict], rhs: list[Fraction]) -> tuple[list[Fraction], Fraction]:
    """Solve a sparse system by Gaussian elimination in row order; return the
    solution and the determinant.  Principal submatrices of an M-matrix have
    positive leading minors, so no pivoting is needed."""
    k = len(rows)
    below = [set() for _ in range(k)]  # column -> rows after the pivot that touch it
    for r, row in enumerate(rows):
        for j in row:
            if j < r:
                below[j].add(r)
    det = Fraction(1)
    for i in range(k):
        pivot_row = rows[i]
        pivot = pivot_row.get(i, 0)
        if pivot == 0:
            raise CheckError("zero pivot: the reduced Laplacian is not an M-matrix")
        det *= pivot
        for r in sorted(below[i]):
            if r <= i:
                continue
            row = rows[r]
            entry = row.pop(i, 0)
            if not entry:
                continue
            factor = entry / pivot
            for j, a in pivot_row.items():
                if j == i:
                    continue
                value = row.get(j, 0) - factor * a
                if value:
                    if j not in row and j < r:
                        below[j].add(r)
                    row[j] = value
                else:
                    row.pop(j, None)
            rhs[r] -= factor * rhs[i]
    x = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        s = rhs[i] - sum(a * x[j] for j, a in rows[i].items() if j > i)
        x[i] = s / rows[i][i]
    return x, det


# --- odometers ---------------------------------------------------------------

def scaled(values) -> tuple[list[int], int]:
    """Rationals as (numerators, common positive denominator)."""
    den = lcm(*(Fraction(x).denominator for x in values)) if values else 1
    return [int(x * den) for x in values], den


def certificate_problem(g: Graph, sigma, num: list[int], den: int) -> str | None:
    """Feasibility and complementarity of u = num / den."""
    if len(num) != g.n:
        return f"R-odometer has {len(num)} entries, expected {g.n}"
    if any(x < 0 for x in num):
        return "R-odometer has a negative entry"
    c = g.demand(sigma)
    row = g.apply(num)
    for p in range(g.n):
        if row[p] < den * c[p]:
            return f"R-odometer is infeasible at position {p}"
        if num[p] and row[p] != den * c[p]:
            return f"R-odometer is not complementary at position {p}"
    return None


def r_odometer_problem(g: Graph, sigma, u) -> str | None:
    """Certificate of a claimed R-odometer (a list of rationals)."""
    return certificate_problem(g, sigma, *scaled(u))


def real_odometer(g: Graph, sigma, support=None) -> tuple[list[int], int]:
    """The certified R-odometer as (numerators, denominator).

    Active set from ``support`` (by default the positions with positive
    demand): solve on the support, drop positions that went negative, add
    positions whose inequality broke.  Any start converges to the same
    certified point; a start near the answer saves iterations."""
    c = g.demand(sigma)
    support = {p for p in range(g.n) if c[p] > 0} if support is None else set(support)
    for _ in range(4 * g.n + 4):
        order = sorted(support)
        x, den = g.solve_on(order, c)
        negative = {p for p, xp in zip(order, x) if xp < 0}
        if negative:
            support -= negative
            continue
        num = [0] * g.n
        for p, xp in zip(order, x):
            num[p] = xp
        row = g.apply(num)
        violated = {p for p in range(g.n) if p not in support and row[p] < den * c[p]}
        if not violated:
            problem = certificate_problem(g, sigma, num, den)
            if problem:
                raise CheckError(problem)
            return num, den
        support |= violated
    raise CheckError("no certified R-odometer within the iteration bound")


def least_integer(g: Graph, target, start) -> list[int]:
    """Least w >= start with L'w >= target, raising deficient positions by the
    least amount; exact when start is at most the least solution."""
    w = list(start)
    row = g.apply(w)
    queue = deque(p for p in range(g.n) if row[p] < target[p])
    queued = [row[p] < target[p] for p in range(g.n)]
    while queue:
        p = queue.popleft()
        queued[p] = False
        deficit = target[p] - row[p]
        if deficit <= 0:
            continue
        t = -(-deficit // g.deg[p])
        w[p] += t
        row[p] += t * g.deg[p]
        for q, m in g.adj[p].items():
            row[q] -= t * m
            if row[q] < target[q] and not queued[q]:
                queued[q] = True
                queue.append(q)
    return w


def group_odometer(g: Graph, sigma, m: int, u_r: tuple[list[int], int]) -> list[int]:
    """m times the (1/m)Z-odometer, warm-started from ceil(m u_R)."""
    num, den = u_r
    c = g.demand(sigma)
    return least_integer(g, [m * x for x in c], [-((-m * x) // den) for x in num])


def group_odometer_problem(g: Graph, sigma, u, m: int, u_r) -> str | None:
    """Check a claimed (1/m)Z-odometer u (m = 1 for Z) against the certified
    R-odometer u_r = (numerators, denominator)."""
    if len(u) != g.n:
        return f"odometer has {len(u)} entries, expected {g.n}"
    mu = [x * m for x in u]
    if any(x.denominator != 1 for x in mu):
        return f"odometer is not in (1/{m})Z"
    w = [int(x) for x in mu]
    if any(x < 0 for x in w):
        return "odometer has a negative entry"
    c = g.demand(sigma)
    row = g.apply(w)
    if any(row[p] < m * c[p] for p in range(g.n)):
        return "sigma - L'u is not stable"
    z = group_odometer(g, sigma, 1, u_r)
    num, den = u_r
    if any(x * den < m * r for x, r in zip(w, num)) or any(x > m * zp for x, zp in zip(w, z)):
        return "odometer breaks the sandwich u_R <= u <= u_Z"
    if w != group_odometer(g, sigma, m, u_r):
        return "odometer disagrees with the independent least-integer engine"
    return None


# --- per-command checks ------------------------------------------------------

def fractions(values) -> list[Fraction]:
    return [Fraction(str(x)) for x in values]


def classify_problem(g: Graph, sigma, out: dict) -> str | None:
    num, den = scaled(fractions(out["r_odometer"]))
    problem = certificate_problem(g, sigma, num, den)
    if problem:
        return problem
    z = group_odometer(g, sigma, 1, (num, den))
    if list(out["z_odometer"]) != z:
        return "Z-odometer disagrees with the independent least-integer engine"
    integral = den == 1
    if integral != all(x == den * zp for x, zp in zip(num, z)):
        return "integrality of u_R and agreement of u_R with u_Z differ"
    if out["immutable"] is not integral:
        return f"verdict {out['immutable']} but the R-odometer integrality is {integral}"
    return None


def odometer_problem(g: Graph, sigma, out: dict, group: str) -> str | None:
    expected = "z" if group == "q:1" else group  # (1/1)Z is Z
    if out["group"] != expected:
        return f"group {out['group']!r}, expected {expected!r}"
    u = fractions(out["odometer"])
    if group == "r":
        return r_odometer_problem(g, sigma, u)
    m = 1 if group == "z" else int(group[2:])
    # supp(u_R) lies inside the support of every group odometer
    start = [p for p, x in enumerate(u) if x > 0]
    return group_odometer_problem(g, sigma, u, m, real_odometer(g, sigma, start))


def stabilize_problem(g: Graph, sigma, out: dict) -> str | None:
    u = fractions(out["odometer"])
    start = [p for p, x in enumerate(u) if x > 0]
    problem = group_odometer_problem(g, sigma, u, 1, real_odometer(g, sigma, start))
    if problem:
        return problem
    row = g.apply([int(x) for x in u])
    expected = [s - r for s, r in zip(sigma, row)]
    if list(out["stable"]) != expected:
        return "stable configuration is not sigma - L'u"
    if any(not 0 <= s < d for s, d in zip(expected, g.deg)):
        return "stable configuration is not stable"
    return None


def info_problem(g: Graph, out: dict) -> str | None:
    cone = all(k == 1 for k in g.to_sink) and len(set(g.deg)) == 1
    expected = {
        "vertices": g.n_vertices,
        "sink": g.sink,
        "edges": g.n_edges,
        "degrees": g.full_degree,
        "spanning_trees": str(g.determinant()),
        "tree": g.n_edges == g.n_vertices - 1,
        "cone_of_regular": cone,
    }
    for key, value in expected.items():
        if out.get(key) != value:
            return f"info field {key!r} is {out.get(key)!r}, expected {value!r}"
    return None


def box_ranges(g: Graph, box: str) -> list[range]:
    """Per-position inclusive ranges of a 'lo:hi' box with d-relative bounds."""

    def bound(token: str, degree: int) -> int:
        token = token.strip()
        if token.startswith("d"):
            return degree + int(token[1:] or 0)
        return int(token)

    lo, _, hi = box.partition(":")
    d = [g.full_degree[v] for v in g.non_sink]
    return [range(max(0, bound(lo, dp)), bound(hi, dp) + 1) for dp in d]


def recount(g: Graph, box: str) -> tuple[int, int]:
    """(total, immutable) over the whole box, every verdict certified."""
    total = immutable = 0
    for sigma in itertools.product(*box_ranges(g, box)):
        total += 1
        if max(g.demand(sigma)) <= 0:
            immutable += 1  # u_R = 0 is feasible and complementary
        else:
            num, den = real_odometer(g, sigma)
            immutable += all(x % den == 0 for x in num)
    return total, immutable


def survey_problem(g: Graph, box: str, out: dict) -> str | None:
    total, immutable = recount(g, box)
    expected = {"box": box, "total": total, "immutable": immutable,
                "mutable": total - immutable}
    if out != expected:
        return f"survey reported {out}, recount gives {expected}"
    return None


def verify_problem(stdout: str, suite: str) -> str | None:
    lines = stdout.splitlines()
    if not lines:
        return "verify printed nothing"
    summary = json.loads(lines[-1])
    if summary != {"suite": suite, "checks": len(lines) - 1, "failures": 0}:
        return f"verify summary {summary} over {len(lines) - 1} check lines"
    if not all(json.loads(line).get("ok") is True for line in lines[:-1]):
        return "a verify check line is not ok"
    return None


def output_problem(argv: list[str], graph: dict | None, sigma, stdout: str) -> str | None:
    """Check one successful CLI output; ``argv`` is the request as sent."""
    command = argv[0]
    if command == "verify":
        return verify_problem(stdout, argv[argv.index("--suite") + 1])
    out = json.loads(stdout)
    g = Graph(graph)
    if command == "survey":
        return survey_problem(g, argv[argv.index("--box") + 1], out)
    if command == "info":
        return info_problem(g, out)
    if command == "classify":
        return classify_problem(g, sigma, out)
    if command == "odometer":
        return odometer_problem(g, sigma, out, argv[argv.index("--group") + 1])
    if command == "stabilize":
        return stabilize_problem(g, sigma, out)
    return f"no check for command {command!r}"
