"""Multigraph data model, standard graph families, and JSON serialization.

A multigraph here is finite, connected, without self-loops, and carries a
designated sink vertex.  Vertices are integers 0..n_vertices-1; the sink may
sit at any index.  Edge multiplicities live in a dense symmetric matrix
(graphs at this scale are tiny); the edge-list form is only an I/O format.
Sandpiles are tuples of non-negative ints ordered by ascending non-sink
vertex index.
"""

from __future__ import annotations

import functools
from collections import deque

from .errors import (
    DisconnectedError,
    EmptyGraphError,
    GraphFormatError,
    IndexOutOfRangeError,
    InvalidSandpileError,
    SelfLoopError,
    SizeTooSmallError,
)


class Multigraph:
    """Immutable connected multigraph without self-loops, plus a sink.

    ``mult`` is a full symmetric matrix of edge multiplicities.  Parallel
    edges count as distinct objects everywhere (enumeration, incidence
    matrices, degrees).
    """

    __slots__ = ("_mult", "sink", "n_vertices", "_degrees", "non_sink",
                 "_position", "_edges", "_reduced_adj", "_factors", "_shapes")

    def __init__(self, mult, sink: int):
        rows = tuple(tuple(int(x) for x in row) for row in mult)
        n = len(rows)
        if n < 2:
            raise EmptyGraphError("a multigraph needs at least 2 vertices")
        if any(len(row) != n for row in rows):
            raise IndexOutOfRangeError("multiplicity matrix must be square")
        if not 0 <= sink < n:
            raise IndexOutOfRangeError(f"sink {sink} out of range for {n} vertices")
        for v in range(n):
            if rows[v][v] != 0:
                raise SelfLoopError(f"vertex {v} has a self-loop")
            for w in range(v):
                if rows[v][w] != rows[w][v]:
                    raise IndexOutOfRangeError("multiplicity matrix must be symmetric")
                if rows[v][w] < 0:
                    raise IndexOutOfRangeError("multiplicities must be non-negative")
        self._mult = rows
        self.sink = sink
        self.n_vertices = n
        self._degrees = tuple(sum(row) for row in rows)
        self._check_connected()
        self.non_sink = tuple(v for v in range(n) if v != sink)
        self._position = {v: i for i, v in enumerate(self.non_sink)}
        self._edges = None
        self._reduced_adj = None
        self._factors = None
        self._shapes = None

    def _check_connected(self):
        n = self.n_vertices
        seen = [False] * n
        seen[0] = True
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in range(n):
                if self._mult[v][w] and not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if not all(seen):
            raise DisconnectedError("the multigraph must be connected")

    def multiplicity(self, v: int, w: int) -> int:
        return self._mult[v][w]

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def position(self, v: int) -> int:
        """Index of non-sink vertex v in sandpile/odometer vectors."""
        return self._position[v]

    def edge_count(self) -> int:
        """Number of edges, parallel copies counted, without materializing."""
        return sum(self._degrees) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (v, w) with v < w; parallel copies appear separately."""
        if self._edges is None:
            out = []
            for v in range(self.n_vertices):
                for w in range(v + 1, self.n_vertices):
                    out.extend([(v, w)] * self._mult[v][w])
            self._edges = tuple(out)
        return self._edges

    def reduced_adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per non-sink position: ((neighbor position, multiplicity), ...)."""
        if self._reduced_adj is None:
            adj = []
            for v in self.non_sink:
                row = tuple(
                    (self._position[w], self._mult[v][w])
                    for w in self.non_sink
                    if self._mult[v][w]
                )
                adj.append(row)
            self._reduced_adj = tuple(adj)
        return self._reduced_adj

    def factor_cache(self) -> dict:
        """This instance's store of exact factorizations of L' and its
        principal submatrices, keyed by support (see linalg.solve_reduced).
        It lives and dies with the instance; equal graphs never share it."""
        if self._factors is None:
            self._factors = {}
        return self._factors

    def degrees_non_sink(self) -> tuple[int, ...]:
        return tuple(self._degrees[v] for v in self.non_sink)

    def __eq__(self, other):
        return (
            isinstance(other, Multigraph)
            and self._mult == other._mult
            and self.sink == other.sink
        )

    def __hash__(self):
        return hash((self._mult, self.sink))

    def __repr__(self):
        m = len(self.edges())
        return f"Multigraph({self.n_vertices} vertices, {m} edges, sink={self.sink})"


def from_edge_list(n_vertices: int, sink: int, edges) -> Multigraph:
    """Build a validated multigraph from (v, w, multiplicity) triples."""
    if n_vertices < 2:
        raise EmptyGraphError("a multigraph needs at least 2 vertices")
    mult = [[0] * n_vertices for _ in range(n_vertices)]
    for v, w, k in edges:
        if not (0 <= v < n_vertices and 0 <= w < n_vertices):
            raise IndexOutOfRangeError(f"edge ({v},{w}) out of range")
        if v == w:
            raise SelfLoopError(f"edge ({v},{w}) is a self-loop")
        if k < 1:
            raise IndexOutOfRangeError("edge multiplicity must be >= 1")
        mult[v][w] += k
        mult[w][v] += k
    return Multigraph(mult, sink)


# --- standard families -----------------------------------------------------

def path(k: int) -> Multigraph:
    """Path on k vertices; sink at one endpoint, the rest ordered linearly."""
    if k < 2:
        raise SizeTooSmallError("path needs k >= 2")
    return from_edge_list(k, 0, [(i, i + 1, 1) for i in range(k - 1)])


def cycle(k: int) -> Multigraph:
    """Cycle on k vertices, sink at index 0."""
    if k < 3:
        raise SizeTooSmallError("cycle needs k >= 3")
    edges = [(i, (i + 1) % k, 1) for i in range(k)]
    return from_edge_list(k, 0, edges)


def complete(m: int) -> Multigraph:
    """Complete graph on m vertices, sink at index 0."""
    if m < 2:
        raise SizeTooSmallError("complete graph needs m >= 2")
    edges = [(v, w, 1) for v in range(m) for w in range(v + 1, m)]
    return from_edge_list(m, 0, edges)


def wheel(m: int) -> Multigraph:
    """Wheel on m vertices: hub (the sink, index 0) plus a cyclic rim 1..m-1."""
    if m < 4:
        raise SizeTooSmallError("wheel needs m >= 4")
    n = m - 1
    edges = [(0, i, 1) for i in range(1, m)]
    edges += [(i, i % n + 1, 1) for i in range(1, m)]
    return from_edge_list(m, 0, edges)


def banana(k: int) -> Multigraph:
    """Two vertices joined by k parallel edges; sink at index 0."""
    if k < 1:
        raise SizeTooSmallError("banana needs k >= 1")
    return from_edge_list(2, 0, [(0, 1, k)])


def cone(g: Multigraph) -> Multigraph:
    """Add an apex adjacent once to every vertex of g; the apex becomes the sink.

    The apex gets the highest index, so g's own vertex labels are preserved
    (g's sink designation is forgotten).
    """
    n = g.n_vertices
    mult = [[g.multiplicity(v, w) for w in range(n)] + [1] for v in range(n)]
    mult.append([1] * n + [0])
    return Multigraph(mult, n)


# --- shape predicates ------------------------------------------------------
#
# A Multigraph is immutable, so each predicate runs once per instance and
# keeps its answer in the instance's ``_shapes`` slot; a survey that
# classifies thousands of sandpiles on one graph recognizes it once.

def _once_per_graph(predicate):
    name = predicate.__name__

    @functools.wraps(predicate)
    def memoized(g: Multigraph):
        if g._shapes is None:
            g._shapes = {}
        if name not in g._shapes:
            g._shapes[name] = predicate(g)
        return g._shapes[name]

    return memoized


@_once_per_graph
def is_cone_of_regular(g: Multigraph) -> bool:
    """True iff the sink is joined once to every other vertex and all
    non-sink degrees agree (so deleting the sink leaves a regular graph)."""
    if any(g.multiplicity(g.sink, v) != 1 for v in g.non_sink):
        return False
    degs = {g.degree(v) for v in g.non_sink}
    return len(degs) == 1


@_once_per_graph
def is_tree(g: Multigraph) -> bool:
    """Connected with exactly n_vertices - 1 edges (parallel copies counted)."""
    return len(g.edges()) == g.n_vertices - 1


@_once_per_graph
def is_complete_graph(g: Multigraph) -> bool:
    """Every pair of distinct vertices joined by exactly one edge."""
    n = g.n_vertices
    return all(
        g.multiplicity(v, w) == 1 for v in range(n) for w in range(v + 1, n)
    )


@_once_per_graph
def wheel_rim_order(g: Multigraph) -> tuple[int, ...] | None:
    """If g is a wheel with the sink at the hub, return its rim as a tuple
    of sandpile positions in cyclic order; otherwise None.

    The rim must be a single simple cycle of length >= 3, each rim vertex
    joined to the hub by exactly one spoke.  The orientation starts at the
    lowest-indexed rim vertex and is otherwise arbitrary (congruence checks
    are invariant under rotation and reflection of the rim).
    """
    rim = g.non_sink
    n = len(rim)
    if n < 3:
        return None
    if any(g.multiplicity(g.sink, v) != 1 for v in rim):
        return None
    neighbors = {}
    for v in rim:
        nbrs = [w for w in rim if g.multiplicity(v, w)]
        if len(nbrs) != 2 or any(g.multiplicity(v, w) != 1 for w in nbrs):
            return None
        neighbors[v] = nbrs
    start = rim[0]
    order = [start]
    prev, cur = start, neighbors[start][0]
    while cur != start:
        order.append(cur)
        nxt = [w for w in neighbors[cur] if w != prev]
        prev, cur = cur, nxt[0]
    if len(order) != n:
        return None
    return tuple(g.position(v) for v in order)


# --- sandpiles -------------------------------------------------------------

def validate_sandpile(g: Multigraph, values) -> tuple[int, ...]:
    """Check length and non-negativity; return the sandpile as a tuple."""
    vals = tuple(int(x) for x in values)
    if len(vals) != len(g.non_sink):
        raise InvalidSandpileError(
            f"expected {len(g.non_sink)} values, got {len(vals)}"
        )
    if any(x < 0 for x in vals):
        raise InvalidSandpileError("sandpile values must be non-negative")
    return vals


# --- JSON forms ------------------------------------------------------------

def graph_to_json(g: Multigraph) -> dict:
    """Edge-list JSON form: {"vertices", "sink", "edges": [[v, w, mult], ...]}."""
    edges = []
    for v in range(g.n_vertices):
        for w in range(v + 1, g.n_vertices):
            k = g.multiplicity(v, w)
            if k:
                edges.append([v, w, k])
    return {"vertices": g.n_vertices, "sink": g.sink, "edges": edges}


def graph_from_json(data: dict) -> Multigraph:
    try:
        n_vertices, sink = int(data["vertices"]), int(data["sink"])
        edges = [(int(v), int(w), int(k)) for v, w, k in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphFormatError(
            'a graph is {"vertices": int, "sink": int, "edges": '
            f"[[v, w, multiplicity], ...]}} ({type(exc).__name__}: {exc})"
        ) from None
    return from_edge_list(n_vertices, sink, edges)


def sandpile_to_json(values) -> dict:
    return {"values": [int(x) for x in values]}


def sandpile_from_json(data: dict) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in data["values"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSandpileError(
            f'a sandpile is {{"values": [int, ...]}} ({type(exc).__name__}: {exc})'
        ) from None
