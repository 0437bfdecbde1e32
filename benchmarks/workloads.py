"""Seeded request generators for the four benchmark workloads.

Every workload is an endless sequence of blocks.  A block always holds the
same slots (command, graph family, size), so its cost profile does not depend
on the seed; the seed picks the details inside each slot: vertex labels,
random multigraphs, sandpile values, heap positions and sizes, and the order
of the requests.  The same seed gives byte-identical inputs.

Graphs are written in the CLI's JSON form ``{"vertices", "sink", "edges"}``.
Non-sink vertices keep their structural order in the labels, so the cost of
an elimination that runs in label order stays that of the family; the sink's
label moves.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field


@dataclass
class Request:
    """One CLI call.  ``argv`` uses the placeholders GRAPH and SANDPILE for
    the input files that ``materialize`` writes; ``meta["slot"]`` names the
    request's slot in the block."""

    argv: list[str]
    graph: dict | None = None
    sandpile: list[int] | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # the tail percentile: the highest one with at least 10 samples beyond it at
    # the request count of a run at the baseline, moved to the middle of a
    # slot's share of the block so that it does not sit between two slots
    tail_q: float
    make: Callable[[random.Random], Iterator[list[Request]]]


# --- graphs ------------------------------------------------------------------

def _emit(n_vertices: int, sink: int, mult: dict) -> dict:
    edges = [[v, w, k] for (v, w), k in sorted(mult.items())]
    return {"vertices": n_vertices, "sink": sink, "edges": edges}


def _add(mult: dict, v: int, w: int, k: int = 1) -> None:
    key = (v, w) if v < w else (w, v)
    mult[key] = mult.get(key, 0) + k


def sink_last_graph(n: int, inner, to_sink, sink_label: int) -> dict:
    """Graph on n non-sink positions plus a sink labelled ``sink_label``.

    ``inner`` holds (p, q, k) edges between positions, ``to_sink`` holds
    (p, k) edges to the sink.  Position p keeps label p below the sink's
    label and p + 1 above it, so positions stay in label order, and the
    graph's reduced Laplacian does not depend on ``sink_label``."""

    def label(p):
        return p if p < sink_label else p + 1

    mult: dict = {}
    for p, q, k in inner:
        _add(mult, label(p), label(q), k)
    for p, k in to_sink:
        _add(mult, label(p), sink_label, k)
    return _emit(n + 1, sink_label, mult)


def grid(a: int, b: int, sink_label: int, doubled: int | None = None) -> dict:
    """a x b grid in row-major order; the sink stands for the outside, so every
    cell has degree 4 (corners send two edges to it).  With ``doubled``, the
    inner edge of that index (0 to 2ab - a - b - 1) gets multiplicity 2,
    which changes two degrees but not the sparsity pattern."""
    inner = []
    to_sink = []
    for i in range(a):
        for j in range(b):
            p = i * b + j
            if i + 1 < a:
                inner.append((p, p + b, 1))
            if j + 1 < b:
                inner.append((p, p + 1, 1))
            outside = (i == 0) + (i == a - 1) + (j == 0) + (j == b - 1)
            if outside:
                to_sink.append((p, outside))
    if doubled is not None:
        p, q, _ = inner[doubled]
        inner[doubled] = (p, q, 2)
    return sink_last_graph(a * b, inner, to_sink, sink_label)


def wheel(rim: int, sink_label: int) -> dict:
    """Wheel with the sink at the hub and the rim in cyclic label order.  The
    cone over a cycle is the same graph."""
    inner = [(p, (p + 1) % rim, 1) for p in range(rim)]
    return sink_last_graph(rim, inner, [(p, 1) for p in range(rim)], sink_label)


def path(length: int) -> dict:
    """Path on ``length`` vertices with the sink at one end (label 0)."""
    inner = [(p, p + 1, 1) for p in range(length - 2)]
    return sink_last_graph(length - 1, inner, [(0, 1)], 0)


def cycle(length: int) -> dict:
    """Cycle on ``length`` vertices with the sink at label 0."""
    inner = [(p, p + 1, 1) for p in range(length - 2)]
    return sink_last_graph(length - 1, inner, [(0, 1), (length - 2, 1)], 0)


def permuted(n_vertices: int, edges, sink: int, rng: random.Random) -> dict:
    """Relabel a small graph by a random permutation of all its vertices."""
    perm = list(range(n_vertices))
    rng.shuffle(perm)
    mult: dict = {}
    for v, w, k in edges:
        _add(mult, perm[v], perm[w], k)
    return _emit(n_vertices, perm[sink], mult)


def small_family(family: str, n_vertices: int, rng: random.Random) -> dict:
    """A randomly labelled wheel (sink at the hub), complete graph, or random
    connected multigraph with multiplicities up to 3 (sink anywhere)."""
    if family == "wheel":
        rim = n_vertices - 1
        edges = [(0, i, 1) for i in range(1, n_vertices)]
        edges += [(i, i % rim + 1, 1) for i in range(1, n_vertices)]
        return permuted(n_vertices, edges, 0, rng)
    if family == "complete":
        edges = [(v, w, 1) for v, w in itertools.combinations(range(n_vertices), 2)]
        return permuted(n_vertices, edges, 0, rng)
    if family == "random":
        support = set()
        for v in range(1, n_vertices):  # random spanning tree
            support.add((rng.randrange(v), v))
        pairs = list(itertools.combinations(range(n_vertices), 2))
        for _ in range(rng.randint(1, n_vertices)):
            support.add(rng.choice(pairs))
        edges = [(v, w, rng.randint(1, 3)) for v, w in sorted(support)]
        return permuted(n_vertices, edges, rng.randrange(n_vertices), rng)
    raise ValueError(f"unknown small family {family!r}")


def degrees(graph: dict) -> dict[int, int]:
    out = {v: 0 for v in range(graph["vertices"])}
    for v, w, k in graph["edges"]:
        out[v] += k
        out[w] += k
    return out


def non_sink_degrees(graph: dict) -> list[int]:
    deg = degrees(graph)
    return [deg[v] for v in range(graph["vertices"]) if v != graph["sink"]]


def reduced_key(graph: dict) -> tuple:
    """The graph's reduced Laplacian L' in the program's row order (non-sink
    vertices by label), as the edges between rows plus each row's edges to
    the sink: two graphs have the same key exactly when they have the same L'."""
    rank = {}
    for v in range(graph["vertices"]):
        if v != graph["sink"]:
            rank[v] = len(rank)
    inner, to_sink = [], [0] * len(rank)
    for v, w, k in graph["edges"]:
        if graph["sink"] in (v, w):
            to_sink[rank[w if v == graph["sink"] else v]] += k
        else:
            inner.append((*sorted((rank[v], rank[w])), k))
    return tuple(sorted(inner)), tuple(to_sink)


def _fresh(seen: set, draw) -> dict:
    """A graph from ``draw(widen)`` whose reduced Laplacian no earlier request
    of the run had, so that nothing a solver could cache per matrix is reused.
    ``widen`` counts the draws that came out used."""
    for widen in range(1000):
        graph = draw(widen)
        key = reduced_key(graph)
        if key not in seen:
            seen.add(key)
            return graph
    raise RuntimeError("ran out of distinct reduced Laplacians")


# --- workloads ---------------------------------------------------------------

# (family, vertices, box width): width**(vertices - 1) sandpiles per request.
# In cost order, the median slot (the complete graph on 5 vertices) is about
# 1.5 times or more as slow as the slot below and as fast as the slot above;
# the random multigraphs, whose cost varies most, are below it.
SURVEY_SLOTS = [
    ("wheel", 5, 6), ("wheel", 6, 3), ("wheel", 7, 3),
    ("complete", 4, 7), ("complete", 5, 5), ("complete", 6, 4), ("complete", 7, 3),
    ("random", 5, 5), ("random", 6, 3),
]


def survey_small(rng: random.Random):
    while True:
        block = []
        for family, n_vertices, width in SURVEY_SLOTS:
            graph = small_family(family, n_vertices, rng)
            # the box straddles d - 1: lo = d - 1 - below, hi = lo + width - 1;
            # an even width has one more value above d - 1 than below it
            below = (width - 1) // 2
            lo, hi = -1 - below, width - 2 - below
            box = f"d{lo:+d}:d{hi:+d}" if hi else f"d{lo:+d}:d"
            block.append(Request(
                ["survey", "--graph", "GRAPH", "--box", box], graph,
                meta={"slot": f"{family}:{n_vertices}"}))
        rng.shuffle(block)
        yield block


def uniformly_large(graph: dict, rng: random.Random) -> list[int]:
    return [d - 1 + rng.randint(0, 3) for d in non_sink_degrees(graph)]


def heap(n: int, position: int, grains: int) -> list[int]:
    values = [0] * n
    values[position] = grains
    return values


# (command, family, size); grids are size x size with one inner edge doubled
# at a seeded place, wheels have about size rim vertices (within a sixteenth).
# In cost order, the median slot (odometer-r on the 8 x 8 grid) and the tail
# slot (classify on the 12 x 12 grid) are each at least 1.4 times as slow as
# the slot below and as fast as the slot above, so neither percentile falls
# between two slots.
EXACT_SLOTS = [
    ("classify", "grid", 10), ("classify", "grid", 12), ("classify", "grid", 14),
    ("classify", "wheel", 90),
    ("odometer-r", "grid", 8), ("odometer-r", "grid", 12),
    ("odometer-r", "wheel", 60), ("odometer-r", "wheel", 80),
    ("info", "grid", 10), ("info", "grid", 14), ("info", "wheel", 120),
]


def exact_large(rng: random.Random):
    seen: set = set()
    while True:
        block = []
        for command, family, size in EXACT_SLOTS:
            def draw(widen, family=family, size=size):
                if family == "grid":
                    n = size * size
                    return grid(size, size, rng.randrange(n + 1), rng.randrange(2 * n - 2 * size))
                # the band widens only once a long run has used every rim in it
                spread = size // 16 + widen // 8
                rim = size + rng.randint(-spread, spread)
                return wheel(rim, rng.randrange(rim + 1))

            graph = _fresh(seen, draw)
            n = graph["vertices"] - 1
            meta = {"slot": f"{command}:{family}:{size}"}
            if command == "info":
                block.append(Request(["info", "--graph", "GRAPH"], graph, meta=meta))
            elif command == "classify":
                block.append(Request(
                    ["classify", "--graph", "GRAPH", "--sandpile", "SANDPILE"],
                    graph, uniformly_large(graph, rng), meta))
            else:
                # a heap of about 5n/2 grains next to the centre of the grid, or
                # anywhere on the rim of a wheel
                if family == "grid":
                    i, j = (size // 2 - rng.randrange(2) for _ in range(2))
                    position = i * size + j
                else:
                    position = rng.randrange(n)
                sigma = heap(n, position, rng.randint(49 * n // 20, 51 * n // 20))
                block.append(Request(
                    ["odometer", "--group", "r", "--graph", "GRAPH", "--sandpile", "SANDPILE"],
                    graph, sigma, meta))
        rng.shuffle(block)
        yield block


# (command, group, family, length, grains), in cost order: the median slot
# (stabilize on the cycle) and the tail slot (stabilize on the path) are about
# 1.4 times or more as slow as the slot below and as fast as the slot above
TALL_SLOTS = [
    ("odometer", "q:3", "cycle", 60, 5000), ("odometer", "q:1", "cycle", 80, 1000),
    ("odometer", "z", "cycle", 100, 2000), ("odometer", "q:1", "path", 60, 3000),
    ("stabilize", None, "cycle", 120, 5000), ("odometer", "z", "path", 90, 5000),
    ("stabilize", None, "path", 110, 2000), ("odometer", "q:2", "path", 120, 700),
    ("odometer", "q:3", "path", 110, 1600),
]


def tall_piles(rng: random.Random):
    while True:
        block = []
        for command, group, family, length, grains in TALL_SLOTS:
            n = length - 1
            # the heap sits within two vertices of the point furthest from the sink
            if family == "path":
                graph = path(length)
                position = rng.randrange(n - 3, n)
            else:
                graph = cycle(length)
                position = rng.randrange(n // 2 - 2, n // 2 + 3)
            sigma = heap(n, position, rng.randint(grains * 49 // 50, grains * 51 // 50))
            argv = [command, "--graph", "GRAPH", "--sandpile", "SANDPILE"]
            if group is not None:
                argv[1:1] = ["--group", group]
            block.append(Request(
                argv, graph, sigma,
                {"slot": f"{command}:{group or '-'}:{family}:{length}", "position": position}))
        rng.shuffle(block)
        yield block


VERIFY_SUITES = ["matrix-tree", "inverse-entry", "fixtures"]


def verify_oracle(rng: random.Random):
    while True:
        suites = list(VERIFY_SUITES)
        rng.shuffle(suites)
        yield [
            Request(["verify", "--suite", s, "--max-vertices", "5"], meta={"slot": s})
            for s in suites
        ]


WORKLOADS = {w.name: w for w in (
    Workload("survey-small",
             "many tiny exact solves and certificate labels per request on one small graph",
             6.5 / 9, survey_small),
    Workload("exact-large",
             "one large exact rational solve or determinant per request, no matrix used twice",
             8.5 / 11, exact_large),
    Workload("tall-piles",
             "long toppling runs and the least-integer engine, no linear solves",
             6.5 / 9, tall_piles),
    Workload("verify-oracle",
             "brute-force forest enumeration and canonical forms of the oracle suites",
             0.72, verify_oracle),
)}


def blocks(workload: str, seed: int):
    """Endless iterator of request blocks for ``workload`` under ``seed``."""
    return WORKLOADS[workload].make(random.Random(f"{workload}/{seed}"))


def materialize(request: Request, directory: str, index: int) -> list[str]:
    """Write the request's input files and return its argv."""
    argv = list(request.argv)
    for token, payload in (("GRAPH", request.graph),
                           ("SANDPILE", None if request.sandpile is None
                            else {"values": request.sandpile})):
        if payload is None:
            continue
        path_ = os.path.join(directory, f"r{index:03d}-{token.lower()}.json")
        with open(path_, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        argv[argv.index(token)] = path_
    return argv
