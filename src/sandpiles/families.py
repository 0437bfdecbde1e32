"""Deterministic graph families and named fixtures for verification sweeps.

The verification family is: every connected simple graph on 2..5 vertices
(one representative per isomorphism class, found by brute-force canonical
forms) plus 50 seeded random connected multigraphs on up to 6 vertices with
edge multiplicities up to 3.  The named fixtures are small classified
instances with frozen expected outputs, runnable from the CLI.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from . import graph as graphs
from .errors import UnknownFixtureError
from .graph import Multigraph

FAMILY_SEED = 408101
RANDOM_MULTIGRAPH_COUNT = 50


def _canonical_form(n: int, adj: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        key = tuple(
            sorted(tuple(sorted((perm[v], perm[w]))) for v, w in adj)
        )
        if best is None or key < best:
            best = key
    return best


def all_connected_simple_graphs(max_vertices: int = 5) -> list[Multigraph]:
    """One representative per isomorphism class, sink at vertex 0."""
    out = []
    for n in range(2, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        seen = set()
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            edges = frozenset(p for p, b in zip(pairs, bits) if b)
            if len(edges) < n - 1:
                continue
            key = _canonical_form(n, edges)
            if key in seen:
                continue
            try:
                g = graphs.from_edge_list(n, 0, [(v, w, 1) for v, w in edges])
            except Exception:
                continue
            seen.add(key)
            out.append(g)
    return out


def random_multigraphs(
    count: int = RANDOM_MULTIGRAPH_COUNT,
    max_vertices: int = 6,
    max_multiplicity: int = 3,
    seed: int = FAMILY_SEED,
) -> list[Multigraph]:
    """Seeded random connected multigraphs: a random spanning tree plus a
    few extra support edges, each with multiplicity 1..max_multiplicity,
    sink at a random vertex."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, max_vertices)
        support = set()
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            j = rng.randrange(i)
            support.add(tuple(sorted((order[i], order[j]))))
        extras = rng.randint(0, 4)
        all_pairs = list(itertools.combinations(range(n), 2))
        for _ in range(extras):
            support.add(rng.choice(all_pairs))
        edges = [
            (v, w, rng.randint(1, max_multiplicity)) for v, w in sorted(support)
        ]
        out.append(graphs.from_edge_list(n, rng.randrange(n), edges))
    return out


def verification_family(max_vertices: int = 6) -> list[Multigraph]:
    """The sweep family, filtered to at most max_vertices vertices."""
    family = all_connected_simple_graphs(min(5, max_vertices))
    family += [
        g for g in random_multigraphs() if g.n_vertices <= max_vertices
    ]
    return family


# --- named fixtures -----------------------------------------------------------

@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Multigraph
    sandpile: tuple[int, ...]
    immutable: bool
    z_odometer: tuple[int, ...]
    r_odometer: tuple[Fraction, ...]


def _fx(name, g, sigma, immutable, z, r):
    return Fixture(
        name, g, tuple(sigma), immutable, tuple(z), tuple(Fraction(x) for x in r)
    )


def named_fixtures() -> list[Fixture]:
    """Small classified instances with frozen expected odometers."""
    half = Fraction(1, 2)
    return [
        _fx("k3-stable", graphs.complete(3), (1, 0), True, (0, 0), (0, 0)),
        _fx("k3-low-mutable", graphs.complete(3), (2, 0), False, (1, 0), (half, 0)),
        _fx("k3-one-topple-immutable", graphs.complete(3), (3, 0), True, (1, 0), (1, 0)),
        _fx("k3-tall-mutable", graphs.complete(3), (4, 0), False, (2, 1),
            (Fraction(5, 3), Fraction(1, 3))),
        _fx("k3-laplacian-image", graphs.complete(3), (0, 3), True, (0, 1), (0, 1)),
        _fx("k4-low-mutable", graphs.complete(4), (4, 0, 0), False, (1, 0, 0),
            (Fraction(2, 3), 0, 0)),
        _fx("p3-tall-immutable", graphs.path(3), (0, 3), True, (2, 5), (2, 5)),
        _fx("p4-mutable", graphs.path(4), (2, 0, 0), False, (1, 0, 0), (half, 0, 0)),
        _fx("banana2-immutable", graphs.banana(2), (3,), True, (1,), (1,)),
        _fx("banana2-mutable", graphs.banana(2), (2,), False, (1,), (half,)),
        _fx("w5-one-spare-grain", graphs.wheel(5), (3, 2, 2, 2), False,
            (1, 1, 1, 1), (Fraction(7, 15), Fraction(1, 5), Fraction(2, 15), Fraction(1, 5))),
    ]


def fixture_by_name(name: str) -> Fixture:
    for fx in named_fixtures():
        if fx.name == name:
            return fx
    raise UnknownFixtureError(f"unknown fixture {name!r}")


def fixture_graphs() -> dict[str, Multigraph]:
    """The small named graphs used across sweeps."""
    return {
        "p2": graphs.path(2),
        "p3": graphs.path(3),
        "p4": graphs.path(4),
        "k3": graphs.complete(3),
        "k4": graphs.complete(4),
        "w5": graphs.wheel(5),
        "banana2": graphs.banana(2),
        "banana3": graphs.banana(3),
        "cone-c4": graphs.cone(graphs.cycle(4)),
        "cone-p3": graphs.cone(graphs.path(3)),
    }
