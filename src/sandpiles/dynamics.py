"""Integer chip-firing: toppling, stabilization, and the least-integer
solution engine behind group odometers.

All vectors are tuples/lists indexed by sandpile position (ascending
non-sink vertex index).  Stabilization uses a FIFO queue with batch
toppling; correctness is schedule-independent (the abelian property, which
the test suite exercises with randomized schedules).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InvalidSandpileError, InvariantError
from .graph import Multigraph, validate_sandpile


@dataclass(frozen=True)
class StabilizationResult:
    stable_config: tuple[int, ...]
    odometer: tuple[int, ...]
    topple_count: int


def is_stable(g: Multigraph, sigma) -> bool:
    """True iff no vertex holds at least its degree."""
    sigma = validate_sandpile(g, sigma)
    degs = g.degrees_non_sink()
    return all(s < d for s, d in zip(sigma, degs))


def topple(g: Multigraph, values, v: int) -> tuple[int, ...]:
    """Topple non-sink vertex v once (legal or not): v loses its degree,
    each neighbor gains the edge multiplicity, grains sent to the sink
    vanish.  ``values`` may be any integer labeling."""
    p = g.position(v)
    out = list(int(x) for x in values)
    out[p] -= g.degree(v)
    for q, m in g.reduced_adjacency()[p]:
        out[q] += m
    return tuple(out)


def stabilize(g: Multigraph, sigma, rng=None) -> StabilizationResult:
    """Stabilize a sandpile by legal topplings.

    Default schedule: FIFO queue, toppling each unstable vertex
    floor(sigma(v)/d(v)) times at once.  With ``rng`` given, a uniformly
    random unstable vertex is toppled once per step instead (used to
    exercise the abelian property).
    """
    sigma = validate_sandpile(g, sigma)
    degs = g.degrees_non_sink()
    adj = g.reduced_adjacency()
    cur = list(sigma)
    odometer = [0] * len(cur)

    if rng is None:
        queue = deque(p for p, (s, d) in enumerate(zip(cur, degs)) if s >= d)
        queued = [cur[p] >= degs[p] for p in range(len(cur))]
        while queue:
            p = queue.popleft()
            queued[p] = False
            d = degs[p]
            if cur[p] < d:
                continue
            t = cur[p] // d
            cur[p] -= t * d
            odometer[p] += t
            for q, m in adj[p]:
                cur[q] += t * m
                if cur[q] >= degs[q] and not queued[q]:
                    queued[q] = True
                    queue.append(q)
    else:
        while True:
            unstable = [p for p, (s, d) in enumerate(zip(cur, degs)) if s >= d]
            if not unstable:
                break
            p = rng.choice(unstable)
            cur[p] -= degs[p]
            odometer[p] += 1
            for q, m in adj[p]:
                cur[q] += m

    return StabilizationResult(tuple(cur), tuple(odometer), sum(odometer))


def least_integer_solution(g: Multigraph, target) -> tuple[int, ...]:
    """Minimal w >= 0 over the integers with (L'w)(v) >= target(v) for all
    non-sink v, where L' is the reduced Laplacian.

    Any deficient vertex is raised by the least amount restoring its own
    inequality; raising a vertex only hurts its neighbors, so the iterate
    grows monotonically and stays below every feasible solution, which
    forces convergence to the least one.
    """
    degs = g.degrees_non_sink()
    adj = g.reduced_adjacency()
    n = len(degs)
    target = [int(x) for x in target]
    if len(target) != n:
        raise InvalidSandpileError(f"expected {n} target values, got {len(target)}")
    w = [0] * n
    row = [0] * n  # current value of L' w
    queue = deque(p for p in range(n) if target[p] > 0)
    queued = [target[p] > 0 for p in range(n)]
    while queue:
        p = queue.popleft()
        queued[p] = False
        deficit = target[p] - row[p]
        if deficit <= 0:
            continue
        d = degs[p]
        t = -(-deficit // d)
        w[p] += t
        row[p] += t * d
        for q, m in adj[p]:
            row[q] -= t * m
            if row[q] < target[q] and not queued[q]:
                queued[q] = True
                queue.append(q)
    # feasibility, and a minimality certificate: any raised vertex would
    # violate its inequality if lowered by one
    if any(row[p] < target[p] for p in range(n)):
        raise InvariantError("least integer solution is infeasible")
    if any(w[p] and row[p] - degs[p] >= target[p] for p in range(n)):
        raise InvariantError("least integer solution is not minimal")
    return tuple(w)


def apply_reduced_laplacian(g: Multigraph, u) -> list:
    """L'u computed straight from the adjacency structure (works for any
    numeric entries, e.g. Fractions)."""
    degs = g.degrees_non_sink()
    adj = g.reduced_adjacency()
    out = []
    for p in range(len(degs)):
        s = degs[p] * u[p]
        for q, m in adj[p]:
            s -= m * u[q]
        out.append(s)
    return out
