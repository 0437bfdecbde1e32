"""Immutability classification and the fast criteria that certify it.

A sandpile is immutable when its integer odometer and real odometer agree
(equivalently, when the real odometer is integral).  ``classify`` always
computes both odometers exactly; the ``criterion`` tag records the most
specific fast certificate that applies to the instance, and the test suite
sweeps every fast path against the definition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import graph as graphs
from .closedform import fib, lucas
from .dynamics import is_stable, stabilize
from .errors import (
    CriterionInapplicableError,
    HypothesesFailError,
    IndexOutOfRangeError,
    InvalidSandpileError,
    InvariantError,
    NotConeOfRegularError,
    NotPowerOfTwoError,
    NotTreeError,
    NotUniformlyLargeError,
)
from .graph import Multigraph, validate_sandpile
from .linalg import solve_reduced
from .rodometer import real_odometer

# criterion tags, most specific certificate first
DEFINITION = "definition"
STABLE = "stable"
INTEGRALITY = "integrality"
CONE_IMAGE = "cone-image"
CONE_PREIMAGE = "cone-preimage"
TREE = "tree"
COMPLETE_CONGRUENCE = "complete-congruence"
WHEEL_CONGRUENCE = "wheel-congruence"
WHEEL_POW2 = "wheel-pow2"
BANANA = "banana"


@dataclass(frozen=True)
class Verdict:
    immutable: bool
    z_odometer: tuple[int, ...]
    r_odometer: tuple[Fraction, ...]
    criterion: str


def is_uniformly_large(g: Multigraph, sigma) -> bool:
    """sigma >= degree - 1 componentwise."""
    sigma = validate_sandpile(g, sigma)
    return all(s >= d - 1 for s, d in zip(sigma, g.degrees_non_sink()))


def _verdict(g, sigma, criterion) -> Verdict:
    z = stabilize(g, sigma).odometer
    r = real_odometer(g, sigma).odometer
    immutable = all(a == b for a, b in zip(r, z))
    # agreement with the integer odometer and integrality of the real one
    # are the same condition; guard against any engine drift
    if immutable != all(x.denominator == 1 for x in r):
        raise InvariantError("odometer agreement and integrality disagree")
    return Verdict(immutable, z, r, criterion)


def classify(g: Multigraph, sigma) -> Verdict:
    """Classify by definition (both odometers computed exactly), tagging the
    most specific fast certificate that covers this instance."""
    sigma = validate_sandpile(g, sigma)
    return _verdict(g, sigma, _certificate_tag(g, sigma))


def _certificate_tag(g: Multigraph, sigma) -> str:
    if is_stable(g, sigma):
        return STABLE
    if g.n_vertices == 2:
        return BANANA
    uniform = is_uniformly_large(g, sigma)
    if uniform and graphs.is_tree(g):
        return TREE
    if uniform and graphs.is_complete_graph(g):
        return COMPLETE_CONGRUENCE
    rim = graphs.wheel_rim_order(g)
    if uniform and rim is not None:
        n = len(rim)
        if n >= 4 and n & (n - 1) == 0:
            return WHEEL_POW2
        return WHEEL_CONGRUENCE
    if graphs.is_cone_of_regular(g):
        if uniform:
            return CONE_IMAGE
        a = in_laplacian_image(g, sigma)
        if a is not None and all(x >= d - 1 for x, d in zip(a, g.degrees_non_sink())):
            return CONE_PREIMAGE
    if uniform:
        return INTEGRALITY
    return DEFINITION


def integrality_test(g: Multigraph, sigma) -> bool:
    """For uniformly large sigma, immutability is exactly integrality of
    (L')^{-1}(sigma - d + 1)."""
    sigma = validate_sandpile(g, sigma)
    if not is_uniformly_large(g, sigma):
        raise NotUniformlyLargeError("sigma must be >= degree - 1 everywhere")
    c = [s - d + 1 for s, d in zip(sigma, g.degrees_non_sink())]
    num, den = solve_reduced(g, c)
    return all(x % den == 0 for x in num)


def in_laplacian_image(g: Multigraph, values) -> tuple[int, ...] | None:
    """Integer preimage under the reduced Laplacian, or None.

    ``values`` may be any integer vector on the non-sink vertices."""
    vals = [int(x) for x in values]
    if len(vals) != len(g.non_sink):
        raise InvalidSandpileError(
            f"expected {len(g.non_sink)} values, got {len(vals)}"
        )
    num, den = solve_reduced(g, vals)
    if all(x % den == 0 for x in num):
        return tuple(x // den for x in num)
    return None


def cone_criterion(g: Multigraph, sigma) -> Verdict:
    """Immutability on cones of regular graphs with the sink at the apex.

    Uniformly large sigma: immutable iff sigma has an integer Laplacian
    preimage a (then a is uniformly large and the real odometer is
    a - d + 1).  Otherwise, if sigma = L'a for an integer uniformly large
    a: immutable with the same odometer formula.  Anything else is outside
    the criterion's reach.
    """
    if not graphs.is_cone_of_regular(g):
        raise NotConeOfRegularError(
            "the sink must be the apex of a cone over a regular graph"
        )
    sigma = validate_sandpile(g, sigma)
    degs = g.degrees_non_sink()
    a = in_laplacian_image(g, sigma)
    if is_uniformly_large(g, sigma):
        if a is not None:
            if any(x < d - 1 for x, d in zip(a, degs)):
                raise InvariantError(
                    "the Laplacian preimage of a uniformly large sigma is "
                    "not uniformly large"
                )
            u = tuple(x - d + 1 for x, d in zip(a, degs))
            return Verdict(True, u, tuple(Fraction(x) for x in u), CONE_IMAGE)
        return _verdict(g, sigma, CONE_IMAGE)
    if a is not None and all(x >= d - 1 for x, d in zip(a, degs)):
        u = tuple(x - d + 1 for x, d in zip(a, degs))
        return Verdict(True, u, tuple(Fraction(x) for x in u), CONE_PREIMAGE)
    raise CriterionInapplicableError(
        "sigma is neither uniformly large nor the Laplacian image of a "
        "uniformly large integer vector"
    )


def construct_mutable(g: Multigraph, v: int) -> tuple[int, ...]:
    """Build a uniformly large mutable sandpile pivoting on vertex v.

    Requires: v adjacent to the sink, every other non-sink vertex connected
    to the sink by a path avoiding v ("a"), and degree(v) >= 2 ("b").  The
    output puts d(v) grains on v and d(w) - 1 on every other vertex.
    """
    if not 0 <= v < g.n_vertices:
        raise IndexOutOfRangeError(f"vertex {v} out of range")
    if v == g.sink:
        raise HypothesesFailError(v, ["adjacency"])
    failed = []
    if g.multiplicity(v, g.sink) < 1:
        failed.append("adjacency")
    if not _others_reach_sink_avoiding(g, v):
        failed.append("a")
    if g.degree(v) < 2:
        failed.append("b")
    if failed:
        raise HypothesesFailError(v, failed)
    return tuple(
        g.degree(w) if w == v else g.degree(w) - 1 for w in g.non_sink
    )


def _others_reach_sink_avoiding(g: Multigraph, v: int) -> bool:
    seen = {g.sink}
    queue = deque([g.sink])
    while queue:
        x = queue.popleft()
        for y in range(g.n_vertices):
            if y != v and y not in seen and g.multiplicity(x, y):
                seen.add(y)
                queue.append(y)
    return all(w in seen for w in g.non_sink if w != v)


# --- congruence classifiers --------------------------------------------------
#
# These decide membership of sigma in the image of the reduced Laplacian
# over the integers, which for uniformly large sigma is the same as
# immutability.  Rim positions are treated cyclically; the congruence
# systems are invariant under rotating or reflecting the rim, so position
# order stands in for any cyclic vertex labeling.

def complete_congruence_test(m: int, sigma) -> bool:
    """On the complete graph with m vertices: all pairwise differences of
    sigma must vanish mod m."""
    sigma = [int(x) for x in sigma]
    if len(sigma) != m - 1:
        raise InvalidSandpileError(f"expected {m - 1} values, got {len(sigma)}")
    first = sigma[0] % m
    return all(x % m == first for x in sigma)


def wheel_congruence_test(m: int, sigma) -> bool:
    """On the wheel with m vertices (n = m - 1 rim vertices, sink at the
    hub): the cyclic congruence system with Lucas weights mod 5 F_n for
    even n, Fibonacci weights mod A_n for odd n."""
    n = m - 1
    sigma = [int(x) for x in sigma]
    if n < 3 or len(sigma) != n:
        raise InvalidSandpileError(f"expected {n} >= 3 rim values, got {len(sigma)}")

    def s(i):
        return sigma[i % n]

    if n % 2 == 0:
        mod = 5 * fib(n)
        w_half = lucas(n) % mod
        w_zero = lucas(0) % mod
        w = [lucas(2 * t) % mod for t in range(n // 2)]
        for i in range(n):
            total = w_half * s(i + n // 2) + w_zero * s(i)
            for t in range(1, n // 2):
                total += w[t] * (s(i + t) + s(i - t))
            if total % mod:
                return False
        return True
    mod = lucas(n)
    w_mid = fib(n) % mod
    w = [fib(2 * t - 1) % mod for t in range(1, (n - 1) // 2 + 1)]
    for i in range(n):
        total = w_mid * s(i + (n + 1) // 2)
        for t in range(1, (n - 1) // 2 + 1):
            total += w[t - 1] * (s(i + t) + s(i + 1 - t))
        if total % mod:
            return False
    return True


def wheel_pow2_test(k: int, sigma) -> bool:
    """On the wheel whose rim has 2^k vertices (k >= 2): the reduced
    congruence system, one alternating-sum condition mod 5 plus blockwise
    conditions mod A_(2^ell) for 1 <= ell < k."""
    if k < 2:
        raise NotPowerOfTwoError("the rim size must be 2**k with k >= 2")
    n = 2**k
    sigma = [int(x) for x in sigma]
    if len(sigma) != n:
        raise InvalidSandpileError(f"expected {n} rim values, got {len(sigma)}")

    def s(i):
        return sigma[i % n]

    if sum((-1) ** t * sigma[t] for t in range(n)) % 5:
        return False
    for ell in range(1, k):
        mod = lucas(2**ell)
        w_zero = lucas(0) % mod
        w = [lucas(2 * j) % mod for j in range(2 ** (ell - 1))]
        block = 2**ell
        for i in range(block):
            total = 0
            for c in range(2 ** (k - ell)):
                base = i + block * c
                inner = w_zero * s(base)
                for j in range(1, 2 ** (ell - 1)):
                    inner += w[j] * (s(base + j) + s(base - j))
                total += inner if c % 2 == 0 else -inner
            if total % mod:
                return False
    return True


def banana_test(k: int, sigma) -> bool:
    """On two vertices joined by k parallel edges: immutable iff the
    sandpile is stable or k divides sigma(v) + 1."""
    sigma = [int(x) for x in sigma]
    if len(sigma) != 1:
        raise InvalidSandpileError(f"expected 1 value, got {len(sigma)}")
    s = sigma[0]
    return s <= k - 1 or (s + 1) % k == 0


def tree_fast_path(g: Multigraph, sigma) -> bool:
    """On trees every uniformly large sandpile is immutable (the reduced
    Laplacian is unimodular), so this always returns True once the
    preconditions hold."""
    if not graphs.is_tree(g):
        raise NotTreeError("the graph must be a tree")
    sigma = validate_sandpile(g, sigma)
    if not is_uniformly_large(g, sigma):
        raise NotUniformlyLargeError("sigma must be >= degree - 1 everywhere")
    return True
