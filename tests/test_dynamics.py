import random

import pytest

from sandpiles import (
    banana,
    complete,
    cone,
    cycle,
    is_stable,
    least_integer_solution,
    path,
    stabilize,
    topple,
    wheel,
)
from sandpiles.dynamics import apply_reduced_laplacian
from sandpiles.errors import InvalidSandpileError

FIXTURES = [
    (complete(3), (2, 0)),
    (complete(3), (4, 0)),
    (complete(3), (0, 3)),
    (complete(4), (4, 0, 0)),
    (path(3), (0, 5)),
    (path(4), (2, 0, 0)),
    (banana(2), (3,)),
    (banana(3), (7,)),
    (wheel(5), (5, 0, 3, 1)),
    (cone(cycle(4)), (4, 4, 0, 0)),
]


def test_is_stable_boundaries():
    g = complete(3)
    assert is_stable(g, (0, 0))
    assert is_stable(g, tuple(d - 1 for d in g.degrees_non_sink()))
    assert not is_stable(g, (2, 0))


def test_topple_banana():
    g = banana(2)
    assert topple(g, (3,), 1) == (1,)


def test_topple_path_end_vertex():
    g = path(3)
    assert topple(g, (0, 1), 2) == (1, 0)


@pytest.mark.parametrize("g,sigma", FIXTURES)
def test_topple_reversal(g, sigma):
    for v in g.non_sink:
        toppled = topple(g, sigma, v)
        back = list(toppled)
        p = g.position(v)
        back[p] += g.degree(v)
        for q, m in g.reduced_adjacency()[p]:
            back[q] -= m
        assert tuple(back) == tuple(sigma)


def test_stabilize_k3():
    result = stabilize(complete(3), (2, 0))
    assert result.odometer == (1, 0)
    assert result.stable_config == (0, 1)
    assert result.topple_count == 1


def test_stabilize_k4():
    result = stabilize(complete(4), (4, 0, 0))
    assert result.odometer == (1, 0, 0)
    assert result.stable_config == (1, 1, 1)


@pytest.mark.parametrize("k", range(1, 11))
def test_stabilize_p3_tower(k):
    result = stabilize(path(3), (0, k))
    assert result.odometer == (k - 1, 2 * k - 1)


def test_stabilize_rejects_negative():
    with pytest.raises(InvalidSandpileError):
        stabilize(complete(3), (-1, 0))


@pytest.mark.parametrize("g,sigma", FIXTURES)
def test_stabilization_invariants(g, sigma):
    result = stabilize(g, sigma)
    assert is_stable(g, result.stable_config)
    assert all(x >= 0 for x in result.odometer)
    moved = apply_reduced_laplacian(g, result.odometer)
    assert tuple(s - m for s, m in zip(sigma, moved)) == result.stable_config
    # grains are conserved: what is missing went down the sink
    sunk = sum(
        u * g.multiplicity(v, g.sink) for u, v in zip(result.odometer, g.non_sink)
    )
    assert sum(sigma) == sum(result.stable_config) + sunk


@pytest.mark.parametrize("g,sigma", FIXTURES)
def test_abelian_property(g, sigma):
    expected = stabilize(g, sigma)
    for seed in range(20):
        rng = random.Random(seed)
        result = stabilize(g, sigma, rng=rng)
        assert result.stable_config == expected.stable_config
        assert result.odometer == expected.odometer


def test_stable_input_means_zero_odometer():
    for g, _ in FIXTURES:
        zero = stabilize(g, tuple(0 for _ in g.non_sink))
        assert zero.odometer == tuple(0 for _ in g.non_sink)
        top = tuple(d - 1 for d in g.degrees_non_sink())
        assert stabilize(g, top).odometer == zero.odometer


@pytest.mark.parametrize("g,sigma", FIXTURES)
def test_least_action_against_random_feasible(g, sigma):
    odometer = stabilize(g, sigma).odometer
    demand = [s - d + 1 for s, d in zip(sigma, g.degrees_non_sink())]
    rng = random.Random(sum(sigma))
    found = 0
    while found < 10:
        u = [rng.randint(0, max(odometer) + 2) for _ in g.non_sink]
        moved = apply_reduced_laplacian(g, u)
        if all(m >= c for m, c in zip(moved, demand)):
            found += 1
            assert all(a <= b for a, b in zip(odometer, u))


def test_least_integer_solution_zero_for_nonpositive():
    g = complete(4)
    assert least_integer_solution(g, (0, -3, -1)) == (0, 0, 0)


def test_least_integer_solution_matches_stabilize():
    for g, sigma in FIXTURES:
        demand = [s - d + 1 for s, d in zip(sigma, g.degrees_non_sink())]
        assert least_integer_solution(g, demand) == stabilize(g, sigma).odometer


def test_least_integer_solution_rejects_wrong_length():
    with pytest.raises(InvalidSandpileError):
        least_integer_solution(complete(3), (1, 2, 3))


def test_least_integer_solution_k3_example():
    assert least_integer_solution(complete(3), (2, -2)) == (1, 0)


def test_least_integer_solution_is_minimal_feasible():
    g = path(4)
    target = (3, -1, 2)
    w = least_integer_solution(g, target)
    moved = apply_reduced_laplacian(g, w)
    assert all(m >= t for m, t in zip(moved, target))
    # no single coordinate can be lowered
    for p in range(len(w)):
        if w[p] == 0:
            continue
        lowered = list(w)
        lowered[p] -= 1
        moved = apply_reduced_laplacian(g, lowered)
        assert any(m < t for m, t in zip(moved, target))


def test_batched_and_unit_schedules_agree_on_big_pile():
    g = cone(cycle(4))
    sigma = (40, 0, 0, 17)
    batched = stabilize(g, sigma)
    unit = stabilize(g, sigma, rng=random.Random(0))
    assert batched.stable_config == unit.stable_config
    assert batched.odometer == unit.odometer
