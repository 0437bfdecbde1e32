import itertools
import subprocess
import sys
import random
from fractions import Fraction

import pytest

from sandpiles import (
    banana,
    complete,
    cone,
    cycle,
    det_exact,
    group_odometer,
    integer_odometer,
    path,
    real_odometer,
    real_odometer_by_support_search,
    reduced_laplacian,
    stabilize,
    uniformly_large_odometer,
    wheel,
)
from sandpiles.dynamics import apply_reduced_laplacian
from sandpiles.errors import InvalidGroupError, InvariantError, NotUniformlyLargeError

F = Fraction

SWEEP_GRAPHS = [
    path(3), path(4), complete(3), complete(4), banana(2), banana(3),
    cycle(4), wheel(5), cone(cycle(4)),
]


def _demand(g, sigma):
    return [s - d + 1 for s, d in zip(sigma, g.degrees_non_sink())]


def _feasible(g, sigma, u):
    moved = apply_reduced_laplacian(g, u)
    return all(x >= 0 for x in u) and all(
        m >= c for m, c in zip(moved, _demand(g, sigma))
    )


def test_real_odometer_k3():
    report = real_odometer(complete(3), (2, 0))
    assert report.odometer == (F(1, 2), 0)
    assert report.group == "r"
    assert not report.fast_path_used


def test_real_odometer_k4_low():
    # the loaded vertex must shed a full 2/3: 3u >= 2 pins it
    report = real_odometer(complete(4), (4, 0, 0))
    assert report.odometer == (F(2, 3), 0, 0)


def test_real_odometer_k3_tall():
    # feasible and strictly below the integer odometer (2, 1)
    report = real_odometer(complete(3), (4, 0))
    assert report.odometer == (F(5, 3), F(1, 3))
    assert _feasible(complete(3), (4, 0), report.odometer)


def test_real_odometer_banana_formula():
    for k in range(1, 6):
        g = banana(k)
        for s in range(k, 3 * k):
            report = real_odometer(g, (s,))
            assert report.odometer == (F(s + 1 - k, k),)


def test_real_odometer_stable_is_zero():
    g = wheel(5)
    report = real_odometer(g, (2, 2, 2, 2))
    assert report.odometer == (0, 0, 0, 0)


def test_fast_path_flag():
    g = complete(3)
    assert real_odometer(g, (2, 1)).fast_path_used
    assert not real_odometer(g, (2, 0)).fast_path_used
    assert not real_odometer(g, (2, 1), use_fast_path=False).fast_path_used


def test_uniformly_large_odometer_values():
    g = complete(3)
    top = tuple(d - 1 for d in g.degrees_non_sink())
    assert uniformly_large_odometer(g, top) == (0, 0)
    assert uniformly_large_odometer(g, (2, 1)) == (F(2, 3), F(1, 3))
    g4 = path(4)
    assert uniformly_large_odometer(g4, g4.degrees_non_sink()) == (3, 5, 6)


def test_uniformly_large_odometer_rejects():
    with pytest.raises(NotUniformlyLargeError):
        uniformly_large_odometer(complete(3), (2, 0))


def test_fast_path_agrees_with_active_set():
    for g in SWEEP_GRAPHS:
        degs = g.degrees_non_sink()
        rng = random.Random(g.n_vertices)
        for _ in range(25):
            sigma = tuple(d - 1 + rng.randint(0, 4) for d in degs)
            closed = real_odometer(g, sigma).odometer
            active = real_odometer(g, sigma, use_fast_path=False).odometer
            assert closed == active
            assert closed == uniformly_large_odometer(g, sigma)


def test_group_odometer_examples():
    g = complete(3)
    assert group_odometer(g, (2, 0), 1).odometer == (1, 0)
    assert group_odometer(g, (2, 0), 1).group == "z"
    report = group_odometer(g, (2, 0), 2)
    assert report.odometer == (F(1, 2), 0)
    assert report.group == "q:2"


def test_group_odometer_banana_full_resolution():
    for k in (2, 3, 5):
        g = banana(k)
        for s in range(k, 3 * k):
            assert group_odometer(g, (s,), k).odometer == (F(s + 1 - k, k),)


def test_group_odometer_denominators_divide_m():
    g = wheel(5)
    for m in (1, 2, 3, 6, 15):
        report = group_odometer(g, (5, 0, 3, 1), m)
        assert all(x.denominator <= m and m % x.denominator == 0 for x in report.odometer)


def test_group_odometer_rejects_bad_m():
    for m in (0, -2):
        with pytest.raises(InvalidGroupError):
            group_odometer(complete(3), (2, 0), m)


def test_integer_odometer_matches_group_one():
    for g in SWEEP_GRAPHS:
        degs = g.degrees_non_sink()
        rng = random.Random(13)
        for _ in range(10):
            sigma = tuple(rng.randint(0, d + 2) for d in degs)
            z = integer_odometer(g, sigma)
            assert group_odometer(g, sigma, 1).odometer == tuple(F(x) for x in z)


def test_sandwich_and_divisibility():
    for g in SWEEP_GRAPHS:
        degs = g.degrees_non_sink()
        det = det_exact(reduced_laplacian(g))
        rng = random.Random(99)
        for _ in range(12):
            sigma = tuple(rng.randint(0, d + 3) for d in degs)
            r = real_odometer(g, sigma).odometer
            z = stabilize(g, sigma).odometer
            previous = None
            for m in (1, 2, 6, det * 6):
                q = group_odometer(g, sigma, m).odometer
                assert all(a <= b <= c for a, b, c in zip(r, q, z))
                if previous is not None:
                    # m grows through divisors: odometers can only shrink
                    assert all(a <= b for a, b in zip(q, previous))
                previous = q


def test_feasible_pair_minimum_is_feasible():
    g = wheel(5)
    sigma = (5, 0, 3, 1)
    rng = random.Random(5)
    base = stabilize(g, sigma).odometer
    found = 0
    while found < 15:
        u1 = [b + rng.randint(0, 3) for b in base]
        u2 = [b + rng.randint(0, 3) for b in base]
        if _feasible(g, sigma, u1) and _feasible(g, sigma, u2):
            found += 1
            low = [min(a, b) for a, b in zip(u1, u2)]
            assert _feasible(g, sigma, low)


def test_active_set_matches_support_search(small_family):
    for g in small_family:
        degs = g.degrees_non_sink()
        boxes = [range(0, d + 2) for d in degs]
        for sigma in itertools.product(*boxes):
            active = real_odometer(g, sigma, use_fast_path=False).odometer
            assert active == real_odometer_by_support_search(g, sigma)


def test_real_odometer_complementarity():
    for g in SWEEP_GRAPHS:
        degs = g.degrees_non_sink()
        rng = random.Random(31)
        for _ in range(15):
            sigma = tuple(rng.randint(0, d + 3) for d in degs)
            u = real_odometer(g, sigma).odometer
            moved = apply_reduced_laplacian(g, u)
            for x, m, c in zip(u, moved, _demand(g, sigma)):
                assert x == 0 or m == c


def test_group_immutability_transfer_at_full_denominator():
    # with m = det(L'), (1/m)Z-integrality matches real integrality for
    # uniformly large sandpiles
    for g in SWEEP_GRAPHS:
        degs = g.degrees_non_sink()
        det = det_exact(reduced_laplacian(g))
        rng = random.Random(17)
        for _ in range(15):
            sigma = tuple(d - 1 + rng.randint(0, 4) for d in degs)
            r = real_odometer(g, sigma).odometer
            q = group_odometer(g, sigma, det).odometer
            z = stabilize(g, sigma).odometer
            r_immutable = tuple(r) == tuple(F(x) for x in z)
            q_immutable = all(x.denominator == 1 for x in q)
            assert r_immutable == q_immutable


def test_negative_closed_form_raises_invariant_error(monkeypatch):
    from sandpiles import rodometer

    monkeypatch.setattr(rodometer, "solve_reduced", lambda g, b, support=None: ([-1] * len(b), 1))
    g = complete(4)
    with pytest.raises(InvariantError):
        uniformly_large_odometer(g, (2, 2, 2))
    with pytest.raises(InvariantError):
        real_odometer(g, (2, 2, 2))


def test_invariant_error_survives_optimized_mode():
    # the certificates are explicit checks, so python -O keeps them
    code = (
        "from sandpiles import complete, rodometer\n"
        "from sandpiles.errors import InvariantError\n"
        "rodometer.solve_reduced = lambda g, b, support=None: ([-1] * len(b), 1)\n"
        "try:\n"
        "    rodometer.uniformly_large_odometer(complete(4), (2, 2, 2))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "raised"
