import contextlib
import io
import sys

import pytest

import tracing
from sandpiles import cli, linalg


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "linalg.py").write_text(
        "import time\n"
        "def solve_exact(M, b):\n    time.sleep(0.02)\n    return []\n"
        "def broken():\n    raise ValueError('no')\n")
    (pkg / "cli.py").write_text(
        "import time\n"
        "from .linalg import solve_exact, broken\n"
        "def main():\n"
        "    time.sleep(0.01)\n"
        "    solve_exact([[1]], [1])\n"
        "    solve_exact([[1, 0], [0, 1]], [1, 1])\n"
        "    try:\n        broken()\n    except ValueError:\n        pass\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_self_time_excludes_nested_spans(fake_package):
    import fakepkg.cli
    import fakepkg.linalg

    original = fakepkg.linalg.solve_exact
    tracer = tracing.Tracer(fake_package)
    tracer.install()
    try:
        assert fakepkg.cli.solve_exact is fakepkg.linalg.solve_exact is not original
        fakepkg.cli.main()
    finally:
        tracer.uninstall()
    assert fakepkg.cli.solve_exact is fakepkg.linalg.solve_exact is original
    main, solve = tracer.stats["cli.main"], tracer.stats["linalg.solve_exact"]
    assert (main.calls, solve.calls) == (1, 2)
    broken = tracer.stats["linalg.broken"]
    assert solve.self_s >= 0.04 and main.self_s >= 0.01
    # main's own time is its span minus the spans of the calls it made
    children = solve.total_s + broken.total_s
    assert abs(main.total_s - children - main.self_s) < 0.005
    assert broken.errors == 1 and broken.calls == 1
    assert solve.extra["dim_max"] == 2 and solve.extra["n3_sum"] == 9


def test_missing_functions_are_reported_absent(fake_package):
    import fakepkg.cli

    tracer = tracing.Tracer(fake_package)
    tracer.install()
    try:
        fakepkg.cli.main()
    finally:
        tracer.uninstall()
    values, absent = tracing.per_layer(tracer, 1, 0, 0.0)
    assert "rodometer.real_odometer" in absent and "linalg.solve_exact" not in absent
    assert values["rodometer.real_odometer.calls"] == 0
    assert values["trace.absent_functions"] == len(absent)
    assert [name for name, _ in tracing.PER_LAYER] == list(values)


def test_traces_the_real_package():
    original = linalg.solve_exact
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["classify", "--family", "wheel:6", "--sandpile", "3,2,2,2,2"]) == 0
    finally:
        tracer.uninstall()
    assert linalg.solve_exact is original
    values, absent = tracing.per_layer(tracer, 1, 0, 0.0)
    assert absent == []
    assert values["classify.classify.calls"] == 1
    assert values["classify.solves_per_verdict"] >= 1
    assert values["linalg.solve_exact.dim_max"] == 5
    assert values["cli.calls"] >= 1 and values["cli.self_s"] > 0
