"""Traced run: wraps the public functions of each ``sandpiles`` module and
records calls, failures, inclusive time and self time (span minus the spans
of wrapped callees) per function.

A function is replaced under every module name that refers to it, so a call
through ``from .linalg import solve_exact`` in ``classify`` is traced as well
as one through ``linalg.solve_exact``.  Functions that a later version of the
program renames or removes are reported as absent; their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from math import comb
from time import perf_counter

# the modules under src/sandpiles that a CLI path reaches
LAYERS = ("cli", "graph", "linalg", "dynamics", "rodometer", "classify", "forests", "families")
# private steps wrapped as well, for the ratios below
PRIVATE = {"classify": ("_certificate_tag",)}
SHAPE_PREDICATES = ("is_cone_of_regular", "is_tree", "is_complete_graph", "wheel_rim_order")
# callers of solve_exact whose solves are counted per call
SOLVE_CALLERS = ("classify.classify", "rodometer.real_odometer")


class Stat:
    __slots__ = ("calls", "errors", "self_s", "total_s", "extra")

    def __init__(self):
        self.calls = 0
        self.errors = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.extra = Counter()


def _observe_solve(tracer, stat, args, result):
    n = len(args[0])
    stat.extra["dim_max"] = max(stat.extra["dim_max"], n)
    stat.extra["n3_sum"] += n ** 3
    bits = max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in result),
               default=0)
    stat.extra["out_bits_max"] = max(stat.extra["out_bits_max"], bits)
    for caller in SOLVE_CALLERS:
        if tracer.active[caller]:
            tracer.stat(caller).extra["solves"] += 1


def _observe_real_odometer(tracer, stat, args, result):
    stat.extra["fast_path"] += bool(result.fast_path_used)


def _observe_stabilize(tracer, stat, args, result):
    stat.extra["topplings"] += result.topple_count


def _observe_forests(tracer, stat, args, result):
    g, V = args[0], args[1]
    stat.extra["candidates"] += comb(g.edge_count(), g.n_vertices - len(set(V)))
    stat.extra["found"] += result


OBSERVERS = {
    "linalg.solve_exact": _observe_solve,
    "rodometer.real_odometer": _observe_real_odometer,
    "dynamics.stabilize": _observe_stabilize,
    "forests.count_constrained_forests": _observe_forests,
}


class Tracer:
    """Install with ``install()``, undo with ``uninstall()``; ``stats`` maps
    'module.function' to a Stat."""

    def __init__(self, package: str = "sandpiles"):
        self.package = package
        self.stats: dict[str, Stat] = {}
        self.active = Counter()  # wrapped functions on the call stack
        self.observer_errors = 0
        self._stack: list[list[float]] = []  # per open span: time covered by children
        self._restore: list[tuple] = []

    def stat(self, key: str) -> Stat:
        if key not in self.stats:
            self.stats[key] = Stat()
        return self.stats[key]

    def wrap(self, key: str, fn):
        stat = self.stat(key)
        observer = OBSERVERS.get(key)
        stack, active = self._stack, self.active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                end = perf_counter()
                self._close(stat, key, start, end, end, frame)
                raise
            end = perf_counter()
            if observer is not None:
                try:
                    observer(self, stat, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    self.observer_errors += 1
            self._close(stat, key, start, end, perf_counter(), frame)
            return result

        return traced

    def _close(self, stat, key, start, end, done, frame):
        """End a span: its own time excludes its children; its parent's
        children cover it including the observer's bookkeeping."""
        self._stack.pop()
        self.active[key] -= 1
        stat.calls += 1
        stat.total_s += end - start
        stat.self_s += end - start - frame[0]
        if self._stack:
            self._stack[-1][0] += done - start

    def targets(self) -> dict[int, tuple[str, object]]:
        """id(original function) -> ('layer.name', function) for every function
        to wrap: public ones defined in a layer module, plus PRIVATE."""
        out = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and (not name.startswith("_") or name in PRIVATE.get(layer, ()))):
                    out[id(obj)] = (f"{layer}.{name}", obj)
        return out

    def install(self) -> None:
        wrappers = {ident: self.wrap(key, fn) for ident, (key, fn) in self.targets().items()}
        prefix = self.package + "."
        for modname, module in list(sys.modules.items()):
            if modname != self.package and not modname.startswith(prefix):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._restore.append((module, name, obj))

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._restore):
            setattr(module, name, obj)
        self._restore.clear()


# --- per-layer metrics ---------------------------------------------------------

def _layer_metrics():
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.errors", "count")]
    return out


def _fn(key, *stats):
    units = {"calls": "count", "self_s": "s", "errors": "count"}
    return [(f"{key}.{s}", units[s]) for s in stats]


# name, unit: the per_layer list of BENCHMARK.json, in order
PER_LAYER = _layer_metrics() + [
    *_fn("linalg.solve_exact", "calls", "self_s", "errors"),
    ("linalg.solve_exact.dim_max", "rows"),
    ("linalg.solve_exact.n3_sum", "ops"),
    ("linalg.solve_exact.out_bits_max", "bits"),
    ("linalg.reduced_laplacian.calls_per_request", "count"),
    *_fn("linalg.reduced_laplacian", "self_s", "errors"),
    *_fn("linalg.det_exact", "calls", "self_s", "errors"),
    *_fn("linalg.inverse_exact", "calls", "self_s", "errors"),
    *_fn("linalg.minor_matrix", "calls", "self_s", "errors"),
    *_fn("classify.classify", "calls", "self_s", "errors"),
    *_fn("classify.in_laplacian_image", "calls", "self_s", "errors"),
    ("classify.label_share", "ratio"),
    ("classify.solves_per_verdict", "count"),
    *_fn("rodometer.real_odometer", "calls", "self_s", "errors"),
    ("rodometer.real_odometer.fast_path_ratio", "ratio"),
    ("rodometer.real_odometer.solves_per_call", "count"),
    *_fn("rodometer.group_odometer", "calls", "self_s", "errors"),
    *_fn("rodometer.integer_odometer", "calls", "self_s", "errors"),
    *_fn("dynamics.stabilize", "calls", "self_s", "errors"),
    ("dynamics.stabilize.topplings", "count"),
    *_fn("dynamics.least_integer_solution", "calls", "self_s", "errors"),
    *_fn("dynamics.apply_reduced_laplacian", "calls", "self_s", "errors"),
    *_fn("graph.from_edge_list", "calls", "self_s", "errors"),
    ("graph.shape_predicates.self_s", "s"),
    *_fn("cli.main", "self_s", "errors"),
    ("cli.main.stdout_bytes", "bytes"),
    *_fn("forests.count_constrained_forests", "calls", "self_s", "errors"),
    ("forests.count_constrained_forests.candidates", "count"),
    ("forests.count_constrained_forests.yield", "ratio"),
    *_fn("forests.sign_of_minor", "self_s", "errors"),
    *_fn("forests.count_two_forests", "self_s", "errors"),
    *_fn("families.verification_family", "self_s", "errors"),
    *_fn("families.named_fixtures", "self_s", "errors"),
    ("trace.requests", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.absent_functions", "count"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, requests: int, stdout_bytes: int, overhead_share: float):
    """(metrics {name: value}, absent function names) for PER_LAYER."""
    present = {key for key, _ in tracer.targets().values()}
    stats = tracer.stats
    values: dict[str, float] = {}
    absent: set[str] = set()

    def get(key) -> Stat:
        if key not in present:
            absent.add(key)
        return stats.get(key) or Stat()

    for layer in LAYERS:
        own = [s for k, s in stats.items() if k.split(".")[0] == layer]
        values[f"{layer}.calls"] = sum(s.calls for s in own)
        values[f"{layer}.self_s"] = sum(s.self_s for s in own)
        values[f"{layer}.errors"] = sum(s.errors for s in own)
    for name, _ in PER_LAYER:
        if name in values:
            continue
        key, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "errors") and key not in ("graph.shape_predicates",):
            values[name] = getattr(get(key), field)
    solve = get("linalg.solve_exact")
    for field in ("dim_max", "n3_sum", "out_bits_max"):
        values[f"linalg.solve_exact.{field}"] = solve.extra[field]
    values["linalg.reduced_laplacian.calls_per_request"] = _ratio(
        get("linalg.reduced_laplacian").calls, requests)
    verdicts = get("classify.classify")
    values["classify.label_share"] = _ratio(get("classify._certificate_tag").total_s,
                                            verdicts.total_s)
    values["classify.solves_per_verdict"] = _ratio(verdicts.extra["solves"], verdicts.calls)
    real = get("rodometer.real_odometer")
    values["rodometer.real_odometer.fast_path_ratio"] = _ratio(real.extra["fast_path"], real.calls)
    values["rodometer.real_odometer.solves_per_call"] = _ratio(real.extra["solves"], real.calls)
    values["dynamics.stabilize.topplings"] = get("dynamics.stabilize").extra["topplings"]
    values["graph.shape_predicates.self_s"] = sum(
        get(f"graph.{name}").self_s for name in SHAPE_PREDICATES)
    values["cli.main.stdout_bytes"] = stdout_bytes
    forests = get("forests.count_constrained_forests")
    values["forests.count_constrained_forests.candidates"] = forests.extra["candidates"]
    values["forests.count_constrained_forests.yield"] = _ratio(
        forests.extra["found"], forests.extra["candidates"])
    values["trace.requests"] = requests
    values["trace.overhead_share"] = overhead_share
    values["trace.absent_functions"] = len(absent)
    return {name: values[name] for name, _ in PER_LAYER}, sorted(absent)
