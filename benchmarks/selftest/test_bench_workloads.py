import filecmp
import os
from collections import deque

import pytest

import workloads
from sandpiles import graph as graphs
from sandpiles import linalg

WITH_FILES = ["survey-small", "exact-large", "tall-piles"]


def write_blocks(workload, seed, directory, count=2):
    argvs = []
    source = workloads.blocks(workload, seed)
    for b in range(count):
        sub = os.path.join(directory, f"b{b}")
        os.makedirs(sub)
        argvs += [workloads.materialize(r, sub, i) for i, r in enumerate(next(source))]
    return argvs


@pytest.mark.parametrize("workload", WITH_FILES)
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    write_blocks(workload, 7, tmp_path / "a")
    write_blocks(workload, 7, tmp_path / "b")
    write_blocks(workload, 8, tmp_path / "c")
    for sub in ("b0", "b1"):
        names = sorted(os.listdir(tmp_path / "a" / sub))
        assert names and names == sorted(os.listdir(tmp_path / "b" / sub))
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "a" / sub, tmp_path / "b" / sub, names, shallow=False)
        assert not mismatch and not errors
        _, differ, _ = filecmp.cmpfiles(
            tmp_path / "a" / sub, tmp_path / "c" / sub, names, shallow=False)
        assert differ


def test_verify_oracle_seed_orders_the_suites():
    def order(seed):
        source = workloads.blocks("verify-oracle", seed)
        return [r.argv for _ in range(6) for r in next(source)]

    assert order(3) == order(3)
    assert order(3) != order(4)
    assert sorted(map(tuple, order(3))) == sorted(map(tuple, order(4)))


def distances(graph, start):
    adj = {v: set() for v in range(graph["vertices"])}
    for v, w, _ in graph["edges"]:
        adj[v].add(w)
        adj[w].add(v)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def sink_neighbours(graph):
    sink = graph["sink"]
    return {v if w == sink else w: k for v, w, k in graph["edges"] if sink in (v, w)}


def check_sink(request):
    graph = request.graph
    slot = request.meta["slot"]
    sink = graph["sink"]
    deg = workloads.degrees(graph)
    n = graph["vertices"] - 1
    near = sink_neighbours(graph)
    if ":grid:" in slot:
        size = int(slot.rsplit(":", 1)[1])
        # every cell has degree 4, except the two ends of the doubled edge
        assert sorted(deg[v] for v in deg if v != sink) == [4] * (n - 2) + [5, 5]
        assert sorted(k for _, _, k in graph["edges"]).count(2) == 4 + 1
        assert len(near) == 4 * (size - 1) and sum(near.values()) == 4 * size
    elif ":wheel:" in slot or slot.startswith("wheel:"):
        assert near == {v: 1 for v in range(n + 1) if v != sink}
        assert all(deg[v] == 3 for v in deg if v != sink)
    elif ":path:" in slot:
        assert deg[sink] == 1
        far = distances(graph, sink)[request.meta["position"] + 1]
        assert far >= 0.9 * n
    elif ":cycle:" in slot:
        assert deg[sink] == 2
        far = distances(graph, sink)[request.meta["position"] + 1]
        assert far >= 0.4 * (n + 1)
    elif slot.startswith("complete:"):
        assert all(d == n for d in deg.values())


@pytest.mark.parametrize("workload", WITH_FILES)
def test_graphs_are_connected_with_the_sink_where_intended(workload):
    source = workloads.blocks(workload, 11)
    seen = set()
    for _ in range(3):
        for request in next(source):
            graph = request.graph
            assert len(distances(graph, 0)) == graph["vertices"]
            graphs.graph_from_json(graph)  # the program accepts it
            check_sink(request)


def test_exact_large_never_repeats_a_reduced_laplacian():
    # more blocks than a run at BENCHMARK.json's run_seconds measures
    source = workloads.blocks("exact-large", 5)
    matrices, keys = set(), set()
    count = 0
    for _ in range(8):
        for request in next(source):
            g = graphs.graph_from_json(request.graph)
            matrices.add(tuple(map(tuple, linalg.reduced_laplacian(g))))
            keys.add(workloads.reduced_key(request.graph))
            count += 1
    assert len(matrices) == len(keys) == count
