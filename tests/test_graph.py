import json

import pytest

from sandpiles import (
    banana,
    complete,
    cone,
    cycle,
    from_edge_list,
    graph_from_json,
    graph_to_json,
    is_cone_of_regular,
    path,
    validate_sandpile,
    wheel,
)
from sandpiles.errors import (
    DisconnectedError,
    EmptyGraphError,
    IndexOutOfRangeError,
    InvalidSandpileError,
    SelfLoopError,
    SizeTooSmallError,
)
from sandpiles.graph import (
    is_complete_graph,
    is_tree,
    sandpile_from_json,
    sandpile_to_json,
    wheel_rim_order,
)


def test_from_edge_list_banana():
    g = from_edge_list(2, 0, [(0, 1, 3)])
    assert g.multiplicity(0, 1) == 3
    assert g.degree(0) == g.degree(1) == 3
    assert g == banana(3)


def test_from_edge_list_smallest():
    g = from_edge_list(2, 0, [(0, 1, 1)])
    assert g == path(2)


def test_from_edge_list_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        from_edge_list(3, 0, [(0, 1, 1), (0, 2, 1), (1, 1, 1)])


def test_from_edge_list_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        from_edge_list(4, 0, [(0, 1, 1), (2, 3, 1)])


def test_from_edge_list_rejects_bad_indices():
    with pytest.raises(IndexOutOfRangeError):
        from_edge_list(3, 0, [(0, 5, 1)])
    with pytest.raises(IndexOutOfRangeError):
        from_edge_list(3, 0, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(IndexOutOfRangeError):
        from_edge_list(3, 7, [(0, 1, 1), (1, 2, 1)])


def test_from_edge_list_rejects_too_small():
    with pytest.raises(EmptyGraphError):
        from_edge_list(1, 0, [])


@pytest.mark.parametrize("maker,arg", [
    (path, 1), (cycle, 2), (complete, 1), (wheel, 3), (banana, 0),
])
def test_generators_reject_small_sizes(maker, arg):
    with pytest.raises(SizeTooSmallError):
        maker(arg)


def test_path_layout():
    g = path(4)
    assert g.sink == 0
    assert g.multiplicity(0, 1) == 1
    assert g.multiplicity(1, 2) == 1
    assert g.multiplicity(2, 3) == 1
    assert g.degree(0) == g.degree(3) == 1
    assert g.degree(1) == g.degree(2) == 2


def test_wheel_degrees():
    g = wheel(5)
    assert g.degree(g.sink) == 4
    assert all(g.degree(v) == 3 for v in g.non_sink)


def test_cone_of_path():
    g = cone(path(3))
    assert g.n_vertices == 4
    assert g.sink == 3
    assert g.degree(g.sink) == 3
    # non-sink degrees rise by one relative to the base graph
    base = path(3)
    assert all(g.degree(v) == base.degree(v) + 1 for v in range(3))


def test_cone_of_cycle_matches_wheel_shape():
    g = cone(cycle(4))
    assert is_cone_of_regular(g)
    assert wheel_rim_order(g) is not None
    assert sorted(g.degrees_non_sink()) == sorted(wheel(5).degrees_non_sink())


def test_complete_reduced_shape():
    g = complete(4)
    assert all(g.degree(v) == 3 for v in range(4))
    assert is_complete_graph(g)
    assert not is_complete_graph(banana(2))


@pytest.mark.parametrize("g,expected", [
    (complete(4), True),
    (wheel(5), True),
    (path(4), False),
    (banana(2), False),   # doubled edges to the sink break the cone shape
])
def test_is_cone_of_regular(g, expected):
    assert is_cone_of_regular(g) == expected


def test_is_tree():
    assert is_tree(path(5))
    assert not is_tree(cycle(3))
    assert not is_tree(banana(2))
    assert is_tree(banana(1))


def test_wheel_rim_order_positions():
    g = wheel(6)
    order = wheel_rim_order(g)
    assert isinstance(order, tuple) and len(order) == 5
    assert sorted(order) == [0, 1, 2, 3, 4]
    assert wheel_rim_order(path(4)) is None
    assert wheel_rim_order(complete(5)) is None  # rim is not a simple cycle


def test_edges_list_parallel_copies():
    g = banana(3)
    assert g.edges() == ((0, 1), (0, 1), (0, 1))


def test_validate_sandpile():
    g = complete(3)
    assert validate_sandpile(g, [2, 0]) == (2, 0)
    with pytest.raises(InvalidSandpileError):
        validate_sandpile(g, [2, -1])
    with pytest.raises(InvalidSandpileError):
        validate_sandpile(g, [2, 0, 0])


@pytest.mark.parametrize("g", [
    path(4), cycle(5), complete(4), wheel(6), banana(3), cone(path(3)),
    from_edge_list(4, 2, [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1)]),
])
def test_json_round_trip_bit_exact(g):
    data = graph_to_json(g)
    text = json.dumps(data, sort_keys=True)
    g2 = graph_from_json(json.loads(text))
    assert g2 == g
    assert json.dumps(graph_to_json(g2), sort_keys=True) == text


def test_sandpile_json_round_trip():
    values = (3, 0, 7)
    assert sandpile_from_json(sandpile_to_json(values)) == values


def test_graph_hashable_and_immutable():
    g = complete(3)
    assert hash(g) == hash(complete(3))
    assert g == complete(3)
    assert g != complete(4)


def test_shape_predicates_run_once_per_graph(monkeypatch):
    from sandpiles import graph as graphs

    calls = []
    real_edges = graphs.Multigraph.edges

    def counting_edges(self):
        calls.append(self)
        return real_edges(self)

    g, h = wheel(6), wheel(6)
    monkeypatch.setattr(graphs.Multigraph, "edges", counting_edges)
    for _ in range(3):
        assert not is_tree(g) and not is_tree(h)
        assert wheel_rim_order(g) == wheel_rim_order(h) is not None
    # each instance recognized once; equal graphs share nothing
    assert [id(x) for x in calls] == [id(g), id(h)]
    assert wheel_rim_order(g) is wheel_rim_order(g)
