import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

import checker
import workloads
from sandpiles import cli, graph as graphs, rodometer

K3 = graphs.graph_to_json(graphs.complete(3))
K4 = graphs.graph_to_json(graphs.complete(4))


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# --- the README's counterexamples ------------------------------------------------

def test_rejects_k3_tall_claimed_integral():
    claimed = {"immutable": True, "z_odometer": [2, 1], "r_odometer": ["2", "1"],
               "criterion": "definition"}
    problem = checker.classify_problem(checker.Graph(K3), (4, 0), claimed)
    assert problem is not None and "complementary" in problem
    odometer = {"group": "r", "odometer": ["2", "1"], "fast_path_used": False}
    assert checker.odometer_problem(checker.Graph(K3), (4, 0), odometer, "r") is not None


def test_rejects_k4_claimed_half():
    odometer = {"group": "r", "odometer": ["1/2", "0", "0"], "fast_path_used": False}
    problem = checker.odometer_problem(checker.Graph(K4), (4, 0, 0), odometer, "r")
    assert problem is not None and "infeasible" in problem
    claimed = {"immutable": False, "z_odometer": [1, 0, 0], "r_odometer": ["1/2", "0", "0"],
               "criterion": "definition"}
    assert checker.classify_problem(checker.Graph(K4), (4, 0, 0), claimed) is not None


def test_accepts_the_true_values_of_the_counterexamples():
    k3 = {"immutable": False, "z_odometer": [2, 1], "r_odometer": ["5/3", "1/3"],
          "criterion": "definition"}
    assert checker.classify_problem(checker.Graph(K3), (4, 0), k3) is None
    k4 = {"immutable": False, "z_odometer": [1, 0, 0], "r_odometer": ["2/3", "0", "0"],
          "criterion": "definition"}
    assert checker.classify_problem(checker.Graph(K4), (4, 0, 0), k4) is None


# --- real outputs pass, altered ones fail -------------------------------------------

def test_real_outputs_pass_and_altered_outputs_fail(tmp_path):
    graph = workloads.wheel(7, 3)
    gpath = write(tmp_path, "g.json", graph)
    sigma = [4, 0, 1, 0, 0, 2, 0]
    spath = write(tmp_path, "s.json", {"values": sigma})
    g = checker.Graph(graph)
    for group in ("r", "z", "q:1", "q:2", "q:3"):
        argv = ["odometer", "--group", group, "--graph", gpath, "--sandpile", spath]
        out = cli_output(argv)
        assert checker.output_problem(argv, graph, sigma, out) is None, group
    # on K3 with (2, 0) the Z-odometer (1, 0) is not the least (1/2)Z-odometer
    half = {"group": "q:2", "odometer": ["1/2", "0"], "fast_path_used": False}
    assert checker.odometer_problem(checker.Graph(K3), (2, 0), half, "q:2") is None
    whole = dict(half, odometer=["1", "0"])
    assert checker.odometer_problem(checker.Graph(K3), (2, 0), whole, "q:2") is not None

    argv = ["stabilize", "--graph", gpath, "--sandpile", spath]
    out = json.loads(cli_output(argv))
    assert checker.stabilize_problem(g, sigma, out) is None
    bad = dict(out, stable=[s + (i == 0) for i, s in enumerate(out["stable"])])
    assert checker.stabilize_problem(g, sigma, bad) is not None

    argv = ["info", "--graph", gpath]
    out = json.loads(cli_output(argv))
    assert checker.info_problem(g, out) is None
    bad = dict(out, spanning_trees=str(int(out["spanning_trees"]) + 1))
    assert checker.info_problem(g, bad) is not None

    argv = ["survey", "--graph", gpath, "--box", "d-2:d"]
    out = json.loads(cli_output(argv))
    assert checker.survey_problem(g, "d-2:d", out) is None
    bad = dict(out, immutable=out["immutable"] + 1, mutable=out["mutable"] - 1)
    assert checker.survey_problem(g, "d-2:d", bad) is not None


def test_verify_output_must_report_zero_failures():
    out = cli_output(["verify", "--suite", "fixtures"])
    assert checker.verify_problem(out, "fixtures") is None
    lines = out.splitlines()
    summary = json.loads(lines[-1])
    summary["failures"] = 1
    assert checker.verify_problem("\n".join(lines[:-1] + [json.dumps(summary)]),
                                  "fixtures") is not None
    flipped = [lines[0].replace('"ok": true', '"ok": false')] + lines[1:]
    assert checker.verify_problem("\n".join(flipped), "fixtures") is not None


@pytest.mark.parametrize("seed", range(6))
def test_certified_r_odometer_matches_the_library(seed):
    rng = random.Random(seed)
    data = workloads.small_family("random", rng.randint(3, 6), rng)
    g = checker.Graph(data)
    sigma = [rng.randint(0, 2 * d) for d in g.deg]
    num, den = checker.real_odometer(g, sigma)
    expected = rodometer.real_odometer(graphs.graph_from_json(data), sigma).odometer
    assert [Fraction(x, den) for x in num] == list(expected)
