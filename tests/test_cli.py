import json
import subprocess
import sys

import pytest

from sandpiles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_info(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "banana:3")
    assert code == 0
    assert json.loads(out) == {"vertices": 2, "sink": 0, "edges": [[0, 1, 3]]}
    code, out, _ = run_cli(capsys, "info", "--family", "wheel:5")
    assert code == 0
    info = json.loads(out)
    assert info["spanning_trees"] == "45"
    assert info["cone_of_regular"] is True


def test_info_from_graph_file(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "cone-path:3", "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "info", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["spanning_trees"] == "8"


def test_stabilize_command(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", "--family", "complete:3", "--sandpile", "2,0"
    )
    assert code == 0
    assert json.loads(out) == {"stable": [0, 1], "odometer": [1, 0]}


def test_sandpile_from_file(tmp_path, capsys):
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps({"values": [2, 0]}))
    code, out, _ = run_cli(
        capsys, "stabilize", "--family", "complete:3", "--sandpile", str(spath)
    )
    assert code == 0
    assert json.loads(out)["odometer"] == [1, 0]


@pytest.mark.parametrize("group,expected", [
    ("z", ["1", "0"]),
    ("r", ["1/2", "0"]),
    ("q:2", ["1/2", "0"]),
    ("q:3", ["2/3", "0"]),
])
def test_odometer_groups(capsys, group, expected):
    code, out, _ = run_cli(
        capsys, "odometer", "--family", "complete:3", "--sandpile", "2,0",
        "--group", group,
    )
    assert code == 0
    assert json.loads(out)["odometer"] == expected


def test_classify_command(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--family", "complete:3", "--sandpile", "2,0"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["immutable"] is False
    assert payload["z_odometer"] == [1, 0]
    assert payload["r_odometer"] == ["1/2", "0"]


def test_classify_fixture_checks_expectations(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fixture", "p4-mutable")
    assert code == 0
    payload = json.loads(out)
    assert payload["fixture_ok"] is True


def test_survey_box(capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--family", "complete:3", "--box", "d-1:d+1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 9
    assert payload["immutable"] + payload["mutable"] == 9


def test_survey_constant_box(capsys):
    code, out, _ = run_cli(capsys, "survey", "--family", "banana:2", "--box", "0:3")
    assert code == 0
    assert json.loads(out)["total"] == 4


def test_verify_fixtures_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "fixtures")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    summary = lines[-1]
    assert summary["failures"] == 0
    assert all(line["ok"] for line in lines[:-1])


def test_verify_matrix_tree_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "matrix-tree", "--max-vertices", "3")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failures"] == 0
    assert summary["checks"] > 0


def test_verify_inverse_entry_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "inverse-entry", "--max-vertices", "3")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["failures"] == 0


def test_domain_error_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "stabilize", "--family", "nosuch:3", "--sandpile", "0"
    )
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("group", ["q:0", "q:-2", "q:x", "q:", "s"])
def test_odometer_bad_group_is_a_domain_error(capsys, group):
    code, out, _ = run_cli(
        capsys, "odometer", "--family", "complete:3", "--sandpile", "2,0",
        "--group", group,
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidGroupError"


def test_unknown_fixture_is_a_domain_error(capsys):
    code, out, _ = run_cli(capsys, "classify", "--fixture", "nope")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "UnknownFixtureError"


def test_graph_json_without_sink_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1, 1], [1, 2, 1]]}))
    code, out, _ = run_cli(capsys, "info", "--graph", str(path))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "GraphFormatError"


def test_sandpile_json_without_values_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"vals": [2, 0]}))
    code, out, _ = run_cli(
        capsys, "stabilize", "--family", "complete:3", "--sandpile", str(path)
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidSandpileError"


@pytest.mark.parametrize("box", ["0:x", "x:3", "d+:3", "03", "3:0"])
def test_bad_survey_box_is_a_domain_error(capsys, box):
    code, out, _ = run_cli(capsys, "survey", "--family", "wheel:5", "--box", box)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvalidBoxError"


def test_invariant_violation_is_a_domain_error(capsys, monkeypatch):
    from sandpiles import rodometer

    monkeypatch.setattr(
        rodometer, "solve_reduced", lambda g, b, support=None: ([-1] * len(b), 1)
    )
    code, out, _ = run_cli(
        capsys, "odometer", "--family", "complete:3", "--sandpile", "3,3",
        "--group", "r",
    )
    assert code == 1
    assert json.loads(out)["error"]["type"] == "InvariantError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["stabilize", "--bogus-flag"])
    assert err.value.code == 2


def test_deterministic_reports(capsys):
    args = ["classify", "--family", "wheel:5", "--sandpile", "3,2,2,2"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "sandpiles.cli", "classify", "--fixture", "k3-low-mutable"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["immutable"] is False
