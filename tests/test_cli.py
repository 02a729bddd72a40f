"""Command line: exit codes, formats, stream separation, determinism."""

import json
import os

import pytest

from maxerr.cli import main

C17_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "circuits", "c17.bench")


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_analyze_csv(capsys):
    code, out, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# inputs: 1 2 3 6 7"
    assert lines[1] == "output,vector,p_error,nodes_expanded,nodes_pruned"
    assert lines[2].startswith("22,01110,0.309600,")
    assert lines[3].startswith("23,01111,0.316000,")
    assert lines[4] == "# max_error=0.316000 worst_vector=01111 worst_output=23"
    assert "analyze:" in err and "analyze:" not in out


def test_analyze_json(capsys):
    code, out, _ = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_error"] == 0.316
    assert doc["worst_vector"] == "01111"
    assert doc["worst_output"] == "23"
    by_name = {r["output"]: r for r in doc["per_output"]}
    assert by_name["22"]["p_error"] == 0.3096
    assert not by_name["22"]["unreachable"]


def test_analyze_joint_and_audit_flags(capsys):
    code, out, _ = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                       "--joint-evidence", "--no-prune",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["output"] for r in doc["per_output"]] == ["*"]
    assert doc["per_output"][0]["nodes_expanded"] == 63
    assert doc["per_output"][0]["nodes_pruned"] == 0


def test_output_file_matches_stdout_and_skips_timing(tmp_path, capsys):
    code, out, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05")
    assert code == 0
    target = tmp_path / "report.csv"
    code2, out2, err2 = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                            "--output", str(target))
    assert code2 == 0
    assert out2 == ""
    assert target.read_text() == out
    assert "analyze:" in err2


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for t in (a, b):
        assert run(capsys, "validate", C17_PATH, "--epsilon", "0.05",
                   "--runs", "2000", "--seed", "9", "--output", str(t))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_explain_writes_only_to_stderr(capsys):
    _, plain, _ = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05")
    code, out, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                         "--explain")
    assert code == 0
    assert out == plain
    assert "elimination order" in err
    assert "width Z" in err


def test_unreachable_everywhere_exits_3(capsys):
    code, out, _ = run(capsys, "analyze", C17_PATH, "--epsilon", "0.0")
    assert code == 3
    assert "# max_error=0.000000 worst_vector=- worst_output=-" in out


def test_missing_epsilon_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", C17_PATH)
    assert code == 2
    assert "--epsilon" in err


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\nz = FROB(a)\n")
    code, _, err = run(capsys, "analyze", str(bad), "--epsilon", "0.05")
    assert code == 1
    assert "parse error" in err


@pytest.mark.parametrize("cmd", ["analyze", "sweep", "spectrum", "validate", "oracle-check"])
@pytest.mark.parametrize("name, text, message", [
    ("dup.bench", "INPUT(a)\nOUTPUT(g)\ng = AND(a, a)\n",
     "line 3: gate 'g' lists fan-in 'a' twice"),
    ("dup.json", json.dumps({"format": "circuit/1", "inputs": ["a"], "outputs": ["g"],
                             "gates": [{"output": "g", "func": "AND",
                                        "inputs": ["a", "a"]}]}),
     "gate 'g' lists fan-in 'a' twice"),
    ("dup-out.bench", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nOUTPUT(z)\nz = AND(a, b)\n",
     "line 4: output 'z' declared twice"),
])
def test_repeated_name_exits_1(tmp_path, capsys, cmd, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    args = ["--grid", "0.05"] if cmd == "sweep" else ["--epsilon", "0.05"]
    code, out, err = run(capsys, cmd, str(path), *args)
    assert code == 1 and out == ""
    assert err == "parse error: %s\n" % message


@pytest.mark.parametrize("case, reason", [
    ("missing circuit", "No such file or directory"),
    ("circuit is a directory", "Is a directory"),
    ("epsilon map is a directory", "Is a directory"),
])
def test_missing_file_exits_1(tmp_path, capsys, case, reason):
    args = {"missing circuit": ["no/such/file.bench"],
            "circuit is a directory": [str(tmp_path)],
            "epsilon map is a directory": [C17_PATH, "--epsilon-map", str(tmp_path)]}[case]
    unread = args[-1]
    code, out, err = run(capsys, "analyze", *args, "--epsilon", "0.05")
    assert code == 1 and out == ""
    assert err == "cannot read %s: %s\n" % (unread, reason)


@pytest.mark.parametrize("cmd", ["analyze", "spectrum"])
def test_unwritable_output_exits_2(tmp_path, capsys, cmd):
    for target, reason in ((tmp_path, "Is a directory"),
                           (tmp_path / "no" / "x.csv", "No such file or directory")):
        code, out, err = run(capsys, cmd, C17_PATH, "--epsilon", "0.05",
                             "--output", str(target))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "cannot write %s: %s" % (target, reason)


def test_closed_stdout_is_not_reported_as_a_read_error(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr("sys.stdout", Closed())
    with pytest.raises(BrokenPipeError):
        main(["analyze", C17_PATH, "--epsilon", "0.05"])


def test_width_limit_exits_2(capsys):
    code, _, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                       "--width-limit", "2")
    assert code == 2
    assert "too wide" in err


def test_epsilon_map(tmp_path, capsys):
    table = tmp_path / "eps.json"
    table.write_text(json.dumps({"10": 0.1}))
    code, out, _ = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                       "--epsilon-map", str(table), "--format", "json")
    assert code == 0
    # oracle value for eps=0.1 on the first gate, 0.05 elsewhere
    assert json.loads(out)["max_error"] == 0.3752


def test_epsilon_map_unknown_net_exits_2(tmp_path, capsys):
    table = tmp_path / "eps.json"
    table.write_text(json.dumps({"zz": 0.1}))
    code, _, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                       "--epsilon-map", str(table))
    assert code == 2
    assert "zz" in err


def test_sweep_csv(capsys):
    code, out, err = run(capsys, "sweep", C17_PATH, "--grid", "0.05:0.15:0.05",
                         "--refine")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "epsilon,max_error,avg_error,worst_vector,worst_output"
    assert lines[1] == "0.05,0.316000,0.239800,01111,23"
    assert lines[2] == "0.1,0.488000,0.381800,01111,23"
    assert lines[3] == "0.15,0.552000,0.456300,01111,23"
    assert lines[4] == "# error_bound=0.15"
    refined = float(lines[5].split("=")[1])
    assert 0.1035 <= refined <= 0.1075
    assert "sweep:" in err


def test_sweep_json_comma_grid(capsys):
    code, out, _ = run(capsys, "sweep", C17_PATH, "--grid", "0.02,0.05",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [p["epsilon"] for p in doc["points"]] == [0.02, 0.05]
    assert doc["error_bound"] is None
    assert doc["refined_bound"] is None


@pytest.mark.parametrize("grid", ["0.6,0.1", "0:0.1:0.02", "0.1:0.05:0.01",
                                  "0.1:0.2:0", ",", "0.1:0.2", "0.3,0.05,0.2",
                                  "0.05,0.05"])
def test_sweep_bad_grid_exits_2(capsys, grid):
    assert run(capsys, "sweep", C17_PATH, "--grid", grid)[0] == 2


def test_sweep_rejects_epsilon_map(tmp_path, capsys):
    table = tmp_path / "eps.json"
    table.write_text(json.dumps({"10": 0.1}))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", C17_PATH, "--grid", "0.05,0.1", "--epsilon-map", str(table)])
    assert exc.value.code == 2
    assert "epsilon-map" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, option", [
    ("sweep", ["--epsilon", "0.05"]), ("sweep", ["--explain"]),
    ("spectrum", ["--explain"]), ("validate", ["--explain"]),
    ("validate", ["--width-limit", "20"]),
])
def test_options_a_subcommand_does_not_read_are_rejected(capsys, cmd, option):
    args = ["--grid", "0.05"] if cmd == "sweep" else ["--epsilon", "0.05"]
    with pytest.raises(SystemExit) as exc:
        main([cmd, C17_PATH, *args, *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(option) in capsys.readouterr().err


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", C17_PATH, "--epsilon", "0.05")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "vector,22,23,max"
    assert len(lines) == 2 + 32 + 1
    assert lines[2].startswith("00000,")
    assert lines[-1] == "# mu=0.252300 sigma=0.032539 above_mu_plus_sigma=6"
    row = dict(zip(("vector", "22", "23", "max"), lines[17].split(",")))
    assert row["vector"] == "01111"
    assert row["max"] == "0.316000"


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", C17_PATH, "--epsilon", "0.05",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert len(doc["rows"]) == 32
    assert doc["mu"] == 0.2523
    assert len(doc["above"]) == 6


def test_validate_csv_layout(capsys):
    code, out, _ = run(capsys, "validate", C17_PATH, "--epsilon", "0.05",
                       "--runs", "1000", "--seed", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "vector,output,exact,mc_estimate,mc_stderr,abs_diff"
    assert len(lines) == 2 + 32 * 2
    first = lines[2].split(",")
    assert first[0] == "00000" and first[1] == "22"
    assert abs(float(first[2]) - float(first[3])) == pytest.approx(
        float(first[5]), abs=5e-7)


@pytest.mark.parametrize("runs", ["0", "-5"])
def test_validate_non_positive_runs_exits_2(capsys, runs):
    code, out, err = run(capsys, "validate", C17_PATH, "--epsilon", "0.05", "--runs", runs)
    assert code == 2 and out == ""
    assert err == "error: Monte Carlo needs at least 1 run, got %s\n" % runs


def test_oracle_check_agrees(capsys):
    code, out, err = run(capsys, "oracle-check", C17_PATH, "--epsilon", "0.05")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "vector,output,engine,exact,abs_diff"
    assert len(lines) == 2 + 32 * 2 + 1
    worst = float(lines[-1].split("=")[1])
    assert worst < 1e-9
    assert "max |engine - exact|" in err


def test_oracle_check_json(capsys):
    code, out, _ = run(capsys, "oracle-check", C17_PATH, "--epsilon", "0.05",
                       "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["max_abs_diff"] < 1e-9
    assert len(doc["rows"]) == 64
