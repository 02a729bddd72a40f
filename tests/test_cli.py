"""Command line: exit codes, formats, stream separation, determinism."""

import json
import os

import numpy as np
import pytest

from conftest import CHAINS, WIDE_AND
from maxerr import cli
from maxerr.analysis import spectrum, sweep
from maxerr.circuit import to_bench
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
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, cmd):
    # refused before the computation, not after it
    def unreached(*args, **kwargs):
        raise AssertionError("the engine ran before --output was checked")
    monkeypatch.setattr("maxerr.cli." + {"analyze": "max_error"}.get(cmd, cmd), unreached)
    for target, reason in ((tmp_path, "Is a directory"),
                           (tmp_path / "no" / "x.csv", "No such file or directory")):
        code, out, err = run(capsys, cmd, C17_PATH, "--epsilon", "0.05",
                             "--output", str(target))
        assert code == 2 and out == ""
        assert err == "cannot write %s: %s\n" % (target, reason)


def test_output_is_left_alone_when_the_circuit_fails_to_parse(tmp_path, capsys):
    bad, target = tmp_path / "bad.bench", tmp_path / "out.csv"
    bad.write_text("INPUT(a)\nz = FROB(a)\n")
    target.write_text("earlier results\n")
    code, _, err = run(capsys, "analyze", str(bad), "--epsilon", "0.05",
                       "--output", str(target))
    assert code == 1 and "parse error" in err
    assert target.read_text() == "earlier results\n"


def test_json_field_of_wrong_type_exits_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"format": "circuit/1", "inputs": "ab", "outputs": ["z"],
                                "gates": [{"output": "z", "func": "AND",
                                           "inputs": ["a", "b"]}]}))
    code, out, err = run(capsys, "analyze", str(path), "--epsilon", "0.05")
    assert code == 1 and out == ""
    assert err == ("parse error: malformed circuit document: "
                   "inputs must be a list of strings, not 'ab'\n")


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


def test_joint_union_past_the_width_limit_exits_2(tmp_path, capsys):
    chains = tmp_path / "chains.bench"
    chains.write_text(CHAINS)
    args = ("analyze", str(chains), "--epsilon", "0.05", "--joint-evidence")
    code, out, err = run(capsys, *args, "--width-limit", "8")
    assert code == 2 and out == ""
    assert "too wide" in err and "union of a joint query's cones" in err
    last = "# max_error=0.087143 worst_vector=001110111 worst_output=*"
    for limit in ([], ["--width-limit", "9"]):
        code, out, _ = run(capsys, *args, *limit)
        assert code == 0 and out.splitlines()[-1] == last


def test_wide_gate_exits_2_before_the_model_is_built(tmp_path, capsys):
    wide = tmp_path / "wide.bench"
    wide.write_text(WIDE_AND)
    code, _, err = run(capsys, "analyze", str(wide), "--epsilon", "0.05",
                       "--width-limit", "5")
    assert code == 2
    assert "too wide" in err and "21 variables" in err


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


@pytest.mark.parametrize("value", [None, [0.1], True])
def test_epsilon_map_non_number_exits_2(tmp_path, capsys, value):
    table = tmp_path / "eps.json"
    table.write_text(json.dumps({"10": value}))
    code, out, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                         "--epsilon-map", str(table))
    assert code == 2 and out == ""
    assert err == "error: --epsilon-map value of net '10' is %s, not a number\n" \
        % json.dumps(value)


def test_epsilon_map_array_exits_2(tmp_path, capsys):
    table = tmp_path / "eps.json"
    table.write_text(json.dumps([0.1]))
    code, out, err = run(capsys, "analyze", C17_PATH, "--epsilon", "0.05",
                         "--epsilon-map", str(table))
    assert code == 2 and out == ""
    assert err == "error: --epsilon-map must hold a JSON object {net: eps}\n"


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
                                  "0.05,0.05", "0.01:inf:0.01", "nan:0.2:0.01",
                                  "0.01:0.2:inf"])
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


def test_validate_json_matches_csv(capsys):
    args = ("validate", C17_PATH, "--epsilon", "0.05", "--runs", "1000", "--seed", "1")
    _, csv_out, _ = run(capsys, *args)
    code, out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["inputs"] == ["1", "2", "3", "6", "7"]
    assert (doc["runs"], doc["seed"]) == (1000, 1)
    rows = [",".join((r["vector"], r["output"])
                     + tuple("%.6f" % r[k] for k in ("exact", "mc_estimate", "mc_stderr",
                                                     "abs_diff")))
            for r in doc["rows"]]
    assert rows == csv_out.splitlines()[2:]


@pytest.mark.parametrize("runs", ["0", "-5"])
def test_validate_non_positive_runs_exits_2(capsys, runs):
    code, out, err = run(capsys, "validate", C17_PATH, "--epsilon", "0.05", "--runs", runs)
    assert code == 2 and out == ""
    assert err == "error: Monte Carlo needs at least 1 run, got %s\n" % runs


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.1"])
def test_validate_eps_outside_range_exits_2(capsys, eps):
    code, out, err = run(capsys, "validate", C17_PATH, "--epsilon", eps, "--runs", "100")
    assert code == 2 and out == ""
    assert err == "error: gate error probabilities must lie in [0, 0.5]\n"


@pytest.mark.parametrize("cmd", ["analyze", "spectrum"])
@pytest.mark.parametrize("eps", ["-3", "nan", "0.7"])
def test_eps_outside_range_exits_2_on_a_circuit_without_gates(tmp_path, capsys, cmd, eps):
    path = tmp_path / "wire.bench"
    path.write_text("INPUT(a)\nOUTPUT(a)\n")
    code, out, err = run(capsys, cmd, str(path), "--epsilon", eps)
    assert code == 2 and out == ""
    assert err == "error: gate error probability %s outside [0, 0.5]\n" % eps


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


@pytest.mark.parametrize("toward", [np.inf, 0.0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_oracle_check_stdout_ignores_a_one_ulp_move(capsys, monkeypatch, toward, fmt):
    argv = ("oracle-check", C17_PATH, "--epsilon", "0.05", "--format", fmt)
    _, plain, _ = run(capsys, *argv)

    def nudged(*args, **kwargs):
        spec = spectrum(*args, **kwargs)
        spec.per_output = np.nextafter(spec.per_output, toward)
        return spec

    monkeypatch.setattr(cli, "spectrum", nudged)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("toward", [np.inf, 0.0])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_stdout_ignores_a_one_ulp_move(tmp_path, capsys, monkeypatch, corpus, toward, fmt):
    # corpus circuit 19 at eps 0.175 has max_error 0.4996355 to 12 decimals:
    # a rounding tie at 6 decimals, which an ulp either way must not flip
    path = tmp_path / "c19.bench"
    path.write_text(to_bench(corpus[19]))
    argv = ("sweep", str(path), "--grid", "0.15,0.175,0.2", "--format", fmt)
    _, plain, _ = run(capsys, *argv)
    assert ("0.175,0.499636," in plain) if fmt == "csv" else ('"max_error": 0.499636,' in plain)

    def nudged(*args, **kwargs):
        curve = sweep(*args, **kwargs)
        for p in curve.points:
            p.max_error = float(np.nextafter(p.max_error, toward))
            p.avg_error = float(np.nextafter(p.avg_error, toward))
        return curve

    monkeypatch.setattr(cli, "sweep", nudged)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == plain


def test_oracle_check_explain(capsys):
    _, plain, _ = run(capsys, "oracle-check", C17_PATH, "--epsilon", "0.05")
    code, out, err = run(capsys, "oracle-check", C17_PATH, "--epsilon", "0.05", "--explain")
    assert code == 0
    assert out == plain
    lines = err.splitlines()
    # the model and tree spectrum reads: the inputs and the error-prone copy
    assert lines[0] == "elimination order: (9, 10, 8, 5, 6, 7, 0, 1, 2, 3, 4)"
    assert lines[1] == "join tree: 20 clusters, width Z = 6"
    assert lines[-1].startswith("oracle-check: max |engine - exact| = ")
