import numpy as np
import pytest

from maxerr.circuit import (BenchParseError, Circuit, Gate, GateFunc,
                            all_input_vectors, from_json, index_vector,
                            load_circuit, parse_bench, to_bench, to_json,
                            vector_index, vector_string)


def test_c17_shape(c17):
    assert c17.inputs == ("1", "2", "3", "6", "7")
    assert c17.outputs == ("22", "23")
    assert c17.n_gates == 6
    assert all(g.func is GateFunc.NAND for g in c17.gates)


def test_c17_eval_hand_checked(c17):
    # all-zero inputs: every first-level NAND is 1, both outputs 0
    assert c17.eval([0, 0, 0, 0, 0]) == (0, 0)
    assert c17.eval([0, 1, 1, 1, 1]) == (0, 0)
    assert c17.eval([1, 0, 1, 0, 1]) == (1, 1)


def test_eval_batch_matches_scalar(c17):
    vecs = all_input_vectors(c17.n_inputs)
    batch = c17.eval_batch(vecs)
    for i in range(vecs.shape[0]):
        assert tuple(batch[i]) == c17.eval(vecs[i])


def test_eval_with_faults_flips_gate(c17):
    base = c17.eval([0, 1, 1, 1, 1])
    # fault on the last gate (net 23) flips output 23 only
    assert c17.eval([0, 1, 1, 1, 1], faults=[5]) == (base[0], base[1] ^ 1)


def test_fault_batch_matches_scalar(c17):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 2, size=(50, 5)).astype(bool)
    faults = rng.integers(0, 2, size=(50, 6)).astype(bool)
    batch = c17.eval_batch(rows, faults)
    for i in range(50):
        assert tuple(batch[i]) == c17.eval(rows[i], np.flatnonzero(faults[i]))


def test_vector_helpers():
    assert vector_string((0, 1, 1, 1, 1)) == "01111"
    assert vector_index((0, 1, 1, 1, 1)) == 15
    assert index_vector(15, 5) == (0, 1, 1, 1, 1)
    vecs = all_input_vectors(3)
    assert vecs.shape == (8, 3)
    assert list(vecs[5]) == [1, 0, 1]


def test_gate_funcs_cover_truth_tables():
    assert GateFunc.AND.eval([1, 1, 1]) == 1
    assert GateFunc.NAND.eval([1, 1]) == 0
    assert GateFunc.OR.eval([0, 0]) == 0
    assert GateFunc.NOR.eval([0, 0]) == 1
    assert GateFunc.XOR.eval([1, 1, 1]) == 1
    assert GateFunc.XNOR.eval([1, 0]) == 0
    assert GateFunc.NOT.eval([0]) == 1
    assert GateFunc.BUF.eval([1]) == 1


def test_parse_roundtrip(c17):
    again = parse_bench(to_bench(c17))
    assert again.inputs == c17.inputs
    assert again.outputs == c17.outputs
    assert [(g.output, g.func, g.fanin) for g in again.gates] == \
        [(g.output, g.func, g.fanin) for g in c17.gates]


def test_json_roundtrip(c17):
    again = from_json(to_json(c17))
    assert again.inputs == c17.inputs
    assert to_bench(again) == to_bench(c17)


def test_load_circuit_json(tmp_path, c17):
    p = tmp_path / "c.json"
    p.write_text(to_json(c17))
    assert load_circuit(str(p)).outputs == c17.outputs


def test_parse_errors_carry_line_numbers():
    with pytest.raises(BenchParseError, match="line 3"):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n")
    with pytest.raises(BenchParseError, match="undefined"):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n")
    with pytest.raises(BenchParseError, match="duplicate"):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n")


@pytest.mark.parametrize("parse, source, message, line", [
    (parse_bench, "OUTPUT(z)\n", "circuit declares no inputs", None),
    (parse_bench, "INPUT(a)\n", "circuit declares no outputs", None),
    (parse_bench, "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n", "line 2: duplicate net definition 'a'", 2),
    (parse_bench, "INPUT(a)\nOUTPUT(z)\n", "line 2: undefined net 'z'", 2),
    (parse_bench, "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, , b)\n",
     "line 4: empty fan-in entry", 4),
    (parse_bench, "INPUT(a)\nOUTPUT(a)\nwire a;\n", "line 3: unrecognized statement 'wire a;'", 3),
    (from_json, '{"format": "circuit/1",\n"inputs": [}',
     "line 2: invalid JSON: Expecting value: line 2 column 12 (char 35)", 2),
    (from_json, {"format": "circuit/2"}, "expected a JSON object with format == 'circuit/1'", None),
], ids=["no-inputs", "no-outputs", "duplicate-input", "undefined-output", "empty-fanin",
        "unrecognized", "invalid-json", "json-format"])
def test_parse_error_messages(parse, source, message, line):
    with pytest.raises(BenchParseError) as info:
        parse(source)
    assert str(info.value) == message
    assert info.value.line == line


def test_buff_reads_as_buf():
    c = parse_bench("INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
    assert c.gates == (Gate("z", GateFunc.BUF, ("a",), 3),)


def test_duplicate_fanin_rejected():
    with pytest.raises(BenchParseError, match="line 4: gate 'g' lists fan-in 'a' twice"):
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(g)\ng = AND(a, b, a)\n")
    doc = {"format": "circuit/1", "inputs": ["a"], "outputs": ["g"],
           "gates": [{"output": "g", "func": "AND", "inputs": ["a", "a"]}]}
    with pytest.raises(BenchParseError, match="gate 'g' lists fan-in 'a' twice"):
        from_json(doc)


def test_repeated_output_rejected():
    with pytest.raises(BenchParseError, match="line 5: output 'z' declared twice"):
        parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nOUTPUT(z)\n")
    doc = {"format": "circuit/1", "inputs": ["a", "b"], "outputs": ["z", "z"],
           "gates": [{"output": "z", "func": "AND", "inputs": ["a", "b"]}]}
    with pytest.raises(BenchParseError, match="^output 'z' declared twice$"):
        from_json(doc)


_DOC = {"format": "circuit/1", "inputs": ["a", "b"], "outputs": ["z"],
        "gates": [{"output": "z", "func": "AND", "inputs": ["a", "b"]}]}


@pytest.mark.parametrize("in_gate, key, value, message", [
    (True, "func", 5, "gate 0 func must be a string, not 5"),
    (True, "output", 3, "gate 0 output must be a string, not 3"),
    (True, "inputs", "ab", "gate 0 inputs must be a list of strings, not 'ab'"),
    (False, "inputs", [1, 2], "inputs must be a list of strings, not [1, 2]"),
    (False, "inputs", "ab", "inputs must be a list of strings, not 'ab'"),
    (False, "outputs", "z", "outputs must be a list of strings, not 'z'"),
])
def test_json_field_of_wrong_type_rejected(in_gate, key, value, message):
    # a string of net names would otherwise be read one character per net
    doc = {**_DOC, "gates": [dict(_DOC["gates"][0])]}
    (doc["gates"][0] if in_gate else doc)[key] = value
    with pytest.raises(BenchParseError) as info:
        from_json(doc)
    assert str(info.value) == "malformed circuit document: " + message


def test_json_unknown_function_has_no_line_prefix():
    doc = {**_DOC, "gates": [{**_DOC["gates"][0], "func": "FROB"}]}
    with pytest.raises(BenchParseError) as info:
        from_json(doc)
    assert str(info.value) == "unknown gate function 'FROB'"
    assert info.value.line is None


def test_cycle_detected():
    with pytest.raises(BenchParseError, match="cycle"):
        parse_bench("INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = BUF(x)\n")


def test_arity_enforced():
    with pytest.raises(BenchParseError):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = NOT(a, a)\n")
    with pytest.raises(BenchParseError):
        parse_bench("INPUT(a)\nOUTPUT(z)\nz = AND(a)\n")


def test_comments_and_case_insensitive_keywords():
    c = parse_bench("# header\ninput(a)\nINPUT(b)\noutput(z)\nz = nand(a, b)\n")
    assert c.inputs == ("a", "b")
    assert c.gates[0].func is GateFunc.NAND


def test_output_direct_from_input_allowed():
    c = parse_bench("INPUT(a)\nOUTPUT(a)\nOUTPUT(z)\nz = NOT(a)\n")
    assert c.eval([1]) == (1, 0)


def test_topological_eval_order_independent():
    # gates declared out of dependency order still evaluate
    c = Circuit(("a", "b"),
                (Gate("y", GateFunc.AND, ("x", "b")),
                 Gate("x", GateFunc.NOT, ("a",))),
                ("y",))
    assert c.eval([0, 1]) == (1,)
    assert c.eval([1, 1]) == (0,)
