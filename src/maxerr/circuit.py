"""Gate-level combinational circuits.

Parses the plain-text netlist format used by the ISCAS benchmark suites
(INPUT/OUTPUT declarations plus ``net = FUNC(a, b, ...)`` lines) and a
small JSON equivalent, orders gates topologically, and evaluates the
circuit with an optional set of faulty gates.  A faulty gate emits the
complement of its correct output.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np


class BenchParseError(ValueError):
    """Malformed netlist text; carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class GateFunc(Enum):
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"

    def eval(self, bits: Sequence[int]) -> int:
        """Correct output of the gate for one fan-in assignment."""
        if self is GateFunc.AND:
            return int(all(bits))
        if self is GateFunc.NAND:
            return int(not all(bits))
        if self is GateFunc.OR:
            return int(any(bits))
        if self is GateFunc.NOR:
            return int(not any(bits))
        if self is GateFunc.XOR:
            return sum(bits) & 1
        if self is GateFunc.XNOR:
            return (sum(bits) & 1) ^ 1
        if self is GateFunc.NOT:
            return bits[0] ^ 1
        return bits[0]

    def eval_cols(self, cols: list[np.ndarray]) -> np.ndarray:
        """Vectorized gate function over parallel boolean columns."""
        if self is GateFunc.AND:
            return np.logical_and.reduce(cols)
        if self is GateFunc.NAND:
            return ~np.logical_and.reduce(cols)
        if self is GateFunc.OR:
            return np.logical_or.reduce(cols)
        if self is GateFunc.NOR:
            return ~np.logical_or.reduce(cols)
        if self is GateFunc.XOR:
            return np.logical_xor.reduce(cols)
        if self is GateFunc.XNOR:
            return ~np.logical_xor.reduce(cols)
        if self is GateFunc.NOT:
            return ~cols[0]
        return cols[0]

    @property
    def min_fanin(self) -> int:
        return 1 if self in (GateFunc.NOT, GateFunc.BUF) else 2

    @property
    def max_fanin(self) -> int:
        return 1 if self in (GateFunc.NOT, GateFunc.BUF) else 64


# BUFF is the spelling used by the ISCAS bench files.
_FUNC_ALIASES = {"BUFF": GateFunc.BUF, "BUFFER": GateFunc.BUF}


def _lookup_func(token: str, line: int | None) -> GateFunc:
    name = token.strip().upper()
    if name in _FUNC_ALIASES:
        return _FUNC_ALIASES[name]
    try:
        return GateFunc(name)
    except ValueError:
        raise BenchParseError("unknown gate function %r" % token.strip(), line) from None


@dataclass(frozen=True)
class Gate:
    output: str
    func: GateFunc
    fanin: tuple[str, ...]
    line: int | None = None


class Circuit:
    """Immutable combinational circuit.

    ``inputs`` and ``outputs`` keep declaration order; ``gates`` keeps the
    order the defining lines appeared in; ``output_lines`` gives each
    output's declaration line.  Construction validates fan-in arities,
    distinct fan-ins and outputs, net-name uniqueness and acyclicity, and
    precomputes the topological gate order used by :meth:`eval`.
    """

    def __init__(self, inputs: Sequence[str], gates: Sequence[Gate],
                 outputs: Sequence[str], output_lines: Sequence[int] | None = None):
        self.inputs = tuple(inputs)
        self.gates = tuple(gates)
        self.outputs = tuple(outputs)
        if not self.inputs:
            raise BenchParseError("circuit declares no inputs")
        if not self.outputs:
            raise BenchParseError("circuit declares no outputs")

        defined: dict[str, int] = {}
        for j, name in enumerate(self.inputs):
            if name in defined:
                raise BenchParseError("duplicate net definition %r" % name)
            defined[name] = j
        for gi, g in enumerate(self.gates):
            if g.output in defined:
                raise BenchParseError("duplicate net definition %r" % g.output, g.line)
            if not (g.func.min_fanin <= len(g.fanin) <= g.func.max_fanin):
                raise BenchParseError(
                    "%s takes %s fan-ins, got %d"
                    % (g.func.value, "1" if g.func.min_fanin == 1 else ">=2", len(g.fanin)),
                    g.line)
            defined[g.output] = len(self.inputs) + gi

        for g in self.gates:
            for name in g.fanin:
                if name not in defined:
                    raise BenchParseError("undefined net %r" % name, g.line)
            dup = next((n for i, n in enumerate(g.fanin) if n in g.fanin[:i]), None)
            if dup is not None:
                raise BenchParseError("gate %r lists fan-in %r twice" % (g.output, dup),
                                      g.line)
        declared: set[str] = set()
        for j, name in enumerate(self.outputs):
            line = output_lines[j] if output_lines else None
            if name in declared:
                raise BenchParseError("output %r declared twice" % name, line)
            if name not in defined:
                raise BenchParseError("undefined net %r" % name, line)
            declared.add(name)

        self._fanin_ids = [tuple(defined[n] for n in g.fanin) for g in self.gates]
        self._out_ids = tuple(defined[n] for n in self.outputs)
        self._topo = self._topo_sort()

    def _topo_sort(self) -> tuple[int, ...]:
        # Kahn's algorithm over gate indices; net ids < k are inputs and
        # always ready.
        k = len(self.inputs)
        pending = {gi: sum(1 for nid in self._fanin_ids[gi] if nid >= k)
                   for gi in range(len(self.gates))}
        consumers: dict[int, list[int]] = {}
        for gi, ids in enumerate(self._fanin_ids):
            for nid in ids:
                if nid >= k:
                    consumers.setdefault(nid - k, []).append(gi)
        ready = sorted(gi for gi, deg in pending.items() if deg == 0)
        order: list[int] = []
        while ready:
            gi = ready.pop(0)
            order.append(gi)
            for dep in consumers.get(gi, ()):
                pending[dep] -= 1
                if pending[dep] == 0:
                    ready.append(dep)
            ready.sort()
        if len(order) != len(self.gates):
            stuck = [gi for gi, deg in pending.items() if deg > 0 and gi not in order]
            lines = [self.gates[gi].line for gi in stuck if self.gates[gi].line]
            raise BenchParseError(
                "cycle detected through %s" % ", ".join(repr(self.gates[gi].output) for gi in stuck),
                min(lines) if lines else None)
        return tuple(order)

    # -- basic accessors -------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    # -- simulation ------------------------------------------------------

    def eval(self, input_bits: Sequence[int],
             faults: Iterable[int] = ()) -> tuple[int, ...]:
        """Output bits for one input vector.

        ``faults`` lists indices of gates that emit the complement of
        their correct value.
        """
        if len(input_bits) != len(self.inputs):
            raise ValueError("expected %d input bits, got %d"
                             % (len(self.inputs), len(input_bits)))
        k = len(self.inputs)
        flip = set(faults)
        vals = list(input_bits) + [0] * len(self.gates)
        for gi in self._topo:
            g = self.gates[gi]
            out = g.func.eval([vals[nid] for nid in self._fanin_ids[gi]])
            if gi in flip:
                out ^= 1
            vals[k + gi] = out
        return tuple(vals[nid] for nid in self._out_ids)

    def eval_batch(self, input_rows: np.ndarray,
                   fault_rows: np.ndarray | None = None) -> np.ndarray:
        """Row-parallel simulation.

        ``input_rows`` is a bool array of shape (R, k); ``fault_rows``
        either None (fault free) or bool (R, G).  Returns bool (R, n).
        Same semantics as :meth:`eval`, vectorized with numpy; the scalar
        path stays the reference implementation.
        """
        rows = np.asarray(input_rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != len(self.inputs):
            raise ValueError("input_rows must have shape (R, %d)" % len(self.inputs))
        k = len(self.inputs)
        vals: list[np.ndarray] = [rows[:, j] for j in range(k)]
        vals += [None] * len(self.gates)  # type: ignore[list-item]
        for gi in self._topo:
            g = self.gates[gi]
            out = g.func.eval_cols([vals[nid] for nid in self._fanin_ids[gi]])
            if fault_rows is not None:
                out = out ^ fault_rows[:, gi]
            vals[k + gi] = out
        return np.stack([vals[nid] for nid in self._out_ids], axis=1)


def all_input_vectors(k: int) -> np.ndarray:
    """All 2**k input rows; row index reads the vector as a binary number
    whose most significant bit is the first declared input."""
    idx = np.arange(1 << k, dtype=np.int64)
    return ((idx[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(bool)


def vector_string(bits: Sequence[int]) -> str:
    return "".join("1" if b else "0" for b in bits)


def vector_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


def index_vector(idx: int, k: int) -> tuple[int, ...]:
    return tuple((idx >> (k - 1 - j)) & 1 for j in range(k))


# -- parsing -------------------------------------------------------------

_DECL_RE = re.compile(r"^(INPUT|OUTPUT)\s*\(\s*([^\s(),]+)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(r"^([^\s=(),]+)\s*=\s*([A-Za-z]+)\s*\(\s*(.*?)\s*\)$")


def parse_bench(text: str) -> Circuit:
    """Parse netlist text in the bench format.

    Declaration order need not be topological; gate function names are
    case-insensitive.  ``#`` starts a comment.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    output_lines: list[int] = []
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECL_RE.match(line)
        if m:
            kind, name = m.group(1).upper(), m.group(2)
            if kind == "INPUT":
                if name in inputs:
                    raise BenchParseError("duplicate net definition %r" % name, lineno)
                inputs.append(name)
            else:
                outputs.append(name)
                output_lines.append(lineno)
            continue
        m = _GATE_RE.match(line)
        if m:
            out, func_tok, args = m.groups()
            fanin = tuple(a.strip() for a in args.split(",")) if args.strip() else ()
            if any(not a for a in fanin):
                raise BenchParseError("empty fan-in entry", lineno)
            gates.append(Gate(out, _lookup_func(func_tok, lineno), fanin, lineno))
            continue
        raise BenchParseError("unrecognized statement %r" % line, lineno)
    return Circuit(inputs, gates, outputs, output_lines)


def to_bench(c: Circuit) -> str:
    """Canonical bench text; parse(to_bench(parse(s))) is a fixed point."""
    lines = ["INPUT(%s)" % n for n in c.inputs]
    lines.append("")
    lines += ["OUTPUT(%s)" % n for n in c.outputs]
    lines.append("")
    for g in c.gates:
        lines.append("%s = %s(%s)" % (g.output, g.func.value, ", ".join(g.fanin)))
    return "\n".join(lines) + "\n"


JSON_FORMAT = "circuit/1"


def from_json(doc) -> Circuit:
    """Build a circuit from the JSON netlist form (parsed dict or text)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise BenchParseError("invalid JSON: %s" % exc, exc.lineno) from None
    if not isinstance(doc, dict) or doc.get("format") != JSON_FORMAT:
        raise BenchParseError("expected a JSON object with format == %r" % JSON_FORMAT)
    try:
        gates = [Gate(_string(g["output"], "gate %d output" % j),
                      _lookup_func(_string(g["func"], "gate %d func" % j), None),
                      _strings(g["inputs"], "gate %d inputs" % j))
                 for j, g in enumerate(doc["gates"])]
        return Circuit(_strings(doc["inputs"], "inputs"), gates,
                       _strings(doc["outputs"], "outputs"))
    except (KeyError, TypeError) as exc:
        raise BenchParseError("malformed circuit document: %s" % exc) from None


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise TypeError("%s must be a string, not %r" % (what, value))
    return value


def _strings(value, what: str) -> tuple[str, ...]:
    # a string would iterate as its characters, one net each
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("%s must be a list of strings, not %r" % (what, value))
    return tuple(value)


def to_json(c: Circuit) -> str:
    doc = {
        "format": JSON_FORMAT,
        "inputs": list(c.inputs),
        "outputs": list(c.outputs),
        "gates": [{"output": g.output, "func": g.func.value, "inputs": list(g.fanin)}
                  for g in c.gates],
    }
    return json.dumps(doc, indent=2) + "\n"


def load_circuit(path: str) -> Circuit:
    """Load a circuit file, dispatching on extension (.json vs bench)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).lower().endswith(".json") or text.lstrip().startswith("{"):
        return from_json(text)
    return parse_bench(text)
