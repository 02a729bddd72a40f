"""Exact worst-case output error analysis for gate-level circuits."""

from .circuit import (BenchParseError, Circuit, Gate, GateFunc, load_circuit,
                      parse_bench, to_bench, to_json, from_json)
from .model import (Cpt, ErrorModelNet, Var, VarClass, build_error_model,
                    cpt_for_gate, eps_by_net_name, input_prior, joint_prob)
from .valuation import (DEFAULT_WIDTH_LIMIT, Valuation, WidthLimitError,
                        combine, indicator, marg_max, marg_sum)
from .jointree import (BinaryJoinTree, EliminationOrder, build_tree,
                       choose_order, moral_graph, order_width, validate_tree)
from .propagate import Propagator, prob_evidence
from .mapsearch import (MapQuery, MapResult, search, seed, solve,
                        var_order_heuristic)
from .analysis import (ErrorReport, Spectrum, SweepCurve, avg_error,
                       max_error, max_errors, prepare, spectrum, sweep)
from . import oracle

__version__ = "0.1.0"
