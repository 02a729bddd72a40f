"""Command-line front end.

Subcommands cover the whole pipeline: ``analyze`` (worst-case error per
output), ``sweep`` (error vs gate error rate, with bound detection),
``spectrum`` (every input vector), ``validate`` (exact vs Monte Carlo)
and ``oracle-check`` (engine vs fault-set enumeration).  Output goes to
stdout or ``--output`` as CSV or JSON, probabilities at 6 decimals (``_round``);
timing and diagnostics go to stderr so repeated runs with the same
arguments produce byte-identical files.

Exit codes: 0 success, 1 circuit parse error or an input file that
cannot be read, 2 usage, resource limit (a cluster or joint cone past
``--width-limit``, enumeration caps) or an ``--output`` file that
cannot be written, 3 evidence unreachable on every output.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time

from .analysis import max_error, prepare, prepare_faulty, spectrum, sweep
from .circuit import BenchParseError, index_vector, load_circuit, vector_string
from .model import eps_by_net_name
from .oracle import FaultEnumerator, McConfig, monte_carlo
from .valuation import DEFAULT_WIDTH_LIMIT, WidthLimitError

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_LIMIT = 2
EXIT_UNREACHABLE = 3


def _round(p: float, places: int = 6) -> float:
    # 12 decimals first: values an ulp apart across a tie print alike
    return round(round(p, 12), places)


def _fmt(p: float, places: int = 6) -> str:
    return "%.*f" % (places, _round(p, places))


def _parse_grid(text: str) -> list[float]:
    """``start:stop:step`` (stop inclusive to within half a step) or a
    comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("grid must be start:stop:step or a comma list")
        start, stop, step = (float(x) for x in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError("grid start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise ValueError("grid must satisfy step > 0 and stop >= start")
        n = int(round((stop - start) / step))
        grid = [round(start + i * step, 12) for i in range(n + 1)]
    else:
        grid = [float(x) for x in text.split(",") if x.strip()]
    if any(not 0.0 < e <= 0.5 for e in grid):
        raise ValueError("grid values must lie in (0, 0.5]")
    return grid


def _load_eps(args, c):
    """Resolve --epsilon / --epsilon-map into what build_error_model and
    the oracle accept (float or {gate index: eps})."""
    if args.epsilon_map:
        with open(args.epsilon_map, "r", encoding="utf-8") as fh:
            named = json.load(fh)
        if not isinstance(named, dict):
            raise ValueError("--epsilon-map must hold a JSON object {net: eps}")
        for net, e in named.items():
            if isinstance(e, bool) or not isinstance(e, (int, float)):
                raise ValueError("--epsilon-map value of net %r is %s, not a number"
                                 % (net, json.dumps(e)))
        return eps_by_net_name(c, {str(k): float(v) for k, v in named.items()},
                               default=args.epsilon)
    if args.epsilon is None:
        raise ValueError("one of --epsilon / --epsilon-map is required")
    return args.epsilon


class OutputError(Exception):
    """The ``--output`` file could not be written."""


def _check_output(path: str) -> None:
    """Refuse an ``--output`` that is a directory or lies in a missing
    directory before any work is done, without creating the file."""
    parent = os.path.dirname(path) or "."
    code = (errno.EISDIR if os.path.isdir(path) else
            errno.ENOENT if not os.path.exists(parent) else
            errno.ENOTDIR if not os.path.isdir(parent) else None)
    if code is not None:
        raise OutputError("cannot write %s: %s" % (path, os.strerror(code)))


def _emit(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError("cannot write %s: %s" % (args.output, exc.strerror)) from exc
    else:
        sys.stdout.write(text)


def _explain(net, tree) -> None:
    print("elimination order: %s" % (tree.order,), file=sys.stderr)
    print("join tree: %d clusters, width Z = %d"
          % (tree.n_clusters, tree.width), file=sys.stderr)
    print(tree.describe(net), file=sys.stderr)


def _inputs_header(c) -> str:
    return "# inputs: " + " ".join(c.inputs)


def cmd_analyze(args) -> int:
    c = load_circuit(args.circuit)
    eps = _load_eps(args, c)
    net, tree = prepare(c, eps, width_limit=args.width_limit)
    t0 = time.perf_counter()
    rep = max_error(net, tree, joint=args.joint_evidence)
    dt = time.perf_counter() - t0
    if args.explain:
        _explain(net, tree)
        for r in rep.per_output:
            print("query %s: expanded %d pruned %d"
                  % (r.output, r.nodes_expanded, r.nodes_pruned), file=sys.stderr)
    print("analyze: %.3fs" % dt, file=sys.stderr)

    if args.format == "json":
        doc = {
            "inputs": list(rep.input_order),
            "per_output": [
                {"output": r.output, "vector": r.vector,
                 "p_error": _round(r.p_error), "unreachable": r.unreachable,
                 "nodes_expanded": r.nodes_expanded,
                 "nodes_pruned": r.nodes_pruned}
                for r in rep.per_output],
            "max_error": _round(rep.max_error),
            "worst_vector": rep.worst_vector,
            "worst_output": rep.worst_output,
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [_inputs_header(c),
                 "output,vector,p_error,nodes_expanded,nodes_pruned"]
        for r in rep.per_output:
            lines.append("%s,%s,%s,%d,%d" % (
                r.output, r.vector if r.vector else "-", _fmt(r.p_error),
                r.nodes_expanded, r.nodes_pruned))
        lines.append("# max_error=%s worst_vector=%s worst_output=%s" % (
            _fmt(rep.max_error), rep.worst_vector or "-", rep.worst_output or "-"))
        _emit(args, "\n".join(lines) + "\n")

    if all(r.unreachable for r in rep.per_output):
        print("error evidence unreachable on every output", file=sys.stderr)
        return EXIT_UNREACHABLE
    return EXIT_OK


def cmd_sweep(args) -> int:
    c = load_circuit(args.circuit)
    grid = _parse_grid(args.grid)
    t0 = time.perf_counter()
    curve = sweep(c, grid, refine=args.refine, width_limit=args.width_limit)
    dt = time.perf_counter() - t0
    print("sweep: %d points, %.3fs total, %.3fs/point"
          % (len(grid), dt, dt / len(grid)), file=sys.stderr)

    if args.format == "json":
        doc = {
            "points": [{"epsilon": p.epsilon,
                        "max_error": _round(p.max_error),
                        "avg_error": _round(p.avg_error),
                        "worst_vector": p.worst_vector,
                        "worst_output": p.worst_output}
                       for p in curve.points],
            "error_bound": curve.error_bound,
            "refined_bound": curve.refined_bound,
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = ["epsilon,max_error,avg_error,worst_vector,worst_output"]
        for p in curve.points:
            lines.append("%g,%s,%s,%s,%s" % (
                p.epsilon, _fmt(p.max_error), _fmt(p.avg_error),
                p.worst_vector or "-", p.worst_output or "-"))
        lines.append("# error_bound=%s" % (
            "-" if curve.error_bound is None else "%g" % curve.error_bound))
        lines.append("# refined_bound=%s" % (
            "-" if curve.refined_bound is None else _fmt(curve.refined_bound)))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    c = load_circuit(args.circuit)
    eps = _load_eps(args, c)
    t0 = time.perf_counter()
    sp = spectrum(c, eps, width_limit=args.width_limit)
    print("spectrum: %d vectors, %.3fs" % (len(sp.per_output),
                                           time.perf_counter() - t0), file=sys.stderr)
    k = c.n_inputs
    if args.format == "json":
        doc = {
            "inputs": list(sp.input_order),
            "mu": _round(sp.mu),
            "sigma": _round(sp.sigma),
            "rows": [{"vector": vector_string(index_vector(i, k)),
                      "per_output": [_round(float(x)) for x in row],
                      "max": _round(float(m))}
                     for i, (row, m) in enumerate(zip(sp.per_output, sp.max_probs))],
            "above": [{"vector": v, "max": _round(p)} for v, p in sp.above()],
        }
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [_inputs_header(c),
                 "vector," + ",".join(c.outputs) + ",max"]
        for i, (row, m) in enumerate(zip(sp.per_output, sp.max_probs)):
            cells = ",".join(_fmt(float(x)) for x in row)
            lines.append("%s,%s,%s" % (vector_string(index_vector(i, k)), cells,
                                       _fmt(float(m))))
        lines.append("# mu=%s sigma=%s above_mu_plus_sigma=%d" % (
            _fmt(sp.mu), _fmt(sp.sigma), len(sp.above())))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    c = load_circuit(args.circuit)
    eps = _load_eps(args, c)
    enum = FaultEnumerator(c)
    exact = enum.cond_errors(eps)
    cfg = McConfig(runs=args.runs, seed=args.seed)
    t0 = time.perf_counter()
    rows = []
    for i in range(exact.shape[0]):
        bits = index_vector(i, c.n_inputs)
        est = monte_carlo(c, bits, eps, cfg)
        for j, name in enumerate(c.outputs):
            rows.append((vector_string(bits), name, float(exact[i, j]),
                         float(est.p_error[j]), float(est.stderr[j])))
    print("validate: %d vectors x %d runs, %.3fs"
          % (exact.shape[0], args.runs, time.perf_counter() - t0), file=sys.stderr)

    if args.format == "json":
        doc = {"inputs": list(c.inputs), "runs": args.runs, "seed": args.seed,
               "rows": [{"vector": v, "output": o,
                         "exact": _round(e), "mc_estimate": _round(m),
                         "mc_stderr": _round(s), "abs_diff": _round(abs(e - m))}
                        for v, o, e, m, s in rows]}
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [_inputs_header(c),
                 "vector,output,exact,mc_estimate,mc_stderr,abs_diff"]
        for v, o, e, m, s in rows:
            lines.append(",".join((v, o, _fmt(e), _fmt(m), _fmt(s), _fmt(abs(e - m)))))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    c = load_circuit(args.circuit)
    eps = _load_eps(args, c)
    exact = FaultEnumerator(c).cond_errors(eps)   # its 16-input cap fires before spectrum's
    if args.explain:
        _explain(*prepare_faulty(c, eps, width_limit=args.width_limit))
    table = spectrum(c, eps, width_limit=args.width_limit).per_output
    rows = []
    worst = 0.0
    for i in range(exact.shape[0]):
        bits = index_vector(i, c.n_inputs)
        for j in range(c.n_outputs):
            engine = float(table[i, j])
            diff = abs(engine - float(exact[i, j]))
            worst = max(worst, diff)
            rows.append((vector_string(bits), c.outputs[j], engine, float(exact[i, j]), diff))

    if args.format == "json":
        doc = {"inputs": list(c.inputs),
               "rows": [{"vector": v, "output": o, "engine": _round(g, 9),
                         "exact": _round(e, 9), "abs_diff": _round(d, 9)}
                        for v, o, g, e, d in rows],
               "max_abs_diff": _round(worst, 9)}
        _emit(args, json.dumps(doc, indent=2) + "\n")
    else:
        lines = [_inputs_header(c),
                 "vector,output,engine,exact,abs_diff"]
        for v, o, g, e, d in rows:
            lines.append(",".join((v, o, _fmt(g, 9), _fmt(e, 9), _fmt(d, 9))))
        lines.append("# max_abs_diff=" + _fmt(worst, 9))
        _emit(args, "\n".join(lines) + "\n")
    print("oracle-check: max |engine - exact| = %.3e" % worst, file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="maxerr",
        description="Worst-case output error analysis for gate-level circuits.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, eps=True, tree=True, explain=False):
        # each subcommand takes only the options it reads
        p.add_argument("circuit", help=".bench or .json circuit file")
        if eps:
            p.add_argument("--epsilon", type=float, default=None,
                           help="uniform gate error rate in [0, 0.5]")
            p.add_argument("--epsilon-map", default=None, metavar="FILE",
                           help="JSON {net: eps}; --epsilon fills unlisted nets")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, metavar="FILE",
                       help="write here instead of stdout")
        if tree:
            p.add_argument("--width-limit", type=int, default=DEFAULT_WIDTH_LIMIT,
                           help="abort if a tree cluster or joint cone holds more variables")
        if explain:
            p.add_argument("--explain", action="store_true",
                           help="dump elimination order, tree and node counts to stderr")

    p = sub.add_parser("analyze", help="worst-case error per output via MAP")
    common(p, explain=True)
    p.add_argument("--joint-evidence", action="store_true",
                   help="single query with every output wrong at once")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="max/avg error across an eps grid")
    common(p, eps=False)
    p.add_argument("--grid", required=True,
                   help="start:stop:step or comma-separated eps values")
    p.add_argument("--refine", action="store_true",
                   help="bisect the 0.5 crossing to +-1e-4")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("spectrum", help="exact error for every input vector")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("validate", help="exact enumeration vs Monte Carlo")
    common(p, tree=False)
    p.add_argument("--runs", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("oracle-check", help="engine inference vs enumeration")
    common(p, explain=True)
    p.set_defaults(fn=cmd_oracle_check)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        if args.output:
            _check_output(args.output)
        return args.fn(args)
    except BenchParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except OutputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:   # _emit turns its own into OutputError
        if exc.filename is None:   # no file was opened: a closed stdout, say
            raise
        print("cannot read %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return EXIT_PARSE
    except WidthLimitError as exc:
        print("join tree too wide: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_LIMIT


if __name__ == "__main__":
    raise SystemExit(main())
