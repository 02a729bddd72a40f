"""maxerr benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload analyze-rca5 --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` the per-layer metrics of a traced run.  The
end-to-end times are corrected for the host's speed with the reference
computation in ``hostref.py``; the wall times are in the details.  The
last line of standard output is the result object; the line before it
holds the details (samples, quartiles, environment).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS_PER_OP = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MAXERR_THREADS")


def _import_program():
    """Put the checkout's ``src`` first on the path and make sure that
    is where the package came from."""
    if not os.path.isfile(os.path.join(SRC, "maxerr", "__init__.py")):
        sys.exit("run.py: no maxerr sources under %s; run from a source checkout" % SRC)
    sys.path[:0] = [SRC, HERE]
    import maxerr
    if os.path.dirname(os.path.dirname(os.path.abspath(maxerr.__file__))) != SRC:
        sys.exit("run.py: maxerr was imported from %s, not %s" % (maxerr.__file__, SRC))


def _quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def _git_commit():
    """Commit of the checkout from its .git files, or None outside a
    repository (or with packed refs)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure(w, seconds):
    """Closed loop: set-up calls, then one operation, then the host
    reference computation, back to back until ``seconds`` have passed
    (at least one operation; one reference run comes first).  Each
    set-up call is timed on its own and the op uses the last one, so
    set-up and op samples are spread over the same window.  Returns
    set-up times per op, op times, the reference times around each op
    (one more than ops), the results of the ops that returned and the
    number that raised."""
    import hostref
    setups, times, refs, results, raised = [], [], [hostref.timed()], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        batch = []
        for _ in range(SETUPS_PER_OP):
            t0 = time.perf_counter()
            w.setup()
            batch.append(time.perf_counter() - t0)
        setups.append(batch)
        t0 = time.perf_counter()
        try:
            res = w.op()
        except Exception:
            traceback.print_exc()
            raised += 1
        else:
            results.append(res)
        times.append(time.perf_counter() - t0)
        refs.append(hostref.timed())
        if time.perf_counter() >= deadline:
            return setups, times, refs, results, raised


def end_to_end(w, seconds):
    import hostref
    setups, wall, refs, results, raised = measure(w, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = raised + w.check(results)
    attempted = len(wall)
    factors = hostref.factors(refs)
    times = [t * f for t, f in zip(wall, factors)]
    setup = [t * f for batch, f in zip(setups, factors) for t in batch]
    run_s = statistics.median(times)
    setup_s = statistics.median(setup)
    q1, q3 = _quartiles(times)
    metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (setup_s, "s"),
        "answers_per_s": (w.answers / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "run_s": {"median": run_s, "q1": q1, "q3": q3, "n": attempted, "samples": times},
        "setup_s": {"median": setup_s, "n": len(setup), "samples": setup},
        "wall_run_s": {"median": statistics.median(wall), "samples": wall},
        "wall_setup_s": statistics.median(t for batch in setups for t in batch),
        "host_ref_s": {"nominal": hostref.NOMINAL_S, "median": statistics.median(refs),
                       "samples": refs},
        "answers_per_op": w.answers,
        "failed_frac": failed / attempted,
    }
    return attempted, failed, metrics, detail


def traced(w, seconds, spans_path):
    """Untraced ops for half of ``seconds``, then two traced passes of
    set-up plus one op.  Counts of the two passes must match exactly; the
    first pass's spans are written to ``spans_path``."""
    import tracing
    _, plain, _, results, raised = measure(w, seconds / 2)
    passes = []
    for _ in range(2):
        gc.collect()
        with tracing.Tracer() as tr:
            w.setup()
            t0 = time.perf_counter()
            try:
                results.append(w.op())
            except Exception:
                traceback.print_exc()
                raised += 1
            op_s = time.perf_counter() - t0
        passes.append((tr, op_s))
    first, second = (tr.metrics() for tr, _ in passes)
    exact = {k: first[k][0] for k in tracing.EXACT_COUNTS}
    mismatched = [k for k in tracing.EXACT_COUNTS if first[k] != second[k]]
    if mismatched:
        print("traced counts differ between passes: %s"
              % {k: (first[k][0], second[k][0]) for k in mismatched}, file=sys.stderr)
    failed = raised + w.check(results) + bool(mismatched)
    attempted = len(plain) + len(passes)
    traced_s = statistics.median(op_s for _, op_s in passes)
    plain_s = statistics.median(plain)
    metrics = dict(first)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    passes[0][0].dump(spans_path)
    detail = {"untraced_run_s": {"median": plain_s, "n": len(plain), "samples": plain},
              "traced_run_s": [op_s for _, op_s in passes],
              "counts_repeat": not mismatched,
              "exact_counts": exact,
              "spans_file": spans_path,
              "failed_frac": failed / attempted}
    return attempted, failed, metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    # One process, one thread: pinned before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    w = WORKLOADS[args.workload](ROOT, args.seed)

    if args.trace:
        spans = os.path.join(HERE, "out", "%s-seed%d.spans.json.gz" % (args.workload, args.seed))
        attempted, failed, metrics, detail = traced(w, args.seconds, spans)
    else:
        attempted, failed, metrics, detail = end_to_end(w, args.seconds)
    detail.update(workload=args.workload, trace=args.trace, env=environment(args.seed))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
