"""Run every workload once untraced and twice traced; print all metrics.

    python3 perfbench/report.py [--seed 0] [--seconds 10] [--record]

Prints, per workload, every end-to-end metric (plus failed_frac) and
every per-layer metric by name and unit.  The per-layer counts of the
two traced runs must match exactly, and they are compared with the
counts recorded in ``counts.json`` for the same seed; ``--record``
rewrites that file's entries for the seed instead.  Exits 1 when a
correctness check fails or the counts do not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTS = os.path.join(HERE, "counts.json")
WORKLOADS = ("analyze-rca5", "sweep-c17", "spectrum-rca4")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit("%s exited with %d" % (" ".join(cmd), out.returncode))
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def show(result, extra=()):
    for name, m in result["metrics"].items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, value, unit in extra:
        print("  %-30s %14.6g %s" % (name, value, unit))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--record", action="store_true",
                    help="write this seed's counts into counts.json")
    args = ap.parse_args(argv)

    try:
        with open(COUNTS) as f:
            recorded = json.load(f)
    except FileNotFoundError:
        recorded = {}
    ok = True
    for w in WORKLOADS:
        detail, e2e = run(w, args.seed, args.seconds, 0)
        ok &= e2e["correct"]
        print("%s seed %d: end to end (%d ops, correct=%s)"
              % (w, args.seed, e2e["attempted"], e2e["correct"]))
        q = detail["run_s"]
        show(e2e, [("run_s.q1", q["q1"], "s"), ("run_s.q3", q["q3"], "s"),
                   ("run_s.n", q["n"], "count"),
                   ("wall_run_s", detail["wall_run_s"]["median"], "s"),
                   ("failed_frac", detail["failed_frac"], "ratio")])

        (d1, t1), (d2, _) = run(w, args.seed, args.seconds, 1), run(w, args.seed, args.seconds, 1)
        ok &= t1["correct"]
        print("%s seed %d: per layer (traced, correct=%s)" % (w, args.seed, t1["correct"]))
        show(t1)
        counts = d1["exact_counts"]
        if counts != d2["exact_counts"]:
            ok = False
            print("  COUNTS DO NOT REPEAT across processes:")
            for k in counts:
                if counts[k] != d2["exact_counts"][k]:
                    print("    %s: %s vs %s" % (k, counts[k], d2["exact_counts"][k]))
        if args.record:
            recorded.setdefault(w, {})[str(args.seed)] = counts
            continue
        ref = recorded.get(w, {}).get(str(args.seed))
        if ref is None:
            print("  no recorded counts for this seed")
        elif ref == counts:
            print("  counts match the recorded ones")
        else:
            print("  counts differ from the recorded ones:")
            for k in sorted(set(ref) | set(counts)):
                if ref.get(k) != counts.get(k):
                    print("    %s: recorded %s, now %s" % (k, ref.get(k), counts.get(k)))
    if args.record:
        with open(COUNTS, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
