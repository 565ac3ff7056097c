#!/usr/bin/env python3
"""Compares end-to-end benchmark results of a parent and a change commit.

    python3 bench/e2e/compare.py ra_naive: p1 c1 p2 c2 ... sql_3vl: p1 c1 ...

Each "<workload>:" argument starts a group; the files after it alternate
parent, change, parent, change, ... (one pair per seed). A file is what
bench/e2e/run.py printed; its last line is the result JSON.

For every (workload, end-to-end metric) pair this prints both sides' median
and quartiles, the share of pairs the change won (ties count for neither)
and a verdict, using the bounds and directions in BENCHMARK.json:

  improved      the change won at least 9/10 of the pairs and the medians
                differ by more than the parent's interquartile range
  regressed     the change's median is worse than the parent's by more than
                the allowance
  within bound  neither, and the parent's spread is inside the allowance
  unresolved    neither, and the parent's spread is wider than the allowance

The allowance is the metric's bound times the parent's median, or the
metric's floor in FLOORS when that is larger.

The latency percentiles of the report (p50_ms, p90_ms, p99_ms and on
ingest_mixed ingest_p50_ms, ingest_p95_ms) follow with no bound: their
verdict is improved by the same rule, else "no bound".

Exit status: 1 if any pair regressed or any run reported a wrong answer,
else 0.
"""

import json
import os
import re
import statistics
import sys

REPORTED = re.compile(r"^  (p50_ms|p90_ms|p99_ms|ingest_p50_ms|ingest_p95_ms)"
                      r" +([0-9.]+) ms", re.M)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Absolute floors on a metric's allowance, in its unit (BENCHMARK.json has
# no field for them). setup_s is 2-60 ms of process start and dump loading,
# and on the small instances the host's scheduling noise alone moves it by
# more than its share bound; a regression there must also exceed 20 ms.
FLOORS = {"setup_s": 0.020}


def load_result(path):
    """The result JSON, with the report's latency lines added to metrics."""
    with open(path) as f:
        text = f.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        sys.exit("compare.py: %s is empty" % path)
    result = json.loads(lines[-1])
    for name, value in REPORTED.findall(text):
        result["metrics"].setdefault(name, {"value": float(value)})
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, bound, higher_is_better, floor=0.0):
    sign = 1 if higher_is_better else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    if wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1:
        return wins, "improved"
    if bound is None:
        return wins, "no bound"
    allowance = max(bound * abs(p_med), floor)
    if sign * (c_med - p_med) < -allowance:
        return wins, "regressed"
    if p_q3 - p_q1 > allowance:
        return wins, "unresolved"
    return wins, "within bound"


def main(argv):
    if len(argv) < 3 or not argv[0].endswith(":"):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    groups = {}
    current = None
    for arg in argv:
        if arg.endswith(":"):
            current = groups.setdefault(arg[:-1], [])
        else:
            current.append(arg)

    bad = False
    print("%-15s %-13s %-26s %-26s %7s %6s  %s" % (
        "workload", "metric", "parent median [q1,q3]",
        "change median [q1,q3]", "change", "wins", "verdict"))
    for workload, files in groups.items():
        if len(files) % 2:
            sys.exit("compare.py: %s: odd number of files; they must "
                     "alternate parent, change" % workload)
        results = [load_result(path) for path in files]
        for path, r in zip(files, results):
            if not r["correct"] or r["failed"]:
                print("%s: %s reported %d failed of %d attempted" % (
                    workload, path, r["failed"], r["attempted"]))
                bad = True
        reported = [{"name": n, "bound": None, "better": "lower"}
                    for n in ("p50_ms", "p90_ms", "p99_ms", "ingest_p50_ms",
                              "ingest_p95_ms")
                    if all(n in r["metrics"] for r in results)]
        for m in metrics + reported:
            name = m["name"]
            parent = [r["metrics"][name]["value"] for r in results[0::2]]
            change = [r["metrics"][name]["value"] for r in results[1::2]]
            wins, v = verdict(parent, change, m["bound"],
                              m["better"] == "higher", FLOORS.get(name, 0.0))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            pq, cq = quartiles(parent), quartiles(change)
            delta = (c_med - p_med) / p_med * 100 if p_med else 0
            print("%-15s %-13s %-26s %-26s %+6.1f%% %3d/%-3d %s" % (
                workload, name,
                "%.4g [%.4g,%.4g]" % (p_med, pq[0], pq[1]),
                "%.4g [%.4g,%.4g]" % (c_med, cq[0], cq[1]),
                delta, wins, len(parent), v))
            bad = bad or v == "regressed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
