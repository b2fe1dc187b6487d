#!/usr/bin/env python3
"""Compare two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds the files `perfbench/run.py --results-dir DIR`
writes, one per run. For every workload and end-to-end metric the tool
prints each side's median and quartiles (statistics.quantiles, n=4) and
the spread, the quartile distance as a share of the median, marked `*`
when it is above a third of the bound and `!` when it is above the
bound (setup_s is not held to its spread). With two directories it
also prints how far NEW's median moved from BASE's in the metric's
worse direction, and whether that stays inside the bound. Exits 1 when
a spread or a comparison is outside its bound or a run failed its
correctness checks.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(directory):
    """{workload: {metric: [values]}} plus the count of failed runs."""
    values, failed = {}, 0
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if run["trace"] != 0:
            continue
        result = run["result"]
        if not result["correct"] or result["failed"]:
            failed += 1
        per_metric = values.setdefault(run["workload"], {})
        for name, entry in result["metrics"].items():
            per_metric.setdefault(name, []).append(entry["value"])
    return values, failed


def summary(samples):
    med = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = [load_set(d) for d in argv[1:]]
    status = 0
    for directory, (_, failed) in zip(argv[1:], sets):
        if failed:
            print("%s: %d runs failed their checks" % (directory, failed))
            status = 1

    header = "%-10s %-12s %7s" % ("workload", "metric", "bound")
    for side in ("base", "new")[:len(sets)]:
        header += " | %-5s %12s %12s %12s %7s" % (
            side, "median", "q1", "q3", "spread")
    if len(sets) == 2:
        header += " | %8s %s" % ("worse_by", "verdict")
    print(header)
    for workload in spec["workloads"]:
        wname = workload["name"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = "%-10s %-12s %7.3f" % (wname, name, bound)
            medians = []
            for values, _ in sets:
                samples = values.get(wname, {}).get(name)
                if not samples:
                    row += " | %-5s %12s %12s %12s %7s" % (
                        "", "-", "-", "-", "-")
                    medians.append(None)
                    continue
                med, q1, q3, spread = summary(samples)
                medians.append(med)
                mark = ""
                if name != "setup_s" and spread > bound:
                    mark = "!"
                    status = 1
                elif name != "setup_s" and spread > bound / 3:
                    mark = "*"
                row += " | n=%-3d %12.6g %12.6g %12.6g %6.3f%1s" % (
                    len(samples), med, q1, q3, spread, mark)
            if len(sets) == 2:
                base, new = medians
                if base is None or new is None:
                    row += " | %8s missing" % "-"
                    status = 1
                else:
                    change = (new - base) / abs(base) if base else 0.0
                    worse_by = change if metric["better"] == "lower" \
                        else -change
                    inside = worse_by <= bound
                    row += " | %+8.3f %s" % (
                        worse_by, "inside" if inside else "OUTSIDE")
                    status = status or (0 if inside else 1)
            print(row)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
